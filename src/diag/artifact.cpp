#include "diag/artifact.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/json.h"

namespace ms::diag {

bool write_text_file(const std::string& path, const std::string& content) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

bool read_text_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

bool parse_trace_jsonl(const std::string& text, std::vector<TraceSpan>& out,
                       std::string* error) {
  std::vector<TraceSpan> spans;
  const auto row = [&](json::Fields& f) {
    std::string type;
    f.text("type", type);
    if (type != "span") return;  // metrics mixed into the export
    TraceSpan& s = spans.emplace_back();
    f.integer("rank", s.rank);
    f.text("name", s.name);
    f.text("tag", s.tag);
    f.integer("start_ns", s.start);
    f.integer("end_ns", s.end, s.start);
    if (f.find("detail") != nullptr) f.text("detail", s.detail);
  };
  if (!json::parse_lines(text, row, error)) return false;
  out = std::move(spans);
  return true;
}

}  // namespace ms::diag
