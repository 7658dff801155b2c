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

bool parse_trace_jsonl(const std::string& text, std::vector<TraceSpan>& out) {
  std::vector<TraceSpan> spans;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value v;
    if (!json::parse(line, v) || !v.is_object()) return false;
    if (v.text("type") != "span") continue;  // metrics mixed into the export
    TraceSpan s;
    s.rank = static_cast<int>(v.num("rank"));
    s.name = v.text("name");
    s.tag = v.text("tag");
    s.start = static_cast<TimeNs>(v.num("start_ns"));
    s.end = static_cast<TimeNs>(v.num("end_ns"));
    s.detail = v.text("detail");
    spans.push_back(std::move(s));
  }
  out = std::move(spans);
  return true;
}

}  // namespace ms::diag
