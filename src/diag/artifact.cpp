#include "diag/artifact.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>

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

bool read_text_file(const std::string& path, std::string& out,
                    std::string* error) {
  const auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  const auto too_large = [&fail] {
    return fail("larger than " + std::to_string(kMaxTextFileBytes) +
                " bytes");
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot read");
  std::string text;
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec && size > kMaxTextFileBytes) return too_large();
    if (!ec) text.reserve(static_cast<std::size_t>(size));
  }
  std::array<char, 64 * 1024> chunk;
  while (in) {
    // Ask for at most one byte past the cap, so an endless input stops
    // there.
    const std::uintmax_t room = kMaxTextFileBytes + 1 - text.size();
    in.read(chunk.data(), static_cast<std::streamsize>(
                              std::min<std::uintmax_t>(chunk.size(), room)));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (text.size() + got > kMaxTextFileBytes) return too_large();
    text.append(chunk.data(), got);
  }
  if (in.bad()) return fail("cannot read");
  out = std::move(text);
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
