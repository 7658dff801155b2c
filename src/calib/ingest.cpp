#include "calib/ingest.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "core/flags.h"
#include "core/json.h"
#include "diag/artifact.h"

namespace ms::calib {

namespace {

constexpr std::size_t kMaxWarnings = 8;

void warn(IngestResult& out, const std::string& msg) {
  if (out.warnings.size() < kMaxWarnings) out.warnings.push_back(msg);
}

/// Kineto pids/tids come as numbers or strings ("python 4021", "rank3",
/// "stream 7"). Numeric content (possibly with a textual prefix) resolves
/// to that number; anything else gets a dense id per distinct label.
class IdMapper {
 public:
  int resolve(const json::Value& v) {
    if (v.kind == json::Value::Kind::kNumber && std::isfinite(v.number)) {
      return static_cast<int>(v.number);
    }
    if (v.kind == json::Value::Kind::kString) {
      const std::string& s = v.str;
      // Trailing digit run: "python 4021" -> 4021, "rank3" -> 3.
      std::size_t end = s.size();
      while (end > 0 && std::isdigit(static_cast<unsigned char>(s[end - 1]))) {
        --end;
      }
      std::int64_t digits = 0;
      if (end < s.size() && s.size() - end <= 9 &&
          flags::parse_int(s.substr(end), digits)) {
        return static_cast<int>(digits);
      }
      auto it = labels_.find(s);
      if (it != labels_.end()) return it->second;
      const int id = next_++;
      labels_.emplace(s, id);
      return id;
    }
    return 0;
  }

 private:
  std::map<std::string, int> labels_;
  int next_ = 0;
};

std::string fmt_number_token(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.2e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Flattens a Kineto `args` object into the repo's `k=v` detail grammar.
/// A verbatim "detail" string arg (our own Chrome exporter round-trip) is
/// spliced in as-is; other keys have spaces sanitized to '_' so the token
/// stream stays parseable by diag::SpanAttrs.
std::string args_to_detail(const json::Value& args) {
  std::string detail;
  auto append = [&](const std::string& token) {
    if (!detail.empty()) detail += ' ';
    detail += token;
  };
  for (const auto& [key, value] : *args.object) {
    if (key == "detail" && value.kind == json::Value::Kind::kString) {
      append(value.str);
      continue;
    }
    std::string k = key;
    std::replace(k.begin(), k.end(), ' ', '_');
    std::replace(k.begin(), k.end(), '=', '_');
    switch (value.kind) {
      case json::Value::Kind::kString: {
        std::string v = value.str;
        std::replace(v.begin(), v.end(), ' ', '_');
        append(k + '=' + v);
        break;
      }
      case json::Value::Kind::kNumber:
        append(k + '=' + fmt_number_token(value.number));
        break;
      case json::Value::Kind::kBool:
        append(k + '=' + (value.boolean ? "1" : "0"));
        break;
      default:
        break;  // nested arrays/objects carry no calibration signal
    }
  }
  return detail;
}

TimeNs us_to_ns(double us) {
  // Round, don't truncate: integral-ns spans exported as fractional µs
  // (ns / 1000) must round-trip bit-exactly for the determinism digests.
  return static_cast<TimeNs>(
      std::llround(us * static_cast<double>(kNsPerUs)));
}

bool ingest_chrome_events(const json::Value& events, IngestResult& out,
                          std::string& error) {
  if (!events.is_array()) {
    error = "traceEvents is not an array";
    return false;
  }
  IdMapper pids;
  // Open "B" events per (pid, tid) — "E" pops the innermost (Kineto nests
  // begin/end per thread like a call stack).
  std::map<std::pair<int, int>, std::vector<diag::TraceSpan>> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events[i];
    if (!ev.is_object()) {
      ++out.skipped_events;
      warn(out, "event " + std::to_string(i) + ": not an object, skipped");
      continue;
    }
    const std::string ph = ev.text("ph", "X");
    const int pid = ev.has("pid") ? pids.resolve(ev.at("pid")) : 0;
    const int tid = ev.has("tid") ? pids.resolve(ev.at("tid")) : 0;

    if (ph == "M" || ph == "i" || ph == "I" || ph == "C" || ph == "s" ||
        ph == "t" || ph == "f" || ph == "N" || ph == "D" || ph == "O") {
      // Metadata / instants / counters / flows / object lifecycles: no
      // duration to calibrate against.
      ++out.skipped_events;
      continue;
    }

    diag::TraceSpan span;
    span.rank = pid;
    span.name = ev.text("name", "unnamed");
    span.tag = ev.text("cat");
    if (ev.has("args") && ev.at("args").is_object()) {
      span.detail = args_to_detail(ev.at("args"));
    }

    if (ph == "B") {
      span.start = us_to_ns(ev.num("ts"));
      open[{pid, tid}].push_back(std::move(span));
      continue;
    }
    if (ph == "E") {
      auto& stack = open[{pid, tid}];
      if (stack.empty()) {
        ++out.skipped_events;
        warn(out, "event " + std::to_string(i) + ": E without matching B");
        continue;
      }
      diag::TraceSpan done = std::move(stack.back());
      stack.pop_back();
      done.end = us_to_ns(ev.num("ts"));
      if (done.end < done.start) done.end = done.start;
      out.spans.push_back(std::move(done));
      continue;
    }
    if (ph == "X") {
      if (!ev.has("ts")) {
        ++out.skipped_events;
        warn(out, "event " + std::to_string(i) + ": X without ts");
        continue;
      }
      span.start = us_to_ns(ev.num("ts"));
      if (ev.has("dur")) {
        span.end = span.start + us_to_ns(ev.num("dur"));
      } else {
        // Kineto occasionally drops dur on truncated captures; keep the
        // span as zero-length so DAG ordering survives.
        span.end = span.start;
        warn(out, "event " + std::to_string(i) + " (" + span.name +
                      "): missing dur, kept as zero-length span");
      }
      out.spans.push_back(std::move(span));
      continue;
    }
    ++out.skipped_events;
    warn(out, "event " + std::to_string(i) + ": unknown ph \"" + ph +
                  "\", skipped");
  }
  for (const auto& [key, stack] : open) {
    out.skipped_events += stack.size();
    if (!stack.empty()) {
      warn(out, std::to_string(stack.size()) +
                    " unterminated B event(s) on pid " +
                    std::to_string(key.first));
    }
  }
  return true;
}

}  // namespace

TraceFormat detect_trace_format(const std::string& text) {
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (c == '[') return TraceFormat::kChromeTrace;
    if (c != '{') return TraceFormat::kUnknown;
    // A '{' opens either one big Chrome-trace object or the first line of
    // span JSONL; the cheap discriminator is whether the first line parses
    // as a standalone object.
    const std::size_t eol = text.find('\n');
    const std::string first =
        eol == std::string::npos ? text : text.substr(0, eol);
    json::Value v;
    if (json::parse(first, v) && v.is_object()) return TraceFormat::kSpanJsonl;
    return TraceFormat::kChromeTrace;
  }
  return TraceFormat::kUnknown;
}

bool ingest_trace(const std::string& text, IngestResult& out,
                  std::string& error) {
  out = IngestResult{};
  error.clear();
  const TraceFormat format = detect_trace_format(text);
  if (format == TraceFormat::kUnknown) {
    error = "unrecognized trace format (expected span JSONL or Chrome trace)";
    return false;
  }
  if (format == TraceFormat::kSpanJsonl) {
    if (!diag::parse_trace_jsonl(text, out.spans)) {
      error = "malformed span JSONL";
      return false;
    }
    return true;
  }
  json::Value root;
  if (!json::parse(text, root)) {
    error = "malformed Chrome-trace JSON";
    return false;
  }
  if (root.is_array()) return ingest_chrome_events(root, out, error);
  if (root.is_object()) {
    if (!root.has("traceEvents")) {
      error = "Chrome-trace object has no traceEvents array";
      return false;
    }
    return ingest_chrome_events(root.at("traceEvents"), out, error);
  }
  error = "Chrome-trace root is neither array nor object";
  return false;
}

bool ingest_trace_file(const std::string& path, IngestResult& out,
                       std::string& error) {
  std::string text;
  if (!diag::read_text_file(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  return ingest_trace(text, out, error);
}

}  // namespace ms::calib
