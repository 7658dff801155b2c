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
/// "stream 7"). A number must be an integer in [0, INT_MAX]; a string's
/// trailing digit run resolves to that number; any other label gets a
/// dense id per distinct label.
class IdMapper {
 public:
  void resolve(json::Fields& f, const json::Value& ev, std::string_view key,
               int& id) {
    const json::Value* v = ev.find(key);
    if (v == nullptr) return;  // absent: the caller's default
    if (v->kind != json::Value::Kind::kString) return f.integer(key, id);
    const std::string& s = v->str;
    // Trailing digit run: "python 4021" -> 4021, "rank3" -> 3.
    std::size_t end = s.size();
    while (end > 0 && std::isdigit(static_cast<unsigned char>(s[end - 1]))) {
      --end;
    }
    std::int64_t digits = 0;
    if (end < s.size() && s.size() - end <= 9 &&
        flags::parse_int(s.substr(end), digits)) {
      id = static_cast<int>(digits);
      return;
    }
    auto it = labels_.find(s);
    if (it == labels_.end()) it = labels_.emplace(s, next_++).first;
    id = it->second;
  }

 private:
  std::map<std::string, int> labels_;
  int next_ = 0;
};

std::string fmt_number_token(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.2e18) {
    std::snprintf(buf, sizeof(buf), "%.0f", v + 0.0);  // + 0.0: no "-0"
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
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

// Chrome ts/dur are microseconds. Capping both at 4.6e15 us (146 years)
// keeps ts + dur in nanoseconds inside TimeNs.
constexpr flags::Interval kMicros{0.0, 4.6e15, false, false};

/// Reads the optional microsecond field `key` into `ns` (left as is when
/// absent).
void read_us(json::Fields& f, const json::Value& ev, std::string_view key,
             TimeNs& ns) {
  double us = 0;
  if (!ev.has(key)) return;
  f.real(key, us, kMicros);
  // Round, don't truncate: integral-ns spans exported as fractional µs
  // (ns / 1000) must round-trip bit-exactly for the determinism digests.
  if (f.ok()) ns = std::llround(us * static_cast<double>(kNsPerUs));
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
    // Every per-event field is optional, with the defaults below; one that
    // is present but mistyped or out of range skips the event.
    json::Fields f(ev);
    std::string ph = "X";
    int pid = 0, tid = 0;
    diag::TraceSpan span;
    span.name = "unnamed";
    TimeNs dur = 0;
    if (ev.has("ph")) f.text("ph", ph);
    pids.resolve(f, ev, "pid", pid);
    pids.resolve(f, ev, "tid", tid);
    if (ev.has("name")) f.text("name", span.name);
    if (ev.has("cat")) f.text("cat", span.tag);
    read_us(f, ev, "ts", span.start);
    read_us(f, ev, "dur", dur);
    if (!f.ok()) {
      ++out.skipped_events;
      warn(out, "event " + std::to_string(i) + ": " + f.error() + ", skipped");
      continue;
    }

    if (ph == "M" || ph == "i" || ph == "I" || ph == "C" || ph == "s" ||
        ph == "t" || ph == "f" || ph == "N" || ph == "D" || ph == "O") {
      // Metadata / instants / counters / flows / object lifecycles: no
      // duration to calibrate against.
      ++out.skipped_events;
      continue;
    }

    span.rank = pid;
    if (ev.has("args") && ev.at("args").is_object()) {
      span.detail = args_to_detail(ev.at("args"));
    }

    if (ph == "B") {
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
      done.end = std::max(span.start, done.start);
      out.spans.push_back(std::move(done));
      continue;
    }
    if (ph == "X") {
      if (!ev.has("ts")) {
        ++out.skipped_events;
        warn(out, "event " + std::to_string(i) + ": X without ts");
        continue;
      }
      span.end = span.start + dur;
      if (!ev.has("dur")) {
        // Kineto occasionally drops dur on truncated captures; keep the
        // span as zero-length so DAG ordering survives.
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
    // as a standalone object other than a one-line Chrome trace.
    const std::string_view first = std::string_view(text).substr(
        0, std::min(text.find('\n'), text.size()));
    json::Value v;
    if (json::parse(first, v) && v.is_object() && !v.has("traceEvents")) {
      return TraceFormat::kSpanJsonl;
    }
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
    return diag::parse_trace_jsonl(text, out.spans, &error);
  }
  json::Value root;
  std::size_t offset = 0;
  if (!json::parse(text, root, &offset)) {
    error = "byte " + std::to_string(offset) + ": malformed Chrome-trace JSON";
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
  if (diag::read_text_file(path, text, &error) &&
      ingest_trace(text, out, error)) {
    return true;
  }
  error = path + ": " + error;
  return false;
}

}  // namespace ms::calib
