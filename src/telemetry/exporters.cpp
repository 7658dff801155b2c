#include "telemetry/exporters.h"

#include <cctype>
#include <limits>
#include <sstream>

#include "core/json.h"

namespace ms::telemetry {

namespace {

std::string sanitize_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// {a="1"} -> `a="1"` body, optionally with an extra le="..." pair.
std::string prom_labels(const Labels& labels, const std::string& le = "") {
  if (labels.empty() && le.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize_name(k) + "=\"" + prom_escape(v) + '"';
  }
  if (!le.empty()) {
    if (!first) out += ',';
    out += "le=\"" + le + '"';
  }
  out += '}';
  return out;
}

std::string fmt_double(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void json_labels(std::ostringstream& out, const Labels& labels) {
  out << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ',';
    first = false;
    out << '"' << json::escape(k) << "\":\"" << json::escape(v) << '"';
  }
  out << '}';
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  std::string last_typed;
  for (const auto& s : snapshot.samples) {
    const std::string name = sanitize_name(s.name);
    if (name != last_typed) {
      out << "# TYPE " << name << ' ' << kind_name(s.kind) << '\n';
      last_typed = name;
    }
    switch (s.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out << name << prom_labels(s.labels) << ' ' << fmt_double(s.value)
            << '\n';
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        bool saw_inf = false;
        for (const auto& b : s.hist.nonzero_buckets()) {
          cumulative += b.count;
          const bool inf = b.hi == std::numeric_limits<double>::infinity();
          saw_inf |= inf;
          out << name << "_bucket"
              << prom_labels(s.labels, inf ? "+Inf" : fmt_double(b.hi)) << ' '
              << cumulative << '\n';
        }
        // The spec requires a +Inf bucket equal to _count even when no
        // sample overflowed the sketch range. (Samples that *did* overflow
        // land in the [kRangeHi, inf) bucket above and are additionally
        // counted by the synthetic telemetry_sketch_overflow_total series
        // the registry snapshot emits — overflow is never silent.)
        if (!saw_inf) {
          out << name << "_bucket" << prom_labels(s.labels, "+Inf") << ' '
              << s.hist.total() << '\n';
        }
        out << name << "_sum" << prom_labels(s.labels) << ' '
            << fmt_double(s.hist.sum()) << '\n';
        out << name << "_count" << prom_labels(s.labels) << ' '
            << s.hist.total() << '\n';
        break;
      }
    }
  }
  return out.str();
}

std::string jsonl_metrics(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& s : snapshot.samples) {
    out << "{\"type\":\"" << kind_name(s.kind) << "\",\"name\":\""
        << json::escape(s.name) << "\",\"labels\":";
    json_labels(out, s.labels);
    if (s.kind == MetricKind::kHistogram) {
      out << ",\"count\":" << s.hist.total() << ",\"sum\":"
          << fmt_double(s.hist.sum()) << ",\"min\":" << fmt_double(s.hist.min())
          << ",\"max\":" << fmt_double(s.hist.max())
          << ",\"p50\":" << fmt_double(s.hist.p50())
          << ",\"p99\":" << fmt_double(s.hist.p99());
    } else {
      out << ",\"value\":" << fmt_double(s.value);
    }
    out << "}\n";
  }
  return out.str();
}

std::string jsonl_spans(const std::vector<diag::TraceSpan>& spans) {
  std::ostringstream out;
  for (const auto& s : spans) {
    out << "{\"type\":\"span\",\"rank\":" << s.rank << ",\"name\":\""
        << json::escape(s.name) << "\",\"tag\":\"" << json::escape(s.tag)
        << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end;
    if (!s.detail.empty()) {
      out << ",\"detail\":\"" << json::escape(s.detail) << '"';
    }
    out << "}\n";
  }
  return out.str();
}

std::string chrome_trace(const Tracer& tracer) {
  return tracer.timeline().chrome_trace_json();
}

}  // namespace ms::telemetry
