#include "prof/report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "check/digest.h"
#include "core/json.h"
#include "core/table.h"

namespace ms::prof {

namespace {

constexpr double kNsPerMs = 1'000'000.0;
constexpr double kNsPerUs = 1'000.0;
constexpr double kKilo = 1'000.0;

std::string fmt_ms(double ns) { return Table::fmt(ns / kNsPerMs, 3); }
std::string fmt_us(double ns) { return Table::fmt(ns / kNsPerUs, 2); }

}  // namespace

double ProfileReport::attributed_fraction() const {
  if (wall_ns == 0) return 0.0;
  std::uint64_t self = 0;
  for (const ScopeStats& s : scopes) self += s.self_ns;
  return static_cast<double>(self) / static_cast<double>(wall_ns);
}

double ProfileReport::events_per_sec() const {
  const double secs = wall_to_seconds(static_cast<WallNs>(wall_ns));
  return secs > 0 ? static_cast<double>(events) / secs : 0.0;
}

std::uint64_t ProfileReport::digest() const {
  // Name order, not rank order: rank depends on wall-clock values, which
  // must never influence the digest.
  std::vector<const ScopeStats*> ordered;
  ordered.reserve(scopes.size());
  for (const ScopeStats& s : scopes) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const ScopeStats* a, const ScopeStats* b) {
              return a->name < b->name;
            });
  check::Digest d;
  d.fold(std::string_view("profile"));
  d.fold(std::string_view(workload));
  for (const ScopeStats* s : ordered) {
    d.fold(std::string_view(s->name));
    d.fold(s->count);
  }
  return d.value();
}

std::string ProfileReport::to_jsonl() const {
  std::ostringstream out;
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest()));
  out << "{\"kind\":\"profile\",\"workload\":\"" << json::escape(workload)
      << "\",\"wall_ns\":" << wall_ns << ",\"events\":" << events
      << ",\"digest\":\"" << digest_hex << "\"}\n";
  char quantiles[96];
  for (const ScopeStats& s : scopes) {
    std::snprintf(quantiles, sizeof(quantiles),
                  ",\"p50_ns\":%.17g,\"p99_ns\":%.17g}\n", s.p50_ns,
                  s.p99_ns);  // round-trip exact
    out << "{\"kind\":\"scope\",\"name\":\"" << json::escape(s.name)
        << "\",\"count\":" << s.count << ",\"total_ns\":" << s.total_ns
        << ",\"self_ns\":" << s.self_ns << ",\"min_ns\":" << s.min_ns
        << ",\"max_ns\":" << s.max_ns << quantiles;
  }
  return out.str();
}

std::string ProfileReport::render(std::size_t top_k) const {
  std::ostringstream out;
  out << "profile: " << workload << "\n"
      << "  wall " << fmt_ms(static_cast<double>(wall_ns)) << " ms | "
      << Table::fmt_int(static_cast<long long>(events)) << " events | "
      << Table::fmt(events_per_sec() / kKilo, 0) << "k events/s | "
      << Table::fmt_pct(attributed_fraction()) << " attributed\n";
  Table table({"scope", "count", "self ms", "self %", "total ms", "mean us",
               "p50 us", "p99 us", "max us"});
  std::size_t shown = 0;
  for (const ScopeStats& s : scopes) {
    if (shown++ >= top_k) break;
    const double mean_ns =
        s.count ? static_cast<double>(s.total_ns) / static_cast<double>(s.count)
                : 0.0;
    const double self_frac =
        wall_ns ? static_cast<double>(s.self_ns) / static_cast<double>(wall_ns)
                : 0.0;
    table.add_row({s.name, Table::fmt_int(static_cast<long long>(s.count)),
                   fmt_ms(static_cast<double>(s.self_ns)),
                   Table::fmt_pct(self_frac),
                   fmt_ms(static_cast<double>(s.total_ns)), fmt_us(mean_ns),
                   fmt_us(s.p50_ns), fmt_us(s.p99_ns),
                   fmt_us(static_cast<double>(s.max_ns))});
  }
  out << table.to_string();
  if (scopes.size() > top_k) {
    out << "  (" << scopes.size() - top_k << " more scopes below the fold)\n";
  }
  return out.str();
}

ProfileReport capture(const std::string& workload, WallNs wall_ns,
                      std::uint64_t events) {
  ProfileReport report;
  report.workload = workload;
  report.wall_ns = wall_ns > 0 ? static_cast<std::uint64_t>(wall_ns) : 0;
  report.events = events;
  for (const ScopeSnapshot& snap : snapshot()) {
    ScopeStats s;
    s.name = snap.name;
    s.count = snap.count;
    s.total_ns = snap.total_ns;
    s.self_ns = snap.self_ns;
    s.min_ns = snap.min_ns;
    s.max_ns = snap.max_ns;
    // Log2-bucket midpoints can land outside the samples' own range.
    const auto lo = static_cast<double>(snap.min_ns);
    const auto hi = static_cast<double>(snap.max_ns);
    s.p50_ns = std::clamp(snap.hist_ns.p50(), lo, hi);
    s.p99_ns = std::clamp(snap.hist_ns.p99(), lo, hi);
    report.scopes.push_back(std::move(s));
  }
  std::sort(report.scopes.begin(), report.scopes.end(),
            [](const ScopeStats& a, const ScopeStats& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;  // deterministic tie-break
            });
  return report;
}

bool parse_jsonl(const std::string& text, ProfileReport& out,
                 std::string* error) {
  ProfileReport report;
  bool saw_header = false;
  const auto row = [&](json::Fields& f) {
    std::string kind;
    f.text("kind", kind);
    if (kind == "profile") {
      saw_header = true;
      f.text("workload", report.workload);
      f.integer("wall_ns", report.wall_ns);
      f.integer("events", report.events);
    } else if (kind == "scope" && saw_header) {
      ScopeStats& s = report.scopes.emplace_back();
      f.text("name", s.name);
      f.integer("count", s.count);
      f.integer("total_ns", s.total_ns);
      f.integer("self_ns", s.self_ns);
      f.integer("min_ns", s.min_ns);
      f.integer("max_ns", s.max_ns);
      f.real("p50_ns", s.p50_ns, flags::kNonNegative);
      f.real("p99_ns", s.p99_ns, flags::kNonNegative);
    } else {
      f.fail("unexpected \"" + kind + "\" line" +
             (saw_header ? "" : " before the profile header"));
    }
  };
  if (!json::parse_lines(text, row, error)) return false;
  if (!saw_header) return json::fail(error, "missing profile header line");
  out = std::move(report);
  return true;
}

std::string render_diff(const ProfileReport& base, const ProfileReport& cand,
                        std::size_t top_k) {
  std::ostringstream out;
  out << "diff: " << base.workload << " -> " << cand.workload << "\n";
  const double base_wall = static_cast<double>(base.wall_ns);
  const double cand_wall = static_cast<double>(cand.wall_ns);
  const double wall_delta =
      base_wall > 0 ? (cand_wall - base_wall) / base_wall : 0.0;
  out << "  wall " << fmt_ms(base_wall) << " -> " << fmt_ms(cand_wall)
      << " ms (" << Table::fmt_pct(wall_delta) << ") | events/s "
      << Table::fmt(base.events_per_sec() / kKilo, 0) << "k -> "
      << Table::fmt(cand.events_per_sec() / kKilo, 0) << "k\n";

  std::map<std::string, const ScopeStats*> base_by_name;
  for (const ScopeStats& s : base.scopes) base_by_name[s.name] = &s;
  std::map<std::string, const ScopeStats*> cand_by_name;
  for (const ScopeStats& s : cand.scopes) cand_by_name[s.name] = &s;

  Table table({"scope", "base self ms", "cand self ms", "delta", "base n",
               "cand n"});
  std::size_t shown = 0;
  for (const ScopeStats& s : cand.scopes) {
    if (shown++ >= top_k) break;
    const ScopeStats* b = nullptr;
    auto it = base_by_name.find(s.name);
    if (it != base_by_name.end()) b = it->second;
    const double b_self = b ? static_cast<double>(b->self_ns) : 0.0;
    const double c_self = static_cast<double>(s.self_ns);
    const std::string delta =
        b_self > 0 ? Table::fmt_pct((c_self - b_self) / b_self) : "new";
    table.add_row({s.name, b ? fmt_ms(b_self) : "-", fmt_ms(c_self), delta,
                   b ? Table::fmt_int(static_cast<long long>(b->count)) : "-",
                   Table::fmt_int(static_cast<long long>(s.count))});
  }
  // Scopes that vanished are regressions' best friends: show them too.
  for (const auto& [name, b] : base_by_name) {
    if (cand_by_name.count(name) != 0) continue;
    table.add_row({name, fmt_ms(static_cast<double>(b->self_ns)), "-", "gone",
                   Table::fmt_int(static_cast<long long>(b->count)), "-"});
  }
  out << table.to_string();
  return out.str();
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::uint64_t dropped) {
  // Normalize to the earliest start so ts starts near 0 (Perfetto keeps
  // full double precision near the origin).
  WallNs t0 = 0;
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (first || ev.start < t0) t0 = ev.start;
    first = false;
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":"
      << dropped << "},\"traceEvents\":[";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{"
         "\"name\":\"megascale-sim (self)\"}}";
  // One thread-name metadata record per distinct tid, in tid order.
  std::map<std::uint32_t, bool> tids;
  for (const TraceEvent& ev : events) tids[ev.tid] = true;
  for (const auto& [tid, unused] : tids) {
    (void)unused;
    out << ",{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"sim-thread-"
        << tid << "\"}}";
  }
  std::string x_events;
  for (const TraceEvent& ev : events) {
    x_events += ',';
    json::append_complete_event(x_events, scope_name(ev.id), "prof", 1, ev.tid,
                                ev.start - t0, ev.dur);
  }
  out << x_events;
  out << "]}\n";
  return out.str();
}

}  // namespace ms::prof
