#include "chaos/outcome.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "check/digest.h"
#include "core/json.h"

namespace ms::chaos {

namespace {

void fold_double(check::Digest& digest, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  digest.fold(bits);
}

void fold_latency(check::Digest& digest, const LatencyStats& stats) {
  digest.fold(static_cast<std::int64_t>(stats.count));
  digest.fold(stats.mean);
  digest.fold(stats.p50);
  digest.fold(stats.p95);
  digest.fold(stats.max);
}

}  // namespace

std::uint64_t compute_record_digest(const OutcomeRecord& record) {
  check::Digest digest;
  digest.fold(std::string_view(record.scenario));
  digest.fold(record.seed);
  fold_double(digest, record.effective_time_ratio);
  fold_double(digest, record.slowdown_factor);
  digest.fold(static_cast<std::int64_t>(record.faults_injected));
  digest.fold(static_cast<std::int64_t>(record.restarts));
  digest.fold(static_cast<std::int64_t>(record.undetected_faults));
  digest.fold(record.steps_lost);
  fold_latency(digest, record.detect_latency);
  fold_latency(digest, record.recovery_latency);
  digest.fold(record.ckpt_stall_total);
  digest.fold(record.flap_stall_total);
  digest.fold(static_cast<std::int64_t>(record.nccl_errors));
  fold_double(digest, record.pfc_pause_fraction);
  fold_double(digest, record.ecmp_conflict_fraction);
  digest.fold(static_cast<std::int64_t>(record.spare_pool_exhausted));
  digest.fold(static_cast<std::int64_t>(record.fabric_localizations));
  digest.fold(static_cast<std::int64_t>(record.fabric_top1_correct));
  digest.fold(static_cast<std::int64_t>(record.fabric_alarms));
  digest.fold(record.fabric_detect_latency);
  digest.fold(record.schedule_digest);
  digest.fold(record.engine_digest);
  return digest.value();
}

bool identical(const OutcomeRecord& a, const OutcomeRecord& b) {
  return a.scenario == b.scenario && a.seed == b.seed &&
         compute_record_digest(a) == compute_record_digest(b) &&
         a.record_digest == b.record_digest;
}

namespace {

void diff_close(std::vector<std::string>& out, const char* field, double got,
                double want, double tol) {
  if (std::fabs(got - want) > tol) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s: got %.6g, want %.6g (tol %.3g)", field,
                  got, want, tol);
    out.push_back(buf);
  }
}

void diff_exact(std::vector<std::string>& out, const char* field,
                std::int64_t got, std::int64_t want) {
  if (got != want) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s: got %" PRId64 ", want %" PRId64, field,
                  got, want);
    out.push_back(buf);
  }
}

void diff_latency(std::vector<std::string>& out, const char* prefix,
                  const LatencyStats& got, const LatencyStats& want,
                  double frac) {
  std::string name = std::string(prefix) + ".count";
  diff_exact(out, name.c_str(), got.count, want.count);
  const auto close = [&](const char* leaf, TimeNs g, TimeNs w) {
    // Relative slack plus 1 ms absolute so near-zero latencies don't flap.
    const double tol = frac * static_cast<double>(w < 0 ? -w : w) +
                       static_cast<double>(milliseconds(1.0));
    name = std::string(prefix) + "." + leaf;
    diff_close(out, name.c_str(), static_cast<double>(g), static_cast<double>(w),
               tol);
  };
  close("mean", got.mean, want.mean);
  close("p50", got.p50, want.p50);
  close("p95", got.p95, want.p95);
  close("max", got.max, want.max);
}

}  // namespace

std::vector<std::string> diff_outcomes(const OutcomeRecord& got,
                                       const OutcomeRecord& want,
                                       const Tolerance& tol) {
  std::vector<std::string> out;
  if (got.scenario != want.scenario) {
    out.push_back("scenario: got " + got.scenario + ", want " + want.scenario);
  }
  diff_exact(out, "seed", static_cast<std::int64_t>(got.seed),
             static_cast<std::int64_t>(want.seed));
  diff_close(out, "effective_time_ratio", got.effective_time_ratio,
             want.effective_time_ratio, tol.ratio);
  diff_close(out, "slowdown_factor", got.slowdown_factor, want.slowdown_factor,
             tol.ratio);
  diff_exact(out, "faults_injected", got.faults_injected, want.faults_injected);
  diff_exact(out, "restarts", got.restarts, want.restarts);
  diff_exact(out, "undetected_faults", got.undetected_faults,
             want.undetected_faults);
  diff_exact(out, "steps_lost", got.steps_lost, want.steps_lost);
  diff_latency(out, "detect_latency", got.detect_latency, want.detect_latency,
               tol.latency_frac);
  diff_latency(out, "recovery_latency", got.recovery_latency,
               want.recovery_latency, tol.latency_frac);
  diff_exact(out, "nccl_errors", got.nccl_errors, want.nccl_errors);
  diff_close(out, "pfc_pause_fraction", got.pfc_pause_fraction,
             want.pfc_pause_fraction, tol.ratio);
  diff_close(out, "ecmp_conflict_fraction", got.ecmp_conflict_fraction,
             want.ecmp_conflict_fraction, tol.ratio);
  diff_exact(out, "spare_pool_exhausted", got.spare_pool_exhausted,
             want.spare_pool_exhausted);
  diff_exact(out, "fabric_localizations", got.fabric_localizations,
             want.fabric_localizations);
  diff_exact(out, "fabric_top1_correct", got.fabric_top1_correct,
             want.fabric_top1_correct);
  diff_exact(out, "fabric_alarms", got.fabric_alarms, want.fabric_alarms);
  // Same slack scheme as the latency leaves: relative plus 1 ms absolute.
  diff_close(out, "fabric_detect_latency",
             static_cast<double>(got.fabric_detect_latency),
             static_cast<double>(want.fabric_detect_latency),
             tol.latency_frac *
                     std::fabs(static_cast<double>(want.fabric_detect_latency)) +
                 static_cast<double>(milliseconds(1.0)));
  return out;
}

// ------------------------------------------------------------------ JSON

namespace {

void emit(std::string& out, const char* key, double v, bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%.17g%s", key, v, last ? "" : ",");
  out += buf;
}

void emit_i(std::string& out, const char* key, std::int64_t v,
            bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRId64 "%s", key, v,
                last ? "" : ",");
  out += buf;
}

void emit_hex(std::string& out, const char* key, std::uint64_t v,
              bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":\"0x%016" PRIx64 "\"%s", key, v,
                last ? "" : ",");
  out += buf;
}

void emit_latency(std::string& out, const char* key, const LatencyStats& s) {
  out += '"';
  out += key;
  out += "\":{";
  emit_i(out, "count", s.count);
  emit_i(out, "mean_ns", s.mean);
  emit_i(out, "p50_ns", s.p50);
  emit_i(out, "p95_ns", s.p95);
  emit_i(out, "max_ns", s.max, /*last=*/true);
  out += "},";
}

void read_latency(json::Fields f, LatencyStats& s) {
  f.integer("count", s.count);
  f.integer("mean_ns", s.mean);
  f.integer("p50_ns", s.p50);
  f.integer("p95_ns", s.p95);
  f.integer("max_ns", s.max);
}

}  // namespace

std::string to_json(const OutcomeRecord& r) {
  std::string out = "{";
  out += "\"scenario\":\"" + r.scenario + "\",";
  emit_i(out, "seed", static_cast<std::int64_t>(r.seed));
  emit(out, "effective_time_ratio", r.effective_time_ratio);
  emit(out, "slowdown_factor", r.slowdown_factor);
  emit_i(out, "faults_injected", r.faults_injected);
  emit_i(out, "restarts", r.restarts);
  emit_i(out, "undetected_faults", r.undetected_faults);
  emit_i(out, "steps_lost", r.steps_lost);
  emit_latency(out, "detect_latency", r.detect_latency);
  emit_latency(out, "recovery_latency", r.recovery_latency);
  emit_i(out, "ckpt_stall_total_ns", r.ckpt_stall_total);
  emit_i(out, "flap_stall_total_ns", r.flap_stall_total);
  emit_i(out, "nccl_errors", r.nccl_errors);
  emit(out, "pfc_pause_fraction", r.pfc_pause_fraction);
  emit(out, "ecmp_conflict_fraction", r.ecmp_conflict_fraction);
  emit_i(out, "spare_pool_exhausted", r.spare_pool_exhausted);
  emit_i(out, "fabric_localizations", r.fabric_localizations);
  emit_i(out, "fabric_top1_correct", r.fabric_top1_correct);
  emit_i(out, "fabric_alarms", r.fabric_alarms);
  emit_i(out, "fabric_detect_latency_ns", r.fabric_detect_latency);
  emit_hex(out, "schedule_digest", r.schedule_digest);
  emit_hex(out, "engine_digest", r.engine_digest);
  emit_hex(out, "record_digest", r.record_digest, /*last=*/true);
  out += "}";
  return out;
}

bool from_json(const std::string& text, OutcomeRecord& out) {
  json::Value v;
  if (!json::parse(text, v)) return false;
  OutcomeRecord r;
  std::int64_t seed = 0;
  json::Fields f(v);
  f.text("scenario", r.scenario);
  f.integer("seed", seed, std::numeric_limits<std::int64_t>::min());
  f.real("effective_time_ratio", r.effective_time_ratio);
  f.real("slowdown_factor", r.slowdown_factor);
  f.integer("faults_injected", r.faults_injected);
  f.integer("restarts", r.restarts);
  f.integer("undetected_faults", r.undetected_faults);
  f.integer("steps_lost", r.steps_lost);
  read_latency(f.object("detect_latency"), r.detect_latency);
  read_latency(f.object("recovery_latency"), r.recovery_latency);
  f.integer("ckpt_stall_total_ns", r.ckpt_stall_total);
  f.integer("flap_stall_total_ns", r.flap_stall_total);
  f.integer("nccl_errors", r.nccl_errors);
  f.real("pfc_pause_fraction", r.pfc_pause_fraction);
  f.real("ecmp_conflict_fraction", r.ecmp_conflict_fraction);
  f.integer("spare_pool_exhausted", r.spare_pool_exhausted);
  f.integer("fabric_localizations", r.fabric_localizations);
  f.integer("fabric_top1_correct", r.fabric_top1_correct);
  f.integer("fabric_alarms", r.fabric_alarms);
  f.integer("fabric_detect_latency_ns", r.fabric_detect_latency);
  f.hex("schedule_digest", r.schedule_digest);
  f.hex("engine_digest", r.engine_digest);
  f.hex("record_digest", r.record_digest);
  if (!f.ok()) return false;
  // to_json writes the uint64 seed's bits as an int64.
  r.seed = static_cast<std::uint64_t>(seed);
  out = r;
  return true;
}

}  // namespace ms::chaos
