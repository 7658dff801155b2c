#include "chaos/campaign.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <thread>

#include "core/flags.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "diag/artifact.h"
#include "diag/flight_recorder.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"

namespace ms::chaos {

namespace {

/// Per-seed result slot: written by exactly one worker, read only after
/// the join barrier, so the slots themselves need no lock.
struct SeedOutcome {
  std::uint64_t seed = 0;
  FaultSchedule schedule;
  OutcomeRecord record;
  OracleVerdict verdict;
};

/// Work-stealing cursor over seed indices. Workers pull the next index so
/// skewed per-seed cost (a failing seed simulates far more than a passing
/// one) never idles a thread.
class SeedFanOut {
 public:
  explicit SeedFanOut(int n) : n_(n) {}

  /// Next unclaimed seed index, or -1 when the campaign is exhausted.
  int next() {
    MutexLock lock(mu_);
    return next_ < n_ ? next_++ : -1;
  }

 private:
  const int n_;
  Mutex mu_;
  int next_ MS_GUARDED_BY(mu_) = 0;
};

}  // namespace

OracleVerdict evaluate_outcome(const ChaosConfig& cfg,
                               const OutcomeRecord& record) {
  OracleVerdict verdict;
  char buf[160];
  if (record.undetected_faults > 0) {
    std::snprintf(buf, sizeof buf,
                  "%d injected fail-stop(s) were never detected "
                  "(detection hole in the recovery path)",
                  record.undetected_faults);
    verdict.pass = false;
    verdict.reason = buf;
    return verdict;
  }
  if (record.effective_time_ratio < cfg.min_effective_ratio) {
    std::snprintf(buf, sizeof buf,
                  "effective-time ratio %.3f below the %.3f floor",
                  record.effective_time_ratio, cfg.min_effective_ratio);
    verdict.pass = false;
    verdict.reason = buf;
    return verdict;
  }
  if (record.nccl_errors > 0 && record.restarts == 0 &&
      record.undetected_faults == 0) {
    // A flap aborted NCCL but no recovery ever ran — the abort was lost.
    verdict.pass = false;
    verdict.reason = "NCCL abort produced no restart";
    return verdict;
  }
  return verdict;
}

FaultSchedule shrink_schedule(const ChaosConfig& cfg,
                              const std::string& scenario_name,
                              std::uint64_t seed,
                              const FaultSchedule& failing) {
  auto fails = [&](const FaultSchedule& candidate) {
    const auto record = run_schedule(cfg, scenario_name, seed, candidate);
    return !evaluate_outcome(cfg, record).pass;
  };
  FaultSchedule current = failing;
  std::size_t granularity = 2;
  while (current.size() >= 2) {
    const std::size_t n = current.size();
    granularity = std::min(granularity, n);
    const std::size_t chunk = (n + granularity - 1) / granularity;
    bool reduced = false;
    // Try each complement (drop one chunk at a time).
    for (std::size_t start = 0; start < n; start += chunk) {
      FaultSchedule complement;
      complement.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (i < start || i >= start + chunk) complement.push_back(current[i]);
      }
      if (!complement.empty() && fails(complement)) {
        current = std::move(complement);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= n) break;  // 1-minimal
      granularity = std::min(n, granularity * 2);
    }
  }
  return current;
}

std::string repro_command(const std::string& scenario_name, std::uint64_t seed,
                          bool canary) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "chaos_campaign --scenario %s --seed %" PRIu64
                                 "%s",
                scenario_name.c_str(), seed, canary ? " --canary" : "");
  return buf;
}

CampaignResult run_campaign(const ChaosConfig& cfg, const Scenario& scenario,
                            std::uint64_t base_seed, int n_seeds) {
  CampaignResult result;
  result.scenario = scenario.name;
  result.base_seed = base_seed;
  result.seeds = n_seeds;
  if (n_seeds <= 0) return result;

  std::vector<SeedOutcome> slots(static_cast<std::size_t>(n_seeds));
  auto run_one = [&](int i) {
    SeedOutcome& slot = slots[static_cast<std::size_t>(i)];
    slot.seed =
        derive_seed(base_seed, "chaos.campaign", static_cast<std::uint64_t>(i));
    slot.schedule = generate_schedule(cfg, scenario, slot.seed);
    slot.record = run_schedule(cfg, scenario.name, slot.seed, slot.schedule);
    slot.verdict = evaluate_outcome(cfg, slot.record);
  };

  int workers = cfg.parallel_seeds;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (cfg.metrics != nullptr || cfg.flight != nullptr) {
    // Attached sinks record in run order; one thread keeps metric
    // registration order and flight-dump interleaving deterministic.
    workers = 1;
  }
  workers = std::clamp(workers, 1, n_seeds);

  if (workers > 1) {
    SeedFanOut cursor(n_seeds);
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (int i = cursor.next(); i >= 0; i = cursor.next()) run_one(i);
      });
    }
    for (auto& t : pool) t.join();
  } else {
    for (int i = 0; i < n_seeds; ++i) run_one(i);
  }

  // Sequential post-pass in seed order: telemetry export and ddmin
  // shrinking, so failure artifacts and counters come out identically at
  // any fan-out width.
  for (auto& slot : slots) {
    if (cfg.metrics != nullptr) {
      cfg.metrics
          ->counter("chaos_runs_total",
                    {{"scenario", scenario.name},
                     {"outcome", slot.verdict.pass ? "pass" : "fail"}})
          .add();
    }
    if (slot.verdict.pass) {
      ++result.passed;
    } else {
      CampaignFailure failure;
      failure.seed = slot.seed;
      failure.record = slot.record;
      failure.reason = slot.verdict.reason;
      failure.minimized =
          shrink_schedule(cfg, scenario.name, slot.seed, slot.schedule);
      failure.minimized_record =
          run_schedule(cfg, scenario.name, slot.seed, failure.minimized);
      failure.repro = repro_command(scenario.name, slot.seed, cfg.canary);
      result.failures.push_back(std::move(failure));
    }
    result.records.push_back(std::move(slot.record));
  }
  return result;
}

std::string write_failure_artifact(const std::string& dir,
                                   const CampaignFailure& failure) {
  char name[128];
  std::snprintf(name, sizeof name, "chaos-%s-seed%" PRIu64 ".json",
                failure.record.scenario.c_str(), failure.seed);
  std::string json = "{\n  \"reason\": \"" + failure.reason + "\",\n";
  json += "  \"repro\": \"" + failure.repro + "\",\n";
  json += "  \"record\": " + to_json(failure.record) + ",\n";
  json += "  \"minimized_record\": " + to_json(failure.minimized_record) +
          ",\n";
  json += "  \"minimized_schedule\": [\n";
  for (std::size_t i = 0; i < failure.minimized.size(); ++i) {
    json += "    \"" + describe(failure.minimized[i]) + "\"" +
            (i + 1 < failure.minimized.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";
  const std::string path = dir + "/" + name;
  return diag::write_text_file(path, json) ? path : "";
}

namespace {

// The slowest scenario (pfc-storm) runs 32 seeds in 1.2 s on a 4-core host,
// so 1,024 seeds take ~40 s; the nightly CI matrix runs 32.
constexpr int kMaxSeeds = 1024;

constexpr const char* kUsage =
    "usage: chaos_campaign --scenario <name> [--seeds N | --seed S]\n"
    "          [--base-seed B] [--canary] [--json]\n"
    "          [--artifact-dir DIR] [--flight-dir DIR] [--metrics]\n"
    "       chaos_campaign --list\n";

void print_record(std::ostream& out, const OutcomeRecord& r) {
  char line[256];
  std::snprintf(
      line, sizeof line,
      "  seed=%" PRIu64 " faults=%d restarts=%d undetected=%d"
      " eff=%.3f slowdown=%.3f steps_lost=%" PRId64
      " digest=0x%016" PRIx64 "\n",
      r.seed, r.faults_injected, r.restarts, r.undetected_faults,
      r.effective_time_ratio, r.slowdown_factor, r.steps_lost,
      r.record_digest);
  out << line;
}

void print_minimized(std::ostream& out, const FaultSchedule& minimized) {
  out << "  minimized to " << minimized.size() << " fault(s):\n";
  for (const auto& fault : minimized) out << "    " << describe(fault) << "\n";
}

}  // namespace

int chaos_campaign_main(const std::vector<std::string>& args,
                        std::ostream& out, std::ostream& err) {
  std::vector<std::string> scenario_names;
  for (const auto& s : scenarios()) scenario_names.emplace_back(s.name);
  std::string scenario_name;
  std::string artifact_dir;
  std::string flight_dir;
  std::uint64_t base_seed = 0xC405;  // "chaos"
  std::uint64_t single_seed = 0;
  int n_seeds = 8;
  bool list = false;
  bool canary = false;
  bool as_json = false;
  bool dump_metrics = false;

  flags::Parser p("chaos_campaign", kUsage);
  p.flag("--list", list);
  p.choice("--scenario", scenario_name, scenario_names);
  p.integer("--seeds", n_seeds, 1, kMaxSeeds);
  p.seed("--seed", single_seed);
  p.seed("--base-seed", base_seed);
  p.text("--artifact-dir", artifact_dir);
  p.text("--flight-dir", flight_dir);
  p.flag("--canary", canary);
  p.flag("--json", as_json);
  p.flag("--metrics", dump_metrics);
  if (!p.parse(args, err)) return 2;
  if (list) {
    for (const auto& s : scenarios()) {
      std::string name = s.name;
      if (name.size() < 22) name.resize(22, ' ');
      out << name << ' ' << s.summary << "\n";
    }
    return 0;
  }
  if (scenario_name.empty()) {
    err << kUsage;
    return 2;
  }
  const Scenario& scenario = *find_scenario(scenario_name);

  telemetry::MetricsRegistry metrics;
  ms::diag::FlightRecorder flight;
  ChaosConfig cfg;
  cfg.canary = canary;
  cfg.metrics = &metrics;
  if (!flight_dir.empty()) cfg.flight = &flight;

  // Post-mortem dumps (frozen by the AnomalyDetector at alarm time) become
  // msdiag-loadable JSONL artifacts; cap the count so a dense campaign
  // doesn't flood the artifact store.
  auto write_flight_dumps = [&] {
    if (flight_dir.empty()) return;
    constexpr std::size_t kMaxDumps = 16;
    const auto dumps = flight.dumps();
    for (std::size_t i = 0; i < dumps.size() && i < kMaxDumps; ++i) {
      char name[48];
      std::snprintf(name, sizeof(name), "flight-%03zu.jsonl", i);
      const std::string path = flight_dir + "/" + name;
      if (ms::diag::write_text_file(path,
                                    ms::diag::flight_dump_jsonl(dumps[i]))) {
        out << "flight dump: " << path << " (" << dumps[i].reason << ")\n";
      } else {
        err << "flight dump write failed: " << path << "\n";
      }
    }
  };
  auto print_metrics = [&] {
    if (dump_metrics) out << telemetry::prometheus_text(metrics.snapshot());
  };

  // --seed S: replay exactly one seed (the repro path).
  if (p.seen("--seed")) {
    const auto schedule = generate_schedule(cfg, scenario, single_seed);
    const auto record = run_schedule(cfg, scenario.name, single_seed, schedule);
    const auto verdict = evaluate_outcome(cfg, record);
    if (as_json) {
      out << to_json(record) << "\n";
    } else {
      out << scenario.name << " seed " << single_seed << ": "
          << (verdict.pass ? "PASS" : "FAIL") << "\n";
      print_record(out, record);
      if (!verdict.pass) {
        out << "  reason: " << verdict.reason << "\n";
        print_minimized(
            out, shrink_schedule(cfg, scenario.name, single_seed, schedule));
      }
    }
    print_metrics();
    write_flight_dumps();
    return verdict.pass ? 0 : 1;
  }

  const auto result = run_campaign(cfg, scenario, base_seed, n_seeds);
  if (as_json) {
    out << "[";
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      out << (i ? ",\n " : "") << to_json(result.records[i]);
    }
    out << "]\n";
  } else {
    out << "scenario " << result.scenario << ": " << result.passed << "/"
        << result.seeds << " seeds passed (base seed " << result.base_seed
        << (canary ? ", canary ON" : "") << ")\n";
    for (const auto& record : result.records) print_record(out, record);
  }
  for (const auto& failure : result.failures) {
    out << "FAIL seed=" << failure.seed << ": " << failure.reason << "\n";
    print_minimized(out, failure.minimized);
    out << "  repro: " << failure.repro << "\n";
    if (!artifact_dir.empty()) {
      const auto path = write_failure_artifact(artifact_dir, failure);
      if (!path.empty()) {
        out << "  artifact: " << path << "\n";
      } else {
        err << "  artifact write failed under " << artifact_dir << "\n";
      }
    }
  }
  print_metrics();
  write_flight_dumps();
  return result.failures.empty() ? 0 : 1;
}

}  // namespace ms::chaos
