// perfbench: one named workload, one seed, one fixed task list.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only]
//
// --seconds sizes the task list (a fixed count per run length, never a
// wall-clock budget). --trace 0 runs every task untraced and prints the
// end-to-end metrics; --trace 1 traces every other round of tasks and
// prints every layer and count it recorded, the coverage and the tracing
// overhead. --setup-only stops after set-up and prints its time. The last
// line of stdout is one JSON object: correct, attempted, failed and
// metrics (name -> value); run.py turns it into BENCHMARK.json's metrics.
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check/digest.h"
#include "harness.h"

namespace {

using perfbench::Clock;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--setup-only]\nworkloads:",
               why);
  for (const auto& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, unsigned long long max, unsigned long long& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0' && out <= max;
}

// The process's own peak resident memory: VmHWM of its address space.
// getrusage's ru_maxrss would not do: Linux carries it across execve, so a
// workload smaller than the launching process reads the launcher's size.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Metric values by name; run.py attaches the units and picks the metrics
// BENCHMARK.json names.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::map<std::string, double>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    json += std::string(first ? "" : ", ") + "\"" + name + "\": " + fmt(v);
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string workload;
  unsigned long long seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (value == nullptr) return usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      have_seed = parse_u64(value, ~0ull, seed);
      if (!have_seed) return usage("--seed takes a non-negative integer");
    } else if (arg == "--seconds") {
      have_seconds = parse_u64(value, 3600, seconds) && seconds >= 1;
      if (!have_seconds) return usage("--seconds takes an integer in [1, 3600]");
    } else if (arg == "--trace") {
      have_trace = parse_u64(value, 1, trace);
      if (!have_trace) return usage("--trace takes 0 or 1");
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const perfbench::WorkloadInfo* info = perfbench::find_workload(workload);
  if (info == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  const int n = perfbench::task_count(*info, static_cast<double>(seconds));
  auto w = info->make(seed, n);
  perfbench::Spans spans;
  perfbench::Spans* traced = trace == 1 ? &spans : nullptr;
  w->setup(traced);
  const double setup_s = perfbench::seconds_since(process_start);
  if (setup_only) {
    std::printf("{\"setup_s\": %s}\n", fmt(setup_s).c_str());
    return 0;
  }

  std::printf("perfbench %s seed=%llu seconds=%llu trace=%llu: %d tasks "
              "(fixed), closed loop, 1 client\n",
              info->name, seed, seconds, trace, n);
  std::printf("envelope: build_type=%s MS_PROF=%s MS_AUDIT=%s compiler=\"%s\" "
              "nproc=%u\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_MS_PROF, PERFBENCH_MS_AUDIT,
              PERFBENCH_COMPILER, std::thread::hardware_concurrency());

  // The traced run traces every other round of kinds, so both halves see
  // the same task mix and the same host drift.
  std::vector<perfbench::TaskRecord> records;
  std::vector<double> times, plain_times, traced_times;
  const std::vector<std::string> list = w->task_list();
  std::map<std::string, std::vector<double>> by_kind;
  ms::check::Digest output;
  for (int i = 0; i < n; ++i) {
    const bool trace_this = traced != nullptr && (i / info->kinds) % 2 == 1;
    auto rec = perfbench::execute(*w, i, trace_this ? traced : nullptr);
    output.fold(rec.digest);
    if (!rec.crashed) {
      times.push_back(rec.seconds);
      (trace_this ? traced_times : plain_times).push_back(rec.seconds);
      const std::string& line = list[static_cast<std::size_t>(i)];
      by_kind[line.substr(0, line.find(' '))].push_back(rec.seconds);
    }
    records.push_back(rec);
  }

  // Determinism: task 0's inputs again, from a fresh start.
  perfbench::TaskRecord again;
  try {
    again.digest = w->rerun_first();
    again.passed = again.digest == records.front().digest;
  } catch (const std::exception&) {
    again.crashed = true;
  }
  std::printf("determinism: task 0 digest 0x%016llx, re-run 0x%016llx: %s\n",
              static_cast<unsigned long long>(records.front().digest),
              static_cast<unsigned long long>(again.digest),
              again.passed ? "match" : "MISMATCH");
  records.push_back(again);
  std::printf("output digest: 0x%016llx\n",
              static_cast<unsigned long long>(output.value()));

  const auto extra = w->finish(traced);
  for (const auto& [name, value] : extra) {
    std::printf("%s: %.9g (bits 0x%016llx)\n", name.c_str(), value,
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
  }
  for (const auto& [kind, t] : by_kind) {
    std::printf("kind %-22s %4zu tasks, p50 %.4f s\n", kind.c_str(), t.size(),
                perfbench::median(t));
  }

  std::size_t failed = 0;
  for (const auto& r : records) failed += r.passed ? 0 : 1;
  const bool correct = failed == 0;
  std::map<std::string, double> metrics;
  if (traced == nullptr) {
    const auto tail = perfbench::tail(times);
    double total = 0;
    for (double t : times) total += t;
    // Printed, not a metric: with 10 tasks beyond it, the tail reads the
    // run's slowest second of host time, which varies too much between
    // runs to gate on (see README.md).
    std::printf("task_s_tail: %.6f s at p%.1f over %zu tasks (10 beyond)\n",
                tail ? tail->value : 0.0, tail ? tail->percentile : 0.0,
                times.size());
    metrics = {
        {"setup_s", setup_s},
        {"task_s_p50", perfbench::median(times)},
        {"tasks_per_s", total > 0 ? times.size() / total : 0.0},
        {"peak_rss_mb", peak_rss_mb()},
        {"ok_frac", perfbench::ok_frac(records)},
    };
  } else {
    double traced_total = 0;
    for (double t : traced_times) traced_total += t;
    spans.set("coverage", traced_total > 0 ? spans.covered_s() / traced_total : 0);
    const double plain_p50 = perfbench::median(plain_times);
    spans.set("tracing_overhead",
              plain_p50 > 0 ? perfbench::median(traced_times) / plain_p50 : 0);
    std::printf("traced %zu of %zu tasks; coverage = covered busy / traced "
                "task time; tracing_overhead = traced p50 / untraced p50\n",
                traced_times.size(), times.size());
    // Every layer and count the workload recorded; a derived count (e.g.
    // plan_search's engine busy time) is written after the layers.
    for (const auto& [layer, l] : spans.layers()) {
      metrics[layer + ".calls"] = static_cast<double>(l.calls);
      metrics[layer + ".busy_s"] = l.busy_s;
    }
    for (const auto& [name, v] : spans.counts()) metrics[name] = v;
  }
  print_result(correct, records.size(), failed, metrics);
  return 0;
}
