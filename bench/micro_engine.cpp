// The engine-core baseline: how fast is the discrete-event engine itself?
//
// Everything the simulator reports rides on sim::Engine's pop/dispatch
// loop, and ROADMAP item 2 proposes rebuilding that loop for >=10x. This
// bench is the committed before-picture: it times prof::run_micro_engine
// — the EXACT workload `msprof run micro_engine` profiles — with the
// profiler dormant (the production configuration) and gates the
// structural counters plus events/sec against bench/baselines/.
//
//   events/sec, ns/event        gated loosely (host-dependent, 50%)
//   executed, peak queue        gated exactly (structural: any drift is
//                               a behavior change, not noise)
//
// A second, profiler-ENABLED run records the instrumented cost as ungated
// info() so the per-event price of MS_PROF stays visible next to the
// numbers it taxes. Artifact: BENCH_micro_engine.json.
#include <cstdio>

#include "bench/common.h"
#include "core/table.h"
#include "core/wallclock.h"
#include "prof/msprof.h"
#include "prof/profiler.h"

using namespace ms;

namespace {

constexpr double kWallNsPerSec = 1'000'000'000.0;
constexpr double kWallNsPerMs = 1'000'000.0;
constexpr double kMega = 1'000'000.0;

struct TimedRun {
  prof::WorkloadResult result;
  WallNs wall = 0;
};

TimedRun timed_run(int repeat) {
  TimedRun best;
  for (int r = 0; r < repeat; ++r) {
    const WallNs t0 = wallclock_ns();
    prof::WorkloadResult result = prof::run_micro_engine();
    const WallNs wall = wallclock_ns() - t0;
    if (best.wall == 0 || wall < best.wall) best = {result, wall};
  }
  return best;
}

}  // namespace

int main() {
  std::printf("=== micro_engine: sim::Engine hot-loop baseline ===\n\n");

  constexpr int kRepeat = 3;
  prof::set_enabled(false);
  const TimedRun dormant = timed_run(kRepeat);

  prof::reset();
  prof::set_enabled(true);
  const TimedRun enabled = timed_run(kRepeat);
  prof::set_enabled(false);

  const auto& res = dormant.result;
  const double events = static_cast<double>(res.events);
  const double dormant_eps =
      events / (static_cast<double>(dormant.wall) / kWallNsPerSec);
  const double dormant_ns_per_event =
      static_cast<double>(dormant.wall) / events;
  const double enabled_ns_per_event =
      static_cast<double>(enabled.wall) / events;

  Table table({"quantity", "value"});
  table.add_row({"events executed", Table::fmt_int(static_cast<long long>(
                                        res.events))});
  table.add_row(
      {"events/sec (dormant)", Table::fmt(dormant_eps / kMega, 2) + "M"});
  table.add_row({"ns/event (dormant)", Table::fmt(dormant_ns_per_event, 1)});
  table.add_row({"ns/event (profiled)", Table::fmt(enabled_ns_per_event, 1)});
  table.add_row({"peak queue depth", Table::fmt_int(static_cast<long long>(
                                         res.peak_queue))});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("engine digest 0x%016llx (must not move with MS_PROF)\n\n",
              static_cast<unsigned long long>(res.digest));

  const prof::MicroEngineConfig cfg;
  bench::BenchReport report("micro_engine");
  report.config("chains", cfg.chains);
  report.config("chain_events", cfg.chain_events);
  report.config("fanout_events", cfg.fanout_events);
  report.config("repeat", kRepeat);
  // Host-dependent throughput: wide tolerance, still catches a 2x cliff.
  report.metric("events_per_sec", dormant_eps, 0.5);
  report.metric("ns_per_event", dormant_ns_per_event, 0.5);
  // Structural counters: exact.
  report.metric("executed_total", static_cast<double>(res.events), 0.0);
  report.metric("peak_queue_depth", static_cast<double>(res.peak_queue), 0.0);
  report.info("wall_ms_dormant", static_cast<double>(dormant.wall) / kWallNsPerMs);
  report.info("wall_ms_profiled",
              static_cast<double>(enabled.wall) / kWallNsPerMs);
  report.info("ns_per_event_profiled", enabled_ns_per_event);
  if (!report.write()) {
    std::fprintf(stderr, "micro_engine: cannot write BENCH artifact\n");
    return 1;
  }
  std::printf("wrote BENCH_micro_engine.json\n");
  return 0;
}
