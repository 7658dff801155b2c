// Reproduces §3.6: network performance tuning.
//   (a) ECMP hashing conflicts: port-split (2x uplink headroom) and
//       same-ToR placement of data-intensive peers;
//   (b) congestion control: DCQCN vs Swift vs MegaScale's hybrid under
//       incast (throughput, queue depth, PFC pauses);
//   (c) retransmit timeout tuning + adap_retrans under link flapping.
#include <cstdio>

#include "bench/common.h"
#include "core/table.h"
#include "net/ccsim_multi.h"
#include "net/ecmp.h"
#include "net/flap.h"
#include "net/topology.h"

using namespace ms;
using namespace ms::net;

namespace {

// Root seed for every stochastic stream in this bench; per-component
// streams are derived (core derive_seed), never seeded ad hoc.
constexpr std::uint64_t kBenchSeed = 0x36;

ClosParams fabric(bool split) {
  ClosParams p;
  p.hosts = 512;
  p.nics_per_host = 8;
  p.hosts_per_tor = 64;
  p.pods = 2;
  p.aggs_per_pod = 8;
  p.spines_per_plane = 8;
  p.split_downlink_ports = split;
  return p;
}

void ecmp_section(ms::bench::BenchReport& br) {
  std::printf("--- (a) ECMP hashing conflicts ---\n");
  Table t({"fabric", "workload", "mean tput", "min tput", "conflicted flows",
           "mean hops"});
  for (bool split : {false, true}) {
    ClosTopology topo(fabric(split));
    double mean = 0, minimum = 0, conflicts = 0, hops = 0;
    constexpr int kTrials = 10;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng(derive_seed(kBenchSeed, "sec36.ecmp.permutation",
                          static_cast<std::uint64_t>(trial)));
      auto report = analyze_ecmp(topo, permutation_traffic(topo, rng));
      mean += report.mean_throughput_frac;
      minimum += report.min_throughput_frac;
      conflicts += report.conflict_fraction;
      hops += report.mean_hops;
    }
    br.metric(std::string("ecmp_permutation_tput_") +
                  (split ? "split" : "default"),
              mean / kTrials, 0.03);
    t.add_row({split ? "port-split (2:1 up:down)" : "default (1:1)",
               "permutation", Table::fmt_pct(mean / kTrials),
               Table::fmt_pct(minimum / kTrials),
               Table::fmt_pct(conflicts / kTrials),
               Table::fmt(hops / kTrials, 1)});
  }
  for (bool packed : {false, true}) {
    ClosTopology topo(fabric(true));
    double mean = 0, conflicts = 0, hops = 0;
    constexpr int kTrials = 10;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng(derive_seed(kBenchSeed, "sec36.ecmp.ring",
                          static_cast<std::uint64_t>(trial)));
      auto report =
          analyze_ecmp(topo, ring_traffic(topo, 32, packed, rng));
      mean += report.mean_throughput_frac;
      conflicts += report.conflict_fraction;
      hops += report.mean_hops;
    }
    br.metric(std::string("ecmp_ring_tput_") + (packed ? "packed" : "spread"),
              mean / kTrials, 0.03);
    t.add_row({packed ? "port-split + same-ToR placement" : "port-split",
               packed ? "ring (packed)" : "ring (spread)",
               Table::fmt_pct(mean / kTrials), "-",
               Table::fmt_pct(conflicts / kTrials),
               Table::fmt(hops / kTrials, 1)});
  }
  t.print();
  std::printf(
      "paper: splitting 400G downlinks into 2x200G doubles uplink headroom; "
      "scheduling data-intensive nodes under one ToR removes uplink traffic "
      "entirely.\n\n");
}

void cc_section(ms::bench::BenchReport& br) {
  std::printf("--- (b) congestion control under incast ---\n");
  Table t({"senders", "algorithm", "utilization", "mean queue", "p99 queue",
           "PFC pause", "pause events", "fairness"});
  for (int senders : {16, 32, 64}) {
    MultiCcParams p = incast_params(senders);
    p.duration_s = 0.03;
    struct Algo {
      const char* name;
      std::function<std::unique_ptr<CcAlgorithm>()> make;
    };
    const Algo algos[] = {
        {"DCQCN", [] { return std::make_unique<Dcqcn>(); }},
        {"Swift", [] { return std::make_unique<Swift>(); }},
        {"MegaScaleCC", [] { return std::make_unique<MegaScaleCc>(); }},
    };
    for (const auto& algo : algos) {
      const auto r = run_multi_cc_sim(p, algo.make);
      if (senders == 64) {
        br.metric(std::string("cc64_util_") + algo.name, r.hop_utilization[0],
                  0.03);
        br.metric(std::string("cc64_pfc_pause_") + algo.name,
                  r.hop_pause_fraction[0], 0.25);
      }
      t.add_row({Table::fmt_int(senders), algo.name,
                 Table::fmt_pct(r.hop_utilization[0]),
                 Table::fmt(r.hop_mean_queue[0] / 1e3, 0) + " KB",
                 Table::fmt(r.hop_p99_queue[0] / 1e3, 0) + " KB",
                 Table::fmt_pct(r.hop_pause_fraction[0], 2),
                 Table::fmt_int(r.hop_pause_events[0]),
                 Table::fmt(r.fairness, 3)});
    }
    t.add_separator();
  }
  t.print();
  std::printf(
      "paper: default DCQCN at scale drives deep queues and PFC/HoL "
      "blocking; the Swift+DCQCN hybrid keeps throughput high with minimal "
      "PFC.\n\n");
}

void victim_section(ms::bench::BenchReport& br) {
  std::printf("--- (b2) PFC head-of-line collateral (multi-hop) ---\n");
  Table t({"incast senders", "algorithm", "victim goodput", "incast goodput",
           "victim's hop paused"});
  for (int senders : {16, 32, 64}) {
    struct Algo {
      const char* name;
      std::function<std::unique_ptr<CcAlgorithm>()> make;
    };
    const Algo algos[] = {
        {"DCQCN", [] { return std::make_unique<Dcqcn>(); }},
        {"MegaScaleCC", [] { return std::make_unique<MegaScaleCc>(); }},
    };
    for (const auto& algo : algos) {
      auto r = run_victim_scenario(senders, algo.make);
      if (senders == 64) {
        br.metric(std::string("victim64_goodput_") + algo.name,
                  r.victim_goodput, 0.05);
      }
      t.add_row({Table::fmt_int(senders), algo.name,
                 Table::fmt_pct(r.victim_goodput),
                 Table::fmt_pct(r.incast_goodput),
                 Table::fmt_pct(r.first_hop_pause_fraction, 2)});
    }
    t.add_separator();
  }
  t.print();
  std::printf(
      "the victim flow shares NO queue with the incast: every lost point of "
      "goodput is PFC pause frames cascading upstream through the fabric — "
      "the head-of-line blocking §3.6 sets out to avoid.\n\n");
}

void flap_section(ms::bench::BenchReport& br) {
  std::printf("--- (c) link flapping vs retransmit configuration ---\n");
  Table t({"NCCL timeout", "retransmit", "flap", "outcome", "stall"});
  const std::vector<FlapEvent> flap3s{{.down_at = seconds(0.5),
                                       .down_duration = seconds(3.1)}};
  struct Case {
    TimeNs nccl_timeout;
    bool adaptive;
    const char* label;
  };
  const Case cases[] = {
      {seconds(1.0), false, "default (short)"},
      {seconds(30.0), false, "tuned timeout"},
      {seconds(30.0), true, "tuned + adap_retrans"},
  };
  for (const auto& c : cases) {
    RetransConfig cfg;
    cfg.nccl_timeout = c.nccl_timeout;
    cfg.adaptive = c.adaptive;
    auto out = simulate_transfer_with_flaps(static_cast<Bytes>(25e9), 25e9,
                                            flap3s, cfg);
    if (out.completed && c.adaptive) {
      br.metric("flap_stall_adaptive_s", to_seconds(out.total_stall), 0.05);
    }
    t.add_row({format_duration(c.nccl_timeout),
               c.adaptive ? "adaptive 50ms probes" : "exponential backoff",
               "3.1 s down",
               out.completed ? "completed"
                             : std::string("FAILED: ") + out.error_kind,
               out.completed ? format_duration(out.total_stall) : "-"});
  }
  t.print();
  std::printf(
      "paper lessons: set the NCCL timeout above the flap duration or the "
      "job dies needlessly; adap_retrans probes on a short interval so the "
      "transfer resumes as soon as the link returns.\n");
}

}  // namespace

int main() {
  std::printf("=== §3.6: network performance tuning ===\n\n");
  ms::bench::BenchReport br("sec36_network_tuning");
  ecmp_section(br);
  cc_section(br);
  victim_section(br);
  flap_section(br);
  return br.write() ? 0 : 1;
}
