// Fluid PFC chain (MegaScale §3.6): congestion control, PFC cascades and
// head-of-line victims in one time-stepped fluid model of a "parking lot"
// of switch queues. Flow f injects at `first_hop` and crosses hops
// [first_hop, last_hop]. Each step every queue integrates arrivals minus
// service and passes the flows crossing it their FIFO share of what it
// served; ECN marks on a RED ramp; each flow's controller (ccsim.h) hears
// delayed (RTT, ECN) feedback. One incast bottleneck is the one-hop case.
//
// The PFC rule, the same at every hop: a hop latches XOFF when its queue
// rises strictly above `pfc_pause` and releases it when the queue falls
// strictly below `pfc_resume`. XOFF at hop h > 0 stops hop h-1's egress,
// so a paused queue serves nobody, including innocent flows that exit
// before the congestion point. XOFF at hop 0 stops the senders injecting
// at hop 0, and a stopped sender hears no feedback (no ACK clock). Flows
// that join at a later hop are cross traffic from outside the chain and
// are never stopped.
#pragma once
// ms-lint: allow-file(raw-seconds): fluid model in double seconds, see
// ccsim.h.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/ccsim.h"

namespace ms::net::fabric {
class FabricObservatory;
}  // namespace ms::net::fabric

namespace ms::net {

struct MultiHopFlow {
  int first_hop = 0;
  int last_hop = 0;  // inclusive
  double line_rate = 25e9;
};

struct MultiCcParams {
  int hops = 3;
  double hop_capacity = 50e9;   // bytes/s service per queue (default)
  /// Optional per-hop override (size == hops); empty = uniform.
  std::vector<double> hop_capacities;
  double capacity_of(int hop) const {
    return hop_capacities.empty()
               ? hop_capacity
               : hop_capacities[static_cast<std::size_t>(hop)];
  }
  double base_rtt_s = 8e-6;
  double step_s = 2e-6;
  double duration_s = 0.03;
  // RED ECN ramp (bytes of queue): late marking capped at 10%, the DCQCN
  // regime in which incast reaches the PFC threshold (the paper's finding).
  double ecn_kmin = 400e3;
  double ecn_kmax = 1600e3;
  double ecn_pmax = 0.1;
  // PFC XOFF/XON thresholds (bytes of queue), the same at every hop.
  double pfc_pause = 2000e3;
  double pfc_resume = 1600e3;
  std::vector<MultiHopFlow> flows;
  /// Optional fabric observatory (not owned, strictly passive). Each hop
  /// registers as "<prefix><i>"; flows register their hop lists and their
  /// delivered bytes are attributed across the path, so a PFC storm at the
  /// bottleneck hop is localizable from the recorded series alone.
  fabric::FabricObservatory* observatory = nullptr;
  std::string observatory_link_prefix = "hop";
};

struct MultiCcResult {
  /// Delivered bytes / (line_rate * duration) per flow.
  std::vector<double> flow_goodput_frac;
  /// Jain index over per-flow offered bytes.
  double fairness = 0;
  /// Served bytes / (capacity * duration) per hop.
  std::vector<double> hop_utilization;
  /// Mean, p99 and max queue depth per hop (bytes), over every step.
  std::vector<double> hop_mean_queue;
  std::vector<double> hop_p99_queue;
  std::vector<double> hop_max_queue;
  /// Fraction of time each hop held XOFF, and its XOFF onsets. XOFF at hop
  /// h > 0 pauses hop h-1's egress; at hop 0 it stops the hop-0 senders.
  std::vector<double> hop_pause_fraction;
  std::vector<int> hop_pause_events;
};

/// Runs the chain with one congestion controller per flow. Throws
/// std::invalid_argument unless hops >= 1, flows is non-empty with
/// 0 <= first_hop <= last_hop < hops, hop_capacities is empty or one per
/// hop, capacities, line rates and step_s are finite and > 0, and
/// duration_s (at least one step) and base_rtt_s (>= 0) are finite and
/// under INT_MAX steps.
MultiCcResult run_multi_cc_sim(
    const MultiCcParams& params,
    const std::function<std::unique_ptr<CcAlgorithm>()>& make_algorithm);

/// One incast bottleneck, the chain's one-hop case: `senders` flows at
/// 25 GB/s (200 Gb/s NICs) into one 50 GB/s egress.
MultiCcParams incast_params(int senders);

/// The §3.6 victim scenario: `incast_senders` flows cross every hop and
/// congest the last one; one victim flow uses only the first hop. Returns
/// {victim goodput fraction, incast aggregate goodput fraction,
/// first-hop pause fraction}.
struct VictimReport {
  double victim_goodput = 0;
  double incast_goodput = 0;
  double first_hop_pause_fraction = 0;
};
VictimReport run_victim_scenario(
    int incast_senders,
    const std::function<std::unique_ptr<CcAlgorithm>()>& make_algorithm);

/// The parameter set run_victim_scenario() uses: 3 hops with the LAST one
/// the 25 GB/s bottleneck, shallow-buffer PFC thresholds, `incast_senders`
/// flows over hops 1..2 plus one victim on hop 0 only. Exposed so callers
/// (chaos localization, `msdiag fabric`) can attach an observatory or
/// rescale thresholds before running run_multi_cc_sim() themselves.
MultiCcParams victim_params(int incast_senders);

}  // namespace ms::net
