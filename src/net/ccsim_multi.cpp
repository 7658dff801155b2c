#include "net/ccsim_multi.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>

#include "check/audit.h"
#include "core/rng.h"
#include "core/stats.h"
#include "net/fabric/observatory.h"
#include "prof/profiler.h"

namespace ms::net {

namespace {

/// Finite and > 0 (what "> 0" means in the messages below).
bool positive_finite(double x) { return std::isfinite(x) && x > 0.0; }

/// True when `seconds` spans [at_least, INT_MAX) steps of `step_s`.
bool fits_steps(double seconds, double step_s, double at_least) {
  return std::isfinite(seconds) && seconds / step_s >= at_least &&
         seconds / step_s < static_cast<double>(INT_MAX);
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("MultiCcParams: ") + what);
}

void validate(const MultiCcParams& p) {
  require(p.hops >= 1, "hops < 1");
  require(!p.flows.empty(), "no flows");
  require(p.hop_capacities.empty() ||
              p.hop_capacities.size() == static_cast<std::size_t>(p.hops),
          "hop_capacities is neither empty nor one entry per hop");
  for (int h = 0; h < p.hops; ++h) {
    require(positive_finite(p.capacity_of(h)), "a hop capacity is not > 0");
  }
  for (const auto& flow : p.flows) {
    require(0 <= flow.first_hop && flow.first_hop <= flow.last_hop &&
                flow.last_hop < p.hops,
            "a flow breaks 0 <= first_hop <= last_hop < hops");
    require(positive_finite(flow.line_rate), "a flow line_rate is not > 0");
  }
  require(positive_finite(p.step_s), "step_s is not > 0");
  require(fits_steps(p.duration_s, p.step_s, 1.0),
          "duration_s is not 1 to INT_MAX steps");
  require(fits_steps(p.base_rtt_s, p.step_s, 0.0),
          "base_rtt_s is not 0 to INT_MAX steps");
}

/// Per-hop state of the chain.
struct Hop {
  double capacity = 0;    // bytes/s
  double served = 0;      // bytes served over the whole run
  double share = 1;       // FIFO share of this step's arrivals it served
  double pause_time = 0;  // seconds spent in XOFF
  int pause_events = 0;   // XOFF onsets
  bool xoff = false;
  // Feedback view one RTT late: queueing delay and RED mark probability.
  double delay = 0;
  double mark = 0;
  // Queue depth after every step: mean and max, and the largest depths
  // (a min-heap), the only ones Percentiles::p99() would interpolate.
  RunningStat depth;
  std::priority_queue<double, std::vector<double>, std::greater<>> top;
};

}  // namespace

MultiCcResult run_multi_cc_sim(
    const MultiCcParams& params,
    const std::function<std::unique_ptr<CcAlgorithm>()>& make_algorithm) {
  MS_PROF_SCOPE("ccsim.run");
  validate(params);
  const auto hops = static_cast<std::size_t>(params.hops);
  const auto& spec = params.flows;
  const std::size_t n = spec.size();
  const double dt = params.step_s;
  const int steps = static_cast<int>(params.duration_s / dt);
  const int rtt_steps = std::max(1, static_cast<int>(params.base_rtt_s / dt));

  // Per flow: controller, rate (bytes/s), this step's bytes (shaped hop by
  // hop), and the bytes injected and delivered so far.
  std::vector<std::unique_ptr<CcAlgorithm>> algo(n);
  std::vector<double> rate(n), bytes(n), offered(n), delivered(n);
  for (std::size_t f = 0; f < n; ++f) {
    algo[f] = make_algorithm();
    rate[f] = algo[f]->initial_rate(spec[f].line_rate);
  }
  std::vector<Hop> hop(hops);
  for (std::size_t h = 0; h < hops; ++h) {
    hop[h].capacity = params.capacity_of(static_cast<int>(h));
  }
  // Share of bytes[f] (what reached flow f's last hop) that the hop served.
  const auto last_share = [&](std::size_t f) {
    return hop[static_cast<std::size_t>(spec[f].last_hop)].share;
  };
  // The p99 of `steps` depths interpolates ranks lo and lo + 1 (ascending),
  // the smallest two of the `keep` largest depths.
  const double p99_pos = 0.99 * static_cast<double>(steps - 1);
  const auto p99_lo = static_cast<std::size_t>(p99_pos);
  const std::size_t keep = static_cast<std::size_t>(steps) - p99_lo;
  // queue_at(h, s): hop h's depth after step s - 1 (0 at s = 0), kept for
  // the last rtt_steps + 2 values of s. Feedback reads it one RTT late.
  const auto rows = static_cast<std::size_t>(std::min(rtt_steps, steps)) + 2;
  std::vector<double> ring(rows * hops, 0.0);
  const auto queue_at = [&](std::size_t h, int s) -> double& {
    return ring[(static_cast<std::size_t>(s) % rows) * hops + h];
  };

  Rng rng(0xCC51u + static_cast<std::uint64_t>(n));

  // Fabric observatory hooks (strictly passive: results are identical with
  // or without them). Hops register as links, flows as hop lists.
  fabric::FabricObservatory* obs = params.observatory;
  std::vector<int> obs_link;
  std::vector<int> obs_flow;
  std::vector<int> crossing(hops, 0);
  if (obs != nullptr) {
    for (std::size_t h = 0; h < hops; ++h) {
      obs_link.push_back(obs->add_link(
          params.observatory_link_prefix + std::to_string(h), hop[h].capacity));
    }
    for (std::size_t f = 0; f < n; ++f) {
      std::vector<int> path;
      for (int h = spec[f].first_hop; h <= spec[f].last_hop; ++h) {
        path.push_back(obs_link[static_cast<std::size_t>(h)]);
        ++crossing[static_cast<std::size_t>(h)];
      }
      obs_flow.push_back(
          obs->record_flow_path(static_cast<std::uint64_t>(f), path));
    }
  }

  for (int step = 0; step < steps; ++step) {
    const TimeNs now =
        obs != nullptr ? seconds(static_cast<double>(step) * dt) : 0;
    // --- data plane: a fluid FIFO per hop, shaping the flows crossing it ---
    for (std::size_t h = 0; h < hops; ++h) {
      Hop& hp = hop[h];
      if (hp.xoff) hp.pause_time += dt;
      const int hi = static_cast<int>(h);
      const bool inject = h > 0 || !hp.xoff;  // hop-0 XOFF stops its senders
      const double upstream_share = h > 0 ? hop[h - 1].share : 1.0;
      double arrival = 0;
      for (std::size_t f = 0; f < n; ++f) {
        double b = 0;
        if (spec[f].first_hop == hi) {
          // Last step's bytes leave the last hop at its share, which this
          // step has not yet recomputed: credit them without a pass of
          // their own.
          delivered[f] += bytes[f] * last_share(f);
          b = inject ? rate[f] * dt : 0.0;
          offered[f] += b;
        } else if (spec[f].first_hop < hi && hi <= spec[f].last_hop) {
          b = bytes[f] * upstream_share;
        } else {
          continue;
        }
        bytes[f] = b;
        arrival += b;
      }
      // XOFF at the next hop pauses this hop's egress.
      const bool egress_paused = h + 1 < hops && hop[h + 1].xoff;
      const double available = queue_at(h, step) + arrival;
      const double served =
          std::min(available, egress_paused ? 0.0 : hp.capacity * dt);
      const double queue = available - served;
      queue_at(h, step + 1) = queue;
      hp.depth.add(queue);
      if (hp.top.size() < keep || queue > hp.top.top()) {
        if (hp.top.size() == keep) hp.top.pop();
        hp.top.push(queue);
      }
      hp.served += served;
      // Flows crossing this hop get their FIFO share of what it served
      // (HoL: everyone shares the same fate).
      hp.share = arrival > 0 ? std::min(1.0, served / arrival) : 1.0;

      MS_AUDIT("net.ccsim", "queue_nonnegative", queue >= 0.0,
               "hop " + std::to_string(h) + " queue " + std::to_string(queue));
      MS_AUDIT("net.ccsim", "byte_conservation",
               served <= available * (1.0 + 1e-9) + 1e-6,
               "hop " + std::to_string(h) + " served " +
                   std::to_string(served));

      if (obs != nullptr) {
        const int link = obs_link[h];
        obs->record_queue(link, now, queue);
        if (egress_paused) obs->record_pause(link, now, seconds(dt));
        obs->record_active_flows(link, now, crossing[h]);
      }

      // --- PFC: this hop's latch, read by hop h-1's egress (or the hop-0
      // senders) from the next step on ---
      if (!hp.xoff && queue > params.pfc_pause) {
        hp.xoff = true;
        ++hp.pause_events;
        if (obs != nullptr && h > 0) {
          obs->record_pause(obs_link[h - 1], now, 0, 1);
        }
      } else if (hp.xoff && queue < params.pfc_resume) {
        hp.xoff = false;
      }
      // Bounded PFC state: the latch only holds above the resume mark.
      MS_AUDIT("net.ccsim", "pfc_state_bounded",
               !hp.xoff || queue >= params.pfc_resume,
               "hop " + std::to_string(h) + " XOFF, queue " +
                   std::to_string(queue));
    }
    if (obs != nullptr) {
      // Delivered bytes charge every hop of the flow's path (the per-link
      // tx series and the per-flow ledger share one attribution source).
      for (std::size_t f = 0; f < n; ++f) {
        obs->attribute_flow_bytes(obs_flow[f], now, bytes[f] * last_share(f));
      }
    }

    // --- control plane: flow f hears one ACK batch per base RTT, on steps
    // where (step + f) % rtt_steps == 0, reflecting the queues one RTT ago
    // and marked by every hop on its path ---
    const int seen = std::max(0, step - rtt_steps);
    for (std::size_t h = 0; h < hops; ++h) {
      const double q = queue_at(h, seen);
      double p = 0;
      if (q > params.ecn_kmax) {
        p = 1.0;
      } else if (q > params.ecn_kmin) {
        p = params.ecn_pmax * (q - params.ecn_kmin) /
            (params.ecn_kmax - params.ecn_kmin);
      }
      MS_AUDIT("net.ccsim", "ecn_mark_probability_bounded",
               p >= 0.0 && p <= 1.0,
               "hop " + std::to_string(h) + " marks at " + std::to_string(p));
      hop[h].delay = q / hop[h].capacity;
      hop[h].mark = p;
    }
    for (auto f = static_cast<std::size_t>((rtt_steps - step % rtt_steps) %
                                           rtt_steps);
         f < n; f += static_cast<std::size_t>(rtt_steps)) {
      const MultiHopFlow& flow = spec[f];
      // A stopped sender has no ACK clock, so it hears nothing.
      if (flow.first_hop == 0 && hop[0].xoff) continue;
      // Probability that at least one packet of this flow's last RTT worth
      // of traffic was marked somewhere on its path.
      constexpr double kMtu = 4096.0;
      const double packets = std::max(1.0, rate[f] * params.base_rtt_s / kMtu);
      double rtt = params.base_rtt_s;
      double no_mark = 1.0;
      for (int h = flow.first_hop; h <= flow.last_hop; ++h) {
        const Hop& hp = hop[static_cast<std::size_t>(h)];
        rtt += hp.delay;
        no_mark *= std::pow(1.0 - hp.mark, packets);
      }
      const CcFeedback fb{.rtt_s = rtt,
                          .ecn = rng.chance(1.0 - no_mark),
                          .line_rate = flow.line_rate,
                          .dt = params.base_rtt_s};
      if (fb.ecn && obs != nullptr) {
        // Charge the mark to the deepest queue on the flow's path — the
        // hop that actually did the marking with overwhelming probability.
        auto marked = static_cast<std::size_t>(flow.first_hop);
        for (int h = flow.first_hop; h <= flow.last_hop; ++h) {
          const auto hu = static_cast<std::size_t>(h);
          if (queue_at(hu, seen) > queue_at(marked, seen)) marked = hu;
        }
        obs->record_ecn(obs_link[marked], now, 1.0);
      }
      rate[f] = algo[f]->on_feedback(rate[f], fb);
      MS_AUDIT("net.ccsim", "rate_within_line_rate",
               rate[f] >= 0.0 && rate[f] <= flow.line_rate * (1.0 + 1e-9),
               algo[f]->name() + " rate " + std::to_string(rate[f]));
    }
  }

  MultiCcResult result;
  double sum = 0, sum_sq = 0;
  for (std::size_t f = 0; f < n; ++f) {
    delivered[f] += bytes[f] * last_share(f);  // the last step's bytes
    result.flow_goodput_frac.push_back(
        delivered[f] / (spec[f].line_rate * params.duration_s));
    sum += offered[f];
    sum_sq += offered[f] * offered[f];
  }
  // Jain fairness over per-flow offered bytes.
  result.fairness =
      sum_sq > 0 ? (sum * sum) / (static_cast<double>(n) * sum_sq) : 1.0;
  const double frac = p99_pos - static_cast<double>(p99_lo);
  for (std::size_t h = 0; h < hops; ++h) {
    auto& top = hop[h].top;
    const double lo = top.top();
    top.pop();
    const double hi = top.empty() ? lo : top.top();
    result.hop_utilization.push_back(
        hop[h].served / (hop[h].capacity * params.duration_s));
    result.hop_mean_queue.push_back(hop[h].depth.mean());
    result.hop_p99_queue.push_back(lo * (1.0 - frac) + hi * frac);
    result.hop_max_queue.push_back(hop[h].depth.max());
    result.hop_pause_fraction.push_back(hop[h].pause_time / params.duration_s);
    result.hop_pause_events.push_back(hop[h].pause_events);
  }
  return result;
}

MultiCcParams incast_params(int senders) {
  MultiCcParams params;
  params.hops = 1;
  for (int i = 0; i < senders; ++i) params.flows.push_back({0, 0, 25e9});
  return params;
}

MultiCcParams victim_params(int incast_senders) {
  MultiCcParams params;
  params.hops = 3;
  // First hops have headroom; the LAST hop is the bottleneck (a slow
  // receiver or a hashing hot spot): that is where the queue builds and
  // where PFC pause frames start cascading upstream.
  params.hop_capacities = {200e9, 200e9, 25e9};
  // Shallow-buffer ToR: per-priority headroom of ~1.2 MB before PFC.
  params.pfc_pause = 1200e3;
  params.pfc_resume = 1000e3;
  // Incast enters at hop 1 and collides at hop 2; the victim uses ONLY
  // hop 0 and shares no queue with the incast. Any victim slowdown is pure
  // PFC collateral: queue2 over threshold pauses hop1, queue1 then builds
  // and pauses hop0 — the victim's hop — even though the victim's own path
  // has abundant capacity.
  for (int i = 0; i < incast_senders; ++i) {
    params.flows.push_back({1, 2, 25e9});
  }
  params.flows.push_back({0, 0, 25e9});
  return params;
}

VictimReport run_victim_scenario(
    int incast_senders,
    const std::function<std::unique_ptr<CcAlgorithm>()>& make_algorithm) {
  const MultiCcParams params = victim_params(incast_senders);
  const auto result = run_multi_cc_sim(params, make_algorithm);
  VictimReport report;
  report.victim_goodput = result.flow_goodput_frac.back();
  double incast = 0;
  for (int i = 0; i < incast_senders; ++i) {
    incast += result.flow_goodput_frac[static_cast<std::size_t>(i)];
  }
  // Fraction of the 25 GB/s bottleneck the incast aggregate achieved.
  report.incast_goodput = incast * 25e9 / 25e9 / 1.0;
  // Hop 0's egress is paused while hop 1 holds XOFF.
  report.first_hop_pause_fraction = result.hop_pause_fraction[1];
  return report;
}

}  // namespace ms::net
