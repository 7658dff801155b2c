#include "net/fabric/rounds.h"

#include <memory>
#include <string>

namespace ms::net::fabric {

ClosParams small_clos() {
  return {.hosts = 32, .nics_per_host = 2, .hosts_per_tor = 8, .pods = 2,
          .aggs_per_pod = 2, .spines_per_plane = 2};
}

StormRound run_storm_round(double intensity, FabricObservatory* obs) {
  MultiCcParams params = victim_params(4 + static_cast<int>(12.0 * intensity));
  params.observatory = obs;
  StormRound round;
  round.result =
      run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
  round.detector.queue_hot_bytes = params.pfc_pause;
  round.bottleneck =
      params.observatory_link_prefix + std::to_string(params.hops - 1);
  return round;
}

RehashRound run_rehash_round(const ClosTopology& topo, Rng& rng,
                             FabricObservatory& obs) {
  RehashRound round;
  round.flows = ring_traffic(topo, 16, /*pack_under_tor=*/false, rng);
  round.report = analyze_ecmp(topo, round.flows, &obs);
  round.detector.incast_fan_in = 2;
  return round;
}

}  // namespace ms::net::fabric
