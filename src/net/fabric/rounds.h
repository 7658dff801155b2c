// The two canonical fabric congestion rounds (§3.6) that the chaos harness
// grades localization on, `msdiag fabric` replays and
// bench/fabric_observatory gates. Each records into a FabricObservatory
// (passive: results are the same without one) and returns the detector
// config tuned for it.
#pragma once

#include <string>
#include <vector>

#include "core/rng.h"
#include "net/ccsim_multi.h"
#include "net/ecmp.h"
#include "net/fabric/detectors.h"
#include "net/fabric/observatory.h"
#include "net/topology.h"

namespace ms::net::fabric {

/// The small Clos fabric rehash rounds route over: 32 hosts with 2 NICs,
/// 8 hosts per ToR, 2 pods of 2 aggregation switches, 2 spines per plane.
ClosParams small_clos();

struct StormRound {
  MultiCcResult result;
  FabricDetectorConfig detector;  ///< hot queue = the chain's PFC threshold
  std::string bottleneck;         ///< the chain's last hop, the origin
};

/// The victim chain (net::victim_params) with 4 + 12·intensity incast
/// senders under DCQCN, recorded into `obs` unless it is null.
StormRound run_storm_round(double intensity, FabricObservatory* obs);

struct RehashRound {
  std::vector<FlowSpec> flows;
  EcmpReport report;
  FabricDetectorConfig detector;  ///< two elephants on one uplink conflict
};

/// Ring traffic among 16 hosts spread over `topo` (drawn from `rng`),
/// routed through the ECMP analysis and recorded into `obs`.
RehashRound run_rehash_round(const ClosTopology& topo, Rng& rng,
                             FabricObservatory& obs);

}  // namespace ms::net::fabric
