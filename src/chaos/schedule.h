// Typed fault-injection schedules (the chaos campaign's event language).
//
// A chaos scenario compiles to a FaultSchedule: a time-ordered list of
// injected faults spanning every failure class the MegaScale paper reports
// from production — fail-stop process/GPU deaths (§4.1), silent compute
// stragglers (§5.1), NIC link flaps (§3.6), checkpoint-write stalls (§4.4)
// and fabric-level ECN/PFC storms and ECMP rehashes (§3.6). The schedule is
// plain data: it can be digested, serialized into a repro artifact, and —
// crucially for the shrinker — re-run as an arbitrary subset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.h"
#include "ft/faults.h"

namespace ms::chaos {

enum class FaultKind {
  kFailStop,    ///< process/GPU death; payload is the ft::FaultType
  kStraggler,   ///< silent compute slowdown on one machine (engine/perturb)
  kLinkFlap,    ///< NIC link down/up episode (net/flap)
  kCkptStall,   ///< checkpoint writer falls behind; training blocks (§4.4)
  kPfcStorm,    ///< incast driving ECN marks / PFC pauses (net/ccsim_multi)
  kEcmpRehash,  ///< path rehash: every flow label re-drawn (net/ecmp)
};

/// Stable short name ("fail-stop", "link-flap", ...), used in outcome
/// records and repro artifacts.
const char* fault_kind_name(FaultKind kind);

/// One injected fault. Field meaning depends on kind:
///   kFailStop:   node = victim, fail_type = how it dies
///   kStraggler:  node = victim machine, magnitude = slowdown - 1 (0.1 = 10%)
///   kLinkFlap:   node = link index, duration = down-time
///   kCkptStall:  duration = extra stall charged to the next checkpoint
///   kPfcStorm:   magnitude in (0, 1] = storm intensity (incast pressure)
///   kEcmpRehash: node = rehash round (entropy source for the new labels)
struct InjectedFault {
  TimeNs at = 0;
  FaultKind kind = FaultKind::kFailStop;
  int node = 0;
  ft::FaultType fail_type = ft::FaultType::kCudaError;
  TimeNs duration = 0;
  double magnitude = 0.0;
};

using FaultSchedule = std::vector<InjectedFault>;

/// Canonical order: by time, then kind, then node. Scenario generators and
/// the shrinker both emit canonical schedules so that "the same schedule"
/// is a meaningful equality.
void sort_schedule(FaultSchedule& schedule);

/// One-line human rendering, e.g. "t=12.0m link-flap link=3 down=2.5s".
std::string describe(const InjectedFault& fault);

/// Order-sensitive FNV-1a digest over every field of every fault. Two
/// schedules digest equal iff they are field-for-field identical.
std::uint64_t schedule_digest(const FaultSchedule& schedule);

}  // namespace ms::chaos
