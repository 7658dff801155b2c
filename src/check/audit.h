// Runtime invariant auditing (the correctness layer under every number).
//
// The simulation substrate promises properties that no unit test can pin
// down for every workload: the event engine never moves time backwards,
// the flow simulator conserves bytes, switch queues never go negative,
// collective costs are monotone in payload. MS_AUDIT() turns each promise
// into a machine-checked invariant evaluated *during* real runs:
//
//   MS_AUDIT("sim.engine", "time_monotonic", e.t >= now_,
//            "event scheduled into the past");
//
// Violations never abort: they are tallied per (domain, invariant) in a
// process-wide Auditor. A test asserts `Auditor::instance().violations()
// == 0` after its scenario, and every bench binary does the same when it
// writes its artifact: `bench::BenchReport::write()` prints one
// `GATE FAIL` line per failed invariant and returns false, so the bench
// exits 1.
//
// The whole layer compiles out: configure with -DMS_AUDIT=OFF and every
// MS_AUDIT expands to a dead cast — no branches, no message formatting,
// no Auditor symbols on the hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ms::check {

/// One failed invariant, as returned by snapshot().
struct Violation {
  std::string domain;     // subsystem, e.g. "net.flowsim"
  std::string invariant;  // invariant name, e.g. "byte_conservation"
  std::string message;    // last failure's rendered detail
  std::uint64_t count = 0;  // failures of this (domain, invariant) so far
};

/// Process-wide tally of audit evaluations and failures. Thread-safe:
/// the threaded components (kvstore, shm, telemetry) audit from worker
/// threads.
class Auditor {
 public:
  static Auditor& instance();

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Records a failed invariant. Returns the updated per-invariant count.
  std::uint64_t report(const char* domain, const char* invariant,
                       std::string message);

  /// Tallies one evaluated (passing or failing) MS_AUDIT.
  void count_check() noexcept;

  /// Total MS_AUDIT evaluations since construction / reset().
  std::uint64_t checks() const noexcept;
  /// Total failures since construction / reset().
  std::uint64_t violations() const noexcept;
  /// Failures of one specific invariant (0 if never seen).
  std::uint64_t violations(const std::string& domain,
                           const std::string& invariant) const;

  /// Every (domain, invariant) that has failed, with counts and the most
  /// recent message, in first-failure order.
  std::vector<Violation> snapshot() const;

  /// Clears tallies. Tests isolate with this.
  void reset();

 private:
  Auditor() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace ms::check

// MS_AUDIT_ENABLED is defined (to 1) by the build system unless the
// MS_AUDIT CMake option is OFF.
#if defined(MS_AUDIT_ENABLED) && MS_AUDIT_ENABLED
// `message` is any expression convertible to std::string; it is evaluated
// only on failure, so call sites may format freely.
#define MS_AUDIT(domain, invariant, condition, message)                   \
  do {                                                                    \
    ::ms::check::Auditor::instance().count_check();                       \
    if (!(condition)) {                                                   \
      ::ms::check::Auditor::instance().report((domain), (invariant),      \
                                              (message));                 \
    }                                                                     \
  } while (0)
#else
#define MS_AUDIT(domain, invariant, condition, message) \
  do {                                                  \
    (void)sizeof((condition));                          \
  } while (0)
#endif
