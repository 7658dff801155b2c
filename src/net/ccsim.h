// Congestion controllers (MegaScale §3.6 "Congestion control").
//
// The paper observes that default DCQCN under all-to-all traffic drives
// deep switch queues, triggers Priority Flow Control (PFC) pauses and
// head-of-line blocking; they deploy a hybrid algorithm combining Swift's
// precise RTT measurement with DCQCN's fast ECN response.
//
// This header holds the per-sender controllers only: DCQCN, Swift and the
// hybrid, each fed delayed (RTT, ECN) feedback. The fluid PFC chain that
// drives them (one bottleneck is its one-hop case) is in ccsim_multi.h.
#pragma once
// ms-lint: allow-file(raw-seconds): the fluid model integrates rate * dt in
// double seconds by design; TimeNs applies at event-scheduling boundaries.

#include <string>

namespace ms::net {

struct CcFeedback {
  double rtt_s = 0;       // measured round-trip time, seconds
  bool ecn = false;       // ECN-CE observed on this feedback
  double line_rate = 0;   // bytes/s
  double dt = 0;          // feedback interval, seconds
};

/// Per-sender congestion controller. Stateful; one instance per sender.
class CcAlgorithm {
 public:
  virtual ~CcAlgorithm() = default;
  virtual std::string name() const = 0;
  /// Initial sending rate (bytes/s) given the NIC line rate.
  virtual double initial_rate(double line_rate) const { return line_rate; }
  /// Consumes one feedback sample, returns the new sending rate (bytes/s).
  virtual double on_feedback(double current_rate, const CcFeedback& fb) = 0;
};

/// DCQCN (Zhu et al., SIGCOMM'15), simplified: ECN-fraction EWMA `alpha`,
/// multiplicative decrease on mark, fast-recovery then additive increase.
class Dcqcn : public CcAlgorithm {
 public:
  std::string name() const override { return "DCQCN"; }
  double on_feedback(double current_rate, const CcFeedback& fb) override;

 private:
  double alpha_ = 1.0;
  double target_rate_ = 0;
  int recovery_stage_ = 0;
  double since_decrease_s_ = 0;
};

/// Swift (Kumar et al., SIGCOMM'20), simplified: delay-target AIMD with
/// multiplicative decrease proportional to delay overshoot.
class Swift : public CcAlgorithm {
 public:
  explicit Swift(double target_delay_s = 20e-6) : target_delay_s_(target_delay_s) {}
  std::string name() const override { return "Swift"; }
  double on_feedback(double current_rate, const CcFeedback& fb) override;

 private:
  double target_delay_s_;
  double since_decrease_s_ = 0;
};

/// MegaScale's hybrid: ECN provides the fast brake (multiplicative decrease
/// before the queue ever reaches the PFC threshold), RTT provides the fine
/// control that lets the rate sit just under the bandwidth-delay product
/// instead of oscillating.
class MegaScaleCc : public CcAlgorithm {
 public:
  explicit MegaScaleCc(double target_delay_s = 15e-6)
      : target_delay_s_(target_delay_s) {}
  std::string name() const override { return "MegaScaleCC"; }
  double on_feedback(double current_rate, const CcFeedback& fb) override;

 private:
  double target_delay_s_;
  double ecn_ewma_ = 1.0;  // assume congestion until told otherwise
};

}  // namespace ms::net
