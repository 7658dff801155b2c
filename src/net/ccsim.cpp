#include "net/ccsim.h"

#include <algorithm>

namespace ms::net {

namespace {
constexpr double kMinRateFraction = 0.001;  // floor: 0.1% of line rate
}

// ----------------------------------------------------------------- DCQCN

double Dcqcn::on_feedback(double current_rate, const CcFeedback& fb) {
  constexpr double kG = 1.0 / 16.0;
  constexpr double kIncreasePeriodS = 55e-6;
  alpha_ = (1.0 - kG) * alpha_ + kG * (fb.ecn ? 1.0 : 0.0);
  double rate = current_rate;
  if (fb.ecn) {
    target_rate_ = current_rate;
    rate = current_rate * (1.0 - alpha_ / 2.0);
    recovery_stage_ = 0;
    since_decrease_s_ = 0;
  } else {
    since_decrease_s_ += fb.dt;
    if (target_rate_ <= 0) target_rate_ = fb.line_rate;
    if (since_decrease_s_ >= kIncreasePeriodS) {
      since_decrease_s_ = 0;
      if (recovery_stage_ < 5) {
        // Fast recovery: climb back toward the pre-decrease rate.
        ++recovery_stage_;
      } else {
        // Additive increase phase: raise the target itself.
        target_rate_ += 0.02 * fb.line_rate;
      }
      rate = (current_rate + target_rate_) / 2.0;
    }
  }
  return std::clamp(rate, kMinRateFraction * fb.line_rate, fb.line_rate);
}

// ----------------------------------------------------------------- Swift

double Swift::on_feedback(double current_rate, const CcFeedback& fb) {
  // Feedback arrives once per RTT, so one decrease per feedback already
  // matches Swift's "at most one multiplicative decrease per RTT".
  constexpr double kBeta = 0.8;
  constexpr double kMaxMdf = 0.5;
  double rate = current_rate;
  since_decrease_s_ += fb.dt;
  if (fb.rtt_s > target_delay_s_) {
    const double overshoot = (fb.rtt_s - target_delay_s_) / fb.rtt_s;
    rate = current_rate * std::max(1.0 - kBeta * overshoot, 1.0 - kMaxMdf);
    since_decrease_s_ = 0;
  } else {
    // Additive increase per RTT.
    rate = current_rate + 0.004 * fb.line_rate;
  }
  return std::clamp(rate, kMinRateFraction * fb.line_rate, fb.line_rate);
}

// ------------------------------------------------------------ MegaScaleCC

double MegaScaleCc::on_feedback(double current_rate, const CcFeedback& fb) {
  constexpr double kG = 1.0 / 8.0;
  ecn_ewma_ = (1.0 - kG) * ecn_ewma_ + kG * (fb.ecn ? 1.0 : 0.0);
  double rate = current_rate;
  if (fb.ecn) {
    // Fast ECN brake (DCQCN-style) — the emergency response that fires
    // within one feedback interval of the queue crossing the mark point.
    rate = current_rate * (1.0 - 0.3 * std::max(ecn_ewma_, 0.25));
  } else if (fb.rtt_s > target_delay_s_) {
    // Precise RTT-proportional trim (Swift-style), once per RTT.
    const double overshoot = (fb.rtt_s - target_delay_s_) / fb.rtt_s;
    rate = current_rate * (1.0 - 0.8 * overshoot);
  } else {
    // Headroom-proportional additive increase per RTT.
    const double headroom = (target_delay_s_ - fb.rtt_s) / target_delay_s_;
    rate = current_rate + (0.002 + 0.008 * headroom) * fb.line_rate;
  }
  return std::clamp(rate, kMinRateFraction * fb.line_rate, fb.line_rate);
}

}  // namespace ms::net
