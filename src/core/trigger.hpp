// The paper's trigger stage: an adaptive threshold over the smoothed SAX
// anomaly score (paper, Section 3). A score fires the trigger while it
// exceeds mu0 + k*sigma0, with mu0/sigma0 estimated over untriggered scores.
#pragma once

#include <cmath>
#include <cstddef>

namespace dynriver::core {

/// Sample-wise adaptive trigger state machine, shared by every extraction
/// session (and through them the batch facades and the river operators).
///
/// mu0/sigma0 are estimated incrementally from scores observed while the
/// trigger is 0; the trigger emits 1 while score > mu0 + sigma_threshold *
/// sigma0 (after a minimum baseline has accumulated).
class TriggerState {
 public:
  /// `hold_samples` keeps the trigger active for that many consecutive
  /// below-threshold samples before releasing -- bridging brief lulls inside
  /// a vocalization (e.g. syllable interiors) so one song cuts as one
  /// ensemble rather than fragments.
  TriggerState(double sigma_threshold, std::size_t min_baseline,
               std::size_t hold_samples = 0);

  /// Feed one (smoothed) anomaly score; returns the trigger value (0 or 1).
  /// Header-inline: one call per sample in every session scoring loop —
  /// outlined, the call plus the baseline update were a measurable slice
  /// of per-sample extraction cost.
  [[nodiscard]] bool push(double score) {
    // The anomaly scorer emits exact zeros until its windows warm up;
    // feeding them into the baseline would zero sigma0 and make the first
    // real score fire the trigger spuriously.
    if (!seen_nonzero_) {
      if (score == 0.0) return false;
      seen_nonzero_ = true;
    }

    // Decision in squared space: score > mu0 + sigma_threshold*sigma0 with
    // d = score - mu0 is (d > 0) && (d^2 * count > sigma_threshold^2 * m2),
    // since sigma0^2 = m2/count. Same decision as the literal formula
    // (both sides non-negative, squaring is monotonic) but division- and
    // sqrt-free — the old per-sample stddev() dominated this loop.
    const double d = score - mean_;
    const bool above = count_ >= min_baseline_ && d > 0.0 &&
                       d * d * static_cast<double>(count_) > sigma_sq_ * m2_;
    if (above) {
      active_ = true;
      below_count_ = 0;
      return true;
    }
    if (active_ && below_count_ < hold_samples_) {
      // Hold: bridge brief lulls without updating the baseline.
      ++below_count_;
      return true;
    }
    // Untriggered scores feed the incremental mu0/sigma0 estimate; scores
    // seen while triggered are deliberately excluded so events do not
    // poison the baseline. Welford, with the divide hoisted out of the
    // mean_ dependency chain: 1/count depends only on the sample counter,
    // so the division pipelines ahead of the serial add+multiply chain
    // instead of stalling it (a measurable slice of per-sample cost).
    active_ = false;
    below_count_ = 0;
    ++count_;
    mean_ += d * (1.0 / static_cast<double>(count_));
    m2_ += d * (score - mean_);
    return false;
  }

  [[nodiscard]] double mu0() const { return mean_; }
  [[nodiscard]] double sigma0() const {
    return count_ < 2 ? 0.0
                      : std::sqrt(m2_ / static_cast<double>(count_));
  }
  [[nodiscard]] double threshold() const {
    return mu0() + sigma_threshold_ * sigma0();
  }
  [[nodiscard]] bool active() const { return active_; }
  void reset();

  /// Re-tune the decision thresholds while keeping the accumulated
  /// mu0/sigma0 baseline (live session re-parameterization). Callers should
  /// be between trigger runs (active() false) so no run straddles the
  /// old and new rules; StreamSession::reconfigure guarantees that.
  void set_thresholding(double sigma_threshold, std::size_t min_baseline,
                        std::size_t hold_samples);

 private:
  double sigma_threshold_;
  double sigma_sq_;  ///< sigma_threshold_^2, for the squared-space decision
  std::size_t min_baseline_;
  std::size_t hold_samples_;
  /// Inline Welford baseline (mu0/sigma0 over untriggered scores). Kept as
  /// raw members rather than a RunningStats so push() can fold the decision
  /// and the update over one shared `d = score - mean_` without an outlined
  /// variance call per sample.
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  bool active_ = false;
  bool seen_nonzero_ = false;  // skip the scorer's warmup zeros
  std::size_t below_count_ = 0;
};

}  // namespace dynriver::core
