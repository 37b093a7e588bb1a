#include "core/trigger.hpp"

#include "common/contracts.hpp"

namespace dynriver::core {

TriggerState::TriggerState(double sigma_threshold, std::size_t min_baseline,
                           std::size_t hold_samples)
    : sigma_threshold_(sigma_threshold),
      sigma_sq_(sigma_threshold * sigma_threshold),
      min_baseline_(min_baseline),
      hold_samples_(hold_samples) {
  DR_EXPECTS(sigma_threshold > 0.0);
}

void TriggerState::reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  active_ = false;
  seen_nonzero_ = false;
  below_count_ = 0;
}

void TriggerState::set_thresholding(double sigma_threshold,
                                    std::size_t min_baseline,
                                    std::size_t hold_samples) {
  DR_EXPECTS(sigma_threshold > 0.0);
  sigma_threshold_ = sigma_threshold;
  sigma_sq_ = sigma_threshold * sigma_threshold;
  min_baseline_ = min_baseline;
  hold_samples_ = hold_samples;
}

}  // namespace dynriver::core
