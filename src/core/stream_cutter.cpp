#include "core/stream_cutter.hpp"

#include <algorithm>

namespace dynriver::core::detail {

StreamCutter::StreamCutter(std::size_t merge_gap_samples,
                           std::size_t min_ensemble_samples)
    : merge_gap_(merge_gap_samples), min_len_(min_ensemble_samples) {}

void StreamCutter::step_run(bool trig, const float* data, std::size_t offset,
                            std::size_t len) {
  if (len == 0) return;
  if (trig) {
    if (pending_) {
      // Trigger re-fired within the merge gap (an eager finalize would have
      // run otherwise): absorb the buffered gap and continue the ensemble.
      buf_.insert(buf_.end(), gap_.begin(), gap_.end());
      gap_.clear();
      pending_ = false;
      cutting_ = true;
    } else if (!cutting_) {
      cutting_ = true;
      start_ = pos_;
    }
    buf_.insert(buf_.end(), data + offset, data + offset + len);
  } else {
    if (cutting_) {
      cutting_ = false;
      pending_ = true;
    }
    if (pending_) {
      // Only the first merge_gap_ + 1 gap samples matter: the gap is
      // decided at that sample and the rest of the quiet run is ignored.
      const std::size_t take = std::min(len, merge_gap_ + 1 - gap_.size());
      gap_.insert(gap_.end(), data + offset, data + offset + take);
      if (gap_.size() > merge_gap_) finalize();
    }
  }
  pos_ += len;
}

void StreamCutter::finish() {
  if (cutting_) {
    cutting_ = false;
    pending_ = true;
  }
  if (pending_) finalize();
}

void StreamCutter::finalize() {
  pending_ = false;
  // Gap samples never belong to an ensemble — they are only absorbed when
  // the trigger re-fires inside the merge window.
  gap_.clear();
  if (buf_.size() >= min_len_) {
    ready_.push_back(river::Ensemble{start_, std::move(buf_)});
  }
  buf_.clear();  // drops a run under the floor; resets a moved-from buffer
}

std::size_t StreamCutter::buffered_samples() const {
  std::size_t acc = buf_.size() + gap_.size();
  for (const auto& e : ready_) acc += e.samples.size();
  return acc;
}

void StreamCutter::reset() {
  pos_ = 0;
  cutting_ = false;
  pending_ = false;
  start_ = 0;
  buf_.clear();
  gap_.clear();
  ready_.clear();
}

}  // namespace dynriver::core::detail
