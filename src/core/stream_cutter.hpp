// The one true cutter automaton.
//
// detail::StreamCutter runs the trigger-run -> gap-merge -> length-floor
// state machine over one signal, buffering only the open ensemble and the
// merge-gap lookahead. It is the single implementation of the paper's cutter
// semantics: StreamSession delegates to it, and the river operator ExtractOp
// runs a StreamSession, so the operator path and the session cannot diverge
// (tests/test_core_ops.cpp proves them bit-identical under every
// recordization).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "river/sample_io.hpp"

namespace dynriver::core::detail {

/// The trigger-run -> gap-merge -> length-floor automaton, buffering only
/// the open ensemble and the merge gap.
class StreamCutter {
 public:
  StreamCutter(std::size_t merge_gap_samples, std::size_t min_ensemble_samples);

  /// Feed `len` consecutive samples, `data + offset` onwards, that all share
  /// one trigger value. The open ensemble and merge gap grow by bulk range
  /// inserts: trigger runs are thousands of samples long, so callers flush
  /// per *run*, not per sample (see StreamSession::advance), and any split of
  /// a run into shorter runs gives the same cuts (the session's chunk sweeps
  /// down to 1-sample pushes pin this).
  void step_run(bool trig, const float* data, std::size_t offset,
                std::size_t len);

  /// End of stream: close the open run, decide the pending ensemble.
  void finish();
  void reset();

  /// True between ensembles: no open run, no pending merge decision. The
  /// safe boundary for re-parameterization — set_bounds() here cannot
  /// retroactively change any in-flight ensemble's fate.
  [[nodiscard]] bool idle() const { return !cutting_ && !pending_; }

  /// Re-parameterize the automaton. Callers re-tuning a live stream should
  /// wait for idle() (StreamSession::reconfigure does); changing bounds
  /// mid-ensemble legally applies the new values to the open decision.
  void set_bounds(std::size_t merge_gap_samples,
                  std::size_t min_ensemble_samples) {
    merge_gap_ = merge_gap_samples;
    min_len_ = min_ensemble_samples;
  }

  /// Move out the completed ensembles, oldest first.
  [[nodiscard]] std::vector<river::Ensemble> take() {
    return std::exchange(ready_, {});
  }
  [[nodiscard]] std::size_t ready() const { return ready_.size(); }

  /// Samples currently buffered (open ensemble + merge gap + untaken
  /// ensembles) — the quantity the bounded-memory soak test pins down.
  [[nodiscard]] std::size_t buffered_samples() const;

 private:
  void finalize();

  std::size_t merge_gap_;
  std::size_t min_len_;
  std::size_t pos_ = 0;  ///< absolute index of the next sample
  bool cutting_ = false;
  bool pending_ = false;
  std::size_t start_ = 0;
  std::vector<float> buf_;  ///< open ensemble
  std::vector<float> gap_;  ///< merge-gap lookahead
  std::vector<river::Ensemble> ready_;
};

}  // namespace dynriver::core::detail
