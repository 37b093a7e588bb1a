// The one true cutter automaton.
//
// detail::StreamCutter runs the trigger-run -> gap-merge -> length-floor
// state machine over C synchronized channels, buffering only the open
// ensemble and the merge-gap lookahead. It is the single implementation of
// the paper's cutter semantics: the one session core (detail::SessionCore)
// behind StreamSession (C = 1) and MultiStreamSession delegates to it, and
// the river operator ExtractOp runs a StreamSession, so the operator path and
// the sessions cannot diverge (tests/test_core_ops.cpp proves them
// bit-identical under every recordization).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

namespace dynriver::core::detail {

/// The trigger-run -> gap-merge -> length-floor automaton over C
/// synchronized channels, buffering only the open ensemble and the merge
/// gap.
class StreamCutter {
 public:
  StreamCutter(std::size_t channels, std::size_t merge_gap_samples,
               std::size_t min_ensemble_samples);

  /// Feed `len` consecutive frames that all share one trigger value —
  /// `channels[c] + offset` points at channel c's first sample. The open
  /// ensemble and merge gap grow by bulk range inserts: trigger runs are
  /// thousands of samples long, so callers flush per *run*, not per sample
  /// (see SessionCore::push), and any split of a run into shorter runs gives
  /// the same cuts (the sessions' chunk sweeps down to 1-sample pushes pin
  /// this).
  void step_run(bool trig, const float* const* channels, std::size_t offset,
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

  struct Cut {
    std::size_t start_sample = 0;
    std::vector<std::vector<float>> channels;  ///< equal-length cuts
  };
  /// Oldest completed ensemble, if any.
  [[nodiscard]] std::optional<Cut> pop();
  [[nodiscard]] std::size_t ready() const { return ready_.size(); }

  /// Per-channel samples currently buffered (open ensemble + merge gap +
  /// undrained cuts) — the quantity the bounded-memory soak test pins down.
  [[nodiscard]] std::size_t buffered_samples() const;

 private:
  void finalize();

  std::size_t channels_;
  std::size_t merge_gap_;
  std::size_t min_len_;
  std::size_t pos_ = 0;  ///< absolute index of the next frame
  bool cutting_ = false;
  bool pending_ = false;
  std::size_t start_ = 0;
  std::vector<std::vector<float>> bufs_;  ///< open ensemble, per channel
  std::vector<std::vector<float>> gaps_;  ///< merge-gap lookahead, per channel
  std::deque<Cut> ready_;
};

}  // namespace dynriver::core::detail
