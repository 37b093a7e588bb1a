// Batch ensemble extraction facade.
//
// EnsembleExtractor is a thin wrapper over core::StreamSession: extract()
// opens a session with full-history signal taps, pushes the whole clip, and
// finishes — so batch and chunked execution share one code path and are
// bit-identical by construction. The river ExtractOp runs the same session
// (tests/test_core_ops.cpp pins them equal), and this facade is convenient for
// analysis code, tests, and the figure benches; long-running ingest should
// use StreamSession directly (bounded memory, ensembles as they close).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/params.hpp"
#include "river/sample_io.hpp"

namespace dynriver::core {

/// One extracted ensemble: a contiguous stretch of the original signal where
/// the trigger was active. Defined with the stream adapters (sinks persist
/// and ship it); aliased here for the extraction-facing spelling.
using Ensemble = river::Ensemble;

struct ExtractionResult {
  std::vector<Ensemble> ensembles;
  /// Smoothed anomaly score per input sample (filled when keep_signals).
  std::vector<float> scores;
  /// Trigger value per input sample (filled when keep_signals).
  std::vector<std::uint8_t> trigger;

  /// Samples retained across all ensembles.
  [[nodiscard]] std::size_t retained_samples() const;
  /// 1 - retained/total: the paper's headline data reduction (~80.6%).
  [[nodiscard]] double reduction_fraction(std::size_t total_samples) const;
};

class EnsembleExtractor {
 public:
  /// `engine` lets the extractor share one SpectralEngine with other
  /// spectral consumers (FeatureExtractor, river pipelines); nullptr builds
  /// a private engine from `params`.
  explicit EnsembleExtractor(PipelineParams params,
                             std::shared_ptr<const SpectralEngine> engine = nullptr);

  /// Extract all ensembles from a clip. `keep_signals` additionally returns
  /// the per-sample score and trigger series (Fig. 6).
  [[nodiscard]] ExtractionResult extract(std::span<const float> samples,
                                         bool keep_signals = false) const;

  /// Spectral patterns of one extracted ensemble, computed through the
  /// shared engine (equivalent to FeatureExtractor::patterns).
  [[nodiscard]] std::vector<std::vector<float>> featurize(
      const Ensemble& ensemble) const;

  [[nodiscard]] const PipelineParams& params() const { return params_; }
  [[nodiscard]] const std::shared_ptr<const SpectralEngine>& engine() const {
    return features_.engine();
  }

 private:
  PipelineParams params_;
  FeatureExtractor features_;  ///< shares the engine; powers featurize()
};

}  // namespace dynriver::core
