// Batch feature extraction facade: ensemble samples -> patterns.
//
// Implements the paper's spectral stages (reslice, welchwindow, float2cplx,
// dft, cabs, cutout, paa, rec2vect) as direct DSP calls. It is the only
// implementation: the river operator FeaturizeOp (core/birdsong.hpp) runs
// one FeatureExtractor per pipeline.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "core/spectral_engine.hpp"

namespace dynriver::core {

class FeatureExtractor {
 public:
  /// `engine` lets several extractors (and river pipelines) share one
  /// SpectralEngine; nullptr builds a private engine from `params`.
  explicit FeatureExtractor(PipelineParams params,
                            std::shared_ptr<const SpectralEngine> engine = nullptr);

  /// Compute the spectrum (post-cutout, post-PAA) of one analysis record.
  [[nodiscard]] std::vector<float> record_spectrum(
      std::span<const float> record) const;

  /// Full pattern extraction for one ensemble: returns patterns of
  /// params().features_per_pattern() floats each. Ensembles too short to
  /// fill one pattern yield an empty vector. All full-size records
  /// (originals and 50%-overlap reslices) run through one batched spectral
  /// call (SpectralEngine::windowed_magnitudes_batch); only a trailing
  /// partial record is transformed singly.
  [[nodiscard]] std::vector<std::vector<float>> patterns(
      std::span<const float> ensemble) const;

  [[nodiscard]] const PipelineParams& params() const { return params_; }
  [[nodiscard]] const std::shared_ptr<const SpectralEngine>& engine() const {
    return engine_;
  }

 private:
  /// Cutout band + optional PAA of one dft_size magnitude row.
  [[nodiscard]] std::vector<float> band_of(std::span<const float> mags) const;

  PipelineParams params_;
  std::shared_ptr<const SpectralEngine> engine_;
};

}  // namespace dynriver::core
