// End-to-end assembly of the paper's Figure 5 pipeline as river operators.
//
// Clips enter as scoped record streams (wav2rec: clip_to_records). The
// figure's stages run inside two thin operators over the same engines the
// production paths use, so the operator graph and the sessions cannot
// drift apart:
//   - ExtractOp (saxanomaly -> trigger -> cutter) owns one StreamSession
//     and turns each clip scope into nested ensemble scopes;
//   - FeaturizeOp (reslice .. rec2vect) owns one FeatureExtractor and turns
//     the audio of each innermost scope into classifier-ready patterns.
// The builders return river::Pipeline objects that can run in-process, be
// split into Segments across hosts, or be relocated at runtime by the
// PipelineManager.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/params.hpp"
#include "core/stream_session.hpp"
#include "dsp/wav.hpp"
#include "river/pipeline.hpp"

namespace dynriver::core {

/// wav2rec: split a decoded clip into a scoped record stream:
///   OpenScope(clip, attrs: sample_rate, clip_id, num_samples, extra...) ,
///   Data(audio)*, CloseScope(clip).
[[nodiscard]] std::vector<river::Record> clip_to_records(
    const dsp::WavClip& clip, std::uint64_t clip_id, std::size_t record_size,
    const river::AttrMap& extra_attrs = {});

/// saxanomaly -> trigger -> cutter over one StreamSession. Each clip scope
/// restarts the session; its audio records are consumed and replaced by
/// ensemble scopes nested one level below the clip, each carrying the clip
/// attrs plus ensemble_id/start_sample/num_samples and one audio record
/// (river::ensemble_to_records). Ensembles decided inside the clip close
/// with CloseScope; those decided by the clip's own close inherit its kind,
/// and a flush() mid-clip (upstream gone) closes the tail as bad. Records
/// outside a clip pass through unchanged.
class ExtractOp final : public river::Operator {
 public:
  explicit ExtractOp(const PipelineParams& params,
                     std::shared_ptr<const SpectralEngine> engine = nullptr);

  void process(river::Record rec, river::Emitter& out) override;
  void flush(river::Emitter& out) override;
  [[nodiscard]] std::string_view name() const override { return "extract"; }

 private:
  void emit(river::Emitter& out, const std::vector<river::Ensemble>& ensembles,
            bool bad);

  StreamSession session_;
  river::AttrMap clip_attrs_;
  std::uint32_t clip_depth_ = 0;
  bool in_clip_ = false;
  std::uint64_t next_ensemble_id_ = 0;
};

/// reslice -> welchwindow -> float2cplx -> dft -> cabs -> cutout -> [paa]
/// -> rec2vect over one FeatureExtractor. Collects the audio of each
/// innermost scope; when that scope closes (CloseScope or BadCloseScope),
/// emits its kSubtypePattern records (attr `pattern_index`), then forwards
/// the close. Patterns never straddle scope boundaries.
class FeaturizeOp final : public river::Operator {
 public:
  explicit FeaturizeOp(const PipelineParams& params,
                       std::shared_ptr<const SpectralEngine> engine = nullptr);

  void process(river::Record rec, river::Emitter& out) override;
  void flush(river::Emitter& out) override;
  [[nodiscard]] std::string_view name() const override { return "featurize"; }

 private:
  void emit_patterns(river::Emitter& out);

  FeatureExtractor features_;
  std::vector<float> samples_;  ///< audio of the current innermost scope
  std::uint32_t depth_ = 0;     ///< scope depth of that audio
};

/// ExtractOp alone.
[[nodiscard]] river::Pipeline make_extraction_pipeline(
    const PipelineParams& params);

/// FeaturizeOp alone.
[[nodiscard]] river::Pipeline make_spectral_pipeline(const PipelineParams& params);

/// ExtractOp -> FeaturizeOp, sharing one SpectralEngine.
[[nodiscard]] river::Pipeline make_full_pipeline(const PipelineParams& params);

/// A pattern harvested from the pipeline output, with its provenance.
struct ExtractedPattern {
  std::vector<float> features;
  std::int64_t clip_id = -1;
  std::int64_t ensemble_id = -1;
  std::int64_t start_sample = -1;     ///< ensemble start within the clip
  std::int64_t ensemble_samples = 0;  ///< ensemble length
  std::string species;                ///< ground-truth attr if present
};

/// Run a clip through the full pipeline and harvest all patterns.
[[nodiscard]] std::vector<ExtractedPattern> process_clip(
    const dsp::WavClip& clip, std::uint64_t clip_id, const PipelineParams& params,
    const river::AttrMap& extra_attrs = {});

/// Collect patterns from a pipeline output record stream (pattern records
/// inside ensemble scopes).
[[nodiscard]] std::vector<ExtractedPattern> harvest_patterns(
    const std::vector<river::Record>& records);

/// Text rendering of the Figure 5 stage graph for the given parameters,
/// with each stage grouped under the operator that runs it.
[[nodiscard]] std::string pipeline_diagram(const PipelineParams& params);

}  // namespace dynriver::core
