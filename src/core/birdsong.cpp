#include "core/birdsong.hpp"

#include <algorithm>
#include <sstream>

#include "common/contracts.hpp"

namespace dynriver::core {

using river::Record;
using river::RecordType;

std::vector<Record> clip_to_records(const dsp::WavClip& clip,
                                    std::uint64_t clip_id,
                                    std::size_t record_size,
                                    const river::AttrMap& extra_attrs) {
  DR_EXPECTS(record_size >= 1);
  DR_EXPECTS(clip.sample_rate > 0);

  const auto mono = dsp::to_mono(clip);
  std::vector<Record> out;
  out.reserve(mono.size() / record_size + 3);

  Record open = Record::open_scope(river::kScopeClip, 0);
  open.set_attr(river::kAttrSampleRate, static_cast<double>(clip.sample_rate));
  open.set_attr(river::kAttrClipId, static_cast<std::int64_t>(clip_id));
  open.set_attr(river::kAttrNumSamples, static_cast<std::int64_t>(mono.size()));
  for (const auto& [key, value] : extra_attrs) open.set_attr(key, value);
  out.push_back(std::move(open));

  for (std::size_t start = 0; start < mono.size(); start += record_size) {
    const std::size_t len = std::min(record_size, mono.size() - start);
    river::FloatVec payload(mono.begin() + static_cast<std::ptrdiff_t>(start),
                            mono.begin() + static_cast<std::ptrdiff_t>(start + len));
    Record rec = Record::data(river::kSubtypeAudio, std::move(payload));
    rec.scope_depth = 1;
    out.push_back(std::move(rec));
  }

  out.push_back(Record::close_scope(river::kScopeClip, 0));
  return out;
}

// -- extract -------------------------------------------------------------------

ExtractOp::ExtractOp(const PipelineParams& params,
                     std::shared_ptr<const SpectralEngine> engine)
    : session_(params, {}, std::move(engine)) {}

void ExtractOp::process(Record rec, river::Emitter& out) {
  if (rec.type == RecordType::kOpenScope &&
      rec.scope_type == river::kScopeClip) {
    session_.reset();  // clips are extracted independently
    in_clip_ = true;
    clip_attrs_ = rec.attrs;
    clip_depth_ = rec.scope_depth;
  } else if (in_clip_ && river::is_scope_close(rec.type) &&
             rec.scope_type == river::kScopeClip) {
    // Ensembles decided inside the clip already left with a good close;
    // the one decided only because the clip ended inherits the close kind.
    emit(out, session_.finish(), rec.type == RecordType::kBadCloseScope);
    in_clip_ = false;
  } else if (in_clip_ && rec.type == RecordType::kData &&
             rec.subtype == river::kSubtypeAudio && rec.is_float()) {
    // The clip's audio is consumed here; its output is ensembles.
    if (session_.push(rec.floats()) > 0) emit(out, session_.drain(), false);
    return;
  }
  out.emit(std::move(rec));
}

void ExtractOp::flush(river::Emitter& out) {
  // A stream that ends mid-clip without a close lost its upstream: the
  // tail ensemble, if long enough, is closed as bad.
  if (in_clip_) {
    emit(out, session_.finish(), /*bad=*/true);
    in_clip_ = false;
  }
}

void ExtractOp::emit(river::Emitter& out,
                     const std::vector<river::Ensemble>& ensembles, bool bad) {
  const std::uint32_t depth = clip_depth_ + 1;
  for (const auto& ensemble : ensembles) {
    auto records = river::ensemble_to_records(ensemble, next_ensemble_id_++,
                                              /*sample_rate=*/0.0);
    // Clip context travels with each ensemble; the ensemble's own attrs
    // (id, start, length) win over the clip's.
    records.front().attrs.insert(clip_attrs_.begin(), clip_attrs_.end());
    if (bad) records.back().type = RecordType::kBadCloseScope;
    for (auto& rec : records) {
      rec.scope_depth = rec.type == RecordType::kData ? depth + 1 : depth;
      out.emit(std::move(rec));
    }
  }
}

// -- featurize -----------------------------------------------------------------

FeaturizeOp::FeaturizeOp(const PipelineParams& params,
                         std::shared_ptr<const SpectralEngine> engine)
    : features_(params, std::move(engine)) {}

void FeaturizeOp::process(Record rec, river::Emitter& out) {
  if (rec.type != RecordType::kData) {
    emit_patterns(out);  // scope boundary: patterns never straddle scopes
    out.emit(std::move(rec));
    return;
  }
  if (rec.subtype != river::kSubtypeAudio || !rec.is_float()) {
    out.emit(std::move(rec));
    return;
  }
  if (samples_.empty()) depth_ = rec.scope_depth;
  const auto f = rec.floats();
  samples_.insert(samples_.end(), f.begin(), f.end());
}

void FeaturizeOp::flush(river::Emitter& out) { emit_patterns(out); }

void FeaturizeOp::emit_patterns(river::Emitter& out) {
  if (samples_.empty()) return;
  std::int64_t index = 0;
  for (auto& pattern : features_.patterns(samples_)) {
    Record rec = Record::data(river::kSubtypePattern, std::move(pattern));
    rec.scope_depth = depth_;
    rec.set_attr("pattern_index", index++);
    out.emit(std::move(rec));
  }
  samples_.clear();
}

// -- assembly ------------------------------------------------------------------

river::Pipeline make_extraction_pipeline(const PipelineParams& params) {
  river::Pipeline p;
  p.emplace<ExtractOp>(params);
  return p;
}

river::Pipeline make_spectral_pipeline(const PipelineParams& params) {
  river::Pipeline p;
  p.emplace<FeaturizeOp>(params);
  return p;
}

river::Pipeline make_full_pipeline(const PipelineParams& params) {
  const auto engine = std::make_shared<const SpectralEngine>(params);
  river::Pipeline p;
  p.emplace<ExtractOp>(params, engine);
  p.emplace<FeaturizeOp>(params, engine);
  return p;
}

std::vector<ExtractedPattern> harvest_patterns(
    const std::vector<river::Record>& records) {
  std::vector<ExtractedPattern> out;
  ExtractedPattern context;  // attrs of the innermost open ensemble

  for (const auto& rec : records) {
    switch (rec.type) {
      case RecordType::kOpenScope:
        if (rec.scope_type == river::kScopeEnsemble) {
          context.clip_id = rec.attr_int(river::kAttrClipId, -1);
          context.ensemble_id = rec.attr_int(river::kAttrEnsembleId, -1);
          context.start_sample = rec.attr_int(river::kAttrStartSample, -1);
          context.ensemble_samples = rec.attr_int(river::kAttrNumSamples, 0);
          context.species = rec.attr_string(river::kAttrSpecies, "");
        }
        break;
      case RecordType::kData:
        if (rec.subtype == river::kSubtypePattern && rec.is_float()) {
          ExtractedPattern p = context;
          const auto f = rec.floats();
          p.features.assign(f.begin(), f.end());
          out.push_back(std::move(p));
        }
        break;
      case RecordType::kCloseScope:
      case RecordType::kBadCloseScope:
        break;
    }
  }
  return out;
}

std::vector<ExtractedPattern> process_clip(const dsp::WavClip& clip,
                                           std::uint64_t clip_id,
                                           const PipelineParams& params,
                                           const river::AttrMap& extra_attrs) {
  river::Pipeline pipeline = make_full_pipeline(params);
  auto input = clip_to_records(clip, clip_id, params.record_size, extra_attrs);
  const auto output = river::run_pipeline(pipeline, std::move(input));
  return harvest_patterns(output);
}

std::string pipeline_diagram(const PipelineParams& params) {
  std::ostringstream os;
  os << "sensor -> readout -> storage -> data feed -> wav2rec"
     << " -> extract[saxanomaly -> trigger -> cutter] -> featurize[";
  if (params.reslice) os << "reslice -> ";
  os << "welchwindow -> float2cplx -> dft -> cabs -> cutout";
  if (params.use_paa && params.paa_factor > 1) os << " -> paa";
  os << " -> rec2vect] -> MESO";
  return os.str();
}

}  // namespace dynriver::core
