// The paper's Figure 5 as river operators: clip recordization, the trigger
// state machine, ExtractOp/FeaturizeOp scope handling, and exact
// equivalence between the operator pipeline and StreamSession +
// FeatureExtractor under every recordization (including upstream death).
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "core/birdsong.hpp"
#include "core/extractor.hpp"
#include "core/features.hpp"
#include "core/stream_session.hpp"
#include "core/trigger.hpp"
#include "river/scope.hpp"
#include "synth/station.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace dsp = dynriver::dsp;
namespace river = dynriver::river;
namespace synth = dynriver::synth;
using river::Record;
using river::RecordType;

namespace {
core::PipelineParams test_params() {
  core::PipelineParams p;
  return p;
}

synth::ClipRecording record_test_clip(std::uint64_t seed) {
  return dynriver::testsupport::record_station_clip(
      seed, {synth::SpeciesId::kNOCA, synth::SpeciesId::kTUTI});
}
}  // namespace

TEST(ClipToRecords, ScopedStreamShape) {
  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.samples.assign(2000, 0.25F);
  const auto records = core::clip_to_records(clip, 7, 900);
  // open + 3 data (900+900+200) + close
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().type, RecordType::kOpenScope);
  EXPECT_EQ(records.front().attr_int(river::kAttrClipId, -1), 7);
  EXPECT_DOUBLE_EQ(records.front().attr_double(river::kAttrSampleRate, 0), 21600.0);
  EXPECT_EQ(records[1].floats().size(), 900u);
  EXPECT_EQ(records[3].floats().size(), 200u);
  EXPECT_EQ(records.back().type, RecordType::kCloseScope);

  river::ScopeTracker tracker;
  for (const auto& rec : records) tracker.observe(rec);
  EXPECT_FALSE(tracker.any_open());
}

TEST(TriggerState, LeadingZerosIgnored) {
  core::TriggerState state(5.0, 10);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(state.push(0.0));
  // Baseline must still be empty: zeros were warmup, not statistics.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(state.push(0.5 + 0.001 * i));
  // Now the baseline has 10 entries around 0.5; a huge score triggers.
  EXPECT_TRUE(state.push(50.0));
}

TEST(TriggerState, HoldBridgesShortDips) {
  core::TriggerState state(5.0, 5, /*hold_samples=*/3);
  for (int i = 0; i < 50; ++i) (void)state.push(0.1 + 0.001 * (i % 3));
  EXPECT_TRUE(state.push(10.0));
  // Short dip below threshold: held.
  EXPECT_TRUE(state.push(0.1));
  EXPECT_TRUE(state.push(0.1));
  EXPECT_TRUE(state.push(0.1));
  // Hold exhausted: releases.
  EXPECT_FALSE(state.push(0.1));
}

TEST(FullPipeline, OutputStreamIsScopeWellFormed) {
  const auto clip = record_test_clip(77);
  auto pipeline = core::make_full_pipeline(test_params());
  const auto out = river::run_pipeline(
      pipeline, core::clip_to_records(clip.clip, 0, test_params().record_size));

  river::ScopeTracker tracker;
  std::size_t ensembles = 0;
  std::size_t patterns = 0;
  for (const auto& rec : out) {
    tracker.observe(rec);
    if (rec.type == RecordType::kOpenScope &&
        rec.scope_type == river::kScopeEnsemble) {
      ++ensembles;
    }
    if (rec.type == RecordType::kData && rec.subtype == river::kSubtypePattern) {
      ++patterns;
    }
  }
  EXPECT_FALSE(tracker.any_open());
  EXPECT_GE(ensembles, 2u);  // both planted songs found
  EXPECT_GT(patterns, ensembles);
}

TEST(FullPipeline, MatchesBatchFacades) {
  // The operator pipeline and the EnsembleExtractor+FeatureExtractor facades
  // must produce identical patterns for the same clip, bit for bit.
  const auto clip = record_test_clip(78);
  const auto params = test_params();

  auto pipeline = core::make_full_pipeline(params);
  const auto out = river::run_pipeline(
      pipeline, core::clip_to_records(clip.clip, 0, params.record_size));
  const auto pipeline_patterns = core::harvest_patterns(out);

  const core::EnsembleExtractor extractor(params);
  const core::FeatureExtractor features(params);
  const auto extraction = extractor.extract(clip.clip.samples);

  std::vector<std::vector<float>> facade_patterns;
  for (const auto& ensemble : extraction.ensembles) {
    for (auto& pat : features.patterns(ensemble.samples)) {
      facade_patterns.push_back(std::move(pat));
    }
  }

  ASSERT_EQ(pipeline_patterns.size(), facade_patterns.size());
  for (std::size_t i = 0; i < facade_patterns.size(); ++i) {
    EXPECT_EQ(pipeline_patterns[i].features, facade_patterns[i])
        << "pattern " << i;
  }
}

TEST(FullPipeline, EnsembleAttrsCarryProvenance) {
  const auto clip = record_test_clip(79);
  const auto params = test_params();
  river::AttrMap extra;
  extra.emplace(river::kAttrSpecies, std::string("NOCA"));

  const auto patterns = core::process_clip(clip.clip, 42, params, extra);
  ASSERT_FALSE(patterns.empty());
  for (const auto& p : patterns) {
    EXPECT_EQ(p.clip_id, 42);
    EXPECT_EQ(p.species, "NOCA");
    EXPECT_GE(p.ensemble_id, 0);
    EXPECT_GT(p.ensemble_samples, 0);
    EXPECT_EQ(p.features.size(), params.features_per_pattern());
  }
}

// ---------------------------------------------------------------------------
// One execution model: operator pipeline == StreamSession + FeatureExtractor
// ---------------------------------------------------------------------------

namespace {

/// One ensemble scope of a pipeline output stream: its start, its audio
/// (extraction output), its patterns (full-pipeline output), and its close.
struct ScopedEnsemble {
  std::size_t start_sample = 0;
  std::vector<float> samples;
  std::vector<std::vector<float>> patterns;
  RecordType close = RecordType::kCloseScope;
};

std::vector<ScopedEnsemble> parse_ensembles(const std::vector<Record>& records) {
  std::vector<ScopedEnsemble> out;
  bool in_ensemble = false;
  for (const auto& rec : records) {
    if (rec.scope_type == river::kScopeEnsemble &&
        rec.type == RecordType::kOpenScope) {
      in_ensemble = true;
      out.emplace_back();
      out.back().start_sample = static_cast<std::size_t>(
          rec.attr_int(river::kAttrStartSample, -1));
    } else if (rec.scope_type == river::kScopeEnsemble &&
               river::is_scope_close(rec.type)) {
      in_ensemble = false;
      out.back().close = rec.type;
    } else if (in_ensemble && rec.type == RecordType::kData && rec.is_float()) {
      const auto f = rec.floats();
      if (rec.subtype == river::kSubtypeAudio) {
        out.back().samples.insert(out.back().samples.end(), f.begin(), f.end());
      } else if (rec.subtype == river::kSubtypePattern) {
        out.back().patterns.emplace_back(f.begin(), f.end());
      }
    }
  }
  return out;
}

/// Run `input` through the extraction pipeline and the full pipeline, and
/// compare both exactly against `want` (ensembles from a StreamSession fed
/// the same samples): ensembles sample for sample, patterns bit for bit
/// against FeatureExtractor, and each ensemble's close kind against
/// `closes`. Returns the total pattern count.
std::size_t expect_pipeline_matches(const core::PipelineParams& params,
                                    const std::vector<Record>& input,
                                    const std::vector<river::Ensemble>& want,
                                    const std::vector<RecordType>& closes,
                                    std::size_t record_size) {
  auto extraction = core::make_extraction_pipeline(params);
  auto full = core::make_full_pipeline(params);
  const auto cut = parse_ensembles(river::run_pipeline(extraction, input));
  const auto featurized = parse_ensembles(river::run_pipeline(full, input));
  const core::FeatureExtractor features(params);

  EXPECT_EQ(cut.size(), want.size()) << "record_size=" << record_size;
  EXPECT_EQ(featurized.size(), want.size()) << "record_size=" << record_size;
  if (cut.size() != want.size() || featurized.size() != want.size()) return 0;
  std::size_t patterns = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(testing::Message()
                 << "record_size=" << record_size << " ensemble=" << i);
    EXPECT_EQ(cut[i].start_sample, want[i].start_sample);
    EXPECT_EQ(cut[i].samples, want[i].samples);
    EXPECT_EQ(cut[i].close, closes[i]);
    EXPECT_EQ(featurized[i].start_sample, want[i].start_sample);
    EXPECT_EQ(featurized[i].patterns, features.patterns(want[i].samples));
    EXPECT_EQ(featurized[i].close, closes[i]);
    patterns += featurized[i].patterns.size();
  }
  return patterns;
}

/// Recordize `xs` as one clip at `record_size` and compare the pipelines
/// against a StreamSession + FeatureExtractor fed the same signal. Returns
/// the total pattern count.
std::size_t expect_operator_matches_session(const core::PipelineParams& params,
                                            std::span<const float> xs,
                                            std::size_t record_size) {
  dsp::WavClip clip;
  clip.sample_rate = static_cast<std::uint32_t>(params.sample_rate);
  clip.samples.assign(xs.begin(), xs.end());

  core::StreamSession session(params);
  session.push(xs);
  const auto want = session.finish();
  return expect_pipeline_matches(
      params, core::clip_to_records(clip, 0, record_size), want,
      std::vector<RecordType>(want.size(), RecordType::kCloseScope),
      record_size);
}

core::PipelineParams small_cutter_params() {
  core::PipelineParams params;
  params.anomaly = {.window = 50, .alphabet = 6, .level = 2,
                    .ma_window = 400, .frame = 8};
  params.trigger_min_baseline = 1500;
  params.trigger_hold_samples = 300;
  params.min_ensemble_samples = 600;
  params.merge_gap_samples = 2000;
  return params;
}

}  // namespace

TEST(ExtractOp, BitIdenticalToStreamSessionOnStationClips) {
  // ExtractOp runs a StreamSession and FeaturizeOp a FeatureExtractor, so
  // the operator path must agree with them exactly on real field clips,
  // ensembles and patterns alike, for every recordization.
  const auto params = test_params();
  for (const std::uint64_t seed : {11ULL, 29ULL}) {
    const auto clip = dynriver::testsupport::record_station_clip(
        seed, {synth::SpeciesId::kNOCA, synth::SpeciesId::kRWBL});
    for (const std::size_t record_size : {std::size_t{256}, std::size_t{900},
                                          std::size_t{4096}}) {
      EXPECT_GT(expect_operator_matches_session(params, clip.clip.samples,
                                                record_size),
                0u)
          << "seed=" << seed;
    }
  }
}

TEST(ExtractOp, BitIdenticalToStreamSessionUnderEveryRecordization) {
  // Down-scaled parameters + synthetic events: sweep record sizes down to
  // single-sample records, where every pending/merge/floor transition is
  // crossed one record at a time.
  const auto params = small_cutter_params();
  for (const unsigned seed : {5U, 13U}) {
    const auto xs = dynriver::testsupport::noise_with_bursts(
        30000, 30000 / 4, 30000 / 6, seed);
    for (const std::size_t record_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{250}, std::size_t{900},
          std::size_t{30000}}) {
      EXPECT_GT(expect_operator_matches_session(params, xs, record_size), 0u)
          << "seed=" << seed;
    }
  }
}

TEST(ExtractOp, RecordsOutsideAClipPassThrough) {
  const auto params = test_params();
  river::Pipeline pipeline = core::make_extraction_pipeline(params);
  const std::vector<Record> input = {
      Record::data(river::kSubtypeAudio, {1.0F, 2.0F}),
      Record::open_scope(river::kScopeStream, 0),
      Record::data(river::kSubtypeSpectrum, {3.0F}),
      Record::close_scope(river::kScopeStream, 0)};
  EXPECT_EQ(river::run_pipeline(pipeline, input), input);
}

TEST(FeaturizeOp, PatternsNeverStraddleScopes) {
  // 1 200 samples fill no pattern (3 resliced records need 1 800); two
  // such scopes back to back must not be merged into one, while the same
  // 2 400 samples split across records inside ONE scope are.
  const auto params = test_params();
  const core::FeatureExtractor features(params);
  std::vector<float> xs(2400);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<float>(std::sin(0.3 * static_cast<double>(i)));
  }
  const river::FloatVec first(xs.begin(), xs.begin() + 1200);
  const river::FloatVec second(xs.begin() + 1200, xs.end());
  const auto data = [](const river::FloatVec& v) {
    Record rec = Record::data(river::kSubtypeAudio, v);
    rec.scope_depth = 1;
    return rec;
  };

  river::Pipeline split = core::make_spectral_pipeline(params);
  const auto apart = parse_ensembles(river::run_pipeline(
      split, {Record::open_scope(river::kScopeEnsemble, 0), data(first),
              Record::close_scope(river::kScopeEnsemble, 0),
              Record::open_scope(river::kScopeEnsemble, 0), data(second),
              Record::bad_close_scope(river::kScopeEnsemble, 0)}));
  ASSERT_EQ(apart.size(), 2u);
  EXPECT_TRUE(apart[0].patterns.empty());
  EXPECT_TRUE(apart[1].patterns.empty());

  river::Pipeline joined = core::make_spectral_pipeline(params);
  const auto out = river::run_pipeline(
      joined, {Record::open_scope(river::kScopeEnsemble, 0), data(first),
               data(second), Record::bad_close_scope(river::kScopeEnsemble, 0)});
  const auto want = features.patterns(xs);
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(out.size(), want.size() + 2);  // open, patterns, then the close
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out[i + 1].subtype, river::kSubtypePattern);
    EXPECT_EQ(out[i + 1].attr_int("pattern_index", -1),
              static_cast<std::int64_t>(i));
    EXPECT_EQ(std::vector<float>(out[i + 1].floats().begin(),
                                 out[i + 1].floats().end()),
              want[i]);
  }
  EXPECT_EQ(out.back().type, RecordType::kBadCloseScope);
}

// An upstream that dies mid-clip: the operator graph must close the tail
// ensemble as bad, keep every earlier ensemble good, still featurize the
// tail, and agree exactly with StreamSession::finish() on the samples that
// arrived — whether the stream just ends (flush) or a segment driver
// injects the clip's BadCloseScope first.
class UpstreamDeath : public testing::TestWithParam<bool> {};

TEST_P(UpstreamDeath, BadClosedTailMatchesSessionFinish) {
  const bool explicit_bad_close = GetParam();
  const auto params = test_params();
  // Seed 2 cuts the clip inside its third ensemble, after two decided ones.
  const auto clip = dynriver::testsupport::record_station_clip(
      2, {synth::SpeciesId::kNOCA, synth::SpeciesId::kTUTI,
          synth::SpeciesId::kRWBL});
  auto records = core::clip_to_records(clip.clip, 0, params.record_size);
  records.resize(records.size() / 2);  // the open scope + the first audio
  std::vector<float> arrived;
  for (const auto& rec : records) {
    if (rec.type == RecordType::kData) {
      arrived.insert(arrived.end(), rec.floats().begin(), rec.floats().end());
    }
  }
  if (explicit_bad_close) {
    records.push_back(Record::bad_close_scope(river::kScopeClip, 0));
  }

  core::StreamSession session(params);
  session.push(arrived);
  auto want = session.drain();
  const auto tail = session.finish();
  ASSERT_FALSE(want.empty()) << "no ensemble decided before the fault";
  ASSERT_EQ(tail.size(), 1u) << "no ensemble open at the fault";
  std::vector<RecordType> closes(want.size(), RecordType::kCloseScope);
  want.push_back(tail.front());
  closes.push_back(RecordType::kBadCloseScope);

  // Exact pattern equality below then proves the bad-closed tail carries
  // its patterns.
  ASSERT_FALSE(core::FeatureExtractor(params).patterns(tail.front().samples).empty());
  expect_pipeline_matches(params, records, want, closes, params.record_size);
}

INSTANTIATE_TEST_SUITE_P(FullPipeline, UpstreamDeath, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& param) {
                           return param.param ? "ExplicitBadClose"
                                             : "StreamEndsMidClip";
                         });

TEST(PipelineDiagram, ListsFigure5Operators) {
  const auto diagram = core::pipeline_diagram(test_params());
  for (const char* op : {"wav2rec", "saxanomaly", "trigger", "cutter", "reslice",
                         "welchwindow", "float2cplx", "dft", "cabs", "cutout",
                         "paa", "rec2vect", "MESO"}) {
    EXPECT_NE(diagram.find(op), std::string::npos) << op;
  }
}
