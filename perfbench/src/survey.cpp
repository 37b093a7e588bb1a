// species_survey: an hour of labelled synthetic field clips, extracted
// (StreamSession push/drain), validated against ground truth, featurized as
// PAA ensemble patterns, MESO-trained on two thirds of the clips and
// classified by ensemble vote on the rest. Single thread, batch.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "core/extractor.hpp"
#include "core/features.hpp"
#include "core/spectral_engine.hpp"
#include "core/stream_session.hpp"
#include "meso/classifier.hpp"
#include "synth/species.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace meso = dynriver::meso;

/// Minimum overlap (of the shorter interval) for an ensemble to count as
/// the planted song it overlaps — the human listener's stand-in.
constexpr double kValidationOverlap = 0.25;
/// The paper reports ~80.6 % data reduction; a run outside this band means
/// extraction changed, not just its speed.
constexpr double kReductionLo = 0.70;
constexpr double kReductionHi = 0.92;
/// Ten species: chance is 0.1. Well below this, classification broke.
constexpr double kAccuracyFloor = 0.5;
/// Clips whose streamed ensembles are checked against the batch facade;
/// their batch ensembles also make the ensemble archive that sizes
/// store_bytes_per_sample.
constexpr std::size_t kBatchCheckedClips = 12;

struct Labelled {
  int label = -1;
  std::vector<std::vector<float>> patterns;
};

struct SurveyPass {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< less the reference calls between clips
  double cpu_s = 0.0;   ///< less the reference calls between clips
  double ref_s = 0.0;   ///< median reference call, timed between clips
  std::size_t samples = 0;
  std::size_t retained = 0;
  std::size_t ensembles = 0;
  std::size_t patterns = 0;
  std::size_t tested = 0;
  std::size_t correct = 0;
  std::uint64_t digest = 0;  ///< every ensemble and vote, for repeatability
  std::vector<double> latency_ms;
  /// Ensembles of the first kBatchCheckedClips clips, for the batch check.
  std::vector<std::vector<OutEnsemble>> checked_clips;
};

class SpeciesSurvey final : public Workload {
 public:
  explicit SpeciesSurvey(const RunConfig& cfg)
      : cfg_(cfg),
        pool_(make_pool(cfg.scale.survey_clips, mix_seed(cfg.seed, 4), 3, 4,
                        /*as_pcm=*/true)) {}

  PhaseResult phase(double seconds, bool traced) override;

 private:
  SurveyPass pass(bool traced);

  const RunConfig& cfg_;
  ClipPool pool_;
  Timings session_ns_;
  Timings features_us_;
  Timings train_us_;
  Timings classify_us_;
};

SurveyPass SpeciesSurvey::pass(bool traced) {
  SurveyPass p;
  const core::PipelineParams& params = pool_.params;
  const std::int64_t ts = now_ns();
  const auto engine = std::make_shared<const core::SpectralEngine>(params);
  core::StreamSession session(params, {}, engine);
  const core::FeatureExtractor features(params, engine);
  meso::MesoClassifier classifier;
  p.setup_s = static_cast<double>(now_ns() - ts) * 1e-9;

  // One reference call after each clip, on this thread: the survey's
  // time over the reference's is its cost at a fixed host speed.
  HostSpeed speed;
  double ref_wall_s = 0.0;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  std::vector<float> audio;
  std::vector<std::vector<Labelled>> clips(pool_.pcm.size());
  for (std::size_t i = 0; i < pool_.pcm.size(); ++i) {
    trace::Span clip_span("survey.clip", i);
    pcm_to_float(pool_.pcm[i], audio);
    p.samples += audio.size();
    session.reset();
    std::vector<river::Ensemble> found;
    for (std::size_t at = 0; at + params.record_size <= audio.size();
         at += params.record_size) {
      const std::int64_t pushed = now_ns();
      const std::size_t ready = timed(traced, "session.push", i, session_ns_,
                                      1.0, [&] {
        return session.push(std::span<const float>(audio).subspan(
            at, params.record_size));
      });
      if (ready == 0) continue;
      auto done = timed(traced, "session.drain", i, session_ns_, 1.0,
                        [&] { return session.drain(); });
      const double ms = static_cast<double>(now_ns() - pushed) * 1e-6;
      for (auto& e : done) {
        p.latency_ms.push_back(ms);
        found.push_back(std::move(e));
      }
    }
    for (auto& e : timed(traced, "session.finish", i, session_ns_, 1.0,
                         [&] { return session.finish(); })) {
      found.push_back(std::move(e));
    }

    for (const auto& e : found) {
      p.retained += e.length();
      ++p.ensembles;
      const std::uint64_t h = hash_samples(e.samples);
      p.digest = mix_seed(p.digest ^ h, e.start_sample);
      if (i < kBatchCheckedClips) {
        p.checked_clips.resize(kBatchCheckedClips);
        p.checked_clips[i].push_back({e.start_sample, e.length(), h, 0});
      }
      int label = -1;
      for (const auto& t : pool_.truth[i]) {
        if (synth::intervals_overlap(e.start_sample, e.end_sample(),
                                     t.start_sample, t.end_sample(),
                                     kValidationOverlap)) {
          label = static_cast<int>(t.species);
          break;
        }
      }
      if (label < 0) continue;
      Labelled item{label, timed(traced, "features.patterns", i, features_us_,
                                 1e-3, [&] { return features.patterns(e.samples); })};
      if (item.patterns.empty()) continue;
      p.patterns += item.patterns.size();
      clips[i].push_back(std::move(item));
    }
    clip_span.end();
    ref_wall_s += speed.sample();
  }

  // Train on two clips in three, in clip order; test the rest by vote.
  for (std::size_t i = 0; i < clips.size(); ++i) {
    if (i % 3 == 2) continue;
    for (const auto& item : clips[i]) {
      for (const auto& pattern : item.patterns) {
        timed(traced, "meso.train", i, train_us_, 1e-3,
              [&] { classifier.train(pattern, item.label); });
      }
    }
  }
  for (std::size_t i = 2; i < clips.size(); i += 3) {
    for (const auto& item : clips[i]) {
      std::vector<int> votes(synth::kNumSpecies, 0);
      for (const auto& pattern : item.patterns) {
        const meso::Label label =
            timed(traced, "meso.classify", i, classify_us_, 1e-3,
                  [&] { return classifier.classify(pattern); });
        if (label >= 0 && static_cast<std::size_t>(label) < votes.size()) {
          ++votes[static_cast<std::size_t>(label)];
        }
      }
      // Majority vote; ties go to the smaller label.
      const auto winner = static_cast<int>(
          std::max_element(votes.begin(), votes.end()) - votes.begin());
      ++p.tested;
      if (winner == item.label) ++p.correct;
      p.digest = mix_seed(p.digest, static_cast<std::uint64_t>(winner));
    }
  }
  p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9 - ref_wall_s;
  p.cpu_s = process_cpu_s() - cpu0 - speed.cpu_s();
  p.ref_s = speed.ref_s();
  return p;
}

PhaseResult SpeciesSurvey::phase(double seconds, bool traced) {
  PhaseResult out;
  // The survey's set-up takes microseconds, so each sample times a batch
  // of set-ups, before any pass has churned the heap: one alone is at the
  // mercy of cache and allocator state. Each batch runs on the next core,
  // so one slow core does not set the median.
  constexpr int kSetupBatch = 256;
  std::vector<double> setup_s;
  {
    CpuRoamer roamer;
    while (setup_s.size() < cfg_.scale.setup_repeats) {
      roamer.next();
      const std::int64_t t = now_ns();
      for (int k = 0; k < kSetupBatch; ++k) {
        const auto engine =
            std::make_shared<const core::SpectralEngine>(pool_.params);
        const core::StreamSession session(pool_.params, {}, engine);
        const core::FeatureExtractor features(pool_.params, engine);
        const meso::MesoClassifier classifier;
      }
      setup_s.push_back(static_cast<double>(now_ns() - t) * 1e-9 / kSetupBatch);
    }
  }
  std::vector<SurveyPass> passes;
  const std::int64_t start = now_ns();
  double first_pass_rss_mb = 0.0;
  do {
    passes.push_back(pass(traced));
    if (passes.size() == 1) first_pass_rss_mb = peak_rss_mb();
  } while (static_cast<double>(now_ns() - start) * 1e-9 < seconds);
  const SurveyPass& first = passes.front();
  // The latencies come from the least-disturbed pass, the fastest one.
  const SurveyPass& best = *std::min_element(
      passes.begin(), passes.end(),
      [](const SurveyPass& a, const SurveyPass& b) { return a.wall_s < b.wall_s; });
  const core::PipelineParams& params = pool_.params;

  // Checks: every pass reproduces the first exactly; the stream extraction
  // equals the batch facade on the first clips; the output marks sit in the
  // paper's band.
  for (const auto& p : passes) {
    ++out.attempted;
    if (p.digest != first.digest || p.correct != first.correct) ++out.failed;
  }
  const core::EnsembleExtractor extractor(params);
  std::vector<float> audio;
  std::vector<river::Ensemble> batch_ensembles;
  double extract_ns = 0.0;
  std::size_t extract_samples = 0;
  bool self_tested = false;
  bool self_test_ok = false;
  const std::size_t n_checked = std::min(kBatchCheckedClips, pool_.pcm.size());
  for (std::size_t i = 0; i < n_checked; ++i) {
    pcm_to_float(pool_.pcm[i], audio);
    const std::int64_t te = now_ns();
    core::ExtractionResult batch = extractor.extract(audio);
    extract_ns += static_cast<double>(now_ns() - te);
    extract_samples += audio.size();
    Reference batch_ref;
    for (const auto& e : batch.ensembles) {
      if (batch_ref.ensembles.empty()) batch_ref.first_samples = e.samples;
      batch_ref.ensembles.push_back(
          {e.start_sample, e.length(), hash_samples(e.samples), 0, true});
    }
    const CheckOutcome c = check_station(
        batch_ref, first.checked_clips[i],
        [](std::size_t) { return std::int64_t{0}; }, nullptr);
    out.attempted += c.checked;
    out.failed += c.mismatched;
    if (!self_tested && !batch_ref.ensembles.empty()) {
      self_tested = true;
      self_test_ok =
          self_test_detects_corruption(batch_ref, first.checked_clips[i]);
    }
    for (auto& e : batch.ensembles) batch_ensembles.push_back(std::move(e));
  }
  const double reduction =
      1.0 - static_cast<double>(first.retained) /
                static_cast<double>(first.samples);
  const double accuracy = static_cast<double>(first.correct) /
                          static_cast<double>(std::max<std::size_t>(first.tested, 1));
  out.attempted += 3;
  if (!self_test_ok) ++out.failed;
  if (reduction < kReductionLo || reduction > kReductionHi) ++out.failed;
  if (accuracy < kAccuracyFloor) ++out.failed;

  const double audio_h = static_cast<double>(first.samples) / params.sample_rate / 3600.0;
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_ref;
  std::vector<double> wall_ref;
  std::vector<double> ref_s;
  for (const auto& p : passes) {
    cpu_s.push_back(p.cpu_s);
    wall_s.push_back(p.wall_s);
    cpu_ref.push_back(p.cpu_s / p.ref_s);
    wall_ref.push_back(p.wall_s / p.ref_s);
    ref_s.push_back(p.ref_s);
  }

  auto& m = out.metrics;
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = first_pass_rss_mb;
  m["cpu_ref_per_audio_h"] = median(cpu_ref) / audio_h;
  m["wall_ref_per_audio_h"] = median(wall_ref) / audio_h;
  m["cpu_s_per_audio_h"] = median(cpu_s) / audio_h;
  m["throughput_xrt"] = audio_h * 3600.0 / median(wall_s);
  m["host.ref_us"] = median(ref_s) * 1e6;
  m["emit_p50_ms"] = quantile(best.latency_ms, 0.50);
  m["emit_p99_ms"] = quantile(best.latency_ms, 0.99);
  m["delivered_frac"] = 1.0;  // batch: every sample is pushed
  m["accuracy"] = accuracy;
  m["reduction"] = reduction;
  {
    std::size_t retained = 0;
    for (const auto& e : batch_ensembles) retained += e.length();
    ScopedDir dir(cfg_.work_dir / "survey-ensembles");
    m["store_bytes_per_sample"] =
        static_cast<double>(archive_ensembles(dir.path(), batch_ensembles,
                                              params.sample_rate)) /
        static_cast<double>(std::max<std::size_t>(retained, 1));
  }

  const auto per = [](const Timings& t, std::size_t n) {
    return t.sum() / static_cast<double>(std::max<std::size_t>(n, 1));
  };
  const std::size_t all_samples = first.samples * passes.size();
  const std::size_t all_patterns = first.patterns * passes.size();
  m["session.ns_per_sample"] = per(session_ns_, all_samples);
  m["session.ensembles"] = static_cast<double>(first.ensembles);
  m["extract.ns_per_sample"] =
      extract_ns / static_cast<double>(std::max<std::size_t>(extract_samples, 1));
  m["features.us_per_pattern"] = per(features_us_, all_patterns);
  m["features.patterns"] = static_cast<double>(first.patterns);
  m["meso.train_us_per_pattern"] = per(train_us_, train_us_.count());
  m["meso.classify_us_per_pattern"] = per(classify_us_, classify_us_.count());

  out.notes.push_back(
      "species_survey: " + std::to_string(passes.size()) + " pass(es) over " +
      std::to_string(pool_.pcm.size()) + " clips, " +
      std::to_string(first.ensembles) + " ensembles, " +
      std::to_string(first.patterns) + " patterns, " +
      std::to_string(first.correct) + "/" + std::to_string(first.tested) +
      " test ensembles correct, reduction " + std::to_string(reduction));
  char marks[160];
  std::snprintf(marks, sizeof marks,
                "survey marks: %zu/%zu correct, reduction %.6f, digest %016llx",
                first.correct, first.tested, reduction,
                static_cast<unsigned long long>(first.digest));
  out.marks = marks;
  out.notes.emplace_back(marks);
  out.notes.push_back(std::string("self-test: corrupted reference ") +
                      (self_test_ok ? "failed the check as intended"
                                    : "was NOT detected"));
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_species_survey(const RunConfig& cfg) {
  return std::make_unique<SpeciesSurvey>(cfg);
}

}  // namespace perfbench
