#include "core/stream_session.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace dynriver::core {

// ---------------------------------------------------------------------------
// SignalTap
// ---------------------------------------------------------------------------

void SignalTap::reset() {
  total_ = 0;
  head_ = 0;
  scores_.clear();
  trigger_.clear();
}

namespace {

template <typename T>
std::vector<T> unroll_ring(const std::vector<T>& ring, std::size_t head) {
  std::vector<T> out;
  out.reserve(ring.size());
  out.insert(out.end(), ring.begin() + static_cast<std::ptrdiff_t>(head),
             ring.end());
  out.insert(out.end(), ring.begin(),
             ring.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

}  // namespace

std::vector<float> SignalTap::scores() const {
  return unroll_ring(scores_, head_);
}

std::vector<std::uint8_t> SignalTap::trigger() const {
  return unroll_ring(trigger_, head_);
}

// ---------------------------------------------------------------------------
// StreamSession
// ---------------------------------------------------------------------------

StreamSession::StreamSession(PipelineParams params, Options options,
                             std::shared_ptr<const SpectralEngine> engine)
    : params_(params),
      options_(std::move(options)),
      features_(params_, std::move(engine)),
      scorer_(params_.anomaly),
      trigger_(params_.trigger_sigma, params_.trigger_min_baseline,
               params_.trigger_hold_samples),
      cutter_(params_.merge_gap_samples, params_.min_ensemble_samples),
      tap_(options_.tap_capacity) {
  params_.validate();
}

namespace {
/// Samples scored per batched block inside the scoring loop: large enough
/// to amortize the scorer's batch entry (whole energy frames, one push_run
/// per frame), small enough that the score scratch stays cache-hot (32 KiB
/// of doubles) next to the input block.
constexpr std::size_t kScoreBlock = 4096;
}  // namespace

std::size_t StreamSession::push(std::span<const float> samples) {
  if (pending_params_) return push_reconfiguring(samples);
  return advance(samples);
}

std::size_t StreamSession::advance(std::span<const float> samples) {
  // The scorer runs block-batched (whole energy frames fold through the
  // dsp::simd kernels — bit-identical to per-sample pushes) into the
  // scratch. The trigger/tap loop then accumulates runs of equal trigger
  // value over the block's scores and hands each run to the cutter in one
  // bulk call: trigger runs are thousands of samples long, so the cutter's
  // per-sample bookkeeping vanishes and ensemble/gap buffers grow by range
  // inserts.
  const float* const data = samples.data();
  const std::size_t n = samples.size();
  const bool tapped = tap_.enabled();
  const bool observed = static_cast<bool>(options_.on_signal);
  if (score_block_.size() < kScoreBlock) score_block_.resize(kScoreBlock);
  double* const scores = score_block_.data();
  bool run_trig = false;
  std::size_t run_start = 0;
  for (std::size_t base = 0; base < n; base += kScoreBlock) {
    const std::size_t m = std::min(kScoreBlock, n - base);
    scorer_.push_batch(data + base, m, scores);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = base + j;
      const double score = scores[j];
      const bool trig = trigger_.push(score);
      if (tapped) tap_.push(static_cast<float>(score), trig);
      if (observed) {
        options_.on_signal(consumed_ + i, static_cast<float>(score), trig);
      }
      if (trig != run_trig) {
        cutter_.step_run(run_trig, data, run_start, i - run_start);
        run_trig = trig;
        run_start = i;
      }
    }
  }
  if (n > 0) cutter_.step_run(run_trig, data, run_start, n - run_start);
  consumed_ += n;
  return cutter_.ready();
}

// Slow path while a reconfigure waits for the ensemble boundary: advances
// one sample at a time until the cutter is idle, adopts the pending
// parameters there, and hands the rest of the chunk to push(). Kept out of
// push() so a session that is not mid-reconfigure pays zero extra branches
// per sample.
std::size_t StreamSession::push_reconfiguring(std::span<const float> samples) {
  std::size_t i = 0;
  for (; i < samples.size() && !cutter_.idle(); ++i) {
    advance(samples.subspan(i, 1));
  }
  if (i == samples.size()) return cutter_.ready();
  apply_reconfigure();
  return push(samples.subspan(i));
}

bool reconfigure_compatible(const PipelineParams& a, const PipelineParams& b) {
  return a.sample_rate == b.sample_rate && a.record_size == b.record_size &&
         a.anomaly == b.anomaly && a.reslice == b.reslice &&
         a.window == b.window && a.dft_size == b.dft_size &&
         a.cutout_lo_hz == b.cutout_lo_hz && a.cutout_hi_hz == b.cutout_hi_hz &&
         a.use_paa == b.use_paa && a.paa_factor == b.paa_factor &&
         a.pattern_merge == b.pattern_merge &&
         a.pattern_stride == b.pattern_stride;
}

void StreamSession::reconfigure(const PipelineParams& params) {
  params.validate();
  DR_EXPECTS(reconfigure_compatible(params, params_));
  pending_params_ = params;
  // Between ensembles the new rules can start this very instant; otherwise
  // the in-flight ensemble finishes under the old rules first.
  if (cutter_.idle()) apply_reconfigure();
}

void StreamSession::apply_reconfigure() {
  const PipelineParams& p = *pending_params_;
  // The trigger keeps its baseline statistics (mu0/sigma0 survive the
  // re-tune); only the decision thresholds change.
  trigger_.set_thresholding(p.trigger_sigma, p.trigger_min_baseline,
                            p.trigger_hold_samples);
  cutter_.set_bounds(p.merge_gap_samples, p.min_ensemble_samples);
  params_ = p;
  pending_params_.reset();
}

std::vector<river::Ensemble> StreamSession::drain() { return cutter_.take(); }

std::vector<river::Ensemble> StreamSession::finish() {
  cutter_.finish();
  // End of stream decides the in-flight ensemble under the old rules; a
  // still-pending reconfigure lands now that the automaton is idle.
  if (pending_params_) apply_reconfigure();
  return drain();
}

void StreamSession::reset() {
  scorer_.reset();
  trigger_.reset();
  cutter_.reset();
  tap_.reset();
  consumed_ = 0;
  if (pending_params_) apply_reconfigure();
}

std::vector<std::vector<float>> StreamSession::featurize(
    const river::Ensemble& ensemble) const {
  return features_.patterns(ensemble.samples);
}

// ---------------------------------------------------------------------------
// run_stream
// ---------------------------------------------------------------------------

StreamPumpStats run_stream(river::SampleSource& source, StreamSession& session,
                           river::EnsembleSink& sink,
                           std::size_t chunk_samples) {
  if (chunk_samples == 0) chunk_samples = session.params().record_size;
  DR_EXPECTS(chunk_samples >= 1);

  StreamPumpStats stats;
  std::vector<float> chunk(chunk_samples);
  const auto deliver = [&](std::vector<river::Ensemble> ensembles) {
    for (auto& e : ensembles) {
      ++stats.ensembles_out;
      sink.accept(std::move(e));
    }
  };

  for (;;) {
    const std::size_t n = source.read(chunk);
    if (n == 0) break;
    stats.samples_in += n;
    if (session.push(std::span<const float>(chunk.data(), n)) > 0) {
      deliver(session.drain());
    }
    stats.peak_buffered_samples =
        std::max(stats.peak_buffered_samples, session.buffered_samples());
  }
  deliver(session.finish());
  sink.finish();
  return stats;
}

}  // namespace dynriver::core
