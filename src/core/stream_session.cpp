#include "core/stream_session.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "dsp/simd.hpp"

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
// SessionCore
// ---------------------------------------------------------------------------

namespace detail {

SessionCore::SessionCore(const PipelineParams& params, std::size_t channels,
                         SessionOptions options,
                         std::shared_ptr<const SpectralEngine> engine)
    : options_(std::move(options)),
      features_(params, std::move(engine)),
      lead_(params.anomaly),
      trigger_(params.trigger_sigma, params.trigger_min_baseline,
               params.trigger_hold_samples),
      cutter_(channels, params.merge_gap_samples, params.min_ensemble_samples),
      tap_(options_.tap_capacity) {
  DR_EXPECTS(channels >= 1);
  params.validate();
  more_.reserve(channels - 1);
  for (std::size_t c = 1; c < channels; ++c) {
    more_.emplace_back(params.anomaly);
  }
}

namespace {
/// Samples scored per batched block inside the push loop: large enough to
/// amortize the scorer's batch entry (whole energy frames, one push_run per
/// frame), small enough that the score scratch stays cache-hot (32 KiB of
/// doubles per channel) next to the input block.
constexpr std::size_t kScoreBlock = 4096;

// Score folds: frame j's per-channel scores live at scores[c * kScoreBlock
// + j]. Each fold reads channels in fixed order and is seeded from channel
// 0, so a one-channel session's trigger input is exactly its scorer's
// output. The fold stays inside the trigger loop on purpose: a separate SIMD
// max/mean pass over the block was measured slower — the extra fused-score
// buffer traffic does not overlap anything, while these few scalar ops hide
// under the trigger's serial Welford chain.

/// One channel: the scorer's output is the trigger's input.
struct SingleScore {
  double operator()(const double* scores, std::size_t j) const {
    return scores[j];
  }
};

struct MaxScore {
  std::size_t channels;
  double operator()(const double* scores, std::size_t j) const {
    double fused = scores[j];
    for (std::size_t c = 1; c < channels; ++c) {
      fused = std::max(fused, scores[c * kScoreBlock + j]);
    }
    return fused;
  }
};

struct MeanScore {
  std::size_t channels;
  double operator()(const double* scores, std::size_t j) const {
    double fused = scores[j];
    for (std::size_t c = 1; c < channels; ++c) {
      fused += scores[c * kScoreBlock + j];
    }
    return fused / static_cast<double>(channels);
  }
};
}  // namespace

template <typename Fold>
std::size_t SessionCore::push(const float* const* data, std::size_t n,
                              Fold fold) {
  // Each channel's scorer runs block-batched (whole energy frames fold
  // through the dsp::simd kernels — bit-identical to per-sample pushes; the
  // scorers are independent automata) into its slice of the scratch. The
  // trigger/tap loop then accumulates runs of equal trigger value over the
  // block's fused scores and hands each run to the cutter in one bulk call:
  // trigger runs are thousands of samples long, so the cutter's per-sample
  // bookkeeping vanishes and ensemble/gap buffers grow by range inserts.
  const std::size_t ch = channels();
  const bool tapped = tap_.enabled();
  const bool observed = static_cast<bool>(options_.on_signal);
  if (score_block_.size() < ch * kScoreBlock) {
    score_block_.resize(ch * kScoreBlock);
  }
  double* const scores = score_block_.data();
  bool run_trig = false;
  std::size_t run_start = 0;
  for (std::size_t base = 0; base < n; base += kScoreBlock) {
    const std::size_t m = std::min(kScoreBlock, n - base);
    lead_.push_batch(data[0] + base, m, scores);
    for (std::size_t c = 1; c < ch; ++c) {
      more_[c - 1].push_batch(data[c] + base, m, scores + c * kScoreBlock);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = base + j;
      const double score = fold(scores, j);
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

void SessionCore::reset() {
  lead_.reset();
  for (auto& scorer : more_) scorer.reset();
  trigger_.reset();
  cutter_.reset();
  tap_.reset();
  consumed_ = 0;
}

void SessionCore::set_decision(const PipelineParams& params) {
  // The trigger keeps its baseline statistics (mu0/sigma0 survive the
  // re-tune); only the decision thresholds change.
  trigger_.set_thresholding(params.trigger_sigma, params.trigger_min_baseline,
                            params.trigger_hold_samples);
  cutter_.set_bounds(params.merge_gap_samples, params.min_ensemble_samples);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// StreamSession
// ---------------------------------------------------------------------------

StreamSession::StreamSession(PipelineParams params, Options options,
                             std::shared_ptr<const SpectralEngine> engine)
    : params_(params), core_(params_, 1, std::move(options), std::move(engine)) {}

std::size_t StreamSession::push(std::span<const float> samples) {
  if (pending_params_) return push_reconfiguring(samples);
  const float* data = samples.data();
  return core_.push(&data, samples.size(), detail::SingleScore{});
}

// Slow path while a reconfigure waits for the ensemble boundary: advances
// one sample at a time until the cutter is idle, adopts the pending
// parameters there, and hands the rest of the chunk to push(). Kept out of
// push() so a session that is not mid-reconfigure pays zero extra branches
// per sample.
std::size_t StreamSession::push_reconfiguring(std::span<const float> samples) {
  std::size_t i = 0;
  for (; i < samples.size() && !core_.idle(); ++i) {
    const float* frame = samples.data() + i;
    core_.push(&frame, 1, detail::SingleScore{});
  }
  if (i == samples.size()) return core_.ready();
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
  if (core_.idle()) apply_reconfigure();
}

void StreamSession::apply_reconfigure() {
  core_.set_decision(*pending_params_);
  params_ = *pending_params_;
  pending_params_.reset();
}

std::vector<river::Ensemble> StreamSession::drain() {
  return core_.drain([](detail::StreamCutter::Cut cut) {
    return river::Ensemble{cut.start_sample, std::move(cut.channels.front())};
  });
}

std::vector<river::Ensemble> StreamSession::finish() {
  core_.finish();
  // End of stream decides the in-flight ensemble under the old rules; a
  // still-pending reconfigure lands now that the automaton is idle.
  if (pending_params_) apply_reconfigure();
  return drain();
}

void StreamSession::reset() {
  core_.reset();
  if (pending_params_) apply_reconfigure();
}

std::vector<std::vector<float>> StreamSession::featurize(
    const river::Ensemble& ensemble) const {
  return core_.features().patterns(ensemble.samples);
}

// ---------------------------------------------------------------------------
// MultiStreamSession
// ---------------------------------------------------------------------------

MultiStreamSession::MultiStreamSession(
    MultiStreamParams params, std::size_t channels,
    StreamSession::Options options, std::shared_ptr<const SpectralEngine> engine)
    : params_(std::move(params)),
      core_(params_.base, channels, std::move(options), std::move(engine)) {}

std::size_t MultiStreamSession::push(
    std::span<const std::span<const float>> chunks) {
  const std::size_t ch = channels();
  DR_EXPECTS(chunks.size() == ch);
  const std::size_t n = chunks.front().size();
  channel_data_.resize(ch);
  for (std::size_t c = 0; c < ch; ++c) {
    DR_EXPECTS(chunks[c].size() == n);
    channel_data_[c] = chunks[c].data();
  }
  const float* const* data = channel_data_.data();
  // One channel has nothing to fuse, whatever the rule: it runs exactly the
  // StreamSession loop.
  if (ch == 1) return core_.push(data, n, detail::SingleScore{});
  if (params_.fusion == ScoreFusion::kMax) {
    return core_.push(data, n, detail::MaxScore{ch});
  }
  return core_.push(data, n, detail::MeanScore{ch});
}

std::vector<MultiEnsemble> MultiStreamSession::drain() {
  return core_.drain([](detail::StreamCutter::Cut cut) {
    MultiEnsemble ensemble;
    ensemble.start_sample = cut.start_sample;
    ensemble.length = cut.channels.front().size();
    ensemble.channel_samples = std::move(cut.channels);
    return ensemble;
  });
}

std::vector<MultiEnsemble> MultiStreamSession::finish() {
  core_.finish();
  return drain();
}

void MultiStreamSession::reset() { core_.reset(); }

std::vector<std::vector<std::vector<float>>> MultiStreamSession::featurize(
    const MultiEnsemble& ensemble) const {
  return featurize_channels(core_.features(), ensemble);
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
