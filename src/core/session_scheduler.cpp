#include "core/session_scheduler.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "river/segment_store.hpp"

namespace dynriver::core {

// ---------------------------------------------------------------------------
// SchedulerStats
// ---------------------------------------------------------------------------

std::size_t SchedulerStats::total_queued_samples() const {
  std::size_t acc = 0;
  for (const auto& s : stations) acc += s.queued_samples;
  return acc;
}

std::size_t SchedulerStats::total_buffered_samples() const {
  std::size_t acc = 0;
  for (const auto& s : stations) {
    acc += s.queued_samples + s.session_buffered_samples;
  }
  return acc;
}

std::size_t SchedulerStats::total_samples_dropped() const {
  std::size_t acc = 0;
  for (const auto& s : stations) acc += s.samples_dropped;
  return acc;
}

std::size_t SchedulerStats::total_ensembles_out() const {
  std::size_t acc = 0;
  for (const auto& s : stations) acc += s.ensembles_out;
  return acc;
}

// ---------------------------------------------------------------------------
// SessionScheduler::Station
// ---------------------------------------------------------------------------

struct SessionScheduler::Station {
  std::string name;
  StationConfig config;          ///< immutable after add_station
  std::size_t chunk_samples = 0; ///< resolved read/eviction granularity
  std::unique_ptr<StreamSession> session;
  std::shared_ptr<river::SampleSource> source;  ///< null for push-fed
  std::shared_ptr<river::EnsembleSink> sink;

  mutable common::Mutex mu;       ///< guards queue + flags + counters
  common::CondVar room;           ///< kBlock producers wait for queue room
  std::deque<std::vector<float>> queue DR_GUARDED_BY(mu);
  std::size_t queued_samples DR_GUARDED_BY(mu) = 0;
  bool closed DR_GUARDED_BY(mu) = false;  ///< no more input will arrive
  /// finish() delivered (claimed by worker).
  bool session_finished DR_GUARDED_BY(mu) = false;
  /// sink finished too; never runnable again.
  bool finished DR_GUARDED_BY(mu) = false;
  /// Live reconfigure hand-off.
  std::optional<PipelineParams> pending_params DR_GUARDED_BY(mu);

  /// Resolved per-round credit (config.quantum_samples or the scheduler
  /// default) — weighted DRR reads this, never the options, per round.
  std::size_t quantum = 0;
  /// Deficit round-robin credit; touched only by the one worker processing
  /// this station in a round (rounds never overlap per station).
  std::size_t deficit = 0;

  // Counters. samples_consumed is advanced in the same critical section
  // that dequeues a chunk (the identity `in == consumed + dropped + queued`
  // is exact for every stats() reader at every instant); session_buffered is
  // a cached copy of session state published after each processing pass —
  // stats() never touches the session from a foreign thread.
  std::size_t samples_in DR_GUARDED_BY(mu) = 0;
  std::size_t samples_dropped DR_GUARDED_BY(mu) = 0;
  std::size_t samples_consumed DR_GUARDED_BY(mu) = 0;
  std::size_t ensembles_out DR_GUARDED_BY(mu) = 0;
  std::size_t session_buffered DR_GUARDED_BY(mu) = 0;
};

// ---------------------------------------------------------------------------
// SessionScheduler
// ---------------------------------------------------------------------------

SessionScheduler::SessionScheduler(SchedulerOptions options)
    : options_(std::move(options)),
      runner_(std::make_unique<common::TaskRunner>(options_.threads)) {
  DR_EXPECTS(options_.quantum_samples >= 1);
}

SessionScheduler::~SessionScheduler() {
  // Normal runs join in run(); this path only fires when run() unwound on
  // an exception with readers still alive (possibly blocked on queue room).
  shutdown_.store(true, std::memory_order_relaxed);
  for (auto& st : stations_) st->room.notify_all();
  for (auto& t : readers_) {
    if (t.joinable()) t.join();
  }
}

std::size_t SessionScheduler::add_station_impl(
    std::string name, std::shared_ptr<river::SampleSource> source,
    std::shared_ptr<river::EnsembleSink> sink, StationConfig config) {
  DR_EXPECTS(!running_);
  DR_EXPECTS(sink != nullptr);
  config.params.validate();
  auto st = std::make_unique<Station>();
  st->chunk_samples = config.read_chunk_samples != 0 ? config.read_chunk_samples
                                                     : config.params.record_size;
  st->quantum = config.quantum_samples != 0 ? config.quantum_samples
                                            : options_.quantum_samples;
  DR_EXPECTS(st->chunk_samples >= 1);
  DR_EXPECTS(st->chunk_samples <= config.queue_capacity_samples);
  st->name = std::move(name);
  st->session = std::make_unique<StreamSession>(
      config.params, config.session_options, config.engine);
  st->source = std::move(source);
  st->sink = std::move(sink);
  st->config = std::move(config);
  stations_.push_back(std::move(st));
  return stations_.size() - 1;
}

std::size_t SessionScheduler::add_station(
    std::string name, std::shared_ptr<river::SampleSource> source,
    std::shared_ptr<river::EnsembleSink> sink, StationConfig config) {
  DR_EXPECTS(source != nullptr);
  return add_station_impl(std::move(name), std::move(source), std::move(sink),
                          std::move(config));
}

std::size_t SessionScheduler::add_station(
    std::string name, std::shared_ptr<river::EnsembleSink> sink,
    StationConfig config) {
  return add_station_impl(std::move(name), nullptr, std::move(sink),
                          std::move(config));
}

void SessionScheduler::mark_ready(std::size_t station) {
  bool wake = false;
  {
    const common::LockGuard lk(work_mu_);
    // Sized on first use rather than per add_station: set-up stays free of
    // scheduler locking and allocation. Stations are only added before
    // producers start, so stations_ is stable here.
    if (station >= on_ready_.size()) on_ready_.resize(stations_.size(), 0);
    if (on_ready_[station] != 0) return;
    on_ready_[station] = 1;
    // run() sleeps only while the list is empty, so only the push that
    // makes it non-empty needs to wake it.
    wake = ready_.empty();
    ready_.push_back(station);
  }
  if (wake) work_cv_.notify_one();
}

std::size_t SessionScheduler::enqueue(std::size_t station,
                                      std::span<const float> samples) {
  Station& st = *stations_.at(station);
  if (samples.empty()) return 0;
  // A chunk must individually fit: the queue bound is hard, never "capacity
  // plus one oversized chunk".
  DR_EXPECTS(samples.size() <= st.config.queue_capacity_samples);
  std::size_t dropped = 0;
  bool was_empty = false;
  {
    common::UniqueLock lk(st.mu);
    DR_EXPECTS(!st.closed);
    if (st.config.policy == BackpressurePolicy::kBlock) {
      while (!shutdown_.load(std::memory_order_relaxed) &&
             st.queued_samples + samples.size() >
                 st.config.queue_capacity_samples) {
        st.room.wait(lk);
      }
      if (shutdown_.load(std::memory_order_relaxed)) return 0;
    } else {
      // kDropOldest: evict whole chunks, oldest first, until this one fits.
      // Every evicted sample is accounted — pushed == consumed + dropped +
      // still-queued holds exactly at all times.
      while (st.queued_samples + samples.size() >
             st.config.queue_capacity_samples) {
        dropped += st.queue.front().size();
        st.queued_samples -= st.queue.front().size();
        st.queue.pop_front();
      }
    }
    was_empty = st.queue.empty();
    st.queue.emplace_back(samples.begin(), samples.end());
    st.queued_samples += samples.size();
    st.samples_in += samples.size();
    st.samples_dropped += dropped;
  }
  // Only a push into an empty queue needs the ready list: a backlog is on
  // it already, or in the running round, whose pass either drains it or
  // reports it ready and is put back.
  if (was_empty) mark_ready(station);
  return dropped;
}

std::size_t SessionScheduler::push(std::size_t station,
                                   std::span<const float> samples) {
  return enqueue(station, samples);
}

void SessionScheduler::close_internal(std::size_t station) {
  Station& st = *stations_.at(station);
  bool first_close = false;
  {
    const common::LockGuard lk(st.mu);
    first_close = !st.closed;
    st.closed = true;
  }
  st.room.notify_all();
  // A repeated close must not requeue a station that already finished.
  if (first_close) mark_ready(station);
}

void SessionScheduler::close_station(std::size_t station) {
  close_internal(station);
}

void SessionScheduler::reconfigure(std::size_t station,
                                   const PipelineParams& params) {
  Station& st = *stations_.at(station);
  params.validate();
  // Validated against the construction-time params: the scoring/spectral
  // fields are invariant for the session's lifetime, so they are the stable
  // reference no matter how many reconfigures already landed.
  DR_EXPECTS(reconfigure_compatible(params, st.config.params));
  {
    const common::LockGuard lk(st.mu);
    st.pending_params = params;
  }
}

void SessionScheduler::deliver(Station& st,
                               std::vector<river::Ensemble> ensembles) {
  if (ensembles.empty()) return;
  const std::size_t count = ensembles.size();
  for (auto& e : ensembles) st.sink->accept(std::move(e));
  const common::LockGuard lk(st.mu);
  st.ensembles_out += count;
}

SessionScheduler::Served SessionScheduler::process_station(Station& st) {
  st.deficit += st.quantum;
  bool drained = false;
  for (;;) {
    std::vector<float> chunk;
    {
      const common::LockGuard lk(st.mu);
      if (st.queue.empty()) {
        drained = true;
        break;
      }
      if (st.queue.front().size() > st.deficit) break;  // credit exhausted
      chunk = std::move(st.queue.front());
      st.queue.pop_front();
      st.queued_samples -= chunk.size();
      // Counted as consumed in the same critical section that dequeues it,
      // so `pushed == consumed + dropped + queued` holds exactly for every
      // stats() reader at every instant — the chunk is unconditionally fed
      // to the session before this worker touches the station again.
      st.samples_consumed += chunk.size();
      if (st.pending_params) {
        // Hand the live re-parameterization to the session before the next
        // chunk; the session defers to the ensemble boundary internally.
        st.session->reconfigure(*st.pending_params);
        st.pending_params.reset();
      }
    }
    st.room.notify_all();  // queue room freed for a blocked producer
    st.deficit -= chunk.size();
    if (st.session->push(chunk) > 0) deliver(st, st.session->drain());
  }
  // Classic DRR: an emptied queue forfeits leftover credit, so an idle
  // station cannot bank quanta and later monopolize a round.
  if (drained) st.deficit = 0;

  bool close_now = false;
  {
    const common::LockGuard lk(st.mu);
    close_now = st.closed && st.queue.empty() && !st.session_finished;
    if (close_now) st.session_finished = true;
  }
  if (close_now) {
    deliver(st, st.session->finish());
    st.sink->finish();
  }

  const common::LockGuard lk(st.mu);
  st.session_buffered = st.session->buffered_samples();
  if (close_now) {
    st.finished = true;
    return Served::kFinished;
  }
  // Credit ran out with chunks still queued, or a close is still pending:
  // the station needs the next round even if no producer touches it.
  const bool ready = !st.queue.empty() || (st.closed && !st.finished);
  return ready ? Served::kReady : Served::kIdle;
}

bool SessionScheduler::process_available() {
  {
    const common::LockGuard lk(work_mu_);
    round_.clear();
    round_.swap(ready_);
    for (const std::size_t id : round_) on_ready_[id] = 0;
    if (round_.empty()) return finished_ < stations_.size();
  }
  // Ascending ids: the same service order as a scan over every station.
  std::sort(round_.begin(), round_.end());
  // A pass that throws (a failing sink) or never ran stays ready, so the
  // next round retries it as a scan would.
  served_.assign(round_.size(), Served::kReady);
  try {
    runner_->run(round_.size(), [this](std::size_t k) {
      served_[k] = process_station(*stations_[round_[k]]);
    });
  } catch (...) {
    (void)requeue_round();
    throw;
  }
  rounds_.fetch_add(1, std::memory_order_relaxed);
  const bool unfinished = requeue_round();
  if (options_.on_round) options_.on_round(stats());
  return unfinished;
}

bool SessionScheduler::requeue_round() {
  const common::LockGuard lk(work_mu_);
  for (std::size_t k = 0; k < round_.size(); ++k) {
    const std::size_t id = round_[k];
    if (served_[k] == Served::kFinished) {
      ++finished_;
    } else if (served_[k] == Served::kReady && on_ready_[id] == 0) {
      on_ready_[id] = 1;
      ready_.push_back(id);
    }
  }
  return finished_ < stations_.size();
}

void SessionScheduler::reader_loop(std::size_t station) {
  Station& st = *stations_[station];
  std::vector<float> buf(st.chunk_samples);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    const std::size_t n = st.source->read(buf);
    if (n == 0) break;
    enqueue(station, std::span<const float>(buf.data(), n));
  }
  close_internal(station);
}

void SessionScheduler::run() {
  DR_EXPECTS(!running_);
  running_ = true;
  readers_.reserve(stations_.size());
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    if (stations_[s]->source != nullptr) {
      readers_.emplace_back([this, s] { reader_loop(s); });
    }
  }
  while (process_available()) {
    // Every station with work is on the ready list (a round puts back what
    // it left unfinished; producers add the rest), so an empty list means
    // idle: sleep until a push or close adds a station.
    common::UniqueLock lk(work_mu_);
    while (ready_.empty()) work_cv_.wait(lk);
  }
  for (auto& t : readers_) t.join();
  readers_.clear();
}

SchedulerStats SessionScheduler::stats() const {
  SchedulerStats out;
  out.rounds = rounds_.load(std::memory_order_relaxed);
  out.stations.reserve(stations_.size());
  for (const auto& stp : stations_) {
    const Station& st = *stp;
    const common::LockGuard lk(st.mu);
    StationStats s;
    s.name = st.name;
    s.samples_in = st.samples_in;
    s.samples_dropped = st.samples_dropped;
    s.samples_consumed = st.samples_consumed;
    s.ensembles_out = st.ensembles_out;
    s.queued_samples = st.queued_samples;
    s.session_buffered_samples = st.session_buffered;
    s.finished = st.finished;
    out.stations.push_back(std::move(s));
  }
  return out;
}

const std::string& SessionScheduler::station_name(std::size_t station) const {
  return stations_.at(station)->name;
}

const StreamSession& SessionScheduler::session(std::size_t station) const {
  return *stations_.at(station)->session;
}

std::size_t add_replay_station(SessionScheduler& scheduler, std::string name,
                               const std::filesystem::path& store_dir,
                               double t0, double t1,
                               std::shared_ptr<river::EnsembleSink> sink,
                               StationConfig config) {
  auto source = std::make_shared<river::SegmentStoreSource>(store_dir, t0, t1);
  return scheduler.add_station(std::move(name), std::move(source),
                               std::move(sink), std::move(config));
}

}  // namespace dynriver::core
