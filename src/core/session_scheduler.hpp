// Host-scale session multiplexing: many stations' streaming extraction
// sessions driven fairly on one machine.
//
// The paper's deployment shape is a sensor network of many acoustic
// stations feeding one analysis host. SessionScheduler owns one named
// StreamSession per station — each bound to a river::SampleSource and an
// river::EnsembleSink — and drives them from a common::ThreadPool with
// deficit round-robin scheduling: every round, each station with queued
// input gets a `quantum_samples` credit and processes whole chunks while
// its credit lasts, so a chatty station cannot starve a quiet one.
//
// A round visits only the stations on the ready list: those that got input
// or were closed since they were last served, and those a round left with
// a backlog (credit ran out) or a pending close. It serves them in
// ascending station id, so a round costs O(ready stations), not
// O(stations), and an idle host sleeps without scanning anything.
//
// Ingest is decoupled from processing by a per-station bounded queue with
// an explicit backpressure policy:
//   kBlock      — the producer (reader thread or push() caller) waits for
//                 queue room; backpressure propagates upstream (a TCP
//                 sender eventually blocks on its socket).
//   kDropOldest — the producer never waits; the oldest queued chunks are
//                 evicted to make room and every evicted sample is counted
//                 in StationStats::samples_dropped (lossy-edge accounting,
//                 complementing the sources' clean-vs-lost end tracking).
// The queue never holds more than `queue_capacity_samples` samples; with
// the session's own bounded buffering this caps the host's memory at
// sum over stations of (queue capacity + open ensemble + merge gap).
//
// Live re-parameterization: reconfigure(station, params) hands new
// trigger / merge-gap / length-floor parameters to a running session; they
// are adopted at the next safe automaton boundary (between ensembles, via
// StreamSession::reconfigure) without restarting the stream or losing the
// open ensemble.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "core/stream_session.hpp"
#include "river/sample_io.hpp"

namespace dynriver::core {

/// What an ingest queue does when a chunk arrives and the queue is full.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,      ///< producer waits for room (lossless; upstream slows down)
  kDropOldest  ///< evict oldest queued chunks, counting every lost sample
};

/// Per-station configuration.
struct StationConfig {
  PipelineParams params;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Ingest-queue bound in samples (a hard bound: enqueue never exceeds it;
  /// chunks must individually fit). Default ~3 s at the paper's rate.
  std::size_t queue_capacity_samples = 65536;
  /// Samples per source read; 0 = params.record_size. Must be <= the queue
  /// capacity. Also the granularity of drop-oldest eviction.
  std::size_t read_chunk_samples = 0;
  /// Weighted deficit round-robin: this station's per-round credit in
  /// samples; 0 adopts the scheduler-wide SchedulerOptions::quantum_samples
  /// (uniform fairness). A station with twice the quantum drains twice the
  /// samples per round while backlogged — priority stations (a critical
  /// hydrophone among routine ones) get a proportional throughput share
  /// without starving anyone.
  std::size_t quantum_samples = 0;
  /// Session observation knobs (taps, on_signal). on_signal runs on a
  /// scheduler worker thread.
  SessionOptions session_options;
  /// Optional shared SpectralEngine (e.g. one engine for all stations);
  /// nullptr builds a private one from `params`.
  std::shared_ptr<const SpectralEngine> engine;
};

/// Point-in-time per-station accounting.
struct StationStats {
  std::string name;
  std::size_t samples_in = 0;       ///< accepted into the ingest queue
  std::size_t samples_dropped = 0;  ///< evicted under kDropOldest
  std::size_t samples_consumed = 0; ///< pushed through the session
  std::size_t ensembles_out = 0;    ///< delivered to the sink
  std::size_t queued_samples = 0;   ///< current ingest-queue depth
  std::size_t session_buffered_samples = 0;  ///< open ensemble + gap + cuts
  bool finished = false;  ///< source/close seen, queue drained, sink finished
};

/// Aggregate snapshot across every station.
struct SchedulerStats {
  std::vector<StationStats> stations;
  std::size_t rounds = 0;  ///< scheduling rounds executed so far

  [[nodiscard]] std::size_t total_queued_samples() const;
  [[nodiscard]] std::size_t total_buffered_samples() const;  ///< queues + sessions
  [[nodiscard]] std::size_t total_samples_dropped() const;
  [[nodiscard]] std::size_t total_ensembles_out() const;
};

struct SchedulerOptions {
  /// Worker lanes for station processing (common::TaskRunner semantics:
  /// 0 = the shared common::ThreadPool, 1 = serial on the caller,
  /// >= 2 = a dedicated pool of that size).
  std::size_t threads = 0;
  /// Deficit round-robin credit per station per round, in samples, for
  /// stations that leave StationConfig::quantum_samples at 0. A station
  /// processes whole queued chunks while its accumulated credit lasts;
  /// credit carries over while work remains (so chunks larger than one
  /// quantum still progress) and resets when its queue drains.
  std::size_t quantum_samples = 4500;
  /// Observer invoked after every scheduling round with a fresh stats
  /// snapshot, on the scheduling thread with all workers quiescent —
  /// fairness/memory audits hook in here.
  std::function<void(const SchedulerStats&)> on_round;
};

/// Multiplexes N stations' StreamSessions on one host. Stations are added
/// up front; run() (or repeated process_available() calls) drives them to
/// completion. Thread-safe entry points: push(), close_station(),
/// reconfigure(), stats().
class SessionScheduler {
 public:
  explicit SessionScheduler(SchedulerOptions options = {});
  ~SessionScheduler();

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  /// Source-fed station: run() spawns a reader thread that pulls
  /// `read_chunk_samples` at a time from `source` into the ingest queue
  /// under the configured backpressure policy, and closes the station at
  /// end of source. Returns the station id.
  std::size_t add_station(std::string name,
                          std::shared_ptr<river::SampleSource> source,
                          std::shared_ptr<river::EnsembleSink> sink,
                          StationConfig config = {});

  /// Push-fed station: no source; feed it with push() from any thread and
  /// end the stream with close_station().
  std::size_t add_station(std::string name,
                          std::shared_ptr<river::EnsembleSink> sink,
                          StationConfig config = {});

  /// Enqueue one chunk for a (push-fed) station under its backpressure
  /// policy. kBlock waits for queue room — some thread must be driving
  /// run()/process_available() or the wait never ends. Returns the number
  /// of samples evicted to make room (always 0 under kBlock).
  std::size_t push(std::size_t station, std::span<const float> samples);

  /// No more input for this station: once its queue drains, the session is
  /// finished, the tail ensembles delivered, and the sink finished.
  void close_station(std::size_t station);

  /// Live re-parameterization of a running session. Validated eagerly
  /// (must be reconfigure_compatible with the station's current params);
  /// adopted by the worker before the station's next processed chunk, at a
  /// safe automaton boundary. Ensembles already in flight are unaffected.
  void reconfigure(std::size_t station, const PipelineParams& params);

  /// Drive every station to completion: spawns the reader threads, then
  /// runs scheduling rounds until all stations are finished. Call at most
  /// once. Push-fed stations must be closed (by other threads) for run()
  /// to return.
  void run();

  /// One deficit-round-robin scheduling round over the ready stations (queued
  /// work, or closed and ready to finish), in ascending id. Returns true
  /// while any station is unfinished. Alternative to run() for callers that interleave their
  /// own work or drive the scheduler deterministically (tests).
  bool process_available();

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  [[nodiscard]] const std::string& station_name(std::size_t station) const;

  /// The station's session — for featurize() and parameter inspection.
  /// Only safe while the station is quiescent: from its own sink's
  /// accept()/finish() callbacks, between process_available() calls, or
  /// after run() returns.
  [[nodiscard]] const StreamSession& session(std::size_t station) const;

 private:
  struct Station;

  /// What one pass over a station left behind.
  enum class Served : std::uint8_t {
    kIdle,     ///< queue drained, not closed: waits for a producer
    kReady,    ///< chunks still queued (credit ran out) or close pending
    kFinished  ///< finished in this pass
  };

  std::size_t add_station_impl(std::string name,
                               std::shared_ptr<river::SampleSource> source,
                               std::shared_ptr<river::EnsembleSink> sink,
                               StationConfig config);
  std::size_t enqueue(std::size_t station, std::span<const float> samples);
  void close_internal(std::size_t station);
  Served process_station(Station& st);
  void deliver(Station& st, std::vector<river::Ensemble> ensembles);
  void reader_loop(std::size_t station);
  /// Put the station on the ready list unless it is already there. Called
  /// with no station lock held.
  void mark_ready(std::size_t station) DR_EXCLUDES(work_mu_);
  /// After a round: count the stations it finished and put back the ones
  /// still ready. Returns true while any station is unfinished.
  bool requeue_round() DR_EXCLUDES(work_mu_);

  SchedulerOptions options_;
  std::unique_ptr<common::TaskRunner> runner_;
  std::vector<std::unique_ptr<Station>> stations_;
  // Scratch of the thread in process_available(): this round's station ids
  // and what each pass left behind (workers write distinct elements).
  std::vector<std::size_t> round_;
  std::vector<Served> served_;
  std::atomic<std::size_t> rounds_{0};
  bool running_ = false;
  std::atomic<bool> shutdown_{false};  ///< destructor unblocks producers

  // Ready list: every station with queued chunks or a pending close is on
  // it (or in the round being run). Leaf lock: no station mu is held while
  // work_mu_ is taken.
  common::Mutex work_mu_;
  common::CondVar work_cv_;  ///< run() waits here while ready_ is empty
  std::vector<std::size_t> ready_ DR_GUARDED_BY(work_mu_);
  /// on_ready_[id] != 0 iff id is in ready_; sized on first use.
  std::vector<char> on_ready_ DR_GUARDED_BY(work_mu_);
  std::size_t finished_ DR_GUARDED_BY(work_mu_) = 0;  ///< stations finished
  std::vector<std::thread> readers_;
};

/// Archive backfill wiring: add a station whose source replays stream times
/// [t0, t1) of the segment store at `store_dir` (see river/segment_store.hpp)
/// through the scheduler — a month of archive re-extracts at batch speed
/// through the same sessions that serve live traffic. The archived records
/// carry their sample rate; `config.params` still fixes the session's
/// spectral configuration, so it must match the archived stream. Returns the
/// station id.
std::size_t add_replay_station(SessionScheduler& scheduler, std::string name,
                               const std::filesystem::path& store_dir,
                               double t0, double t1,
                               std::shared_ptr<river::EnsembleSink> sink,
                               StationConfig config = {});

}  // namespace dynriver::core
