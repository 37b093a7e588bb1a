// Shared machinery of the dynriver benchmark: clocks, order statistics, the
// in-memory span recorder, the timing source decorator, the synthetic clip
// pool, the solo StreamSession reference pass and the output check.
//
// Every workload (fleet.cpp, ingest.cpp, survey.cpp) drives the library only
// through its public headers; the spans and per-layer timings here are
// recorded from the benchmark's own code, around those calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "river/sample_io.hpp"
#include "synth/station.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace common = dynriver::common;
namespace core = dynriver::core;
namespace river = dynriver::river;
namespace synth = dynriver::synth;

// ---------------------------------------------------------------------------
// Run configuration
// ---------------------------------------------------------------------------

/// Input sizes. The defaults are the benchmark; `smoke()` is the
/// seconds-long shape the benchmark's own test runs.
struct Scale {
  std::size_t fleet_stations = 500;
  std::size_t fleet_clips = 64;           ///< shared 30 s clip pool
  std::size_t ingest_stations = 4;
  std::size_t ingest_clips = 32;          ///< pool the station streams cycle
  std::size_t ingest_clips_per_station = 120;  ///< 120 x 30 s = 1 h
  std::size_t survey_clips = 120;         ///< 1 h of labelled field clips
  std::size_t setup_repeats = 41;         ///< set-ups timed per run

  static Scale smoke() { return {60, 6, 4, 4, 3, 36, 3}; }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  std::size_t lanes = 2;  ///< scheduler worker lanes (threads <= nproc = 4)
  fs::path work_dir;      ///< scratch inputs (archives, stores); removed
  fs::path out_dir;       ///< trace files
};

// ---------------------------------------------------------------------------
// Clocks and statistics
// ---------------------------------------------------------------------------

/// Monotonic nanoseconds since the benchmark process started.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] inline double now_s() {
  return static_cast<double>(now_ns()) * 1e-9;
}
/// Sleep until the now_ns() instant `t`.
void sleep_until_ns(std::int64_t t);
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Thread-safe per-call duration collector for one layer boundary.
class Timings {
 public:
  void add(double value);
  [[nodiscard]] std::vector<double> values() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] std::size_t count() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

/// In-memory span recorder, written as Chrome trace-event JSON when the run
/// ends. Spans nest per thread (the enclosing open span is the parent);
/// `key` names the station or ensemble the call worked for. Recording is
/// off unless enabled, and capped per thread and span name so a long run
/// cannot exhaust memory (spans past the cap are counted, not kept).
namespace trace {

void enable(bool on);
[[nodiscard]] bool enabled();

/// RAII span. When recording is off the constructor still reads the clock,
/// so callers get the duration either way.
class Span {
 public:
  Span(const char* name, std::uint64_t key);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span now; returns its duration in ns (idempotent).
  std::int64_t end();

 private:
  const char* name_;
  std::uint64_t key_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_;
  std::int64_t end_ = -1;
};

[[nodiscard]] std::size_t recorded();
[[nodiscard]] std::size_t dropped();
/// Write every recorded span plus `metadata_json` (an object) to `path`.
void write(const fs::path& path, const std::string& metadata_json);

}  // namespace trace

/// Time `fn` as a span when `traced`, adding its duration (in `scale` units
/// of ns, e.g. 1e-3 for us) to `sink`; run it bare otherwise.
template <class Fn>
decltype(auto) timed(bool traced, const char* name, std::uint64_t key,
                     Timings& sink, double scale, Fn&& fn) {
  if (!traced) return fn();
  trace::Span span(name, key);
  struct Closer {
    trace::Span& span;
    Timings& sink;
    double scale;
    ~Closer() { sink.add(static_cast<double>(span.end()) * scale); }
  } closer{span, sink, scale};
  return fn();
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Quantize a sample onto the PCM16 grid a WAV round trip produces.
[[nodiscard]] float pcm16(float x);

/// Synthesized 30 s station clips (PCM16 grid), rendered in parallel, each
/// from its own seed so the pool is identical for any thread count. Clips
/// are kept as floats (`clips`, served by record()) or, for pools only read
/// clip by clip, as PCM16 codes (`pcm`, half the memory).
struct ClipPool {
  core::PipelineParams params;
  std::vector<std::vector<float>> clips;
  std::vector<std::vector<std::int16_t>> pcm;
  std::vector<std::vector<synth::PlantedVocalization>> truth;

  [[nodiscard]] std::size_t records_per_clip() const;
  [[nodiscard]] std::size_t total_records() const;
  /// Record `g` of the pool's cyclic record sequence.
  [[nodiscard]] std::span<const float> record(std::size_t g) const;
};

/// Render `count` clips with `min_singers`..`max_singers` random species
/// each, at least `min_gap_s` apart (0 = the station default). Deterministic
/// in `seed`.
[[nodiscard]] ClipPool make_pool(std::size_t count, std::uint64_t seed,
                                 int min_singers, int max_singers,
                                 bool as_pcm = false, double min_gap_s = 0.0);

/// Expand PCM16 codes back to the float samples of the grid.
void pcm_to_float(std::span<const std::int16_t> pcm, std::vector<float>& out);

/// A station's audio: `lead_in` records of the pool starting at
/// `lead_first`, then consecutive records of the pool's cyclic record
/// sequence starting at `first`; `records` in all.
struct StationStream {
  const ClipPool* pool = nullptr;
  std::size_t first = 0;
  std::size_t records = 0;
  std::size_t lead_first = 0;
  std::size_t lead_in = 0;

  [[nodiscard]] std::span<const float> record(std::size_t r) const {
    return r < lead_in ? pool->record(lead_first + r)
                       : pool->record(first + r - lead_in);
  }
  [[nodiscard]] std::size_t samples() const {
    return records * pool->params.record_size;
  }
};

// ---------------------------------------------------------------------------
// Reference and output check
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t hash_samples(std::span<const float> samples);

/// One ensemble of the solo reference pass.
struct RefEnsemble {
  std::size_t start = 0;
  std::size_t length = 0;
  std::uint64_t hash = 0;
  std::size_t decisive = 0;  ///< record whose push made it available
  bool tail = false;         ///< flushed by finish(), not by a push
};

/// One ensemble as the system under test delivered it.
struct OutEnsemble {
  std::size_t start = 0;
  std::size_t length = 0;
  std::uint64_t hash = 0;
  std::int64_t accept_ns = 0;  ///< now_ns() at sink accept
};

struct Reference {
  std::vector<RefEnsemble> ensembles;
  double session_ns = 0.0;  ///< wall time of the solo pass
  std::size_t samples = 0;
  /// Samples of the first ensemble, kept for the corruption self-test.
  std::vector<float> first_samples;
};

/// Solo single-thread StreamSession pass over a station stream, pushed one
/// record at a time, as the ground truth the multiplexed run must match.
/// `keep`, when given, receives the ensembles themselves.
[[nodiscard]] Reference reference_pass(
    const StationStream& stream, std::vector<river::Ensemble>* keep = nullptr);

/// Reference passes over many streams, spread over the host's cores;
/// `keep_first` receives the first stream's ensembles.
[[nodiscard]] std::vector<Reference> reference_passes(
    const std::vector<StationStream>& streams,
    std::vector<river::Ensemble>* keep_first = nullptr);

/// Collects a station's delivered ensembles (hash and accept time only).
class CheckSink final : public river::EnsembleSink {
 public:
  void accept(river::Ensemble ensemble) override;
  [[nodiscard]] std::vector<OutEnsemble> take();

 private:
  std::mutex mu_;
  std::vector<OutEnsemble> out_;
};

struct CheckOutcome {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
};

/// Match delivered ensembles to the reference by start sample (never by
/// arrival order) and compare length and sample hash; every reference
/// ensemble missing and every extra delivered ensemble is a mismatch. For
/// each matched push-made ensemble, `latency_ms` receives accept time minus
/// `arrival_ns(decisive record)`.
CheckOutcome check_station(const Reference& ref,
                           std::vector<OutEnsemble> out,
                           const std::function<std::int64_t(std::size_t)>&
                               arrival_ns,
                           std::vector<double>* latency_ms);

/// The check's own self-test: corrupt one sample of the first reference
/// ensemble and confirm that check_station now reports a mismatch against
/// the same delivered output. Returns true when the check failed as
/// intended.
[[nodiscard]] bool self_test_detects_corruption(
    const Reference& ref, const std::vector<OutEnsemble>& out);

/// Write ensembles of one station into a fresh packed segment store at
/// `dir` as ensemble record streams; returns the store's payload bytes.
[[nodiscard]] std::uint64_t archive_ensembles(
    const fs::path& dir, const std::vector<river::Ensemble>& ensembles,
    double sample_rate);

/// Payload bytes of every segment of the store at `dir`.
[[nodiscard]] std::uint64_t store_bytes(const fs::path& dir);

/// Per-read timestamps (and, traced, durations) around any sample source:
/// the benchmark's decorator for SampleSource::read.
class TimedSource final : public river::SampleSource {
 public:
  TimedSource(std::shared_ptr<river::SampleSource> inner, const char* span,
              std::uint64_t key, bool traced, std::size_t expected_reads);

  [[nodiscard]] std::size_t read(std::span<float> out) override;
  [[nodiscard]] double sample_rate() const override {
    return inner_->sample_rate();
  }

  /// now_ns() at the return of each read, in read order.
  [[nodiscard]] const std::vector<std::int64_t>& read_done_ns() const {
    return done_;
  }
  [[nodiscard]] double read_ns() const { return read_ns_; }
  [[nodiscard]] std::size_t samples() const { return samples_; }

 private:
  std::shared_ptr<river::SampleSource> inner_;
  const char* span_;
  std::uint64_t key_;
  bool traced_;
  std::vector<std::int64_t> done_;
  double read_ns_ = 0.0;
  std::size_t samples_ = 0;
};

/// Remove a directory tree when the scope ends (also on exceptions).
class ScopedDir {
 public:
  explicit ScopedDir(fs::path dir);
  ~ScopedDir();
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

/// Deterministic 64-bit mix of a seed and a stream index.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// Worker threads for set-up and reference work (never more than 4).
[[nodiscard]] std::size_t helper_threads();

}  // namespace perfbench
