#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/stream_session.hpp"
#include "river/segment_store.hpp"
#include "synth/species.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks and statistics
// ---------------------------------------------------------------------------

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(kEpoch + std::chrono::nanoseconds(t));
}

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Timings::add(double value) {
  const std::lock_guard lk(mu_);
  values_.push_back(value);
}

std::vector<double> Timings::values() const {
  const std::lock_guard lk(mu_);
  return values_;
}

double Timings::sum() const {
  const std::lock_guard lk(mu_);
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

std::size_t Timings::count() const {
  const std::lock_guard lk(mu_);
  return values_.size();
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

namespace trace {
namespace {

struct SpanRecord {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t key;
  std::int64_t start;
  std::int64_t end;
};

/// Spans of one name kept per thread at most, so every boundary stays in
/// the trace however hot its neighbours are; the rest are counted in
/// dropped().
constexpr std::size_t kMaxSpansPerName = 4000;

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::pair<const char*, std::size_t>> kept;  ///< per name

  bool admit(const char* name) {
    for (auto& [n, count] : kept) {
      if (n == name) return count++ < kMaxSpansPerName;
    }
    kept.emplace_back(name, 1);
    return true;
  }
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::size_t> g_recorded{0};
std::atomic<std::size_t> g_dropped{0};
std::mutex g_buffers_mu;
// Owned here so buffers outlive the threads that filled them.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard lk(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *buffer;
}

thread_local std::uint64_t t_current = 0;  ///< innermost open span id

void json_escape_name(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
}

}  // namespace

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool enabled() { return g_on.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t key)
    : name_(name), key_(key), start_(now_ns()) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
}

Span::~Span() { end(); }

std::int64_t Span::end() {
  if (end_ < 0) {
    end_ = now_ns();
    if (id_ != 0) {
      t_current = parent_;
      ThreadBuffer& buffer = local_buffer();
      if (buffer.admit(name_)) {
        buffer.spans.push_back({name_, id_, parent_, key_, start_, end_});
        g_recorded.fetch_add(1, std::memory_order_relaxed);
      } else {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return end_ - start_;
}

std::size_t recorded() { return g_recorded.load(); }
std::size_t dropped() { return g_dropped.load(); }

void write(const fs::path& path, const std::string& metadata_json) {
  std::string out;
  out.reserve(recorded() * 140 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += metadata_json;
  out += ",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  const std::lock_guard lk(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& s : buffer->spans) {
      if (!first) out.push_back(',');
      first = false;
      out += "{\"name\":\"";
      json_escape_name(out, s.name);
      std::snprintf(buf, sizeof buf,
                    "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"key\":%llu}}",
                    buffer->tid, static_cast<double>(s.start) * 1e-3,
                    static_cast<double>(s.end - s.start) * 1e-3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.key));
      out += buf;
    }
  }
  out += "]}\n";
  fs::create_directories(path.parent_path());
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!file) throw std::runtime_error("cannot write trace " + path.string());
}

}  // namespace trace

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 of the pair: nearby seeds and indices give unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t helper_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

namespace {
std::int16_t pcm16_code(float x) {
  const float clamped = std::clamp(x, -1.0F, 1.0F);
  return static_cast<std::int16_t>(std::lround(clamped * 32767.0F));
}
}  // namespace

float pcm16(float x) { return static_cast<float>(pcm16_code(x)) / 32768.0F; }

void pcm_to_float(std::span<const std::int16_t> pcm, std::vector<float>& out) {
  out.resize(pcm.size());
  for (std::size_t i = 0; i < pcm.size(); ++i) {
    out[i] = static_cast<float>(pcm[i]) / 32768.0F;
  }
}

std::size_t ClipPool::records_per_clip() const {
  const std::size_t samples = clips.empty() ? pcm.front().size()
                                            : clips.front().size();
  return samples / params.record_size;
}

std::size_t ClipPool::total_records() const {
  return records_per_clip() * clips.size();
}

std::span<const float> ClipPool::record(std::size_t g) const {
  const std::size_t per_clip = records_per_clip();
  const std::size_t r = g % total_records();
  return std::span<const float>(clips[r / per_clip])
      .subspan((r % per_clip) * params.record_size, params.record_size);
}

ClipPool make_pool(std::size_t count, std::uint64_t seed, int min_singers,
                   int max_singers, bool as_pcm, double min_gap_s) {
  ClipPool pool;
  if (as_pcm) {
    pool.pcm.resize(count);
  } else {
    pool.clips.resize(count);
  }
  pool.truth.resize(count);
  common::TaskRunner runner(helper_threads());
  runner.run(count, [&](std::size_t i) {
    dynriver::Rng rng(mix_seed(seed, i));
    synth::StationParams station_params;
    station_params.sample_rate = pool.params.sample_rate;
    if (min_gap_s > 0.0) station_params.min_event_gap_s = min_gap_s;
    const auto singers = rng.uniform_int(min_singers, max_singers);
    std::vector<synth::SpeciesId> species;
    for (std::int64_t k = 0; k < singers; ++k) {
      species.push_back(static_cast<synth::SpeciesId>(
          rng.uniform_int(0, static_cast<std::int64_t>(synth::kNumSpecies) - 1)));
    }
    // A dense draw of long songs may not fit in one clip: drop singers
    // until it does (same seed each try, so the pool stays deterministic).
    synth::ClipRecording rec;
    for (;;) {
      try {
        synth::SensorStation station(station_params, mix_seed(seed, i + count));
        rec = station.record_clip(species);
        break;
      } catch (const dynriver::ContractViolation&) {
        if (species.size() <= 1) throw;
        species.pop_back();
      }
    }
    if (as_pcm) {
      auto& codes = pool.pcm[i];
      codes.resize(rec.clip.samples.size());
      for (std::size_t j = 0; j < codes.size(); ++j) {
        codes[j] = pcm16_code(rec.clip.samples[j]);
      }
    } else {
      for (float& x : rec.clip.samples) x = pcm16(x);
      pool.clips[i] = std::move(rec.clip.samples);
    }
    pool.truth[i] = std::move(rec.truth);
  });
  return pool;
}

// ---------------------------------------------------------------------------
// Reference and output check
// ---------------------------------------------------------------------------

std::uint64_t hash_samples(std::span<const float> samples) {
  // FNV-1a over the samples' bit patterns, one 32-bit word per step.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const float x : samples) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

Reference reference_pass(const StationStream& stream,
                         std::vector<river::Ensemble>* keep_ensembles) {
  Reference ref;
  core::StreamSession session(stream.pool->params);
  const std::int64_t t0 = now_ns();
  const auto keep = [&](std::vector<river::Ensemble> done, std::size_t k,
                        bool tail) {
    for (auto& e : done) {
      if (ref.ensembles.empty()) ref.first_samples = e.samples;
      ref.ensembles.push_back({e.start_sample, e.length(),
                               hash_samples(e.samples), k, tail});
      if (keep_ensembles != nullptr) keep_ensembles->push_back(std::move(e));
    }
  };
  for (std::size_t k = 0; k < stream.records; ++k) {
    if (session.push(stream.record(k)) > 0) keep(session.drain(), k, false);
  }
  keep(session.finish(), stream.records, true);
  ref.session_ns = static_cast<double>(now_ns() - t0);
  ref.samples = stream.samples();
  return ref;
}

std::vector<Reference> reference_passes(
    const std::vector<StationStream>& streams,
    std::vector<river::Ensemble>* keep_first) {
  std::vector<Reference> refs(streams.size());
  common::TaskRunner runner(helper_threads());
  runner.run(streams.size(), [&](std::size_t i) {
    refs[i] = reference_pass(streams[i], i == 0 ? keep_first : nullptr);
  });
  return refs;
}

void CheckSink::accept(river::Ensemble ensemble) {
  const std::int64_t t = now_ns();
  const trace::Span span("sink.accept", ensemble.start_sample);
  const OutEnsemble out{ensemble.start_sample, ensemble.length(),
                        hash_samples(ensemble.samples), t};
  const std::lock_guard lk(mu_);
  out_.push_back(out);
}

std::vector<OutEnsemble> CheckSink::take() {
  const std::lock_guard lk(mu_);
  return std::move(out_);
}

CheckOutcome check_station(
    const Reference& ref, std::vector<OutEnsemble> out,
    const std::function<std::int64_t(std::size_t)>& arrival_ns,
    std::vector<double>* latency_ms) {
  std::sort(out.begin(), out.end(),
            [](const OutEnsemble& a, const OutEnsemble& b) {
              return a.start < b.start;
            });
  CheckOutcome outcome;
  std::size_t matched = 0;
  for (const RefEnsemble& r : ref.ensembles) {
    ++outcome.checked;
    const auto it = std::lower_bound(
        out.begin(), out.end(), r.start,
        [](const OutEnsemble& o, std::size_t start) { return o.start < start; });
    if (it == out.end() || it->start != r.start || it->length != r.length ||
        it->hash != r.hash) {
      ++outcome.mismatched;
      continue;
    }
    ++matched;
    if (latency_ms != nullptr && !r.tail) {
      latency_ms->push_back(
          static_cast<double>(it->accept_ns - arrival_ns(r.decisive)) * 1e-6);
    }
  }
  // Delivered ensembles the reference does not have.
  outcome.mismatched += out.size() - std::min(out.size(), matched);
  return outcome;
}

bool self_test_detects_corruption(const Reference& ref,
                                  const std::vector<OutEnsemble>& out) {
  if (ref.ensembles.empty()) return false;
  const auto none = [](std::size_t) { return std::int64_t{0}; };
  if (check_station(ref, out, none, nullptr).mismatched != 0) return false;
  Reference corrupted = ref;
  std::vector<float> samples = ref.first_samples;
  samples[samples.size() / 2] += 1.0F / 32768.0F;  // one PCM16 step
  corrupted.ensembles.front().hash = hash_samples(samples);
  return check_station(corrupted, out, none, nullptr).mismatched != 0;
}

std::uint64_t archive_ensembles(const fs::path& dir,
                                const std::vector<river::Ensemble>& ensembles,
                                double sample_rate) {
  fs::remove_all(dir);
  river::SegmentStoreOptions options;
  options.pack_payloads = true;
  {
    river::SegmentedRecordLog log(dir, options);
    std::uint64_t id = 0;
    for (const auto& e : ensembles) {
      // Stream time only orders the records; the ensemble id does.
      for (const auto& rec : river::ensemble_to_records(e, id, sample_rate)) {
        log.append(rec, static_cast<double>(id));
      }
      ++id;
    }
    log.close();
  }
  return store_bytes(dir);
}

std::uint64_t store_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& s : river::SegmentStoreReader(dir).segments()) {
    bytes += s.bytes;
  }
  return bytes;
}

TimedSource::TimedSource(std::shared_ptr<river::SampleSource> inner,
                         const char* span, std::uint64_t key, bool traced,
                         std::size_t expected_reads)
    : inner_(std::move(inner)), span_(span), key_(key), traced_(traced) {
  done_.reserve(expected_reads + 1);
}

std::size_t TimedSource::read(std::span<float> out) {
  std::size_t n = 0;
  if (traced_) {
    trace::Span span(span_, key_);
    n = inner_->read(out);
    read_ns_ += static_cast<double>(span.end());
  } else {
    n = inner_->read(out);
  }
  samples_ += n;
  done_.push_back(now_ns());
  return n;
}

ScopedDir::ScopedDir(fs::path dir) : dir_(std::move(dir)) {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
}

ScopedDir::~ScopedDir() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

}  // namespace perfbench
