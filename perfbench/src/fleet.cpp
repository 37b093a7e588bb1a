// fleet_live: 500 push-fed stations at 1x real time through one
// SessionScheduler (open loop), every ensemble archived into one packed
// SegmentedRecordLog by a benchmark-owned sink.
#include <cmath>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/session_scheduler.hpp"
#include "core/spectral_engine.hpp"
#include "river/segment_store.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Records (~1.7 s) of a clip's event-free lead-in that open each
/// station's stream.
constexpr std::size_t kLeadInRecords = 40;

/// The one packed ensemble archive every station's sink writes into.
struct FleetArchive {
  FleetArchive(const fs::path& dir, bool traced_calls)
      : log(dir, [] {
          river::SegmentStoreOptions options;
          options.pack_payloads = true;
          // One active segment for the whole run: a seal (index, footer,
          // fsync, manifest) stalls the lane for milliseconds a handful of
          // times per run, and those few stalls alone would decide
          // emit_p99_ms.
          options.max_segment_bytes = 1ull << 30;
          return options;
        }()),
        traced(traced_calls) {}

  std::mutex mu;
  river::SegmentedRecordLog log;
  std::uint64_t next_id = 0;
  std::size_t retained = 0;
  Timings append_us;
  bool traced;
};

/// Benchmark sink: stamps a monotonic arrival time under the archive lock,
/// appends the ensemble's record stream, and keeps its hash for the check.
class FleetSink final : public river::EnsembleSink {
 public:
  FleetSink(FleetArchive& archive, std::size_t station, double sample_rate)
      : archive_(archive), station_(station), rate_(sample_rate) {}

  void accept(river::Ensemble ensemble) override {
    const std::int64_t accepted = now_ns();
    trace::Span span("sink.accept", station_);
    const OutEnsemble out{ensemble.start_sample, ensemble.length(),
                          hash_samples(ensemble.samples), accepted};
    const std::lock_guard lk(archive_.mu);
    const double stamp = now_s();
    for (const auto& rec :
         river::ensemble_to_records(ensemble, archive_.next_id++, rate_)) {
      timed(archive_.traced, "store.append", station_, archive_.append_us,
            1e-3, [&] { archive_.log.append(rec, stamp); });
    }
    archive_.retained += ensemble.length();
    out_.push_back(out);
  }

  /// Delivered ensembles; call after the scheduler finished.
  [[nodiscard]] std::vector<OutEnsemble> take() {
    const std::lock_guard lk(archive_.mu);
    return std::move(out_);
  }

 private:
  FleetArchive& archive_;
  std::size_t station_;
  double rate_;
  std::vector<OutEnsemble> out_;
};

class FleetLive final : public Workload {
 public:
  explicit FleetLive(const RunConfig& cfg) : cfg_(cfg) {
    pool_ = make_pool(cfg.scale.fleet_clips, mix_seed(cfg.seed, 1), 6, 8, false, 2.0);
    engine_ = std::make_shared<const core::SpectralEngine>(pool_.params);
    dynriver::Rng rng(mix_seed(cfg.seed, 2));
    streams_.resize(cfg.scale.fleet_stations);
    // Every session warms up on the event-free lead-in of a random clip,
    // then plays the pool from its own random record offset, so stations
    // sharing clips do not sing in unison.
    const auto clips = static_cast<std::int64_t>(pool_.clips.size());
    const auto records = static_cast<std::int64_t>(pool_.total_records());
    for (auto& s : streams_) {
      s.pool = &pool_;
      s.lead_first = static_cast<std::size_t>(rng.uniform_int(0, clips - 1)) *
                     pool_.records_per_clip();
      s.lead_in = kLeadInRecords;
      s.first = static_cast<std::size_t>(rng.uniform_int(0, records - 1));
    }
  }

  PhaseResult phase(double seconds, bool traced) override;

 private:
  struct Host {
    std::unique_ptr<FleetArchive> archive;
    std::vector<std::shared_ptr<FleetSink>> sinks;
    std::unique_ptr<core::SessionScheduler> scheduler;
  };

  [[nodiscard]] std::unique_ptr<Host> build(const fs::path& store,
                                            bool traced) const {
    auto host = std::make_unique<Host>();
    host->archive = std::make_unique<FleetArchive>(store, traced);
    core::SchedulerOptions options;
    options.threads = cfg_.lanes;
    host->scheduler = std::make_unique<core::SessionScheduler>(options);
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      auto sink = std::make_shared<FleetSink>(*host->archive, s,
                                              pool_.params.sample_rate);
      core::StationConfig config;
      config.params = pool_.params;
      config.policy = core::BackpressurePolicy::kDropOldest;
      config.engine = engine_;
      host->scheduler->add_station("station-" + std::to_string(s), sink,
                                   config);
      host->sinks.push_back(std::move(sink));
    }
    return host;
  }

  const RunConfig& cfg_;
  ClipPool pool_;
  std::shared_ptr<const core::SpectralEngine> engine_;
  std::vector<StationStream> streams_;
  int phases_ = 0;
};

PhaseResult FleetLive::phase(double seconds, bool traced) {
  const core::PipelineParams& params = pool_.params;
  const double rate = params.sample_rate;
  const std::size_t n_stations = streams_.size();
  const double period_ns = static_cast<double>(params.record_size) / rate * 1e9;
  const auto records = static_cast<std::size_t>(
      std::floor(seconds * rate / static_cast<double>(params.record_size)));
  ScopedDir work(cfg_.work_dir / ("fleet-" + std::to_string(phases_++)));
  const fs::path store = work.path() / "ensembles";

  // Set-up: the scheduler, 500 stations and the archive, timed repeatedly;
  // the last one built serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Host> host;
  for (std::size_t i = 0; i < cfg_.scale.setup_repeats; ++i) {
    host.reset();
    fs::remove_all(store);
    const std::int64_t t = now_ns();
    host = build(store, traced);
    setup_s.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }
  core::SessionScheduler& scheduler = *host->scheduler;

  // Open loop: this thread is the generator; station s's record r is due at
  // t0 + r * period + s * period / stations. Emission latency counts from
  // the moment the record was offered to push(): a generator the host
  // parked for a few ms is late on its own account (gen.lag_p99_ms), and
  // its lateness must not read as the system's.
  const std::int64_t t0 = now_ns() + 20'000'000;
  const auto due = [&](std::size_t s, std::size_t r) {
    return t0 + static_cast<std::int64_t>(
                    std::llround(static_cast<double>(r) * period_ns +
                                 static_cast<double>(s) * period_ns /
                                     static_cast<double>(n_stations)));
  };
  QueueSampler sampler(scheduler, traced);
  HostSpeed speed;
  speed.start_probe();
  const double cpu0 = process_cpu_s();
  const double gen_cpu0 = thread_cpu_s();
  std::exception_ptr run_error;
  std::thread runner([&] {
    try {
      scheduler.run();
    } catch (...) {
      run_error = std::current_exception();
    }
  });
  Timings push_ns;
  std::vector<double> lag_ms;
  lag_ms.reserve(records * n_stations);
  // offered_ns[r * stations + s]: when record r of station s reached push().
  std::vector<std::int64_t> offered_ns(records * n_stations);
  for (std::size_t r = 0; r < records; ++r) {
    for (std::size_t s = 0; s < n_stations; ++s) {
      const std::int64_t when = due(s, r);
      std::int64_t now = now_ns();
      if (now < when) {
        sleep_until_ns(when);
        now = now_ns();
      }
      offered_ns[r * n_stations + s] = now;
      lag_ms.push_back(static_cast<double>(now - when) * 1e-6);
      timed(traced, "sched.push", s, push_ns, 1.0, [&] {
        return scheduler.push(s, streams_[s].record(r));
      });
    }
  }
  for (std::size_t s = 0; s < n_stations; ++s) scheduler.close_station(s);
  const double gen_cpu = thread_cpu_s() - gen_cpu0;
  runner.join();
  const std::int64_t t1 = now_ns();
  speed.stop();
  const double cpu = process_cpu_s() - cpu0 - gen_cpu - speed.cpu_s();
  sampler.stop();
  if (run_error) std::rethrow_exception(run_error);

  const core::SchedulerStats stats = scheduler.stats();
  host->archive->log.close();
  const std::uint64_t bytes = store_bytes(store);

  // Output check against solo reference passes over the same records.
  for (auto& s : streams_) s.records = records;
  const std::vector<Reference> refs = reference_passes(streams_);
  PhaseResult out;
  std::vector<double> latency_ms;
  std::size_t delivered = 0;
  std::size_t matched = 0;
  bool self_tested = false;
  bool self_test_ok = false;
  for (std::size_t s = 0; s < n_stations; ++s) {
    std::vector<OutEnsemble> got = host->sinks[s]->take();
    delivered += got.size();
    if (!self_tested && !refs[s].ensembles.empty()) {
      self_tested = true;
      self_test_ok = self_test_detects_corruption(refs[s], got);
    }
    const CheckOutcome c = check_station(
        refs[s], std::move(got), [&](std::size_t k) { return offered_ns[k * n_stations + s]; },
        &latency_ms);
    out.attempted += c.checked;
    out.failed += c.mismatched;
    matched += c.checked - std::min(c.checked, c.mismatched);
  }
  ++out.attempted;
  if (!self_test_ok) ++out.failed;

  std::size_t consumed = 0;
  std::size_t samples_in = 0;
  for (const auto& st : stats.stations) {
    consumed += st.samples_consumed;
    samples_in += st.samples_in;
  }
  const std::size_t offered = records * n_stations * params.record_size;
  const double audio_s = static_cast<double>(consumed) / rate;
  const double wall_s = static_cast<double>(t1 - t0) * 1e-9;
  std::size_t ref_ensembles = 0;
  double session_ns = 0.0;
  std::size_t session_samples = 0;
  for (const auto& r : refs) {
    ref_ensembles += r.ensembles.size();
    session_ns += r.session_ns;
    session_samples += r.samples;
  }

  auto& m = out.metrics;
  m["setup_s"] = median(setup_s);
  const double audio_h = audio_s / 3600.0;
  m["cpu_ref_per_audio_h"] = cpu / speed.ref_s() / audio_h;
  m["wall_ref_per_audio_h"] = wall_s / speed.ref_s() / audio_h;
  m["cpu_s_per_audio_h"] = cpu / audio_h;
  m["throughput_xrt"] = audio_s / wall_s;
  m["host.ref_us"] = speed.ref_s() * 1e6;
  m["emit_p50_ms"] = quantile(latency_ms, 0.50);
  m["emit_p99_ms"] = quantile(latency_ms, 0.99);
  m["delivered_frac"] =
      static_cast<double>(consumed) / static_cast<double>(offered);
  m["accuracy"] = static_cast<double>(matched) /
                  static_cast<double>(std::max<std::size_t>(ref_ensembles, 1));
  m["reduction"] = 1.0 - static_cast<double>(host->archive->retained) /
                             static_cast<double>(std::max<std::size_t>(consumed, 1));
  m["store_bytes_per_sample"] =
      static_cast<double>(bytes) /
      static_cast<double>(std::max<std::size_t>(host->archive->retained, 1));

  const auto rounds = static_cast<double>(std::max<std::size_t>(stats.rounds, 1));
  m["sched.push_ns_p50"] = quantile(push_ns.values(), 0.50);
  m["sched.push_ns_p99"] = quantile(push_ns.values(), 0.99);
  m["sched.rounds_per_audio_s"] = static_cast<double>(stats.rounds) / audio_s;
  m["sched.chunks_per_round"] =
      static_cast<double>(consumed) / static_cast<double>(params.record_size) /
      rounds;
  sampler.add_metrics(m, samples_in, wall_s);
  m["sched.lane_busy_frac"] = cpu / (wall_s * static_cast<double>(cfg_.lanes));
  m["session.ns_per_sample"] =
      session_ns / static_cast<double>(std::max<std::size_t>(session_samples, 1));
  m["session.ensembles"] = static_cast<double>(delivered);
  m["store.append_us_p50"] = quantile(host->archive->append_us.values(), 0.50);
  m["store.append_us_p99"] = quantile(host->archive->append_us.values(), 0.99);
  m["gen.lag_p99_ms"] = quantile(lag_ms, 0.99);

  const std::size_t beyond_p99 = latency_ms.size() / 100;
  out.notes.push_back(
      "fleet_live: " + std::to_string(n_stations) + " stations x " +
      std::to_string(records) + " records, " + std::to_string(delivered) +
      " ensembles (" + std::to_string(latency_ms.size()) +
      " timed, " + std::to_string(beyond_p99) + " beyond p99), " +
      std::to_string(stats.total_samples_dropped()) + " samples dropped, " +
      std::to_string(stats.rounds) + " rounds");
  out.notes.push_back(std::string("self-test: corrupted reference ") +
                      (self_test_ok ? "failed the check as intended"
                                    : "was NOT detected"));
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_fleet_live(const RunConfig& cfg) {
  return std::make_unique<FleetLive>(cfg);
}

}  // namespace perfbench
