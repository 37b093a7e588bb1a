// SessionScheduler: host-scale multiplexing of many stations' streaming
// sessions. The load-bearing properties:
//
//   1. Routing a station's stream through the scheduler changes nothing:
//      each sink receives exactly the ensembles EnsembleExtractor::extract
//      produces for that station's signal, bit-identically, regardless of
//      worker count or how stations interleave.
//   2. The ingest queue bound is hard, and drop-oldest loss accounting is
//      exact: pushed == consumed + dropped + queued at every instant.
//   3. Live reconfigure through the scheduler equals reconfiguring a
//      hand-pumped session at the same stream position.
//   4. A round serves exactly the stations a scan over every station would
//      pick, in ascending id, although it only visits the ready list.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/extractor.hpp"
#include "core/session_scheduler.hpp"
#include "core/stream_session.hpp"
#include "river/sample_io.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
namespace testsupport = dynriver::testsupport;

namespace {

/// Parameters scaled down so short synthetic signals exercise every state
/// transition (trigger, hold, merge, floor) quickly.
core::PipelineParams small_params() {
  core::PipelineParams params;
  params.anomaly = {.window = 50, .alphabet = 6, .level = 2,
                    .ma_window = 400, .frame = 8};
  params.trigger_min_baseline = 1500;
  params.trigger_hold_samples = 300;
  params.min_ensemble_samples = 600;
  params.merge_gap_samples = 2000;
  return params;
}

std::vector<float> random_signal_with_events(std::size_t n, unsigned seed) {
  auto xs = testsupport::noise_with_bursts(n, n / 4, n / 8, seed);
  const auto second = testsupport::noise_with_bursts(n, (3 * n) / 5, n / 10,
                                                     seed + 1);
  for (std::size_t i = (3 * n) / 5; i < std::min(n, (3 * n) / 5 + n / 10); ++i) {
    xs[i] += second[i] * 0.5F;
  }
  return xs;
}

void expect_same_ensembles(const std::vector<river::Ensemble>& got,
                           const std::vector<river::Ensemble>& want,
                           const std::string& station) {
  ASSERT_EQ(got.size(), want.size()) << station;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start_sample, want[i].start_sample)
        << station << " ensemble " << i;
    ASSERT_EQ(got[i].samples, want[i].samples) << station << " ensemble " << i;
  }
}

}  // namespace

TEST(SessionScheduler, MultiStationBitIdenticalToDirectExtraction) {
  const auto params = small_params();
  const core::EnsembleExtractor extractor(params);

  constexpr std::size_t kStations = 5;
  std::vector<std::vector<float>> signals;
  std::vector<std::vector<river::Ensemble>> want;
  for (std::size_t s = 0; s < kStations; ++s) {
    signals.push_back(random_signal_with_events(60000, 100 + unsigned(s)));
    want.push_back(extractor.extract(signals.back()).ensembles);
  }
  ASSERT_TRUE(std::any_of(want.begin(), want.end(),
                          [](const auto& w) { return !w.empty(); }));

  core::SchedulerOptions options;
  options.threads = 2;  // exercise the pool; per-station order is FIFO anyway
  options.quantum_samples = 1024;
  core::SessionScheduler scheduler(options);

  std::vector<std::shared_ptr<river::CollectingEnsembleSink>> sinks;
  for (std::size_t s = 0; s < kStations; ++s) {
    core::StationConfig config;
    config.params = params;
    config.queue_capacity_samples = 4096;
    config.read_chunk_samples = 512;
    auto sink = std::make_shared<river::CollectingEnsembleSink>();
    sinks.push_back(sink);
    scheduler.add_station(
        "st" + std::to_string(s),
        std::make_shared<river::BufferSource>(signals[s], params.sample_rate),
        sink, config);
  }
  ASSERT_EQ(scheduler.station_count(), kStations);
  scheduler.run();

  const auto stats = scheduler.stats();
  for (std::size_t s = 0; s < kStations; ++s) {
    expect_same_ensembles(sinks[s]->ensembles, want[s], stats.stations[s].name);
    EXPECT_TRUE(stats.stations[s].finished);
    EXPECT_EQ(stats.stations[s].samples_in, signals[s].size());
    EXPECT_EQ(stats.stations[s].samples_consumed, signals[s].size());
    EXPECT_EQ(stats.stations[s].samples_dropped, 0U);
    EXPECT_EQ(stats.stations[s].queued_samples, 0U);
    EXPECT_EQ(stats.stations[s].ensembles_out, want[s].size());
  }
  EXPECT_EQ(stats.total_samples_dropped(), 0U);
  EXPECT_GT(stats.rounds, 0U);
}

TEST(SessionScheduler, DropOldestAccountingIsExact) {
  const auto params = small_params();
  constexpr std::size_t kChunk = 600;
  constexpr std::size_t kCapacityChunks = 4;
  constexpr std::size_t kPushed = 10;

  core::SchedulerOptions options;
  options.threads = 1;  // deterministic manual drive
  core::SessionScheduler scheduler(options);

  core::StationConfig config;
  config.params = params;
  config.policy = core::BackpressurePolicy::kDropOldest;
  config.queue_capacity_samples = kCapacityChunks * kChunk;
  auto sink = std::make_shared<river::CollectingEnsembleSink>();
  const auto id = scheduler.add_station("lossy", sink, config);

  // No processing between pushes: chunks 0..5 must be evicted, 6..9 kept.
  const auto xs = random_signal_with_events(kPushed * kChunk, 7);
  std::size_t dropped = 0;
  for (std::size_t c = 0; c < kPushed; ++c) {
    dropped += scheduler.push(
        id, std::span<const float>(xs.data() + c * kChunk, kChunk));
  }
  EXPECT_EQ(dropped, (kPushed - kCapacityChunks) * kChunk);

  auto stats = scheduler.stats();
  EXPECT_EQ(stats.stations[0].samples_in, kPushed * kChunk);
  EXPECT_EQ(stats.stations[0].samples_dropped, dropped);
  EXPECT_EQ(stats.stations[0].queued_samples, kCapacityChunks * kChunk);
  // pushed == consumed + dropped + queued, exactly.
  EXPECT_EQ(stats.stations[0].samples_in,
            stats.stations[0].samples_consumed +
                stats.stations[0].samples_dropped +
                stats.stations[0].queued_samples);

  scheduler.close_station(id);
  while (scheduler.process_available()) {
  }
  stats = scheduler.stats();
  EXPECT_TRUE(stats.stations[0].finished);
  EXPECT_EQ(stats.stations[0].queued_samples, 0U);
  EXPECT_EQ(stats.stations[0].samples_consumed, kCapacityChunks * kChunk);
  // The session saw exactly the surviving suffix, in order.
  EXPECT_EQ(scheduler.session(id).samples_consumed(), kCapacityChunks * kChunk);
}

TEST(SessionScheduler, BlockPolicyIsLosslessAndBoundsTheQueue) {
  const auto params = small_params();
  constexpr std::size_t kChunk = 512;
  constexpr std::size_t kCapacity = 2048;

  core::SchedulerOptions options;
  options.threads = 1;
  options.quantum_samples = 700;
  options.on_round = [&](const core::SchedulerStats& snapshot) {
    for (const auto& st : snapshot.stations) {
      EXPECT_LE(st.queued_samples, kCapacity);
      EXPECT_EQ(st.samples_dropped, 0U);
    }
  };
  core::SessionScheduler scheduler(std::move(options));

  core::StationConfig config;
  config.params = params;
  config.policy = core::BackpressurePolicy::kBlock;
  config.queue_capacity_samples = kCapacity;
  auto sink = std::make_shared<river::CollectingEnsembleSink>();
  const auto id = scheduler.add_station("lossless", sink, config);

  const auto xs = random_signal_with_events(60000, 21);
  const auto want = core::EnsembleExtractor(params).extract(xs);

  // The pusher blocks whenever the queue is full; the main thread drains.
  std::thread pusher([&] {
    for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
      const std::size_t n = std::min(kChunk, xs.size() - pos);
      const std::size_t d =
          scheduler.push(id, std::span<const float>(xs.data() + pos, n));
      EXPECT_EQ(d, 0U);
    }
    scheduler.close_station(id);
  });
  while (scheduler.process_available()) {
    std::this_thread::yield();
  }
  pusher.join();

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.stations[0].samples_in, xs.size());
  EXPECT_EQ(stats.stations[0].samples_consumed, xs.size());
  EXPECT_EQ(stats.stations[0].samples_dropped, 0U);
  expect_same_ensembles(sink->ensembles, want.ensembles, "lossless");
}

TEST(SessionScheduler, ReconfigureMatchesHandPumpedSession) {
  const auto p1 = small_params();
  auto p2 = p1;
  p2.merge_gap_samples = 900;
  p2.min_ensemble_samples = 800;
  p2.trigger_hold_samples = 500;
  ASSERT_TRUE(core::reconfigure_compatible(p1, p2));

  const auto xs = random_signal_with_events(60000, 33);
  constexpr std::size_t kSplit = 20000;  // reconfigure lands mid-stream
  constexpr std::size_t kChunk = 500;

  // Reference: a hand-pumped session reconfigured at the same position.
  core::StreamSession reference(p1);
  std::vector<river::Ensemble> want;
  for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
    if (pos == kSplit) reference.reconfigure(p2);
    reference.push(std::span<const float>(xs.data() + pos,
                                          std::min(kChunk, xs.size() - pos)));
    for (auto& e : reference.drain()) want.push_back(std::move(e));
  }
  for (auto& e : reference.finish()) want.push_back(std::move(e));

  core::SchedulerOptions options;
  options.threads = 1;
  core::SessionScheduler scheduler(options);
  core::StationConfig config;
  config.params = p1;
  config.queue_capacity_samples = 4 * kChunk;
  auto sink = std::make_shared<river::CollectingEnsembleSink>();
  const auto id = scheduler.add_station("tuned", sink, config);

  // Drain after every push so the reconfigure lands at exactly kSplit.
  for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
    if (pos == kSplit) scheduler.reconfigure(id, p2);
    scheduler.push(id, std::span<const float>(xs.data() + pos,
                                              std::min(kChunk, xs.size() - pos)));
    (void)scheduler.process_available();
  }
  scheduler.close_station(id);
  while (scheduler.process_available()) {
  }

  EXPECT_EQ(scheduler.session(id).params().merge_gap_samples,
            p2.merge_gap_samples);
  expect_same_ensembles(sink->ensembles, want, "tuned");
}

TEST(SessionScheduler, WeightedQuantaSplitServiceProportionally) {
  // Weighted DRR: a station with twice the per-round quantum drains twice
  // the samples per round while both stations stay backlogged. threads=1
  // and manual process_available() pumping make every round deterministic:
  // each round adds the station's quantum to its deficit and drains whole
  // queued chunks while credit lasts, so with chunk-aligned quanta the
  // consumption ratio is exactly the quantum ratio — not approximately.
  const auto params = small_params();
  constexpr std::size_t kChunk = 600;
  constexpr std::size_t kChunks = 40;  // 24000-sample backlog per station

  core::SchedulerOptions options;
  options.threads = 1;
  options.quantum_samples = 1200;  // station "light" adopts this default
  core::SessionScheduler scheduler(options);

  core::StationConfig heavy_cfg;
  heavy_cfg.params = params;
  heavy_cfg.queue_capacity_samples = kChunks * kChunk;
  heavy_cfg.quantum_samples = 2400;  // 2x the scheduler-wide quantum
  core::StationConfig light_cfg = heavy_cfg;
  light_cfg.quantum_samples = 0;  // adopt options_.quantum_samples (1200)

  auto heavy_sink = std::make_shared<river::CollectingEnsembleSink>();
  auto light_sink = std::make_shared<river::CollectingEnsembleSink>();
  const auto heavy = scheduler.add_station("heavy", heavy_sink, heavy_cfg);
  const auto light = scheduler.add_station("light", light_sink, light_cfg);

  const auto xs = random_signal_with_events(kChunks * kChunk, 21);
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::span<const float> chunk(xs.data() + c * kChunk, kChunk);
    EXPECT_EQ(scheduler.push(heavy, chunk), 0U);
    EXPECT_EQ(scheduler.push(light, chunk), 0U);
  }

  // Five rounds: heavy earns 5*2400 = 12000 credit, light 5*1200 = 6000 —
  // both far below the 24000 backlog, so neither queue drains and the
  // deficit never resets.
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(scheduler.process_available());
  }

  const auto stats = scheduler.stats();
  std::size_t heavy_consumed = 0;
  std::size_t light_consumed = 0;
  for (const auto& st : stats.stations) {
    if (st.name == "heavy") heavy_consumed = st.samples_consumed;
    if (st.name == "light") light_consumed = st.samples_consumed;
  }
  EXPECT_EQ(heavy_consumed, 12000U);
  EXPECT_EQ(light_consumed, 6000U);
  EXPECT_EQ(heavy_consumed, 2 * light_consumed);

  // Draining to completion still processes every pushed sample on both —
  // weighting shifts service order, never total service.
  scheduler.close_station(heavy);
  scheduler.close_station(light);
  while (scheduler.process_available()) {
  }
  const auto final_stats = scheduler.stats();
  for (const auto& st : final_stats.stations) {
    EXPECT_EQ(st.samples_consumed, kChunks * kChunk) << st.name;
    EXPECT_TRUE(st.finished) << st.name;
  }
}

namespace {

/// Logs which station each sink callback came from, in call order.
class OrderLoggingSink final : public river::EnsembleSink {
 public:
  OrderLoggingSink(std::size_t station, std::vector<std::size_t>& log)
      : station_(station), log_(log) {}
  void accept(river::Ensemble) override { log_.push_back(station_); }
  void finish() override { log_.push_back(station_); }

 private:
  std::size_t station_;
  std::vector<std::size_t>& log_;
};

}  // namespace

TEST(SessionScheduler, ReadySetMatchesFullScan) {
  // A seeded script of push / close / reconfigure over 64 push-fed stations,
  // one round after each step. Before every round the test computes the set
  // a scan over every station would serve: unfinished, and queued input or
  // closed. Every chunk fits in the smallest quantum, so a served station
  // always consumes a chunk or finishes, and "served" is observable as
  // exactly those stations changing.
  const auto p1 = small_params();
  auto p2 = p1;
  p2.merge_gap_samples = 900;
  p2.min_ensemble_samples = 800;
  ASSERT_TRUE(core::reconfigure_compatible(p1, p2));

  constexpr std::size_t kStations = 64;
  constexpr std::size_t kSignal = 24000;
  constexpr std::size_t kCapacity = 3000;
  constexpr std::size_t kMaxChunk = 600;
  constexpr std::size_t kSteps = 400;

  core::SchedulerOptions options;
  options.threads = 1;
  options.quantum_samples = 1200;
  core::SessionScheduler scheduler(options);

  std::vector<std::size_t> accept_log;
  std::vector<std::vector<float>> signals;
  std::vector<core::BackpressurePolicy> policy;
  const std::size_t quanta[] = {0, 600, 1800, 3000};
  for (std::size_t s = 0; s < kStations; ++s) {
    core::StationConfig config;
    config.params = p1;
    config.policy = s % 2 == 0 ? core::BackpressurePolicy::kBlock
                               : core::BackpressurePolicy::kDropOldest;
    config.queue_capacity_samples = kCapacity;
    config.quantum_samples = quanta[s % 4];
    policy.push_back(config.policy);
    signals.push_back(random_signal_with_events(kSignal, 500 + unsigned(s)));
    ASSERT_EQ(scheduler.add_station(
                  "st" + std::to_string(s),
                  std::make_shared<OrderLoggingSink>(s, accept_log), config),
              s);
  }

  // Every 16th station never receives input; two of them close before the
  // first round, the others somewhere in the script.
  const auto never_fed = [](std::size_t s) { return s % 16 == 5; };
  std::vector<bool> closed(kStations, false);
  for (const std::size_t s : {std::size_t{5}, std::size_t{21}}) {
    scheduler.close_station(s);
    closed[s] = true;
  }

  std::mt19937 rng(20261019U);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::size_t> cursor(kStations, 0);
  bool all_finished = false;
  for (std::size_t step = 0; !all_finished; ++step) {
    auto before = scheduler.stats();
    const std::size_t ops = step < kSteps ? pick(9) : 0;
    for (std::size_t op = 0; op < ops; ++op) {
      const std::size_t s = pick(kStations);
      const std::size_t kind = pick(20);
      if (kind < 16 && !closed[s] && !never_fed(s) && cursor[s] < kSignal) {
        const std::size_t n =
            std::min(1 + pick(kMaxChunk), kSignal - cursor[s]);
        // kBlock would wait for room that only a round can free.
        if (policy[s] == core::BackpressurePolicy::kBlock &&
            before.stations[s].queued_samples + n > kCapacity) {
          continue;
        }
        scheduler.push(s, std::span<const float>(
                              signals[s].data() + cursor[s], n));
        cursor[s] += n;
        before.stations[s].queued_samples += n;
      } else if (kind < 18) {
        scheduler.close_station(s);  // closing twice is a no-op
        closed[s] = true;
      } else if (kind >= 18) {
        scheduler.reconfigure(s, pick(2) == 0 ? p1 : p2);
      }
    }
    if (step >= kSteps) {
      for (std::size_t s = 0; s < kStations; ++s) {
        if (!closed[s]) scheduler.close_station(s);
        closed[s] = true;
      }
    }

    before = scheduler.stats();
    std::vector<std::size_t> want;
    for (std::size_t s = 0; s < kStations; ++s) {
      const auto& st = before.stations[s];
      if (!st.finished && (st.queued_samples > 0 || closed[s])) {
        want.push_back(s);
      }
    }

    accept_log.clear();
    const bool more = scheduler.process_available();
    const auto after = scheduler.stats();

    std::vector<std::size_t> served;
    for (std::size_t s = 0; s < kStations; ++s) {
      if (after.stations[s].samples_consumed !=
              before.stations[s].samples_consumed ||
          after.stations[s].finished != before.stations[s].finished) {
        served.push_back(s);
      }
    }
    ASSERT_EQ(served, want) << "step " << step;
    ASSERT_TRUE(std::is_sorted(accept_log.begin(), accept_log.end()))
        << "step " << step;
    ASSERT_EQ(after.rounds, before.rounds + (want.empty() ? 0U : 1U))
        << "step " << step;

    all_finished = std::all_of(after.stations.begin(), after.stations.end(),
                               [](const auto& st) { return st.finished; });
    ASSERT_EQ(more, !all_finished) << "step " << step;
  }

  // Finished stays finished: further rounds serve nobody.
  EXPECT_FALSE(scheduler.process_available());
  const auto final_stats = scheduler.stats();
  for (std::size_t s = 0; s < kStations; ++s) {
    const auto& st = final_stats.stations[s];
    EXPECT_EQ(st.samples_in,
              st.samples_consumed + st.samples_dropped + st.queued_samples);
    EXPECT_EQ(st.queued_samples, 0U);
    if (never_fed(s)) {
      EXPECT_EQ(st.samples_in, 0U);
    }
  }
}

namespace {

/// Throws from its first accept(), then collects like CollectingEnsembleSink.
class ThrowOnceSink final : public river::EnsembleSink {
 public:
  void accept(river::Ensemble ensemble) override {
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("sink failure");
    }
    ensembles.push_back(std::move(ensemble));
  }
  std::vector<river::Ensemble> ensembles;

 private:
  bool thrown_ = false;
};

}  // namespace

TEST(SessionScheduler, ThrowingSinkLeavesItsStationReady) {
  // A round that throws must not forget its stations: the caller may keep
  // driving process_available(), and every station it served (or never got
  // to) is served again, so the round after the throw resumes the backlog
  // and the host still runs to completion.
  const auto params = small_params();
  constexpr std::size_t kChunk = 600;
  core::SchedulerOptions options;
  options.threads = 1;
  options.quantum_samples = kChunk;
  core::SessionScheduler scheduler(options);

  core::StationConfig config;
  config.params = params;
  config.queue_capacity_samples = 60000;
  auto failing = std::make_shared<ThrowOnceSink>();
  auto healthy = std::make_shared<river::CollectingEnsembleSink>();
  const auto bad = scheduler.add_station("bad", failing, config);
  const auto good = scheduler.add_station("good", healthy, config);

  const auto xs = random_signal_with_events(60000, 7);
  for (std::size_t pos = 0; pos < xs.size(); pos += kChunk) {
    const std::span<const float> chunk(xs.data() + pos, kChunk);
    scheduler.push(bad, chunk);
    scheduler.push(good, chunk);
  }
  scheduler.close_station(bad);
  scheduler.close_station(good);

  // Bounded: a station dropped from scheduling would keep "more" true.
  std::size_t throws = 0;
  bool more = true;
  for (std::size_t round = 0; more && round < 1000; ++round) {
    try {
      more = scheduler.process_available();
    } catch (const std::runtime_error&) {
      ++throws;
    }
  }
  EXPECT_FALSE(more);
  EXPECT_EQ(throws, 1U);
  const auto stats = scheduler.stats();
  for (const auto& st : stats.stations) {
    EXPECT_TRUE(st.finished) << st.name;
    EXPECT_EQ(st.samples_consumed, xs.size()) << st.name;
  }
  const auto want = core::EnsembleExtractor(params).extract(xs).ensembles;
  ASSERT_FALSE(want.empty());
  // The ensemble whose accept() threw is lost; the rest arrive in order.
  EXPECT_EQ(failing->ensembles.size() + 1, want.size());
  expect_same_ensembles(healthy->ensembles, want, "good");
}
