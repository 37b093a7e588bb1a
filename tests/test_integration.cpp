// System-level integration: the full distributed scenario. Sensor stations
// produce clips; the extraction and spectral segments run on separate
// threads connected by channels (and real TCP); segments are relocated
// mid-stream; upstream failures are contained by BadCloseScope recovery; the
// harvested patterns classify correctly.
#include <gtest/gtest.h>

#include <thread>

#include "core/birdsong.hpp"
#include "eval/protocol.hpp"
#include "meso/classifier.hpp"
#include "river/manager.hpp"
#include "river/scope.hpp"
#include "river/stream_io.hpp"
#include "river/tcp.hpp"
#include "synth/station.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
namespace synth = dynriver::synth;
namespace meso = dynriver::meso;
using river::Record;
using river::RecordType;
using river::RecvStatus;

namespace {
core::PipelineParams params() { return core::PipelineParams{}; }

void feed_clip_records(river::RecordChannel& ch, const synth::ClipRecording& rec,
                       const std::string& species_code) {
  river::AttrMap attrs;
  attrs.emplace(river::kAttrSpecies, species_code);
  for (auto& r :
       core::clip_to_records(rec.clip, rec.clip_id, params().record_size, attrs)) {
    ch.send(std::move(r));
  }
}
}  // namespace

TEST(Integration, TwoSegmentPipelineOverChannels) {
  // Segment A: extraction (saxanomaly -> trigger -> cutter).
  // Segment B: spectral (reslice .. rec2vect).
  auto source = std::make_shared<river::InProcessChannel>(64);
  auto middle = std::make_shared<river::InProcessChannel>(64);
  auto sink_ch = std::make_shared<river::InProcessChannel>(4096);

  river::Segment seg_a("extract", core::make_extraction_pipeline(params()),
                       source, middle);
  river::Segment seg_b("spectral", core::make_spectral_pipeline(params()),
                       middle, sink_ch);

  std::thread ta([&] { (void)seg_a.run(); });
  std::thread tb([&] { (void)seg_b.run(); });

  synth::StationParams sp;
  sp.distractor_probability = 0.0;
  synth::SensorStation station(sp, 1001);
  const auto clip =
      station.record_clip({synth::SpeciesId::kRWBL, synth::SpeciesId::kRWBL});
  feed_clip_records(*source, clip, "RWBL");
  source->close();

  ta.join();
  tb.join();

  std::vector<Record> collected;
  Record rec;
  while (sink_ch->recv(rec) == RecvStatus::kRecord) collected.push_back(rec);

  river::ScopeTracker tracker;
  for (const auto& r : collected) tracker.observe(r);
  EXPECT_FALSE(tracker.any_open());

  const auto patterns = core::harvest_patterns(collected);
  ASSERT_GE(patterns.size(), 2u);
  for (const auto& p : patterns) {
    EXPECT_EQ(p.species, "RWBL");
    EXPECT_EQ(p.features.size(), params().features_per_pattern());
  }
}

TEST(Integration, PipelineSplitAcrossRealTcp) {
  river::TcpListener listener(0);
  const auto port = listener.port();

  // Host A: runs extraction, streams ensembles out over TCP.
  std::thread host_a([port] {
    auto source = std::make_shared<river::InProcessChannel>(64);
    synth::StationParams sp;
    sp.distractor_probability = 0.0;
    synth::SensorStation station(sp, 2002);
    const auto clip = station.record_clip({synth::SpeciesId::kNOCA});

    std::thread feeder([&source, &clip] {
      feed_clip_records(*source, clip, "NOCA");
      source->close();
    });

    auto tcp = std::make_shared<river::TcpRecordChannel>(
        river::TcpStream::connect("127.0.0.1", port));
    river::Segment segment("extract", core::make_extraction_pipeline(params()),
                           source, tcp);
    (void)segment.run();
    feeder.join();
  });

  // Host B: receives over TCP, runs the spectral segment.
  river::TcpRecordChannel incoming(listener.accept());
  auto spectral = core::make_spectral_pipeline(params());
  river::VectorEmitter sink;
  const auto result = river::stream_in(incoming, spectral, sink);
  host_a.join();

  EXPECT_TRUE(result.clean);
  const auto patterns = core::harvest_patterns(sink.records);
  ASSERT_FALSE(patterns.empty());
  EXPECT_EQ(patterns.front().species, "NOCA");
}

TEST(Integration, UpstreamDeathMidClipIsContained) {
  river::TcpListener listener(0);
  const auto port = listener.port();

  // Upstream dies after sending a partial clip (no CloseScope).
  std::thread dying_upstream([port] {
    river::TcpRecordChannel ch(river::TcpStream::connect("127.0.0.1", port));
    synth::StationParams sp;
    synth::SensorStation station(sp, 3003);
    const auto clip = station.record_clip({synth::SpeciesId::kBLJA});
    auto records =
        core::clip_to_records(clip.clip, 0, params().record_size);
    // Send the open scope and half the data records, then die abruptly.
    const std::size_t half = records.size() / 2;
    for (std::size_t i = 0; i < half; ++i) ch.send(std::move(records[i]));
    ch.disconnect();
  });

  river::TcpRecordChannel incoming(listener.accept());
  auto full = core::make_full_pipeline(params());
  river::VectorEmitter sink;
  const auto result = river::stream_in(incoming, full, sink);
  dying_upstream.join();

  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.bad_closes_emitted, 1u);  // the dangling clip scope

  // Downstream output is still well-formed despite the upstream death.
  river::ScopeTracker tracker;
  for (const auto& rec : sink.records) tracker.observe(rec);
  EXPECT_FALSE(tracker.any_open());
}

TEST(Integration, RelocationDuringLiveExtraction) {
  river::PipelineManager manager;
  manager.add_host("field-station");
  manager.add_host("observatory");

  auto source = std::make_shared<river::InProcessChannel>(32);
  auto sink_ch = std::make_shared<river::InProcessChannel>(100000);

  manager.deploy(std::make_unique<river::Segment>(
                     "full", core::make_full_pipeline(params()), source, sink_ch),
                 "field-station");

  synth::StationParams sp;
  sp.distractor_probability = 0.0;
  synth::SensorStation station(sp, 4004);

  std::thread feeder([&] {
    for (int c = 0; c < 4; ++c) {
      const auto clip = station.record_clip({synth::SpeciesId::kTUTI});
      feed_clip_records(*source, clip, "TUTI");
    }
    source->close();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (void)manager.relocate("full", "observatory");
  feeder.join();
  const auto stats = manager.wait_all();
  EXPECT_EQ(stats.at("full").cause, river::SegmentStopCause::kUpstreamClosed);

  std::vector<Record> collected;
  Record rec;
  while (sink_ch->recv(rec) == RecvStatus::kRecord) collected.push_back(rec);

  river::ScopeTracker tracker;
  for (const auto& r : collected) tracker.observe(r);
  EXPECT_FALSE(tracker.any_open());

  // All four clips' ensembles survived the relocation.
  const auto patterns = core::harvest_patterns(collected);
  EXPECT_GE(patterns.size(), 4u);
}

TEST(Integration, EndToEndClassificationAcrossThreads) {
  // Train MESO on patterns from two species, then classify a fresh clip
  // that flowed through a threaded two-segment pipeline.
  synth::StationParams sp;
  sp.distractor_probability = 0.0;
  synth::SensorStation station(sp, 5005);
  const auto p = params();

  meso::MesoClassifier clf;
  for (int round = 0; round < 6; ++round) {
    for (const auto id : {synth::SpeciesId::kMODO, synth::SpeciesId::kNOCA}) {
      const auto clip = station.record_clip({id});
      for (const auto& pat : core::process_clip(clip.clip, 0, p)) {
        clf.train(pat.features, static_cast<meso::Label>(id));
      }
    }
  }
  ASSERT_GT(clf.pattern_count(), 20u);

  // Fresh test clip through a threaded pipeline.
  auto source = std::make_shared<river::InProcessChannel>(64);
  auto sink_ch = std::make_shared<river::InProcessChannel>(100000);
  river::Segment segment("full", core::make_full_pipeline(p), source, sink_ch);
  std::thread runner([&] { (void)segment.run(); });

  const auto test_clip = station.record_clip({synth::SpeciesId::kMODO});
  feed_clip_records(*source, test_clip, "MODO");
  source->close();
  runner.join();

  std::vector<Record> collected;
  Record rec;
  while (sink_ch->recv(rec) == RecvStatus::kRecord) collected.push_back(rec);
  const auto patterns = core::harvest_patterns(collected);
  ASSERT_FALSE(patterns.empty());

  std::vector<int> votes;
  for (const auto& pat : patterns) votes.push_back(clf.classify(pat.features));
  const int predicted = dynriver::eval::majority_vote(votes, synth::kNumSpecies);
  EXPECT_EQ(predicted, static_cast<int>(synth::SpeciesId::kMODO));
}
