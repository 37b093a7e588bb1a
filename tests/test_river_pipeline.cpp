// Pipeline composition: chaining, flush ordering, lambda operators,
// record logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "river/pipeline.hpp"
#include "river/record_log.hpp"
#include "test_support.hpp"

using RecordLog = dynriver::testsupport::TempDirTest;

namespace river = dynriver::river;
using river::Record;
using river::RecordType;

namespace {
/// Doubles every float payload value.
class DoubleOp final : public river::Operator {
 public:
  void process(Record rec, river::Emitter& out) override {
    if (rec.is_float()) {
      for (auto& v : rec.floats()) v *= 2.0F;
    }
    out.emit(std::move(rec));
  }
  [[nodiscard]] std::string_view name() const override { return "double"; }
};

/// Buffers everything, emits on flush (tests flush cascading).
class BufferAllOp final : public river::Operator {
 public:
  void process(Record rec, river::Emitter&) override {
    buffered_.push_back(std::move(rec));
  }
  void flush(river::Emitter& out) override {
    for (auto& rec : buffered_) out.emit(std::move(rec));
    buffered_.clear();
  }
  [[nodiscard]] std::string_view name() const override { return "buffer_all"; }

 private:
  std::vector<Record> buffered_;
};

/// Records a log replays before its end.
std::size_t count_records(const std::filesystem::path& path) {
  river::RecordLogReader reader(path);
  Record rec;
  while (reader.next(rec)) {
  }
  return reader.records_read();
}
}  // namespace

TEST(Pipeline, EmptyPipelinePassesThrough) {
  river::Pipeline p;
  auto out = river::run_pipeline(p, {Record::data(0, {1.0F})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0].floats()[0], 1.0F);
}

TEST(Pipeline, OperatorsChainInOrder) {
  river::Pipeline p;
  p.emplace<DoubleOp>().emplace<DoubleOp>();
  auto out = river::run_pipeline(p, {Record::data(0, {3.0F})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0].floats()[0], 12.0F);  // x2 twice
}

TEST(Pipeline, FlushedRecordsTraverseDownstream) {
  river::Pipeline p;
  p.emplace<BufferAllOp>().emplace<DoubleOp>();
  auto out = river::run_pipeline(p, {Record::data(0, {5.0F})});
  ASSERT_EQ(out.size(), 1u);
  // The buffered record must still pass the downstream DoubleOp on flush.
  EXPECT_FLOAT_EQ(out[0].floats()[0], 10.0F);
}

TEST(Pipeline, TopologyReportsNames) {
  river::Pipeline p;
  p.emplace<DoubleOp>().emplace<BufferAllOp>();
  const auto names = p.topology();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "double");
  EXPECT_EQ(names[1], "buffer_all");
}

TEST(Pipeline, LambdaOperator) {
  river::Pipeline p;
  p.emplace<river::LambdaOperator>("drop_data", [](Record rec, river::Emitter& out) {
    if (rec.type != RecordType::kData) out.emit(std::move(rec));
  });
  auto out = river::run_pipeline(
      p, {Record::open_scope(river::kScopeClip, 0), Record::data(0, {1.0F}),
          Record::close_scope(river::kScopeClip, 0)});
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(RecordLog, WriteReadRoundTrip) {
  const auto path = temp_file("log.drl");
  {
    river::RecordLogWriter writer(path);
    for (int i = 0; i < 50; ++i) {
      auto rec = Record::data(river::kSubtypeAudio, {static_cast<float>(i)});
      rec.sequence = static_cast<std::uint64_t>(i);
      writer.write(rec);
    }
    EXPECT_EQ(writer.records_written(), 50u);
  }
  river::RecordLogReader reader(path);
  Record rec;
  int count = 0;
  while (reader.next(rec)) {
    EXPECT_EQ(rec.sequence, static_cast<std::uint64_t>(count));
    ++count;
  }
  EXPECT_EQ(count, 50);
}

TEST_F(RecordLog, PartialTrailingFrameEndsCleanlyWithTornDiagnosis) {
  // Regression: a torn tail is the exact state kRecover tolerates — a
  // writer died (or is still) mid-frame. The reader used to throw here,
  // making tailing a live log spuriously fail; now it ends the complete
  // prefix cleanly and reports the torn tail through torn()/lost_bytes().
  const auto path = temp_file("trunc.drl");
  {
    river::RecordLogWriter writer(path);
    writer.write(Record::data(0, {1.0F}));
    writer.write(Record::data(0, {2.0F}));
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);
  river::RecordLogReader reader(path);
  Record rec;
  ASSERT_TRUE(reader.next(rec));  // first frame is intact
  EXPECT_FALSE(reader.next(rec));
  EXPECT_TRUE(reader.torn());
  EXPECT_EQ(reader.lost_bytes(), size / 2 - 3);
  EXPECT_EQ(reader.records_read(), 1u);
  EXPECT_FALSE(reader.next(rec));  // stable after the end
}

TEST_F(RecordLog, MidLogCorruptionStillThrows) {
  const auto path = temp_file("corrupt.drl");
  {
    river::RecordLogWriter writer(path);
    writer.write(Record::data(0, {1.0F}));
    writer.write(Record::data(0, {2.0F}));
  }
  // Damage the first frame's payload: its checksum no longer matches, which
  // is structural corruption, not a torn tail.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    const char corrupt = '\x5A';
    f.write(&corrupt, 1);
  }
  river::RecordLogReader reader(path);
  Record rec;
  EXPECT_THROW((void)reader.next(rec), river::WireError);
  EXPECT_FALSE(reader.torn());
}

TEST_F(RecordLog, TruncateAtEveryByteKeepsExactlyTheValidPrefix) {
  // Property sweep: for every possible truncation point, the reader yields
  // exactly the frames that fit, reports torn() iff the cut is mid-frame,
  // and kRecover truncates to the same boundary.
  const auto path = temp_file("sweep.drl");
  std::vector<std::uint64_t> frame_ends;  // cumulative byte offsets
  {
    river::RecordLogWriter writer(path);
    std::uint64_t end = 0;
    for (std::uint64_t i = 0; i < 6; ++i) {
      auto rec = Record::data(river::kSubtypeAudio,
                              river::FloatVec(3 + 7 * i, 0.25F));
      rec.sequence = i;
      rec.set_attr(river::kAttrStartSample, static_cast<std::int64_t>(i));
      end += river::encode_record(rec).size();
      frame_ends.push_back(end);
      writer.write(rec);
    }
    writer.close();
  }
  std::vector<char> pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(pristine.size(), frame_ends.back());

  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    const auto cut_path = temp_file("sweep_cut.drl");
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(pristine.data(), static_cast<std::streamsize>(cut));
    }
    const std::size_t want_frames = static_cast<std::size_t>(
        std::count_if(frame_ends.begin(), frame_ends.end(),
                      [&](std::uint64_t e) { return e <= cut; }));
    const bool on_boundary =
        cut == 0 || std::find(frame_ends.begin(), frame_ends.end(), cut) !=
                        frame_ends.end();

    // Invariant 1: the reader yields the complete prefix, then a clean end.
    river::RecordLogReader reader(cut_path);
    Record rec;
    std::size_t got = 0;
    while (reader.next(rec)) {
      EXPECT_EQ(rec.sequence, got) << "cut=" << cut;
      ++got;
    }
    EXPECT_EQ(got, want_frames) << "cut=" << cut;
    EXPECT_EQ(reader.torn(), !on_boundary) << "cut=" << cut;

    // Invariant 2: kRecover keeps exactly that prefix.
    river::RecordLogWriter writer(cut_path, river::LogOpenMode::kRecover);
    EXPECT_EQ(writer.recovered_records(), want_frames) << "cut=" << cut;
    writer.close();
    const auto want_bytes = want_frames == 0 ? 0 : frame_ends[want_frames - 1];
    EXPECT_EQ(std::filesystem::file_size(cut_path), want_bytes)
        << "cut=" << cut;
  }
}

TEST_F(RecordLog, SyncMakesFramesVisibleWhileWriterStaysOpen) {
  const auto path = temp_file("sync.drl");
  river::RecordLogWriter writer(path);
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto rec = Record::data(0, {static_cast<float>(i)});
    rec.sequence = i;
    writer.write(rec);
  }
  writer.sync();
  // A concurrent tailer sees all three frames, no torn tail.
  river::RecordLogReader reader(path);
  Record rec;
  std::size_t got = 0;
  while (reader.next(rec)) ++got;
  EXPECT_EQ(got, 3u);
  EXPECT_FALSE(reader.torn());
  writer.close();
}

TEST_F(RecordLog, CloseSurfacesFullDiskInsteadOfSilentLoss) {
  // Regression: close() used to ignore stream state, so a full disk could
  // swallow buffered frames while records_written() reported them durable.
  // /dev/full fails every flush with ENOSPC; the buffered write itself
  // "succeeds", so the loss is only detectable at sync()/close().
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  {
    river::RecordLogWriter writer("/dev/full");
    writer.write(Record::data(0, {1.0F}));
    EXPECT_EQ(writer.records_written(), 1u);  // buffered, not yet durable
    EXPECT_THROW(writer.sync(), std::runtime_error);
  }  // destructor tears down best-effort without throwing
  {
    river::RecordLogWriter writer("/dev/full");
    writer.write(Record::data(0, {1.0F}));
    EXPECT_THROW(writer.close(), std::runtime_error);
  }
}

TEST_F(RecordLog, RecoverAfterPartialWriteKeepsCompleteFrames) {
  const auto path = temp_file("recover.drl");
  {
    river::RecordLogWriter writer(path);
    for (std::uint64_t i = 0; i < 20; ++i) {
      auto rec = Record::data(river::kSubtypeAudio, {static_cast<float>(i)});
      rec.sequence = i;
      writer.write(rec);
    }
  }
  // Simulate a writer dying mid-frame: chop 5 bytes off the tail.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  {
    river::RecordLogWriter writer(path, river::LogOpenMode::kRecover);
    EXPECT_EQ(writer.recovered_records(), 19u);  // torn frame 19 dropped
    auto rec = Record::data(river::kSubtypeAudio, {99.0F});
    rec.sequence = 99;
    writer.write(rec);
  }

  // The log now replays cleanly: 19 original frames then the appended one.
  river::RecordLogReader reader(path);
  Record rec;
  std::vector<std::uint64_t> sequences;
  while (reader.next(rec)) sequences.push_back(rec.sequence);
  ASSERT_EQ(sequences.size(), 20u);
  for (std::uint64_t i = 0; i < 19; ++i) EXPECT_EQ(sequences[i], i);
  EXPECT_EQ(sequences.back(), 99u);
}

TEST_F(RecordLog, RecoverOnFreshPathBehavesLikeTruncate) {
  const auto path = temp_file("recover_fresh.drl");
  river::RecordLogWriter writer(path, river::LogOpenMode::kRecover);
  EXPECT_EQ(writer.recovered_records(), 0u);
  writer.write(Record::data(0, {1.0F}));
  writer.close();
  EXPECT_EQ(count_records(path), 1u);
}

TEST_F(RecordLog, RecoverDropsEverythingAfterMidFileCorruption) {
  const auto path = temp_file("recover_corrupt.drl");
  {
    river::RecordLogWriter writer(path);
    for (std::uint64_t i = 0; i < 10; ++i) {
      auto rec = Record::data(river::kSubtypeAudio, {static_cast<float>(i)});
      rec.sequence = i;
      writer.write(rec);
    }
  }
  // Flip a byte early in the file: frames from the damaged one onward are
  // unrecoverable (WAL semantics: keep the valid prefix only).
  const auto size = std::filesystem::file_size(path);
  const auto frame_bytes = size / 10;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(3 * frame_bytes + 20));
    const char corrupt = '\xFF';
    f.write(&corrupt, 1);
  }
  river::RecordLogWriter writer(path, river::LogOpenMode::kRecover);
  EXPECT_LE(writer.recovered_records(), 3u);
  writer.close();
  // Whatever survived must replay without throwing.
  EXPECT_EQ(count_records(path), writer.recovered_records());
}
