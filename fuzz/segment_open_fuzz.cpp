// Harness: segment-store opening, verification, replay, and recovery over a
// fuzzer-synthesized directory.
//
// The input unpacks as a mini-archive (see segment_archive.hpp) into a
// scratch store directory — MANIFEST text, sealed segment files, tmp files —
// then the read side runs the full gauntlet: SegmentStoreReader listing +
// verify() + a seek/drain, the same directory replayed through
// SegmentStoreSource with prefetch on and off (the reader production uses;
// both window providers must yield the same samples and the same clean()),
// and SegmentedRecordLog crash recovery opening the same directory.
// Contract: hostile store bytes surface as clean errors (runtime_error /
// WireError) or clean torn-tail reports, never as a crash, a hang, or an
// attacker-sized allocation. Corpus seeds are real stores serialized by
// corpus_gen, so coverage starts deep inside the happy path.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "fuzz_support.hpp"
#include "river/segment_store.hpp"
#include "segment_archive.hpp"

namespace rv = dynriver::river;
namespace fz = dynriver::fuzz;

namespace {

struct Replay {
  std::vector<float> samples;
  bool clean = false;
};

/// Replay the whole store through SegmentStoreSource; nullopt when the store
/// cannot be opened at all (damaged manifest).
std::optional<Replay> replay(const std::filesystem::path& dir, bool prefetch) {
  try {
    rv::ReplayOptions options;
    options.prefetch = prefetch;
    rv::SegmentStoreSource source(dir, options);
    Replay out;
    std::vector<float> chunk(512);
    while (out.samples.size() < (std::size_t{1} << 22)) {  // bounded drain
      const std::size_t n = source.read(chunk);
      if (n == 0) break;
      out.samples.insert(out.samples.end(), chunk.begin(),
                         chunk.begin() + static_cast<std::ptrdiff_t>(n));
    }
    out.clean = source.clean();
    return out;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](float x, float y) {
           return std::bit_cast<std::uint32_t>(x) ==
                  std::bit_cast<std::uint32_t>(y);
         });
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static fz::ScratchDir scratch;
  const auto& dir = scratch.reset();
  fz::unpack_archive(data, size, dir);

  // Read side: listing, integrity check, bounded drain.
  try {
    rv::SegmentStoreReader reader(dir);
    (void)reader.segments();
    std::string error;
    (void)reader.verify(&error);
    auto cursor = reader.seek(0.0);
    rv::Record rec;
    std::size_t drained = 0;
    while (cursor.next(rec)) {
      if (++drained > 100000) break;  // plenty for any corpus-sized store
    }
    (void)cursor.torn();
    (void)cursor.lost_bytes();
  } catch (const std::runtime_error&) {
    // Damaged manifest / sealed segment: the documented failure mode
    // (WireError is a runtime_error too).
  }

  // Replay side: both window providers run one walk and one parser, so they
  // must agree exactly — samples bit for bit, and the clean/lost verdict.
  const auto prefetched = replay(dir, true);
  const auto inline_read = replay(dir, false);
  FUZZ_CHECK(prefetched.has_value() == inline_read.has_value());
  if (prefetched.has_value()) {
    FUZZ_CHECK(same_bits(prefetched->samples, inline_read->samples));
    FUZZ_CHECK(prefetched->clean == inline_read->clean);
  }

  // Write side: crash recovery must adopt, truncate, or reject — cleanly.
  try {
    rv::SegmentedRecordLog log(dir);
    rv::Record rec;
    rec.payload = rv::FloatVec{0.25F, -0.5F};
    // Append strictly after whatever times recovery adopted (the store
    // rejects non-finite archived times, so this maximum is finite).
    log.append(rec, std::max(1e9, log.last_time()));
    log.close();
  } catch (const std::runtime_error&) {
  }
  return 0;
}
