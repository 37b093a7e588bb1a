#include "river/segment_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "common/checked.hpp"
#include "common/contracts.hpp"
#include "river/crc_slices.hpp"
#include "river/wire.hpp"

namespace dynriver::river {

namespace {

namespace fs = std::filesystem;
namespace checked = common::checked;

// -- fixed-layout encoding helpers -------------------------------------------

template <typename T>
void put_raw(std::uint8_t* dst, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(dst, &value, sizeof(T));
}

template <typename T>
T get_raw(const std::uint8_t* src) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

std::string segment_name(std::uint64_t index) {
  std::array<char, 32> buf;
  std::snprintf(buf.data(), buf.size(), "seg-%06" PRIu64 ".drs", index);
  return buf.data();
}

bool parse_segment_name(const std::string& name, std::uint64_t& index) {
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = ".drs";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
    return false;
  }
  index = 0;
  for (std::size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    index = index * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

std::array<std::uint8_t, kSegmentHeaderBytes> segment_header_bytes() {
  std::array<std::uint8_t, kSegmentHeaderBytes> h{};
  put_raw<std::uint32_t>(h.data(), kSegmentMagic);
  put_raw<std::uint16_t>(h.data() + 4, kSegmentVersion);
  put_raw<std::uint16_t>(h.data() + 6, 0);  // flags
  return h;
}

/// Fixed-offset view of the 52-byte footer (see segment_store.hpp layout).
struct SegmentFooter {
  std::uint64_t frames = 0;
  std::uint64_t payload_end = 0;
  std::uint32_t index_count = 0;
  std::uint16_t version = 0;
  std::uint16_t flags = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  std::uint32_t payload_crc = 0;
  std::uint32_t footer_crc = 0;
};

constexpr std::size_t kFooterCrcOffset = 44;
constexpr std::size_t kIndexEntryBytes = 16;

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool read_exact(std::ifstream& in, std::uint8_t* dst, std::size_t n) {
  in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
  return std::cmp_equal(in.gcount(), n);
}

/// Parse and sanity-check the footer of a sealed segment file. Returns false
/// (with `error` filled) for anything that is not a well-formed sealed
/// segment — including a torn active segment, which has no footer.
bool load_segment_footer(const fs::path& path, SegmentFooter& out,
                         std::string* error) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return set_error(error, "cannot stat " + path.string());
  if (size < kSegmentHeaderBytes + kSegmentFooterBytes) {
    return set_error(error, path.string() + ": too small for a sealed segment");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return set_error(error, "cannot open " + path.string());
  std::array<std::uint8_t, kSegmentHeaderBytes> header;
  if (!read_exact(in, header.data(), header.size())) {
    return set_error(error, path.string() + ": short header read");
  }
  if (get_raw<std::uint32_t>(header.data()) != kSegmentMagic ||
      get_raw<std::uint16_t>(header.data() + 4) != kSegmentVersion) {
    return set_error(error, path.string() + ": bad segment header");
  }
  in.seekg(static_cast<std::streamoff>(size - kSegmentFooterBytes));
  std::array<std::uint8_t, kSegmentFooterBytes> raw;
  if (!read_exact(in, raw.data(), raw.size())) {
    return set_error(error, path.string() + ": short footer read");
  }
  if (get_raw<std::uint32_t>(raw.data() + 48) != kSegmentFooterMagic) {
    return set_error(error, path.string() + ": no footer magic (unsealed?)");
  }
  SegmentFooter f;
  f.frames = get_raw<std::uint64_t>(raw.data() + 0);
  f.payload_end = get_raw<std::uint64_t>(raw.data() + 8);
  f.index_count = get_raw<std::uint32_t>(raw.data() + 16);
  f.version = get_raw<std::uint16_t>(raw.data() + 20);
  f.flags = get_raw<std::uint16_t>(raw.data() + 22);
  f.t_min = get_raw<double>(raw.data() + 24);
  f.t_max = get_raw<double>(raw.data() + 32);
  f.payload_crc = get_raw<std::uint32_t>(raw.data() + 40);
  f.footer_crc = get_raw<std::uint32_t>(raw.data() + kFooterCrcOffset);
  if (f.version != kSegmentVersion) {
    return set_error(error, path.string() + ": unsupported segment version");
  }
  // The writer only ever stamps finite, ordered times (append enforces it),
  // so anything else is corruption; letting it through would poison the
  // recovered last-time watermark and the manifest's ordering invariants.
  if (!std::isfinite(f.t_min) || !std::isfinite(f.t_max) ||
      f.t_min > f.t_max) {
    return set_error(error, path.string() + ": footer time range invalid");
  }
  // index_count is u32, so `tail` tops out near 2^36 and cannot wrap; the
  // naive `payload_end + tail == size` sum could, letting a hostile
  // payload_end near 2^64 satisfy the equation and send later reads to
  // offsets far past the file.
  const std::uint64_t tail =
      std::uint64_t{f.index_count} * kIndexEntryBytes + kSegmentFooterBytes;
  if (f.payload_end < kSegmentHeaderBytes || tail > size ||
      f.payload_end != size - tail) {
    return set_error(error, path.string() + ": footer geometry mismatch");
  }
  out = f;
  return true;
}

/// Load (and CRC-check) the sparse index region of a sealed segment.
bool load_segment_index(const fs::path& path, const SegmentFooter& footer,
                        std::vector<std::pair<double, std::uint64_t>>& out,
                        std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return set_error(error, "cannot open " + path.string());
  in.seekg(static_cast<std::streamoff>(footer.payload_end));
  const std::size_t index_bytes =
      std::size_t{footer.index_count} * kIndexEntryBytes;
  std::vector<std::uint8_t> tail(index_bytes + kSegmentFooterBytes);
  if (!read_exact(in, tail.data(), tail.size())) {
    return set_error(error, path.string() + ": short index read");
  }
  const std::uint32_t crc = crc32c(tail.data(), index_bytes + kFooterCrcOffset);
  if (crc != footer.footer_crc) {
    return set_error(error, path.string() + ": footer checksum mismatch");
  }
  out.clear();
  out.reserve(footer.index_count);
  for (std::size_t i = 0; i < footer.index_count; ++i) {
    const std::uint8_t* e = tail.data() + i * kIndexEntryBytes;
    const auto t = get_raw<double>(e);
    const auto offset = get_raw<std::uint64_t>(e + 8);
    // Validate here, on the read path — not only in verify(). An offset past
    // payload_end once made the prefetcher's `payload_end - start` window
    // size wrap into a huge resize; unsorted or NaN stamps would break the
    // seek's upper_bound probe.
    if (offset < kSegmentHeaderBytes || offset >= footer.payload_end ||
        std::isnan(t) || (!out.empty() && t < out.back().first)) {
      return set_error(error, path.string() + ": index entry out of bounds");
    }
    out.emplace_back(t, offset);
  }
  return true;
}

// A reader guesses the active file's name from its manifest snapshot's next
// index — but a compaction racing that snapshot hands the very same index to
// a *merged* segment of older records. Telling the two apart needs the file
// itself: a valid sealed footer whose span starts before the snapshot's
// sealed tail is merged old data, and reading it as the live tail would
// re-emit records with time running backwards. Returns false for that case
// (skip the file). Otherwise the file is a plausible continuation: either
// genuinely active (*sealed_payload_end = 0) or sealed after the snapshot
// (*sealed_payload_end = its payload end, so the caller stops before the
// index/footer bytes instead of reporting them as a torn tail).
bool probe_presumed_active(const fs::path& path, double sealed_t_max,
                           std::uint64_t* sealed_payload_end) {
  *sealed_payload_end = 0;
  SegmentFooter footer;
  if (!load_segment_footer(path, footer, nullptr)) return true;
  if (footer.t_min < sealed_t_max) return false;
  *sealed_payload_end = footer.payload_end;
  return true;
}

void fsync_directory(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);  // best-effort: rename durability on metadata journals
    ::close(fd);
  }
}

void fsync_file(std::FILE* f, const std::string& what) {
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    throw std::runtime_error("segment store sync failed: " + what + ": " +
                             std::strerror(errno));
  }
}

constexpr std::string_view kManifestHeader = "dynriver-segment-store v1";

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t seed) {
  return detail::CrcSlices<0x82F63B78u>::update(seed ^ 0xFFFFFFFFu, data, len) ^
         0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

namespace {

/// Parse MANIFEST; absent file yields an empty store. Throws on damage —
/// recovery must never guess at the sealed list.
void read_manifest(const fs::path& dir, std::vector<SegmentInfo>& sealed,
                   std::uint64_t& next_index) {
  sealed.clear();
  next_index = 0;
  const auto path = dir / "MANIFEST";
  std::ifstream in(path);
  if (!in) return;  // fresh store
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    throw std::runtime_error("bad segment store manifest: " + path.string());
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("next ", 0) == 0) {
      next_index = std::strtoull(line.c_str() + 5, nullptr, 10);
      continue;
    }
    if (line.rfind("seg ", 0) == 0) {
      std::array<char, 64> name{};
      unsigned long long frames = 0;
      unsigned long long bytes = 0;
      double t_min = 0.0;
      double t_max = 0.0;
      unsigned crc = 0;
      if (std::sscanf(line.c_str(), "seg %63s %llu %llu %la %la %x",
                      name.data(), &frames, &bytes, &t_min, &t_max,
                      &crc) != 6) {
        throw std::runtime_error("bad manifest line in " + path.string() +
                                 ": " + line);
      }
      SegmentInfo info;
      info.name = name.data();
      info.frames = frames;
      info.bytes = bytes;
      info.t_min = t_min;
      info.t_max = t_max;
      info.payload_crc = static_cast<std::uint32_t>(crc);
      info.sealed = true;
      // The manifest is untrusted bytes like any other store file. A name
      // that is not a well-formed segment name would let a hostile MANIFEST
      // point readers at arbitrary paths ("seg ../../etc/passwd ..."), and
      // non-monotone or NaN time spans break the cursor's lower_bound seek
      // and its "nothing later fits" early-out.
      std::uint64_t seg_index = 0;
      if (!parse_segment_name(info.name, seg_index)) {
        throw std::runtime_error("bad segment name in " + path.string() +
                                 ": " + info.name);
      }
      if (!std::isfinite(info.t_min) || !std::isfinite(info.t_max) ||
          info.t_min > info.t_max ||
          (!sealed.empty() && (info.t_min < sealed.back().t_min ||
                               info.t_max < sealed.back().t_max))) {
        throw std::runtime_error("non-monotone segment times in " +
                                 path.string() + ": " + info.name);
      }
      sealed.push_back(std::move(info));
      continue;
    }
    throw std::runtime_error("bad manifest line in " + path.string() + ": " +
                             line);
  }
}

}  // namespace

void SegmentedRecordLog::write_manifest() const {
  const auto tmp = dir_ / "MANIFEST.tmp";
  const auto final_path = dir_ / "MANIFEST";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot write manifest: " + tmp.string());
  }
  std::string text(kManifestHeader);
  text += "\nnext " + std::to_string(next_index_) + "\n";
  for (const auto& s : sealed_) {
    std::array<char, 192> line;
    std::snprintf(line.data(), line.size(),
                  "seg %s %" PRIu64 " %" PRIu64 " %a %a %x\n", s.name.c_str(),
                  s.frames, s.bytes, s.t_min, s.t_max, s.payload_crc);
    text += line.data();
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  bool synced = true;
  if (wrote && options_.sync_on_seal) {
    synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  }
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !synced || !closed) {
    throw std::runtime_error("manifest write failed: " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);  // atomic publish
  if (ec) {
    throw std::runtime_error("manifest rename failed: " + final_path.string() +
                             ": " + ec.message());
  }
  if (options_.sync_on_seal) fsync_directory(dir_);
}

// ---------------------------------------------------------------------------
// SegmentedRecordLog
// ---------------------------------------------------------------------------

void SegmentedRecordLog::ActiveSegment::add(const std::uint8_t* env,
                                             const std::uint8_t* frame,
                                             std::uint32_t len, double t,
                                             std::uint64_t index_every) {
  if (frames == 0 || payload_bytes - last_index_bytes >= index_every) {
    index_entries.emplace_back(t, kSegmentHeaderBytes + payload_bytes);
    last_index_bytes = payload_bytes;
  }
  crc = crc32c(env, kEnvelopeHeaderBytes, crc);
  crc = crc32c(frame, len, crc);
  if (frames == 0) t_min = t;
  t_max = t;
  ++frames;
  payload_bytes += kEnvelopeHeaderBytes + len;
}

std::vector<std::uint8_t> SegmentedRecordLog::ActiveSegment::tail() const {
  // Sparse index then footer; footer_crc covers both up to itself.
  std::vector<std::uint8_t> out(index_entries.size() * kIndexEntryBytes +
                                kSegmentFooterBytes);
  std::uint8_t* p = out.data();
  for (const auto& [t, offset] : index_entries) {
    put_raw<double>(p, t);
    put_raw<std::uint64_t>(p + 8, offset);
    p += kIndexEntryBytes;
  }
  put_raw<std::uint64_t>(p + 0, frames);
  put_raw<std::uint64_t>(p + 8, kSegmentHeaderBytes + payload_bytes);
  put_raw<std::uint32_t>(p + 16,
                         static_cast<std::uint32_t>(index_entries.size()));
  put_raw<std::uint16_t>(p + 20, kSegmentVersion);
  put_raw<std::uint16_t>(p + 22, 0);  // flags
  put_raw<double>(p + 24, t_min);
  put_raw<double>(p + 32, t_max);
  put_raw<std::uint32_t>(p + 40, crc);
  put_raw<std::uint32_t>(
      p + kFooterCrcOffset,
      crc32c(out.data(), out.size() - kSegmentFooterBytes + kFooterCrcOffset));
  put_raw<std::uint32_t>(p + kFooterCrcOffset + 4, kSegmentFooterMagic);
  return out;
}

SegmentInfo SegmentedRecordLog::ActiveSegment::info(bool sealed) const {
  SegmentInfo out;
  out.name = segment_name(index);
  out.frames = frames;
  out.bytes = payload_bytes;
  out.t_min = t_min;
  out.t_max = t_max;
  out.payload_crc = crc;
  out.sealed = sealed;
  return out;
}

SegmentedRecordLog::SegmentedRecordLog(const std::filesystem::path& dir,
                                       SegmentStoreOptions options)
    : dir_(dir), options_(options) {
  DR_EXPECTS(options_.max_segment_bytes > 0);
  DR_EXPECTS(options_.index_every_bytes > 0);
  fs::create_directories(dir_);
  // Construction is single-threaded, but recover() touches guarded state
  // and seals via the _locked path — hold the lock so the analysis sees
  // its capability satisfied (uncontended: nobody else has `this` yet).
  const common::LockGuard lock(mu_);
  recover();
}

SegmentedRecordLog::~SegmentedRecordLog() {
  try {
    close();
  } catch (...) {
    // Best-effort teardown; use close() directly for the durability
    // guarantee.
  }
}

void SegmentedRecordLog::recover() {
  read_manifest(dir_, sealed_, next_index_);

  // Roll an interrupted compaction forward: the manifest is the journal —
  // if it references a segment whose file only exists under its temp name,
  // the crash hit between the manifest publish and the rename.
  for (const auto& s : sealed_) {
    const auto path = dir_ / s.name;
    if (fs::exists(path)) continue;
    const auto tmp = fs::path(path.string() + ".tmp");
    if (fs::exists(tmp)) {
      fs::rename(tmp, path);
      continue;
    }
    throw std::runtime_error("segment store is missing sealed segment: " +
                             path.string());
  }

  // Inventory everything else on disk.
  std::map<std::uint64_t, fs::path> orphans;
  std::vector<fs::path> temps;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const auto name = entry.path().filename().string();
    if (name == "MANIFEST") continue;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      temps.push_back(entry.path());
      continue;
    }
    std::uint64_t index = 0;
    if (!parse_segment_name(name, index)) continue;
    const bool in_manifest =
        std::any_of(sealed_.begin(), sealed_.end(),
                    [&](const SegmentInfo& s) { return s.name == name; });
    if (!in_manifest) orphans.emplace(index, entry.path());
  }
  for (const auto& tmp : temps) fs::remove(tmp);  // aborted work, pre-publish

  bool manifest_dirty = false;
  for (const auto& [index, path] : orphans) {
    if (index < next_index_) {
      // Known and since removed (retired or compacted away); the crash hit
      // between the manifest publish and the file delete.
      fs::remove(path);
      continue;
    }
    SegmentFooter footer;
    std::string err;
    if (load_segment_footer(path, footer, &err)) {
      std::vector<std::pair<double, std::uint64_t>> index_entries;
      if (!load_segment_index(path, footer, index_entries, &err)) {
        throw std::runtime_error("segment store recovery: " + err);
      }
      // Sealed but unpublished: the crash hit between the footer write and
      // the manifest publish. Adopt it.
      SegmentInfo info;
      info.name = path.filename().string();
      info.frames = footer.frames;
      info.bytes = footer.payload_end - kSegmentHeaderBytes;
      info.t_min = footer.t_min;
      info.t_max = footer.t_max;
      info.payload_crc = footer.payload_crc;
      info.sealed = true;
      sealed_.push_back(std::move(info));
      next_index_ = index + 1;
      manifest_dirty = true;
      continue;
    }
    // The torn active segment of the previous writer: keep its valid prefix
    // (streamed, bounded memory), seal what survived, drop the rest.
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    const std::uint64_t size = fs::file_size(path, ec);
    std::array<std::uint8_t, kSegmentHeaderBytes> header;
    const bool header_ok =
        !ec && in && size >= kSegmentHeaderBytes &&
        read_exact(in, header.data(), header.size()) &&
        get_raw<std::uint32_t>(header.data()) == kSegmentMagic &&
        get_raw<std::uint16_t>(header.data() + 4) == kSegmentVersion;
    ActiveSegment scan;
    scan.index = index;
    std::uint64_t pos = kSegmentHeaderBytes;
    std::uint64_t valid = kSegmentHeaderBytes;
    if (header_ok) {
      std::vector<std::uint8_t> frame;
      std::array<std::uint8_t, kEnvelopeHeaderBytes> env;
      double prev_t = -std::numeric_limits<double>::infinity();
      while (pos + kEnvelopeHeaderBytes <= size) {
        if (!read_exact(in, env.data(), env.size())) break;
        const auto len = get_raw<std::uint32_t>(env.data());
        const auto t = get_raw<double>(env.data() + 4);
        // Appends only take finite, non-decreasing times: anything else is
        // damage, and sealing it would publish a manifest later opens reject.
        if (len == 0 || len > kMaxSegmentFrameBytes ||
            pos + kEnvelopeHeaderBytes + len > size || !std::isfinite(t) ||
            t < prev_t) {
          break;
        }
        frame.resize(len);
        if (!read_exact(in, frame.data(), len)) break;
        try {
          std::size_t consumed = 0;
          (void)decode_record(frame.data(), len, consumed);
          if (consumed != len) break;
        } catch (const WireError&) {
          break;
        }
        scan.add(env.data(), frame.data(), len, t, options_.index_every_bytes);
        prev_t = t;
        pos += kEnvelopeHeaderBytes + len;
        valid = pos;
      }
    }
    in.close();
    if (scan.frames == 0) {
      fs::remove(path);
      next_index_ = std::max(next_index_, index);
      continue;
    }
    if (valid < size) fs::resize_file(path, valid);
    scan.file = std::fopen(path.c_str(), "ab");
    if (scan.file == nullptr) {
      throw std::runtime_error("segment store recovery: cannot reopen " +
                               path.string());
    }
    recovered_ += scan.frames;
    active_ = std::move(scan);
    next_index_ = index;
    seal_active_locked();  // single-threaded in the ctor; publishes the manifest
    manifest_dirty = false;
  }

  for (const auto& s : sealed_) last_t_ = std::max(last_t_, s.t_max);
  if (manifest_dirty) write_manifest();
}

void SegmentedRecordLog::open_active() {
  ActiveSegment fresh;
  fresh.index = next_index_;
  const auto path = dir_ / segment_name(fresh.index);
  fresh.file = std::fopen(path.c_str(), "wb");
  if (fresh.file == nullptr) {
    throw std::runtime_error("cannot open segment: " + path.string());
  }
  const auto header = segment_header_bytes();
  if (std::fwrite(header.data(), 1, header.size(), fresh.file) !=
      header.size()) {
    std::fclose(fresh.file);  // best-effort: segment abandoned, throwing
    throw std::runtime_error("segment header write failed: " + path.string());
  }
  active_ = std::move(fresh);
}

void SegmentedRecordLog::append(const Record& rec, double t) {
  const common::LockGuard lock(mu_);
  DR_EXPECTS(!closed_);
  DR_EXPECTS(std::isfinite(t));
  DR_EXPECTS(t >= last_t_ || !std::isfinite(last_t_));

  if (active_.file != nullptr && active_.frames > 0 &&
      (active_.payload_bytes >= options_.max_segment_bytes ||
       (options_.max_segment_seconds > 0.0 &&
        t - active_.t_min >= options_.max_segment_seconds))) {
    seal_active_locked();
  }
  if (active_.file == nullptr) open_active();

  const auto frame =
      encode_record(rec, options_.pack_payloads ? PayloadCodec::kPacked
                                                : PayloadCodec::kRaw);
  DR_EXPECTS(frame.size() <= kMaxSegmentFrameBytes);
  std::array<std::uint8_t, kEnvelopeHeaderBytes> env;
  put_raw<std::uint32_t>(env.data(), static_cast<std::uint32_t>(frame.size()));
  put_raw<double>(env.data() + 4, t);

  if (std::fwrite(env.data(), 1, env.size(), active_.file) != env.size() ||
      std::fwrite(frame.data(), 1, frame.size(), active_.file) !=
          frame.size()) {
    abandon_active_locked();
    throw std::runtime_error("segment append failed in " + dir_.string());
  }
  active_.add(env.data(), frame.data(),
              static_cast<std::uint32_t>(frame.size()), t,
              options_.index_every_bytes);
  last_t_ = t;
  ++written_;
}

void SegmentedRecordLog::sync() {
  const common::LockGuard lock(mu_);
  if (active_.file == nullptr) return;
  try {
    fsync_file(active_.file, segment_name(active_.index));
  } catch (...) {
    abandon_active_locked();
    throw;
  }
}

void SegmentedRecordLog::abandon_active_locked() {
  // A failed write or flush leaves the active file holding an unknown
  // prefix of what active_ accounts for: sealing it would publish a footer
  // over bytes that never reached disk, and a new segment or a merge taking
  // its index would overwrite the ones that did. So the log stops here; the
  // next open's recovery truncates the file to its valid prefix and seals
  // it.
  if (active_.file != nullptr) {
    std::fclose(active_.file);  // best-effort: the write already failed
  }
  active_ = ActiveSegment{};
  closed_ = true;
}

void SegmentedRecordLog::seal_active() {
  const common::LockGuard lock(mu_);
  seal_active_locked();
}

void SegmentedRecordLog::seal_active_locked() {
  if (active_.file == nullptr) return;
  const auto name = segment_name(active_.index);
  const auto path = dir_ / name;
  if (active_.frames == 0) {
    std::fclose(active_.file);  // best-effort: empty segment, removed below
    active_ = ActiveSegment{};
    fs::remove(path);
    return;
  }

  // A failed seal never leaves a half-sealed segment as the active one: a
  // retry (or the destructor's close()) would append a second tail to the
  // same file. Recovery adopts the file on reopen — as a sealed segment if
  // the tail reached disk, else by valid-prefix truncation.
  const auto tail = active_.tail();
  try {
    const bool wrote =
        std::fwrite(tail.data(), 1, tail.size(), active_.file) == tail.size();
    if (wrote && options_.sync_on_seal) fsync_file(active_.file, name);
    const bool closed = std::fclose(active_.file) == 0;
    active_.file = nullptr;
    if (!wrote || !closed) {
      throw std::runtime_error("segment seal failed: " + path.string());
    }
  } catch (...) {
    abandon_active_locked();
    throw;
  }
  sealed_.push_back(active_.info(true));
  next_index_ = active_.index + 1;
  active_ = ActiveSegment{};
  write_manifest();
}

void SegmentedRecordLog::close() {
  const common::LockGuard lock(mu_);
  if (closed_) return;
  seal_active_locked();
  closed_ = true;
}

std::size_t SegmentedRecordLog::retire_before(double t) {
  const common::LockGuard lock(mu_);
  std::vector<std::string> victims;
  std::erase_if(sealed_, [&](const SegmentInfo& s) {
    if (s.t_max < t) {
      victims.push_back(s.name);
      return true;
    }
    return false;
  });
  if (victims.empty()) return 0;
  // Publish first, delete second: a crash in between leaves orphans with
  // indexes below `next`, which recovery deletes.
  write_manifest();
  for (const auto& name : victims) fs::remove(dir_ / name);
  return victims.size();
}

std::size_t SegmentedRecordLog::compact(std::uint64_t min_bytes) {
  const common::LockGuard lock(mu_);
  // After an abandoned active segment the merged segment would take that
  // file's index and overwrite it.
  DR_EXPECTS(!closed_);
  // Rotate first: the merged segment takes the next free index, and while a
  // segment is active that index is the active file's — merging into it
  // would rename over the live file under the writer.
  seal_active_locked();
  std::size_t removed = 0;
  std::size_t run_begin = 0;
  while (run_begin < sealed_.size()) {
    // Find a maximal run of adjacent small segments.
    std::size_t run_end = run_begin;
    while (run_end < sealed_.size() && sealed_[run_end].bytes < min_bytes) {
      ++run_end;
    }
    if (run_end - run_begin < 2) {
      run_begin = run_end + 1;
      continue;
    }

    // Merge by raw envelope copy into a temp file: frames are never
    // re-encoded, only the index/footer are rebuilt over the concatenation.
    // Then seal it, and journal the swap in the manifest BEFORE the rename:
    // recovery rolls the rename forward (manifest names a file that only
    // exists as .tmp) and deletes the replaced segments (indexes below
    // `next`).
    ActiveSegment merged;
    merged.index = next_index_;
    const auto merged_name = segment_name(merged.index);
    const auto tmp = fs::path((dir_ / merged_name).string() + ".tmp");
    merged.file = std::fopen(tmp.c_str(), "wb");
    if (merged.file == nullptr) {
      throw std::runtime_error("compaction: cannot open " + tmp.string());
    }
    try {
      const auto header = segment_header_bytes();
      if (std::fwrite(header.data(), 1, header.size(), merged.file) !=
          header.size()) {
        throw std::runtime_error("compaction: header write failed: " +
                                 tmp.string());
      }
      std::vector<std::uint8_t> frame;
      std::array<std::uint8_t, kEnvelopeHeaderBytes> env;
      for (std::size_t i = run_begin; i < run_end; ++i) {
        const auto path = dir_ / sealed_[i].name;
        SegmentFooter footer;
        std::string err;
        if (!load_segment_footer(path, footer, &err)) {
          throw std::runtime_error("compaction: " + err);
        }
        std::ifstream in(path, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(kSegmentHeaderBytes));
        std::uint64_t pos = kSegmentHeaderBytes;
        while (pos < footer.payload_end) {
          if (!read_exact(in, env.data(), env.size())) break;
          const auto len = get_raw<std::uint32_t>(env.data());
          const auto t = get_raw<double>(env.data() + 4);
          if (len == 0 || len > kMaxSegmentFrameBytes ||
              pos + kEnvelopeHeaderBytes + len > footer.payload_end) {
            throw std::runtime_error("compaction: corrupt envelope in " +
                                     path.string());
          }
          frame.resize(len);
          if (!read_exact(in, frame.data(), len)) {
            throw std::runtime_error("compaction: short read in " +
                                     path.string());
          }
          if (std::fwrite(env.data(), 1, env.size(), merged.file) !=
                  env.size() ||
              std::fwrite(frame.data(), 1, len, merged.file) != len) {
            throw std::runtime_error("compaction: write failed: " +
                                     tmp.string());
          }
          merged.add(env.data(), frame.data(), len, t,
                     options_.index_every_bytes);
          pos += kEnvelopeHeaderBytes + len;
        }
      }
      const auto tail = merged.tail();
      const bool wrote =
          std::fwrite(tail.data(), 1, tail.size(), merged.file) == tail.size();
      if (wrote && options_.sync_on_seal) fsync_file(merged.file, merged_name);
      const bool closed = std::fclose(merged.file) == 0;
      merged.file = nullptr;
      if (!wrote || !closed) {
        throw std::runtime_error("compaction: seal failed: " + tmp.string());
      }
    } catch (...) {
      if (merged.file != nullptr) {
        std::fclose(merged.file);  // best-effort: unpublished .tmp, throwing
      }
      throw;
    }
    std::vector<std::string> replaced;
    for (std::size_t i = run_begin; i < run_end; ++i) {
      replaced.push_back(sealed_[i].name);
    }

    sealed_.erase(sealed_.begin() + static_cast<std::ptrdiff_t>(run_begin),
                  sealed_.begin() + static_cast<std::ptrdiff_t>(run_end));
    sealed_.insert(sealed_.begin() + static_cast<std::ptrdiff_t>(run_begin),
                   merged.info(true));
    next_index_ = merged.index + 1;
    write_manifest();
    fs::rename(tmp, dir_ / merged_name);
    if (options_.sync_on_seal) fsync_directory(dir_);
    for (const auto& name : replaced) fs::remove(dir_ / name);

    removed += replaced.size() - 1;
    run_begin += 1;  // continue after the merged entry
  }
  return removed;
}

std::size_t SegmentedRecordLog::records_written() const {
  const common::LockGuard lock(mu_);
  return written_;
}

std::size_t SegmentedRecordLog::recovered_records() const {
  const common::LockGuard lock(mu_);
  return recovered_;
}

double SegmentedRecordLog::last_time() const {
  const common::LockGuard lock(mu_);
  return last_t_;
}

std::vector<SegmentInfo> SegmentedRecordLog::segments() const {
  const common::LockGuard lock(mu_);
  auto out = sealed_;
  if (active_.file != nullptr) out.push_back(active_.info(false));
  return out;
}

// ---------------------------------------------------------------------------
// SegmentStoreReader
// ---------------------------------------------------------------------------

SegmentStoreReader::SegmentStoreReader(const std::filesystem::path& dir)
    : dir_(dir) {
  std::uint64_t next_index = 0;
  read_manifest(dir_, sealed_, next_index);
  // The writer's active segment, if one is growing right now.
  const auto active = segment_name(next_index);
  if (fs::exists(dir_ / active)) active_name_ = active;
}

std::vector<SegmentInfo> SegmentStoreReader::segments() const {
  auto out = sealed_;
  if (!active_name_.empty()) {
    std::error_code ec;
    const auto size = fs::file_size(dir_ / active_name_, ec);
    SegmentInfo info;
    info.name = active_name_;
    info.bytes =
        (!ec && size > kSegmentHeaderBytes) ? size - kSegmentHeaderBytes : 0;
    info.sealed = false;
    out.push_back(std::move(info));
  }
  return out;
}

bool SegmentStoreReader::verify(std::string* error) const {
  for (const auto& s : sealed_) {
    const auto path = dir_ / s.name;
    SegmentFooter footer;
    if (!load_segment_footer(path, footer, error)) return false;
    if (footer.frames != s.frames || footer.payload_crc != s.payload_crc ||
        footer.payload_end - kSegmentHeaderBytes != s.bytes) {
      return set_error(error, path.string() + ": footer disagrees with manifest");
    }
    // Loading checks the index CRC and every entry's bounds and order.
    std::vector<std::pair<double, std::uint64_t>> index;
    if (!load_segment_index(path, footer, index, error)) return false;
    std::ifstream in(path, std::ios::binary);
    if (!in) return set_error(error, "cannot open " + path.string());
    in.seekg(static_cast<std::streamoff>(kSegmentHeaderBytes));
    std::uint32_t crc = 0;
    std::uint64_t left = footer.payload_end - kSegmentHeaderBytes;
    std::array<std::uint8_t, 64 * 1024> chunk;
    while (left > 0) {
      const auto n = checked::narrow<std::size_t, std::runtime_error>(
          std::min<std::uint64_t>(left, chunk.size()), "verify chunk size");
      if (!read_exact(in, chunk.data(), n)) {
        return set_error(error, path.string() + ": short payload read");
      }
      crc = crc32c(chunk.data(), n, crc);
      left -= n;
    }
    if (crc != footer.payload_crc) {
      return set_error(error, path.string() + ": payload checksum mismatch");
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

// ---------------------------------------------------------------------------
// Read path: one segment walk, two window providers, one envelope parser
// ---------------------------------------------------------------------------

namespace detail {

/// Where a cursor's windows come from.
class SegmentWindowProvider {
 public:
  SegmentWindowProvider() = default;
  virtual ~SegmentWindowProvider() = default;
  SegmentWindowProvider(const SegmentWindowProvider&) = delete;
  SegmentWindowProvider& operator=(const SegmentWindowProvider&) = delete;

  /// Replace `w` with the walk's next window, recycling its buffer; false
  /// at the end of the walk. Throws WireError when a sealed segment cannot
  /// be read.
  [[nodiscard]] virtual bool next(SegmentWindow& w) = 0;
};

/// The read-side segment walk every cursor runs: sealed segments in manifest
/// order from the first one overlapping [t0, t1), then the active tail. Each
/// next() reads one segment's payload — from its sparse-index probe to its
/// payload end, or to the statted size of the active tail — into one
/// in-memory window. Holds references into the reader's immutable snapshot.
/// Called directly, it is the inline provider: the walk runs on the
/// consumer's thread, one window buffer reused.
class SegmentWalker final : public SegmentWindowProvider {
 public:
  SegmentWalker(const fs::path& dir, const std::vector<SegmentInfo>& sealed,
                const std::string& active_name, double t0, double t1)
      : dir_(dir), sealed_(sealed), active_name_(active_name), t0_(t0),
        t1_(t1) {
    // O(log n): first sealed segment whose span can reach t0.
    const auto it = std::lower_bound(
        sealed_.begin(), sealed_.end(), t0_,
        [](const SegmentInfo& s, double t) { return s.t_max < t; });
    next_ = checked::narrow<std::size_t, std::runtime_error>(
        it - sealed_.begin(), "segment walk start");
  }

  [[nodiscard]] bool next(SegmentWindow& w) override {
    if (done_) return false;
    if (next_ < sealed_.size()) {
      const SegmentInfo& s = sealed_[next_++];
      if (s.t_min < t1_) return read_sealed(s, w);
      // Time is monotone: nothing later fits, the active tail included.
    } else if (!active_name_.empty()) {
      done_ = true;
      return read_active(w);
    }
    done_ = true;
    return false;
  }

 private:
  [[nodiscard]] bool read_sealed(const SegmentInfo& s, SegmentWindow& w) const {
    // The manifest is the truth, but an in-flight compaction may still hold
    // the file under its temp name and rename it at any moment. Try both
    // names, twice, so a rename landing between any two of our steps cannot
    // fail the walk spuriously. (Retention/compaction that *deletes* a
    // snapshot's files still invalidates it — see the header.)
    const auto final_path = dir_ / s.name;
    const auto tmp_path = fs::path(final_path.string() + ".tmp");
    fs::path path;
    SegmentFooter footer;
    std::string err;
    std::ifstream in;
    for (int attempt = 0; attempt < 2 && !in.is_open(); ++attempt) {
      for (const auto& candidate : {final_path, tmp_path}) {
        std::string e;
        if (!load_segment_footer(candidate, footer, &e)) {
          if (err.empty()) err = e;
          continue;
        }
        in.clear();
        in.open(candidate, std::ios::binary);
        if (!in.is_open()) continue;  // renamed away since the footer load
        path = candidate;
        break;
      }
    }
    if (!in.is_open()) throw WireError("segment store: " + err);

    std::uint64_t start = kSegmentHeaderBytes;
    if (s.t_min < t0_ && footer.index_count > 0) {
      // Sparse-index probe: start at the last entry at or before t0 instead
      // of the head of the segment.
      std::vector<std::pair<double, std::uint64_t>> index;
      if (!load_segment_index(path, footer, index, &err)) {
        throw WireError("segment store: " + err);
      }
      const auto it = std::upper_bound(
          index.begin(), index.end(), t0_,
          [](double t, const std::pair<double, std::uint64_t>& e) {
            return t < e.first;
          });
      if (it != index.begin()) start = std::prev(it)->second;
    }
    w.base = start;
    w.active = false;
    w.header_torn = false;
    // start <= payload_end: it is either the header size (footer geometry
    // enforces payload_end >= that) or a validated sparse-index offset.
    w.bytes.resize(checked::narrow<std::size_t, WireError>(
        footer.payload_end - start, "segment window size"));
    in.seekg(static_cast<std::streamoff>(start));
    if (!read_exact(in, w.bytes.data(), w.bytes.size())) {
      throw WireError("segment store: short payload read in " + path.string());
    }
    return true;
  }

  [[nodiscard]] bool read_active(SegmentWindow& w) const {
    const auto path = dir_ / active_name_;
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec || size <= kSegmentHeaderBytes) return false;  // nothing readable
    const double sealed_t_max = sealed_.empty()
                                    ? -std::numeric_limits<double>::infinity()
                                    : sealed_.back().t_max;
    std::uint64_t sealed_end = 0;
    if (!probe_presumed_active(path, sealed_t_max, &sealed_end)) {
      return false;  // a racing compaction reused the index: merged old data
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;  // writer may have just sealed+rotated it
    std::array<std::uint8_t, kSegmentHeaderBytes> header;
    const bool header_ok =
        read_exact(in, header.data(), header.size()) &&
        get_raw<std::uint32_t>(header.data()) == kSegmentMagic;
    // Header bytes still in the writer's buffer: the whole file is one torn
    // window. sealed_end != 0: the writer sealed this segment after our
    // snapshot — read exactly its payload, with sealed semantics (damage
    // throws instead of reading as torn).
    w.header_torn = !header_ok;
    w.active = sealed_end == 0 || !header_ok;
    w.base = header_ok ? kSegmentHeaderBytes : 0;
    const std::uint64_t end = sealed_end != 0 ? sealed_end : size;
    w.bytes.resize(checked::narrow<std::size_t, WireError>(
        end - w.base, "active window size"));
    // The file may be growing under us; the statted size is our bounded
    // snapshot of the tail.
    in.clear();
    in.seekg(static_cast<std::streamoff>(w.base));
    in.read(reinterpret_cast<char*>(w.bytes.data()),
            static_cast<std::streamsize>(w.bytes.size()));
    w.bytes.resize(checked::narrow<std::size_t, WireError>(
        in.gcount(), "active window read size"));
    return true;
  }

  const fs::path& dir_;
  const std::vector<SegmentInfo>& sealed_;
  const std::string& active_name_;
  const double t0_;
  const double t1_;
  std::size_t next_ = 0;  ///< next sealed segment to consider
  bool done_ = false;
};

/// Runs the walk on a background thread, one window ahead of the consumer.
/// The hand-off slot is one window deep and the consumer's drained buffer is
/// recycled to the loader, so the steady state is double-buffered with no
/// allocation. The destructor joins the thread however early the consumer
/// stops.
class PrefetchingWindows final : public SegmentWindowProvider {
 public:
  PrefetchingWindows(const fs::path& dir,
                     const std::vector<SegmentInfo>& sealed,
                     const std::string& active_name, double t0, double t1)
      : walker_(dir, sealed, active_name, t0, t1) {
    thread_ = std::thread([this] { run(); });
  }

  ~PrefetchingWindows() override {
    {
      const common::LockGuard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] bool next(SegmentWindow& w) override {
    common::UniqueLock lock(mu_);
    spare_ = std::move(w.bytes);
    while (!ready_.has_value() && !done_) cv_.wait(lock);
    if (ready_.has_value()) {
      w = std::move(*ready_);
      ready_.reset();
      cv_.notify_all();  // free the loader's slot
      return true;
    }
    if (error_ != nullptr) std::rethrow_exception(error_);
    return false;
  }

 private:
  void run() {
    try {
      SegmentWindow w;
      for (;;) {
        {
          // Read ahead only once the slot is free: at most one loaded
          // window waits beside the one the consumer is parsing.
          common::UniqueLock lock(mu_);
          while (ready_.has_value() && !stop_) cv_.wait(lock);
          if (stop_) return;
          w.bytes = std::move(spare_);
        }
        if (!walker_.next(w)) break;
        {
          const common::LockGuard lock(mu_);
          ready_ = std::move(w);
        }
        cv_.notify_all();
      }
    } catch (...) {
      const common::LockGuard lock(mu_);
      error_ = std::current_exception();
    }
    {
      const common::LockGuard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
  }

  SegmentWalker walker_;  ///< loader thread only, after construction
  common::Mutex mu_;
  common::CondVar cv_;
  std::optional<SegmentWindow> ready_ DR_GUARDED_BY(mu_);
  std::vector<std::uint8_t> spare_ DR_GUARDED_BY(mu_);
  std::exception_ptr error_ DR_GUARDED_BY(mu_);
  bool done_ DR_GUARDED_BY(mu_) = false;
  bool stop_ DR_GUARDED_BY(mu_) = false;
  std::thread thread_;  ///< started in ctor, joined in dtor only
};

/// SegmentStoreSource's replay cursor: seek() with the provider its
/// ReplayOptions::prefetch picks.
struct CursorAccess {
  static SegmentStoreReader::Cursor open(SegmentStoreReader& reader, double t0,
                                         double t1, bool prefetch) {
    return {&reader, t0, t1, prefetch};
  }
};

}  // namespace detail

SegmentStoreReader::Cursor SegmentStoreReader::seek(double t0, double t1) {
  return Cursor(this, t0, t1, false);
}

SegmentStoreReader::Cursor::Cursor(SegmentStoreReader* store, double t0,
                                   double t1, bool prefetch)
    : store_(store), t0_(t0), t1_(t1) {
  if (prefetch) {
    provider_ = std::make_unique<detail::PrefetchingWindows>(
        store->dir_, store->sealed_, store->active_name_, t0, t1);
  } else {
    provider_ = std::make_unique<detail::SegmentWalker>(
        store->dir_, store->sealed_, store->active_name_, t0, t1);
  }
}

SegmentStoreReader::Cursor::Cursor(Cursor&&) noexcept = default;
SegmentStoreReader::Cursor& SegmentStoreReader::Cursor::operator=(
    Cursor&&) noexcept = default;
SegmentStoreReader::Cursor::~Cursor() = default;  // joins a prefetcher

bool SegmentStoreReader::Cursor::fail_torn() {
  torn_ = true;
  lost_bytes_ = window_.bytes.size() - pos_;
  done_ = true;
  return false;
}

// Locate the next in-range envelope of the current window, pulling windows
// from the provider as they drain, without consuming it: pos_ stays at the
// envelope until decode_next() commits, so a decode failure reports
// lost_bytes_ from the right spot. False at end of range or torn tail
// (done_ set); throws on sealed-segment damage.
bool SegmentStoreReader::Cursor::fetch_frame(const std::uint8_t*& frame,
                                             std::uint32_t& len, double& t) {
  if (done_) return false;
  for (;;) {
    if (!have_window_) {
      if (!provider_->next(window_)) {
        done_ = true;
        return false;
      }
      ++store_->opened_;
      have_window_ = true;
      pos_ = 0;
      if (window_.header_torn) return fail_torn();
    }
    const std::size_t remaining = window_.bytes.size() - pos_;
    if (remaining < kEnvelopeHeaderBytes) {
      if (window_.active && remaining > 0) return fail_torn();
      have_window_ = false;
      continue;
    }
    const std::uint8_t* env = window_.bytes.data() + pos_;
    len = get_raw<std::uint32_t>(env);
    t = get_raw<double>(env + 4);
    if (len == 0 || len > kMaxSegmentFrameBytes ||
        len > remaining - kEnvelopeHeaderBytes) {
      // Mid-envelope snapshot of the writer (or its in-flight tail after a
      // concurrent seal): everything from here on is not yet readable.
      if (window_.active) return fail_torn();
      throw WireError("segment store: corrupt envelope at byte " +
                      std::to_string(window_.base + pos_));
    }
    ++scanned_;
    if (t >= t1_) {  // time is monotone: the range is exhausted
      done_ = true;
      return false;
    }
    if (t < t0_) {  // skip without decoding
      pos_ += kEnvelopeHeaderBytes + len;
      continue;
    }
    frame = env + kEnvelopeHeaderBytes;
    return true;
  }
}

template <typename Decode>
bool SegmentStoreReader::Cursor::decode_next(const Decode& decode) {
  const std::uint8_t* frame = nullptr;
  std::uint32_t len = 0;
  double t = 0.0;
  if (!fetch_frame(frame, len, t)) return false;
  try {
    std::size_t consumed = 0;
    decode(frame, len, consumed);
    if (consumed != len) throw WireError("trailing bytes in envelope");
  } catch (const WireError&) {
    if (window_.active) return fail_torn();
    throw;
  }
  pos_ += kEnvelopeHeaderBytes + len;
  time_ = t;
  return true;
}

bool SegmentStoreReader::Cursor::next(Record& out) {
  return decode_next([&](const std::uint8_t* frame, std::size_t len,
                         std::size_t& consumed) {
    out = decode_record(frame, len, consumed);
  });
}

bool SegmentStoreReader::Cursor::next_view(RecordView& out) {
  return decode_next([&](const std::uint8_t* frame, std::size_t len,
                         std::size_t& consumed) {
    out = decode_record_view(frame, len, consumed, scratch_);
  });
}

// ---------------------------------------------------------------------------
// SegmentStoreSource
// ---------------------------------------------------------------------------

SegmentStoreSource::SegmentStoreSource(const std::filesystem::path& dir,
                                       double t0, double t1,
                                       std::uint32_t subtype)
    : SegmentStoreSource(dir, ReplayOptions{t0, t1, subtype, true}) {}

SegmentStoreSource::SegmentStoreSource(const std::filesystem::path& dir,
                                       ReplayOptions options)
    : RecordSampleSource(options.subtype),
      reader_(std::make_unique<SegmentStoreReader>(dir)),
      cursor_(detail::CursorAccess::open(*reader_, options.t0, options.t1,
                                         options.prefetch)) {}

SegmentStoreSource::~SegmentStoreSource() = default;

RecordSampleSource::Next SegmentStoreSource::next_record(Record& rec) {
  try {
    if (cursor_.next(rec)) return Next::kRecord;
    return cursor_.torn() ? Next::kLost : Next::kEnd;
  } catch (const WireError&) {
    return Next::kLost;  // damaged sealed segment; verify() pinpoints it
  }
}

RecordSampleSource::Next SegmentStoreSource::next_audio(FloatVec& pending) {
  // The base scan over the cursor's allocation-free view: pending reuses its
  // capacity, the cursor its window and decode scratch.
  RecordView view;
  for (;;) {
    try {
      if (!cursor_.next_view(view)) {
        return cursor_.torn() ? Next::kLost : Next::kEnd;
      }
    } catch (const WireError&) {
      return Next::kLost;  // damaged sealed segment; verify() pinpoints it
    }
    ++records_in_;
    if (view.type == RecordType::kOpenScope && view.scope_type == kScopeClip) {
      rate_ = view.attr_double(kAttrSampleRate, rate_);
    } else if (view.type == RecordType::kData && view.subtype == subtype() &&
               view.is_float()) {
      if (rate_ == 0.0) rate_ = view.attr_double(kAttrSampleRate, 0.0);
      pending.assign(view.floats.begin(), view.floats.end());
      return Next::kRecord;
    }
  }
}

// ---------------------------------------------------------------------------
// AudioSegmentArchiver
// ---------------------------------------------------------------------------

AudioSegmentArchiver::AudioSegmentArchiver(SegmentedRecordLog& log,
                                           double sample_rate,
                                           std::size_t record_samples)
    : log_(log), rate_(sample_rate), record_samples_(record_samples) {
  DR_EXPECTS(sample_rate > 0.0);
  DR_EXPECTS(record_samples > 0);
  pending_.reserve(record_samples_);

  // Resume after whatever the store already holds: a second archive run
  // must continue the sample clock, or its first append (stream time 0)
  // would violate the log's monotone-time contract. Sealing makes the tail
  // readable; on a freshly opened log it is a no-op.
  log_.seal_active();
  double t_last = -std::numeric_limits<double>::infinity();
  for (const auto& s : log_.segments()) t_last = std::max(t_last, s.t_max);
  if (!std::isfinite(t_last)) return;  // empty store: start at sample 0

  SegmentStoreReader reader(log_.directory());
  auto cursor = reader.seek(t_last);
  Record rec;
  bool found = false;
  while (cursor.next(rec)) {
    if (rec.type != RecordType::kData || rec.subtype != kSubtypeAudio ||
        !rec.has_attr(kAttrStartSample)) {
      continue;
    }
    const double archived_rate = rec.attr_double(kAttrSampleRate, rate_);
    if (archived_rate != rate_) {
      throw std::runtime_error(
          "archive resume: store holds audio at " +
          std::to_string(archived_rate) + " Hz, not " +
          std::to_string(rate_) + " Hz: " + log_.directory().string());
    }
    const auto start =
        static_cast<std::uint64_t>(rec.attr_int(kAttrStartSample, 0));
    start_sample_ = std::max(start_sample_, start + rec.payload_size());
    next_sequence_ = std::max(next_sequence_, rec.sequence + 1);
    found = true;
  }
  if (!found) {
    // The tail records are of another subtype: resume from stream time
    // alone (ceil keeps the next stamp at or after t_last).
    start_sample_ = static_cast<std::uint64_t>(std::ceil(t_last * rate_));
  }
}

void AudioSegmentArchiver::push(std::span<const float> samples) {
  std::size_t pos = 0;
  while (pos < samples.size()) {
    const std::size_t n = std::min(samples.size() - pos,
                                   record_samples_ - pending_.size());
    pending_.insert(pending_.end(),
                    samples.begin() + static_cast<std::ptrdiff_t>(pos),
                    samples.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    if (pending_.size() == record_samples_) flush_record();
  }
}

void AudioSegmentArchiver::finish() {
  if (!pending_.empty()) flush_record();
}

void AudioSegmentArchiver::flush_record() {
  const std::size_t n = pending_.size();
  Record rec = Record::data(kSubtypeAudio, std::move(pending_));
  rec.sequence = next_sequence_++;
  rec.set_attr(kAttrSampleRate, rate_);
  rec.set_attr(kAttrStartSample, static_cast<std::int64_t>(start_sample_));
  log_.append(rec, static_cast<double>(start_sample_) / rate_);
  start_sample_ += n;
  archived_ += n;
  // Take the payload buffer back from the appended record: steady-state
  // archiving then recycles one allocation instead of making one per record.
  pending_ = std::move(std::get<FloatVec>(rec.payload));
  pending_.clear();
}

}  // namespace dynriver::river
