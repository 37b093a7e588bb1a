// Record logs: durable storage for record streams.
//
// The paper's `readout` operator "writes the clips to record for storage";
// during analysis "a data feed is invoked to read clips from storage".
// RecordLogWriter/RecordLogReader implement that storage as a flat file of
// wire-encoded frames.
//
// Durability contract:
//   - write() buffers; sync() makes everything written so far durable
//     (flush + fsync) and close() surfaces any buffered-write failure as an
//     exception instead of silently dropping frames.
//   - A reader hitting a torn tail (a writer died mid-frame — the state
//     kRecover tolerates) reports a clean end plus torn()/lost_bytes();
//     only structural mid-log corruption throws.
// For month-scale archives, prefer the rotating SegmentedRecordLog in
// river/segment_store.hpp; the flat log stays the right tool for single
// clips and per-session readouts.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "river/record.hpp"
#include "river/wire.hpp"

namespace dynriver::river {

/// How RecordLogWriter treats an existing file at its path.
enum class LogOpenMode {
  /// Start a fresh log, discarding any existing file (default).
  kTruncate,
  /// Keep every complete frame already on disk, drop a trailing partial
  /// write (e.g. from a station that died mid-frame), and append after it.
  kRecover,
};

/// Scan an existing log and return {valid_bytes, valid_records}: the prefix
/// that parses as complete frames, streamed in bounded chunks (memory is
/// O(largest frame), never O(file)). Anything past the prefix — a torn tail
/// or a corrupted frame — is outside it, matching write-ahead-log recovery
/// semantics.
[[nodiscard]] std::pair<std::uintmax_t, std::size_t> scan_log_valid_prefix(
    const std::filesystem::path& path);

/// Appends wire-encoded records to a file.
class RecordLogWriter {
 public:
  explicit RecordLogWriter(const std::filesystem::path& path,
                           LogOpenMode mode = LogOpenMode::kTruncate);
  ~RecordLogWriter();
  RecordLogWriter(const RecordLogWriter&) = delete;
  RecordLogWriter& operator=(const RecordLogWriter&) = delete;

  void write(const Record& rec);

  /// Flush userspace buffers and fsync the fd: everything written so far
  /// survives both process death and power loss. Throws on failure (ENOSPC
  /// on a full disk surfaces here, not at some later buffered write).
  void sync();

  /// Flush and close, throwing if any buffered byte could not be written —
  /// a full disk must never let records_written() pass for durable. The
  /// destructor closes best-effort instead (no throw, no guarantee).
  void close();

  [[nodiscard]] std::size_t records_written() const { return count_; }
  /// Complete frames preserved from a previous writer (kRecover only).
  [[nodiscard]] std::size_t recovered_records() const { return recovered_; }

 private:
  std::FILE* out_ = nullptr;
  std::string path_;
  std::size_t count_ = 0;
  std::size_t recovered_ = 0;
};

/// Sequentially reads records back from a log file.
class RecordLogReader {
 public:
  explicit RecordLogReader(const std::filesystem::path& path);

  /// Read the next record; false at end of file — including a torn tail
  /// (writer died mid-frame), which ends the stream cleanly with torn()
  /// set rather than throwing. Throws WireError only on structural
  /// mid-log corruption.
  [[nodiscard]] bool next(Record& out);

  [[nodiscard]] std::size_t records_read() const { return count_; }
  /// True once next() returned false because the log ends mid-frame.
  [[nodiscard]] bool torn() const { return torn_; }
  /// Bytes of the torn trailing frame that were dropped (0 when !torn()).
  [[nodiscard]] std::size_t lost_bytes() const { return lost_bytes_; }

 private:
  std::ifstream in_;
  WireDecoder decoder_;
  std::size_t count_ = 0;
  std::size_t lost_bytes_ = 0;
  bool eof_ = false;
  bool torn_ = false;
};

}  // namespace dynriver::river
