#include "river/record_log.hpp"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/checked.hpp"
#include "common/contracts.hpp"

namespace dynriver::river {

namespace checked = common::checked;

std::pair<std::uintmax_t, std::size_t> scan_log_valid_prefix(
    const std::filesystem::path& path) {
  // A failed scan must abort recovery, never masquerade as "no valid
  // frames": returning {0,0} here would make the caller truncate a log
  // whose contents it simply could not read.
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open record log for recovery scan: " +
                             path.string());
  }

  // Stream the file through an incremental decoder in bounded chunks: a
  // multi-GB log recovers with O(largest frame) memory, not O(file). The
  // decoder consumes complete frames as they arrive; at the stopping point
  // (end of file, torn tail, or a corrupt frame) whatever it still buffers
  // is exactly the invalid suffix.
  WireDecoder decoder;
  Record rec;
  std::uintmax_t fed = 0;
  std::size_t records = 0;
  std::array<char, 64 * 1024> chunk;
  bool corrupt = false;
  while (!corrupt) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto n = in.gcount();
    if (n <= 0) break;
    decoder.feed(reinterpret_cast<const std::uint8_t*>(chunk.data()),
                 checked::narrow<std::size_t, std::runtime_error>(
                     n, "recovery scan chunk size"));
    fed += static_cast<std::uintmax_t>(n);
    try {
      while (decoder.next(rec)) ++records;
    } catch (const WireError&) {
      corrupt = true;  // frames from the damaged one onward are dropped
    }
  }
  if (!in.eof() && in.bad()) {
    throw std::runtime_error("record log recovery scan read failed: " +
                             path.string());
  }
  return {fed - decoder.buffered_bytes(), records};
}

RecordLogWriter::RecordLogWriter(const std::filesystem::path& path,
                                 LogOpenMode mode)
    : path_(path.string()) {
  if (mode == LogOpenMode::kRecover && std::filesystem::exists(path)) {
    const auto [valid_bytes, valid_records] = scan_log_valid_prefix(path);
    recovered_ = valid_records;
    if (valid_bytes < std::filesystem::file_size(path)) {
      std::filesystem::resize_file(path, valid_bytes);
    }
    out_ = std::fopen(path_.c_str(), "ab");
  } else {
    out_ = std::fopen(path_.c_str(), "wb");
  }
  if (out_ == nullptr) {
    throw std::runtime_error("cannot open record log for writing: " + path_);
  }
}

RecordLogWriter::~RecordLogWriter() {
  // Best-effort: flushes whatever libc buffered but cannot report failure.
  // Callers needing the durability guarantee use close()/sync().
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
}

void RecordLogWriter::write(const Record& rec) {
  DR_EXPECTS(out_ != nullptr);
  const auto frame = encode_record(rec);
  if (std::fwrite(frame.data(), 1, frame.size(), out_) != frame.size()) {
    throw std::runtime_error("record log write failed: " + path_);
  }
  ++count_;
}

void RecordLogWriter::sync() {
  DR_EXPECTS(out_ != nullptr);
  if (std::fflush(out_) != 0) {
    throw std::runtime_error("record log flush failed: " + path_ + ": " +
                             std::strerror(errno));
  }
  if (::fsync(::fileno(out_)) != 0) {
    throw std::runtime_error("record log fsync failed: " + path_ + ": " +
                             std::strerror(errno));
  }
}

void RecordLogWriter::close() {
  if (out_ == nullptr) return;
  // fclose() flushes the stdio buffer; checking both results catches a
  // full disk that buffered writes sailed past.
  const bool flush_ok = std::fflush(out_) == 0;
  const bool close_ok = std::fclose(out_) == 0;
  out_ = nullptr;
  if (!flush_ok || !close_ok) {
    throw std::runtime_error("record log close failed (buffered frames lost): " +
                             path_);
  }
}

RecordLogReader::RecordLogReader(const std::filesystem::path& path)
    : in_(path, std::ios::binary) {
  if (!in_) {
    throw std::runtime_error("cannot open record log for reading: " +
                             path.string());
  }
}

bool RecordLogReader::next(Record& out) {
  while (true) {
    if (decoder_.next(out)) {
      ++count_;
      return true;
    }
    if (eof_) {
      if (decoder_.buffered_bytes() > 0 && !torn_) {
        // A trailing partial frame is the state kRecover tolerates — a
        // writer died (or is still) mid-frame. Report a clean end of the
        // complete prefix; the torn()/lost_bytes() accessors carry the
        // diagnosis. Structural corruption already threw out of next().
        torn_ = true;
        lost_bytes_ = decoder_.buffered_bytes();
      }
      return false;
    }
    std::array<char, 64 * 1024> chunk;
    in_.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto n = in_.gcount();
    if (n > 0) {
      decoder_.feed(reinterpret_cast<const std::uint8_t*>(chunk.data()),
                    checked::narrow<std::size_t, std::runtime_error>(
                        n, "record log chunk size"));
    }
    if (in_.eof()) eof_ = true;
  }
}

}  // namespace dynriver::river
