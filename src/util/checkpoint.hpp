// Crash-safe checkpoint files.
//
// Long-running campaigns (the monitor mode polls a hidden service for
// months) must survive crashes: state is periodically serialized into a
// checkpoint file and a restarted run resumes from it.  The format is
// deliberately paranoid — a crash can truncate a write, a disk can flip a
// bit, an operator can point the resume at the wrong file — so every
// checkpoint carries a magic tag, a format version, an explicit payload
// length, and a CRC-32 over everything, and the reader refuses to surface
// bytes unless all four check out.
//
// Durability: writes are atomic AND power-loss safe.  The file is staged
// as `<path>.tmp`, fsync'd, renamed over the target, and the containing
// directory is fsync'd after the rename — without that last step a crash
// can persist the data blocks but drop the directory entry, losing the
// rename.  A failure at any point leaves the previous checkpoint intact.
// (On platforms without POSIX fds the directory fsync degrades to a
// stream flush; the atomic-rename guarantee still holds.)
//
// Single-frame layout (little-endian):
//   "TZCK" | u32 version | u64 payload_size | payload bytes | u32 crc32
// The CRC covers magic, version, payload_size, and payload.
//
// Manifest-frame layout ("TZCM", for fleet checkpoints): one atomic file
// carrying many independently-CRC'd sub-entries, so one flipped bit
// quarantines one entry instead of discarding the whole fleet:
//   "TZCM" | u32 version | u32 entry_count
//   | directory: per entry  u64 key_len | key | u64 payload_size | u32 payload_crc
//   | u32 directory_crc     (covers magic through the directory)
//   | payload blobs, concatenated in directory order
// Directory corruption is a whole-file error (the directory is a few
// dozen bytes per entry — small surface); payload corruption or a
// truncated tail surfaces per entry via ManifestEntryStatus.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tzgeo::util {

/// Why a checkpoint could not be read (or written).
enum class CheckpointErrorCode : std::uint8_t {
  kIo,          ///< file missing / unreadable / unwritable
  kBadMagic,    ///< not a checkpoint file
  kBadCrc,      ///< bytes corrupted after the magic check
  kBadVersion,  ///< intact file, but a different format generation
  kTruncated,   ///< fewer bytes than the header promises
  kMalformed,   ///< payload decoded to impossible state
};

[[nodiscard]] const char* to_string(CheckpointErrorCode code) noexcept;

/// Typed checkpoint failure; every detectable corruption surfaces as one
/// of these (never UB, never a partial-state resume).
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrorCode code, const std::string& detail);
  [[nodiscard]] CheckpointErrorCode code() const noexcept { return code_; }

 private:
  CheckpointErrorCode code_;
};

/// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320) of `bytes`.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes) noexcept;

/// Append-only little-endian payload builder.
class ByteWriter {
 public:
  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  void f64(double value);
  /// Length-prefixed (u64) byte string.
  void str(std::string_view value);

  [[nodiscard]] const std::string& data() const noexcept { return data_; }
  [[nodiscard]] std::string take() noexcept { return std::move(data_); }

 private:
  std::string data_;
};

/// Bounds-checked little-endian payload reader: any read past the end
/// throws CheckpointError{kTruncated}, so a corrupt length field can never
/// walk off the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  /// Reads a u64 element count and checks it against the bytes left: a
  /// count whose elements (at least `min_element_bytes` each) cannot fit
  /// throws CheckpointError{kTruncated}, so the result is safe to size a
  /// reservation with.
  [[nodiscard]] std::size_t count(std::size_t min_element_bytes);

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t bytes) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Writes `payload` to `path` atomically and durably (stage to
/// `<path>.tmp`, fsync, rename over, fsync the containing directory).
/// Throws CheckpointError{kIo} on any filesystem failure; on failure the
/// previous checkpoint at `path` is left untouched.
void write_checkpoint_file(const std::string& path, std::string_view payload,
                           std::uint32_t version);

/// Reads and verifies the checkpoint at `path`, returning the payload.
/// Throws CheckpointError with the matching code on a missing file, bad
/// magic, truncation, CRC mismatch, or a version other than
/// `expected_version`.
[[nodiscard]] std::string read_checkpoint_file(const std::string& path,
                                               std::uint32_t expected_version);

/// One sub-state in a manifest checkpoint (a fleet forum, keyed by name).
struct ManifestEntry {
  std::string key;
  std::string payload;
};

/// Decode verdict for one manifest sub-entry.  `ok` means the entry's
/// bytes passed their own CRC; otherwise `error`/`detail` say why and
/// `payload` is empty.  The caller decides the blast radius (the fleet
/// parks that one forum and resumes everything else).
struct ManifestEntryStatus {
  std::string key;
  bool ok = false;
  std::string payload;
  CheckpointErrorCode error = CheckpointErrorCode::kBadCrc;
  std::string detail;
};

/// Writes a manifest checkpoint (layout in the header comment) with the
/// same atomicity + durability guarantees as write_checkpoint_file.
/// Duplicate keys throw CheckpointError{kMalformed}.
void write_manifest_checkpoint_file(const std::string& path,
                                    const std::vector<ManifestEntry>& entries,
                                    std::uint32_t version);

/// Reads a manifest checkpoint.  File-level problems (missing file, bad
/// magic, wrong version, corrupt/truncated directory, trailing junk)
/// throw CheckpointError; per-entry payload corruption or a truncated
/// blob tail is reported in that entry's status instead, leaving every
/// other entry readable.  Entries come back in directory (write) order.
[[nodiscard]] std::vector<ManifestEntryStatus> read_manifest_checkpoint_file(
    const std::string& path, std::uint32_t expected_version);

}  // namespace tzgeo::util
