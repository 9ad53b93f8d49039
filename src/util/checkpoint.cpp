#include "util/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#if defined(__unix__) || defined(__APPLE__)
#define TZGEO_CHECKPOINT_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace tzgeo::util {

namespace {

constexpr char kMagic[4] = {'T', 'Z', 'C', 'K'};
constexpr char kManifestMagic[4] = {'T', 'Z', 'C', 'M'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8;  // magic + version + payload_size
constexpr std::size_t kTrailerSize = 4;         // crc32
constexpr std::size_t kManifestHeaderSize = 4 + 4 + 4;  // magic + version + entry_count
/// Smallest directory row: key length + empty key + payload size + CRC.
constexpr std::size_t kManifestRowMinSize = 8 + 8 + 4;

/// Reflected CRC-32 table for polynomial 0xEDB88320, built once.
[[nodiscard]] const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void append_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
}

void append_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
}

[[nodiscard]] std::uint32_t load_u32(const char* bytes) noexcept {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<std::uint8_t>(bytes[i]);
  }
  return value;
}

[[nodiscard]] std::uint64_t load_u64(const char* bytes) noexcept {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<std::uint8_t>(bytes[i]);
  }
  return value;
}

#ifdef TZGEO_CHECKPOINT_POSIX
/// fsync an already-open fd, converting failure into CheckpointError.
void fsync_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    throw CheckpointError(CheckpointErrorCode::kIo, "fsync " + what + " failed");
  }
}
#endif

/// Stages `blob` to `<path>.tmp`, fsyncs it, renames over `path`, and
/// fsyncs the containing directory — the full power-loss-safe sequence.
/// On any failure the tmp file is removed and `path` is left untouched.
void write_file_atomic(const std::string& path, std::string_view blob) {
  const std::string tmp = path + ".tmp";
#ifdef TZGEO_CHECKPOINT_POSIX
  const auto fail = [&tmp](const std::string& message) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw CheckpointError(CheckpointErrorCode::kIo, message);
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open " + tmp + " for writing");
  std::size_t written = 0;
  while (written < blob.size()) {
    const ::ssize_t n = ::write(fd, blob.data() + written, blob.size() - written);
    if (n < 0) {
      ::close(fd);
      fail("short write to " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync the data before the rename: otherwise the rename can become
  // durable while the bytes it points at are still only in page cache.
  try {
    fsync_or_throw(fd, tmp);
  } catch (const CheckpointError&) {
    ::close(fd);
    fail("fsync " + tmp + " failed");
  }
  if (::close(fd) != 0) fail("close " + tmp + " failed");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) fail("rename " + tmp + " -> " + path + ": " + ec.message());
  // fsync the directory so the rename itself survives power loss (a
  // renamed entry lives in the directory's data blocks, not the file's).
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string{"."} : parent.string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    throw CheckpointError(CheckpointErrorCode::kIo, "cannot open directory " + dir);
  }
  try {
    fsync_or_throw(dir_fd, dir);
  } catch (const CheckpointError&) {
    ::close(dir_fd);
    throw;
  }
  ::close(dir_fd);
#else
  // Fallback without POSIX fds: atomic rename only (no directory fsync).
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw CheckpointError(CheckpointErrorCode::kIo, "cannot open " + tmp + " for writing");
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) {
      out.close();
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw CheckpointError(CheckpointErrorCode::kIo, "short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw CheckpointError(CheckpointErrorCode::kIo,
                          "rename " + tmp + " -> " + path + ": " + ec.message());
  }
#endif
}

/// Reads the whole file; throws CheckpointError{kIo} on open/read errors.
[[nodiscard]] std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError(CheckpointErrorCode::kIo, "cannot open " + path);
  }
  std::string blob{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  if (in.bad()) {
    throw CheckpointError(CheckpointErrorCode::kIo, "read error on " + path);
  }
  return blob;
}

}  // namespace

const char* to_string(CheckpointErrorCode code) noexcept {
  switch (code) {
    case CheckpointErrorCode::kIo: return "io";
    case CheckpointErrorCode::kBadMagic: return "bad-magic";
    case CheckpointErrorCode::kBadCrc: return "bad-crc";
    case CheckpointErrorCode::kBadVersion: return "bad-version";
    case CheckpointErrorCode::kTruncated: return "truncated";
    case CheckpointErrorCode::kMalformed: return "malformed";
  }
  return "unknown";
}

CheckpointError::CheckpointError(CheckpointErrorCode code, const std::string& detail)
    : std::runtime_error("checkpoint " + std::string{to_string(code)} + ": " + detail),
      code_(code) {}

std::uint32_t crc32(std::string_view bytes) noexcept {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc = table[(crc ^ static_cast<std::uint8_t>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void ByteWriter::u8(std::uint8_t value) { data_.push_back(static_cast<char>(value)); }
void ByteWriter::u32(std::uint32_t value) { append_u32(data_, value); }
void ByteWriter::u64(std::uint64_t value) { append_u64(data_, value); }
void ByteWriter::i64(std::int64_t value) { append_u64(data_, static_cast<std::uint64_t>(value)); }
void ByteWriter::f64(double value) { append_u64(data_, std::bit_cast<std::uint64_t>(value)); }

void ByteWriter::str(std::string_view value) {
  append_u64(data_, value.size());
  data_.append(value);
}

void ByteReader::need(std::size_t bytes) const {
  if (data_.size() - pos_ < bytes) {
    throw CheckpointError(CheckpointErrorCode::kTruncated,
                          "payload ends " + std::to_string(bytes - (data_.size() - pos_)) +
                              " byte(s) short");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  need(4);
  const std::uint32_t value = load_u32(data_.data() + pos_);
  pos_ += 4;
  return value;
}

std::uint64_t ByteReader::u64() {
  need(8);
  const std::uint64_t value = load_u64(data_.data() + pos_);
  pos_ += 8;
  return value;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint64_t size = u64();
  need(size);
  std::string value{data_.substr(pos_, size)};
  pos_ += size;
  return value;
}

std::size_t ByteReader::count(std::size_t min_element_bytes) {
  const std::uint64_t value = u64();
  if (min_element_bytes > 0 && value > remaining() / min_element_bytes) {
    throw CheckpointError(CheckpointErrorCode::kTruncated,
                          "payload claims " + std::to_string(value) + " element(s) but holds " +
                              std::to_string(remaining()) + " byte(s)");
  }
  return static_cast<std::size_t>(value);
}

void write_checkpoint_file(const std::string& path, std::string_view payload,
                           std::uint32_t version) {
  std::string blob;
  blob.reserve(kHeaderSize + payload.size() + kTrailerSize);
  blob.append(kMagic, sizeof kMagic);
  append_u32(blob, version);
  append_u64(blob, payload.size());
  blob.append(payload);
  append_u32(blob, crc32(blob));

  write_file_atomic(path, blob);
}

std::string read_checkpoint_file(const std::string& path, std::uint32_t expected_version) {
  const std::string blob = read_file_bytes(path);

  if (blob.size() < kHeaderSize + kTrailerSize) {
    throw CheckpointError(CheckpointErrorCode::kTruncated,
                          path + " holds " + std::to_string(blob.size()) +
                              " byte(s), below the minimum frame");
  }
  if (std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) {
    throw CheckpointError(CheckpointErrorCode::kBadMagic, path + " is not a checkpoint file");
  }
  const std::uint64_t payload_size = load_u64(blob.data() + 8);
  if (blob.size() != kHeaderSize + payload_size + kTrailerSize) {
    throw CheckpointError(CheckpointErrorCode::kTruncated,
                          path + " frame length mismatch (header promises " +
                              std::to_string(payload_size) + " payload bytes)");
  }
  const std::uint32_t stored_crc = load_u32(blob.data() + blob.size() - kTrailerSize);
  const std::uint32_t actual_crc =
      crc32(std::string_view{blob}.substr(0, blob.size() - kTrailerSize));
  if (stored_crc != actual_crc) {
    throw CheckpointError(CheckpointErrorCode::kBadCrc, path + " failed CRC verification");
  }
  const std::uint32_t version = load_u32(blob.data() + 4);
  if (version != expected_version) {
    throw CheckpointError(CheckpointErrorCode::kBadVersion,
                          path + " is format v" + std::to_string(version) + ", expected v" +
                              std::to_string(expected_version));
  }
  return blob.substr(kHeaderSize, payload_size);
}

void write_manifest_checkpoint_file(const std::string& path,
                                    const std::vector<ManifestEntry>& entries,
                                    std::uint32_t version) {
  std::set<std::string_view> keys;
  for (const ManifestEntry& entry : entries) {
    if (!keys.insert(entry.key).second) {
      throw CheckpointError(CheckpointErrorCode::kMalformed,
                            "duplicate manifest key '" + entry.key + "'");
    }
  }

  std::string blob;
  blob.append(kManifestMagic, sizeof kManifestMagic);
  append_u32(blob, version);
  append_u32(blob, static_cast<std::uint32_t>(entries.size()));
  for (const ManifestEntry& entry : entries) {
    append_u64(blob, entry.key.size());
    blob.append(entry.key);
    append_u64(blob, entry.payload.size());
    append_u32(blob, crc32(entry.payload));
  }
  append_u32(blob, crc32(blob));  // directory CRC: magic through directory
  for (const ManifestEntry& entry : entries) blob.append(entry.payload);

  write_file_atomic(path, blob);
}

std::vector<ManifestEntryStatus> read_manifest_checkpoint_file(const std::string& path,
                                                               std::uint32_t expected_version) {
  const std::string blob = read_file_bytes(path);
  if (blob.size() < kManifestHeaderSize) {
    throw CheckpointError(CheckpointErrorCode::kTruncated,
                          path + " holds " + std::to_string(blob.size()) +
                              " byte(s), below the minimum manifest frame");
  }
  if (std::memcmp(blob.data(), kManifestMagic, sizeof kManifestMagic) != 0) {
    throw CheckpointError(CheckpointErrorCode::kBadMagic,
                          path + " is not a manifest checkpoint file");
  }
  const std::uint32_t version = load_u32(blob.data() + 4);
  if (version != expected_version) {
    throw CheckpointError(CheckpointErrorCode::kBadVersion,
                          path + " is format v" + std::to_string(version) + ", expected v" +
                              std::to_string(expected_version));
  }
  const std::uint32_t entry_count = load_u32(blob.data() + 8);

  // Parse the directory with bounds checks; any shortfall here is a
  // whole-file error (the directory is the index to everything else).
  struct DirectoryRow {
    std::string key;
    std::uint64_t payload_size = 0;
    std::uint32_t payload_crc = 0;
  };
  std::vector<DirectoryRow> directory;
  // The count is not verified yet (the directory CRC comes after the
  // rows), so reserve no more rows than the bytes present can hold.
  directory.reserve(std::min<std::size_t>(
      entry_count, (blob.size() - kManifestHeaderSize) / kManifestRowMinSize));
  std::size_t pos = kManifestHeaderSize;
  const auto need = [&](std::size_t bytes) {
    if (blob.size() - pos < bytes) {
      throw CheckpointError(CheckpointErrorCode::kTruncated,
                            path + " manifest directory ends mid-entry");
    }
  };
  std::set<std::string_view> keys;
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    DirectoryRow row;
    need(8);
    const std::uint64_t key_len = load_u64(blob.data() + pos);
    pos += 8;
    need(key_len);
    row.key = blob.substr(pos, key_len);
    pos += key_len;
    need(8 + 4);
    row.payload_size = load_u64(blob.data() + pos);
    pos += 8;
    row.payload_crc = load_u32(blob.data() + pos);
    pos += 4;
    directory.push_back(std::move(row));
  }
  need(4);
  const std::uint32_t stored_dir_crc = load_u32(blob.data() + pos);
  const std::uint32_t actual_dir_crc = crc32(std::string_view{blob}.substr(0, pos));
  pos += 4;
  if (stored_dir_crc != actual_dir_crc) {
    throw CheckpointError(CheckpointErrorCode::kBadCrc,
                          path + " manifest directory failed CRC verification");
  }
  // Key uniqueness is a directory-level invariant: the CRC already passed,
  // so a duplicate means the writer was broken, not the disk.
  for (const DirectoryRow& row : directory) {
    if (!keys.insert(row.key).second) {
      throw CheckpointError(CheckpointErrorCode::kMalformed,
                            path + " manifest repeats key '" + row.key + "'");
    }
  }

  // Expected total length check AFTER the directory verified: a file
  // longer than the directory promises is corruption the per-entry CRCs
  // cannot localize.
  // The sum saturates: verified sizes can still add past 2^64, and a
  // wrapped sum would misreport a short file as one with trailing bytes.
  std::uint64_t blobs_size = 0;
  for (const DirectoryRow& row : directory) {
    blobs_size = row.payload_size > std::numeric_limits<std::uint64_t>::max() - blobs_size
                     ? std::numeric_limits<std::uint64_t>::max()
                     : blobs_size + row.payload_size;
  }
  if (blob.size() - pos > blobs_size) {
    throw CheckpointError(CheckpointErrorCode::kMalformed,
                          path + " carries trailing bytes after the last manifest payload");
  }

  // Per-entry verdicts: a short or corrupt blob damns only its own entry.
  std::vector<ManifestEntryStatus> statuses;
  statuses.reserve(directory.size());
  for (const DirectoryRow& row : directory) {
    ManifestEntryStatus status;
    status.key = row.key;
    if (blob.size() - pos < row.payload_size) {
      status.ok = false;
      status.error = CheckpointErrorCode::kTruncated;
      status.detail = "payload ends " +
                      std::to_string(row.payload_size - (blob.size() - pos)) +
                      " byte(s) short";
      pos = blob.size();  // everything after a truncation point is gone
    } else {
      const std::string_view payload = std::string_view{blob}.substr(pos, row.payload_size);
      pos += row.payload_size;
      if (crc32(payload) != row.payload_crc) {
        status.ok = false;
        status.error = CheckpointErrorCode::kBadCrc;
        status.detail = "payload failed CRC verification";
      } else {
        status.ok = true;
        status.payload = std::string{payload};
      }
    }
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace tzgeo::util
