// util::Checkpoint — framing, CRC, atomicity, and resume-under-corruption.
//
// The chaos harness (test_chaos.cpp) proves crash *equivalence*; this
// suite proves crash *detection*: whatever a dying process or a decaying
// disk leaves behind — truncated writes, flipped bits, stale versions,
// empty files — the reader must refuse with a typed CheckpointError and
// never surface corrupt bytes.  Run under the asan-ubsan preset these
// tests double as a memory-safety fuzz of the decoder.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "forum/sweep.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using tzgeo::util::ByteReader;
using tzgeo::util::ByteWriter;
using tzgeo::util::CheckpointError;
using tzgeo::util::CheckpointErrorCode;

namespace {

constexpr std::uint32_t kVersion = 7;

[[nodiscard]] std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

/// A temp file of the running test's own, named after the test and the
/// process: ctest runs every test as its own process, in parallel under
/// -j, so a path shared between tests lets one test read another's bytes.
[[nodiscard]] std::string test_temp_path(const std::string& stem) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return temp_path(stem + "." + info->test_suite_name() + "." + info->name() + "." +
                   std::to_string(::getpid()) + ".bin");
}

[[nodiscard]] std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

[[nodiscard]] CheckpointErrorCode code_of_read(const std::string& path,
                                               std::uint32_t version = kVersion) {
  try {
    (void)tzgeo::util::read_checkpoint_file(path, version);
  } catch (const CheckpointError& error) {
    return error.code();
  }
  ADD_FAILURE() << "read of " << path << " unexpectedly succeeded";
  return CheckpointErrorCode::kIo;
}

class CheckpointFile : public ::testing::Test {
 protected:
  void TearDown() override {
    std::error_code ignored;
    fs::remove(path_, ignored);
    fs::remove(path_ + ".tmp", ignored);
  }

  std::string path_ = test_temp_path("ckpt");
};

TEST(Crc32, MatchesKnownVector) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(tzgeo::util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(tzgeo::util::crc32(""), 0x00000000u);
}

TEST(ByteCodec, RoundTripsEveryType) {
  ByteWriter writer;
  writer.u8(0xAB);
  writer.u32(0xDEADBEEFu);
  writer.u64(0x0123456789ABCDEFull);
  writer.i64(-42);
  writer.f64(3.5);
  const std::string embedded("payload with \0 embedded", 23);  // NUL survives
  writer.str(embedded);
  writer.str("");
  const std::string data = writer.take();

  ByteReader reader{data};
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.f64(), 3.5);
  EXPECT_EQ(reader.str(), embedded);
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.done());
}

TEST(ByteCodec, ReaderThrowsOnOverrun) {
  ByteWriter writer;
  writer.u32(1);
  const std::string data = writer.take();
  ByteReader reader{data};
  (void)reader.u32();
  EXPECT_THROW((void)reader.u8(), CheckpointError);
}

TEST(ByteCodec, CountIsBoundedByTheBytesLeft) {
  ByteWriter writer;
  writer.u64(2);
  writer.u64(10);
  writer.u64(20);
  const std::string data = writer.take();
  {
    ByteReader reader{data};
    EXPECT_EQ(reader.count(8), 2u);  // exactly fits
  }
  {
    ByteReader reader{data};
    try {
      (void)reader.count(9);  // 18 bytes claimed, 16 left
      FAIL() << "count past the payload accepted";
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.code(), CheckpointErrorCode::kTruncated);
    }
  }
}

TEST(ByteCodec, SweepStateWithHugeRecordCountIsTruncated) {
  ByteWriter writer;
  tzgeo::forum::encode_sweep_state(writer, tzgeo::forum::SweepState{});
  std::string data = writer.take();
  // With no records the encoding ends in the record count.
  ASSERT_GE(data.size(), 8u);
  const std::uint64_t claimed = std::uint64_t{1} << 40;
  for (std::size_t b = 0; b < 8; ++b) {
    data[data.size() - 8 + b] = static_cast<char>((claimed >> (8 * b)) & 0xFF);
  }
  ByteReader reader{data};
  tzgeo::forum::SweepState state;
  try {
    tzgeo::forum::decode_sweep_state(reader, state);
    FAIL() << "2^40 records accepted";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.code(), CheckpointErrorCode::kTruncated);
  }
}

TEST(ByteCodec, CorruptStringLengthCannotWalkOffBuffer) {
  ByteWriter writer;
  writer.str("abc");
  std::string data = writer.take();
  data[0] = '\xFF';  // length prefix now claims ~2^64 bytes
  ByteReader reader{data};
  try {
    (void)reader.str();
    FAIL() << "oversized string length accepted";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.code(), CheckpointErrorCode::kTruncated);
  }
}

TEST_F(CheckpointFile, WriteReadRoundTrip) {
  const std::string payload = "state of the campaign";
  tzgeo::util::write_checkpoint_file(path_, payload, kVersion);
  EXPECT_EQ(tzgeo::util::read_checkpoint_file(path_, kVersion), payload);
  EXPECT_FALSE(fs::exists(path_ + ".tmp")) << "staging file left behind";
}

TEST_F(CheckpointFile, EmptyPayloadRoundTrips) {
  tzgeo::util::write_checkpoint_file(path_, "", kVersion);
  EXPECT_EQ(tzgeo::util::read_checkpoint_file(path_, kVersion), "");
}

TEST_F(CheckpointFile, OverwriteIsAtomicReplacement) {
  tzgeo::util::write_checkpoint_file(path_, "first", kVersion);
  tzgeo::util::write_checkpoint_file(path_, "second", kVersion);
  EXPECT_EQ(tzgeo::util::read_checkpoint_file(path_, kVersion), "second");
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

TEST_F(CheckpointFile, MissingFileIsIoError) {
  EXPECT_EQ(code_of_read(path_ + ".never_written"), CheckpointErrorCode::kIo);
}

TEST_F(CheckpointFile, ZeroLengthFileIsTruncated) {
  write_raw(path_, "");
  EXPECT_EQ(code_of_read(path_), CheckpointErrorCode::kTruncated);
}

TEST_F(CheckpointFile, ForeignFileIsBadMagic) {
  write_raw(path_, "PNG\x89 definitely not a checkpoint, but long enough");
  EXPECT_EQ(code_of_read(path_), CheckpointErrorCode::kBadMagic);
}

TEST_F(CheckpointFile, EveryTruncationPrefixIsDetected) {
  // A crash can stop a write at any byte.  Whatever prefix survives, the
  // reader must refuse it as a typed error — never parse garbage.
  tzgeo::util::write_checkpoint_file(path_, "truncation target payload", kVersion);
  const std::string full = read_raw(path_);
  ASSERT_GT(full.size(), 20u);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    write_raw(path_, full.substr(0, keep));
    const CheckpointErrorCode code = code_of_read(path_);
    EXPECT_TRUE(code == CheckpointErrorCode::kTruncated ||
                code == CheckpointErrorCode::kBadMagic)
        << "prefix of " << keep << " bytes gave " << tzgeo::util::to_string(code);
  }
}

TEST_F(CheckpointFile, EverySingleBitFlipIsDetected) {
  // Flip each bit of a small checkpoint in turn: the reader must reject
  // every mutant (magic, length, payload, or CRC — all are covered by one
  // of the four checks).
  tzgeo::util::write_checkpoint_file(path_, "bitflip", kVersion);
  const std::string full = read_raw(path_);
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = full;
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
      write_raw(path_, mutant);
      try {
        (void)tzgeo::util::read_checkpoint_file(path_, kVersion);
        FAIL() << "bit " << bit << " of byte " << byte << " flipped undetected";
      } catch (const CheckpointError&) {
        // Any typed refusal is correct; which code depends on the field hit.
      }
    }
  }
}

TEST_F(CheckpointFile, VersionBumpWithValidCrcIsBadVersion) {
  // A file from a future (or past) format generation is intact — CRC
  // passes — but must still be refused, with the version-specific code.
  tzgeo::util::write_checkpoint_file(path_, "from the future", kVersion + 1);
  EXPECT_EQ(code_of_read(path_, kVersion), CheckpointErrorCode::kBadVersion);
}

TEST_F(CheckpointFile, RandomCorruptionFuzz) {
  // Seeded fuzz: random payloads, random mutations (truncate / flip /
  // append).  Invariant: reads either return the exact original payload or
  // throw CheckpointError — nothing else, no crashes (asan-ubsan preset
  // runs this suite too).
  tzgeo::util::Rng rng{0xC0FFEEu};
  for (int round = 0; round < 200; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 200));
    std::string payload(size, '\0');
    for (char& c : payload) c = static_cast<char>(rng.uniform_int(0, 255));
    tzgeo::util::write_checkpoint_file(path_, payload, kVersion);

    std::string blob = read_raw(path_);
    ASSERT_FALSE(blob.empty()) << "round " << round << ": frame vanished after its write";
    switch (rng.uniform_int(0, 2)) {
      case 0:  // truncate
        blob.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(blob.size()) - 1)));
        break;
      case 1: {  // flip a random bit
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(blob.size()) - 1));
        blob[at] = static_cast<char>(blob[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      }
      default:  // append junk
        blob.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        break;
    }
    write_raw(path_, blob);
    try {
      const std::string out = tzgeo::util::read_checkpoint_file(path_, kVersion);
      EXPECT_EQ(out, payload) << "corrupt file read back a different payload";
    } catch (const CheckpointError&) {
      // Expected for nearly every mutation.
    }
  }
}

TEST_F(CheckpointFile, UnwritableDirectoryIsIoError) {
  const std::string bad = (fs::path(::testing::TempDir()) / "no_such_dir" / "x.ckpt").string();
  try {
    tzgeo::util::write_checkpoint_file(bad, "payload", kVersion);
    FAIL() << "write into a missing directory succeeded";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.code(), CheckpointErrorCode::kIo);
  }
}

// ---------------------------------------------------------------------------
// Manifest frames ("TZCM"): one atomic file, many independently-CRC'd
// sub-entries.  The contract under test: directory damage is a whole-file
// typed error, payload damage is contained to the entry it hit — every
// other entry reads back byte-identical.

using tzgeo::util::ManifestEntry;
using tzgeo::util::ManifestEntryStatus;

class ManifestFile : public ::testing::Test {
 protected:
  void TearDown() override {
    std::error_code ignored;
    fs::remove(path_, ignored);
    fs::remove(path_ + ".tmp", ignored);
  }

  [[nodiscard]] static std::vector<ManifestEntry> sample_entries() {
    return {{"__fleet__", "round 7, three forums"},
            {"alpha", std::string("alpha state with \0 inside", 25)},
            {"beta", ""},  // empty payloads are legal sub-states
            {"gamma", "gamma has the longest payload of the lot, by some margin"}};
  }

  /// Byte offset where the concatenated payload blobs start: header,
  /// directory (u64 key_len | key | u64 payload_size | u32 crc per
  /// entry), directory CRC.
  [[nodiscard]] static std::size_t blobs_offset(const std::vector<ManifestEntry>& entries) {
    std::size_t offset = 12;  // magic + version + entry_count
    for (const auto& entry : entries) offset += 8 + entry.key.size() + 8 + 4;
    return offset + 4;  // directory CRC
  }

  std::string path_ = test_temp_path("manifest");
};

TEST_F(ManifestFile, RoundTripPreservesOrderAndPayloads) {
  const auto entries = sample_entries();
  tzgeo::util::write_manifest_checkpoint_file(path_, entries, kVersion);
  EXPECT_FALSE(fs::exists(path_ + ".tmp")) << "staging file left behind";

  const auto statuses = tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
  ASSERT_EQ(statuses.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(statuses[i].key, entries[i].key);
    EXPECT_TRUE(statuses[i].ok) << statuses[i].detail;
    EXPECT_EQ(statuses[i].payload, entries[i].payload);
  }
}

TEST_F(ManifestFile, EmptyManifestRoundTrips) {
  tzgeo::util::write_manifest_checkpoint_file(path_, {}, kVersion);
  EXPECT_TRUE(tzgeo::util::read_manifest_checkpoint_file(path_, kVersion).empty());
}

TEST_F(ManifestFile, OverwriteIsAtomicReplacement) {
  tzgeo::util::write_manifest_checkpoint_file(path_, {{"k", "first"}}, kVersion);
  tzgeo::util::write_manifest_checkpoint_file(path_, {{"k", "second"}}, kVersion);
  const auto statuses = tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].payload, "second");
}

TEST_F(ManifestFile, DuplicateKeysRefusedOnWrite) {
  try {
    tzgeo::util::write_manifest_checkpoint_file(path_, {{"twin", "a"}, {"twin", "b"}},
                                                kVersion);
    FAIL() << "duplicate manifest keys accepted";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.code(), CheckpointErrorCode::kMalformed);
  }
}

TEST_F(ManifestFile, WrongVersionIsRefusedWhole) {
  tzgeo::util::write_manifest_checkpoint_file(path_, sample_entries(), kVersion + 1);
  try {
    (void)tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
    FAIL() << "wrong-version manifest accepted";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.code(), CheckpointErrorCode::kBadVersion);
  }
}

TEST_F(ManifestFile, SingleFrameMagicIsRefused) {
  // Pointing the fleet resume at a single-frame ("TZCK") checkpoint must
  // be a clean bad-magic refusal, not a parse of the wrong layout.
  tzgeo::util::write_checkpoint_file(path_, "monitor payload", kVersion);
  try {
    (void)tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
    FAIL() << "single-frame file accepted as a manifest";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.code(), CheckpointErrorCode::kBadMagic);
  }
}

TEST_F(ManifestFile, EveryTruncationPrefixIsContained) {
  // A crash can stop the (non-atomic, pre-rename) write at any byte.  A
  // prefix that loses directory bytes must be refused whole; a prefix
  // that only loses blob bytes must quarantine exactly the entries whose
  // blobs were cut — earlier entries read back byte-identical.
  const auto entries = sample_entries();
  tzgeo::util::write_manifest_checkpoint_file(path_, entries, kVersion);
  const std::string full = read_raw(path_);
  const std::size_t blobs_at = blobs_offset(entries);
  ASSERT_GT(full.size(), blobs_at);

  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    write_raw(path_, full.substr(0, keep));
    if (keep < blobs_at) {
      try {
        (void)tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
        FAIL() << "prefix of " << keep << " bytes (inside the directory) accepted";
      } catch (const CheckpointError&) {
        // Typed refusal; the exact code depends on which field was cut.
      }
      continue;
    }
    const auto statuses = tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
    ASSERT_EQ(statuses.size(), entries.size()) << "prefix " << keep;
    // Model of the reader: entries are consumed in order from the
    // surviving blob bytes; the first cut entry pins the cursor to the
    // end, so every later non-empty entry is truncated too (an empty
    // blob is trivially intact — it has no bytes to lose).
    const std::size_t avail = keep - blobs_at;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::size_t size = entries[i].payload.size();
      const bool intact = pos + size <= avail;
      if (intact) pos += size; else pos = avail;
      if (intact) {
        EXPECT_TRUE(statuses[i].ok) << "prefix " << keep << " entry " << entries[i].key;
        EXPECT_EQ(statuses[i].payload, entries[i].payload);
      } else {
        EXPECT_FALSE(statuses[i].ok) << "prefix " << keep << " entry " << entries[i].key;
        EXPECT_EQ(statuses[i].error, CheckpointErrorCode::kTruncated);
        EXPECT_TRUE(statuses[i].payload.empty());
      }
    }
  }
}

TEST_F(ManifestFile, SingleBitFlipQuarantinesExactlyOneEntry) {
  // Flip every bit of the file in turn.  In the header/directory region
  // every mutant must be refused whole (typed error).  In the blob region
  // every mutant must quarantine exactly the entry that owns the byte —
  // all other entries byte-identical.  This is the blast-radius contract
  // the fleet's partial resume stands on.
  const auto entries = sample_entries();
  tzgeo::util::write_manifest_checkpoint_file(path_, entries, kVersion);
  const std::string full = read_raw(path_);
  const std::size_t blobs_at = blobs_offset(entries);

  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = full;
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
      write_raw(path_, mutant);
      if (byte < blobs_at) {
        try {
          (void)tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
          FAIL() << "bit " << bit << " of directory byte " << byte << " flipped undetected";
        } catch (const CheckpointError&) {
        }
        continue;
      }
      std::size_t owner = entries.size();
      std::size_t blob_end = blobs_at;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        blob_end += entries[i].payload.size();
        if (byte < blob_end) {
          owner = i;
          break;
        }
      }
      ASSERT_LT(owner, entries.size());
      const auto statuses = tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
      ASSERT_EQ(statuses.size(), entries.size());
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i == owner) {
          EXPECT_FALSE(statuses[i].ok)
              << "bit " << bit << " of blob byte " << byte << " undetected";
          EXPECT_EQ(statuses[i].error, CheckpointErrorCode::kBadCrc);
        } else {
          EXPECT_TRUE(statuses[i].ok) << "entry " << entries[i].key
                                      << " collateral damage from byte " << byte;
          EXPECT_EQ(statuses[i].payload, entries[i].payload);
        }
      }
    }
  }
}

TEST_F(ManifestFile, TrailingJunkIsRefusedWhole) {
  tzgeo::util::write_manifest_checkpoint_file(path_, sample_entries(), kVersion);
  std::string blob = read_raw(path_);
  blob.push_back('\x5A');
  write_raw(path_, blob);
  try {
    (void)tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
    FAIL() << "trailing junk accepted";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.code(), CheckpointErrorCode::kMalformed);
  }
}

TEST_F(ManifestFile, PayloadSizesSummingPast64BitsAreShortEntries) {
  // A directory that passes its CRC but whose payload sizes add up past
  // 2^64.  Summed with wraparound they would promise 8 bytes and call the
  // 16 present "trailing"; every entry in fact claims more than exists.
  ByteWriter writer;
  for (const char c : std::string_view{"TZCM"}) writer.u8(static_cast<std::uint8_t>(c));
  writer.u32(kVersion);
  writer.u32(2);
  writer.str("a");
  writer.u64(std::uint64_t{1} << 63);
  writer.u32(0);
  writer.str("b");
  writer.u64((std::uint64_t{1} << 63) + 8);
  writer.u32(0);
  std::string blob = writer.take();
  ByteWriter directory_crc;
  directory_crc.u32(tzgeo::util::crc32(blob));
  blob += directory_crc.take();
  blob += std::string(16, 'x');
  write_raw(path_, blob);

  const auto statuses = tzgeo::util::read_manifest_checkpoint_file(path_, kVersion);
  ASSERT_EQ(statuses.size(), 2u);
  for (const ManifestEntryStatus& status : statuses) {
    EXPECT_FALSE(status.ok) << status.key;
    EXPECT_EQ(status.error, CheckpointErrorCode::kTruncated) << status.key;
  }
}

}  // namespace
