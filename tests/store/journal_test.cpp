// Journal unit tests: the WAL record format, group-commit policy, reopen
// semantics, and the reader's torn-tail / mid-corruption discrimination.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "store/journal.h"

namespace sieve::store {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory per test.
std::string Scratch(const std::string& name) {
  const std::string dir = testing::TempDir() + "/sieve_journal_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // The canonical IEEE 802.3 check value for "123456789".
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(JournalTest, RoundTripRegisterInsertsSeal) {
  const std::string path = Scratch("roundtrip") + "/cam.wal";
  {
    auto writer = JournalWriter::Open(path, FsyncPolicy{});
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(
        (*writer)->AppendRegister("gate#1", "gate", 12.5, 30.0).ok());
    ASSERT_TRUE((*writer)->AppendInsert(0, 0x03).ok());
    ASSERT_TRUE((*writer)->AppendInsert(4, 0x00).ok());
    ASSERT_TRUE((*writer)->AppendInsert(9, 0x11).ok());
    ASSERT_TRUE((*writer)->AppendSeal(10).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().message();
  EXPECT_TRUE(contents->registered);
  EXPECT_EQ(contents->route, "gate#1");
  EXPECT_EQ(contents->camera_id, "gate");
  EXPECT_DOUBLE_EQ(contents->open_seconds, 12.5);
  EXPECT_DOUBLE_EQ(contents->fps, 30.0);
  ASSERT_EQ(contents->inserts.size(), 3u);
  EXPECT_EQ(contents->inserts[0].frame, 0u);
  EXPECT_EQ(contents->inserts[0].label_bits, 0x03);
  EXPECT_EQ(contents->inserts[2].frame, 9u);
  EXPECT_EQ(contents->inserts[2].label_bits, 0x11);
  EXPECT_TRUE(contents->sealed);
  EXPECT_EQ(contents->total_frames, 10u);
  EXPECT_EQ(contents->records, 5u);
  EXPECT_FALSE(contents->tail_truncated);
  EXPECT_FALSE(contents->mid_corruption);
}

TEST(JournalTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = Scratch("reopen") + "/cam.wal";
  {
    auto writer = JournalWriter::Open(path, FsyncPolicy{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRegister("cam#1", "cam", 0.0, 25.0).ok());
    ASSERT_TRUE((*writer)->AppendInsert(0, 1).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  {
    auto writer = JournalWriter::Open(path, FsyncPolicy{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendInsert(5, 2).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->inserts.size(), 2u);
  EXPECT_EQ(contents->inserts[1].frame, 5u);
  EXPECT_FALSE(contents->sealed);
}

TEST(JournalTest, TornTailIsDetectedAndTruncatedOnReopen) {
  const std::string path = Scratch("torn") + "/cam.wal";
  std::uint64_t full_bytes = 0;
  {
    auto writer = JournalWriter::Open(path, FsyncPolicy{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRegister("cam#1", "cam", 0.0, 25.0).ok());
    ASSERT_TRUE((*writer)->AppendInsert(0, 1).ok());
    ASSERT_TRUE((*writer)->AppendInsert(1, 2).ok());
    ASSERT_TRUE((*writer)->Close().ok());
    full_bytes = (*writer)->appended_bytes();
  }
  // Tear the last record: chop 3 bytes off the file.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(bytes->size(), full_bytes);
  bytes->resize(bytes->size() - 3);
  ASSERT_TRUE(WriteFileBytes(path, *bytes).ok());

  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->tail_truncated);
  EXPECT_FALSE(contents->mid_corruption);
  ASSERT_EQ(contents->inserts.size(), 1u);  // the torn insert is gone

  // Reopening truncates the tear; the next append lands cleanly after the
  // surviving prefix.
  {
    auto writer = JournalWriter::Open(path, FsyncPolicy{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendInsert(7, 4).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->tail_truncated);
  ASSERT_EQ(contents->inserts.size(), 2u);
  EXPECT_EQ(contents->inserts[1].frame, 7u);
}

TEST(JournalTest, MidFileCorruptionIsFlaggedAndRefusedByWriter) {
  const std::string path = Scratch("midcorrupt") + "/cam.wal";
  {
    auto writer = JournalWriter::Open(path, FsyncPolicy{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRegister("cam#1", "cam", 0.0, 25.0).ok());
    for (std::uint64_t f = 0; f < 20; ++f) {
      ASSERT_TRUE((*writer)->AppendInsert(f, std::uint8_t(f & 0x1f)).ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // Flip one payload byte in the middle of the file: the damaged record's
  // CRC fails, but valid records follow, so this is corruption, not a tear.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0xFF;
  ASSERT_TRUE(WriteFileBytes(path, *bytes).ok());

  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->mid_corruption);
  EXPECT_TRUE(contents->registered);
  EXPECT_LT(contents->inserts.size(), 20u);  // only the intact prefix
  EXPECT_GT(contents->records, 0u);

  // A writer must refuse the file until recovery quarantines it.
  auto writer = JournalWriter::Open(path, FsyncPolicy{});
  EXPECT_FALSE(writer.ok());
}

TEST(JournalTest, BadMagicFailsTheWholeFile) {
  const std::string path = Scratch("magic") + "/cam.wal";
  const std::vector<std::uint8_t> garbage = {'N', 'O', 'T', 'A',
                                             'W', 'A', 'L', '!'};
  ASSERT_TRUE(WriteFileBytes(path, garbage).ok());
  EXPECT_FALSE(ReadJournal(path).ok());
  EXPECT_FALSE(JournalWriter::Open(path, FsyncPolicy{}).ok());
}

TEST(JournalTest, FirstSealWinsInTheReader) {
  const std::string path = Scratch("seals") + "/cam.wal";
  // Hand-build a journal with two seal records (a buggy writer could); the
  // reader must keep the first, matching the index's first-writer-wins.
  {
    auto writer = JournalWriter::Open(path, FsyncPolicy{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRegister("cam#1", "cam", 0.0, 25.0).ok());
    ASSERT_TRUE((*writer)->AppendSeal(5).ok());
    ASSERT_TRUE((*writer)->AppendSeal(9).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->sealed);
  EXPECT_EQ(contents->total_frames, 5u);
}

TEST(JournalTest, EveryRecordFlushPolicySurvivesWriterDeath) {
  const std::string path = Scratch("flush1") + "/cam.wal";
  FsyncPolicy every{/*flush_every=*/1, /*fsync_every=*/0};
  auto writer = JournalWriter::Open(path, every);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendRegister("cam#1", "cam", 0.0, 25.0).ok());
  ASSERT_TRUE((*writer)->AppendInsert(3, 7).ok());
  // No Close(): with flush_every=1 every record already reached the OS, so
  // a reader sees it all even while the writer is still open.
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->registered);
  ASSERT_EQ(contents->inserts.size(), 1u);
  EXPECT_EQ(contents->inserts[0].frame, 3u);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(JournalFileNameTest, EscapesUnsafeCharsAndStaysCollisionFree) {
  const std::string a = JournalFileName("gate/7#12");
  const std::string b = JournalFileName("gate_7#12");
  EXPECT_EQ(a.find('/'), std::string::npos);
  EXPECT_EQ(a.find('#'), std::string::npos);
  EXPECT_NE(a, b) << "escaping must not collide distinct routes";
  EXPECT_EQ(a.substr(a.size() - 4), ".wal");
  // Deterministic: the same route always maps to the same file.
  EXPECT_EQ(a, JournalFileName("gate/7#12"));
}

TEST(JournalTest, OversizedLengthPrefixIsCorruptionNotAllocation) {
  const std::string path = Scratch("oversize") + "/cam.wal";
  {
    auto writer = JournalWriter::Open(path, FsyncPolicy{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRegister("cam#1", "cam", 0.0, 25.0).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // Append a frame whose length prefix claims 4 GiB: the reader must treat
  // it as a torn/corrupt tail, not attempt the allocation.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  for (std::uint8_t b : {0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00}) {
    bytes->push_back(b);
  }
  ASSERT_TRUE(WriteFileBytes(path, *bytes).ok());
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->tail_truncated);
  EXPECT_TRUE(contents->registered);
}

TEST(JournalTest, RegisterWithInvalidClockIsCorrupt) {
  // CRC-valid register records whose clock would make query time run
  // backwards or undefined: the decoder rejects them like a bad checksum,
  // so the file is quarantined rather than replayed into the index.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> clocks[] = {
      {0.0, 0.0}, {0.0, -25.0}, {0.0, kNaN}, {0.0, kInf}, {kNaN, 25.0},
      {kInf, 25.0}};
  int n = 0;
  for (const auto& [open_seconds, fps] : clocks) {
    const std::string path =
        Scratch("badclock" + std::to_string(++n)) + "/cam.wal";
    {
      auto writer = JournalWriter::Open(path, FsyncPolicy{});
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE(
          (*writer)->AppendRegister("cam#1", "cam", open_seconds, fps).ok());
      ASSERT_TRUE((*writer)->AppendInsert(0, 1).ok());
      ASSERT_TRUE((*writer)->Close().ok());
    }
    auto contents = ReadJournal(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_FALSE(contents->registered) << "clock " << n;
    EXPECT_TRUE(contents->mid_corruption) << "clock " << n;
    EXPECT_TRUE(contents->inserts.empty()) << "clock " << n;
  }
}

}  // namespace
}  // namespace sieve::store
