//===- tests/journal_test.cpp - Crash-safe run journal ---------------------===//
//
// The journal's durability contract: records are framed and checksummed
// individually, recovery trusts exactly the valid prefix, and a torn or
// corrupted tail costs at most the record being written.
//
//===----------------------------------------------------------------------===//

#include "support/Checkpoint.h"
#include "support/Journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace monsem;

namespace {

std::string tempPath(const char *Name) {
  std::string P = ::testing::TempDir() + Name;
  std::remove(P.c_str());
  return P;
}

std::vector<uint8_t> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeAll(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

TEST(JournalTest, EventRoundTrip) {
  std::string Path = tempPath("monsem_journal_rt.bin");
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    J->appendEvent(1, "pre {profile:f}");
    J->appendEvent(9, "post {profile:f} = 42");
    J->appendEvent(17, "pre {profile:g}");
  }
  JournalRecovery R = recoverJournal(Path);
  ASSERT_TRUE(R.Opened);
  EXPECT_EQ(R.TotalEvents, 3u);
  EXPECT_EQ(R.TornBytes, 0u);
  ASSERT_EQ(R.Tail.size(), 3u);
  EXPECT_EQ(R.Tail[0].Step, 1u);
  EXPECT_EQ(R.Tail[0].Text, "pre {profile:f}");
  EXPECT_EQ(R.Tail[2].Step, 17u);
  EXPECT_TRUE(R.LastCheckpoint.empty());
  std::remove(Path.c_str());
}

TEST(JournalTest, EventRecordBytesArePinned) {
  // [u8 type=1] [u32 len] [u64 step] [u32 text len] [text]
  // [u64 FNV-1a of everything before it], all little-endian. A second
  // append reuses the handle's frame buffer and must frame identically.
  const std::string Want =
      "01"               // type: event
      "21000000"         // len = 8 + 4 + 21
      "0900000000000000" // step 9
      "15000000"         // text length 21
      "706f7374207b70726f66696c653a667d203d203432" // "post {profile:f} = 42"
      "618887033bda4bc4"; // FNV-1a 64
  std::string Path = tempPath("monsem_journal_golden.bin");
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    ASSERT_TRUE(J->appendEvent(9, "post {profile:f} = 42"));
    ASSERT_TRUE(J->appendEvent(9, "post {profile:f} = 42"));
  }
  std::string Hex;
  for (uint8_t B : readAll(Path)) {
    static const char *Digits = "0123456789abcdef";
    Hex += Digits[B >> 4];
    Hex += Digits[B & 15];
  }
  EXPECT_EQ(Hex, Want + Want);
  std::remove(Path.c_str());
}

TEST(JournalTest, TailKeepsOnlyTheLastN) {
  std::string Path = tempPath("monsem_journal_tail.bin");
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    for (unsigned I = 0; I < 40; ++I)
      J->appendEvent(I, "event " + std::to_string(I));
  }
  JournalRecovery R = recoverJournal(Path, /*TailLimit=*/5);
  EXPECT_EQ(R.TotalEvents, 40u);
  ASSERT_EQ(R.Tail.size(), 5u);
  EXPECT_EQ(R.Tail.front().Text, "event 35");
  EXPECT_EQ(R.Tail.back().Text, "event 39");
  std::remove(Path.c_str());
}

TEST(JournalTest, CheckpointRecovery) {
  std::string Path = tempPath("monsem_journal_ck.bin");
  std::vector<uint8_t> CkBytes = {0xde, 0xad, 0xbe, 0xef, 0x01};
  std::vector<uint8_t> CkBytes2 = {0xca, 0xfe};
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    J->appendEvent(1, "a");
    J->appendCheckpoint(CkBytes);
    J->appendEvent(2, "b");
    J->appendCheckpoint(CkBytes2);
    J->appendEvent(3, "c");
    J->appendEvent(4, "d");
  }
  JournalRecovery R = recoverJournal(Path);
  EXPECT_EQ(R.TotalEvents, 4u);
  EXPECT_EQ(R.LastCheckpoint, CkBytes2); // The most recent one wins.
  EXPECT_EQ(R.EventsSinceCheckpoint, 2u);
  std::remove(Path.c_str());
}

TEST(JournalTest, TornTailIsDiscardedNotTrusted) {
  std::string Path = tempPath("monsem_journal_torn.bin");
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    J->appendEvent(1, "kept");
    J->appendEvent(2, "also kept");
  }
  // Simulate a crash mid-append: chop the last record in half.
  std::vector<uint8_t> Bytes = readAll(Path);
  size_t Full = Bytes.size();
  Bytes.resize(Full - 7);
  writeAll(Path, Bytes);

  JournalRecovery R = recoverJournal(Path);
  ASSERT_TRUE(R.Opened);
  EXPECT_EQ(R.TotalEvents, 1u);
  ASSERT_EQ(R.Tail.size(), 1u);
  EXPECT_EQ(R.Tail[0].Text, "kept");
  EXPECT_GT(R.TornBytes, 0u);
  std::remove(Path.c_str());
}

TEST(JournalTest, CorruptedRecordStopsRecoveryAtValidPrefix) {
  std::string Path = tempPath("monsem_journal_corrupt.bin");
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    J->appendEvent(1, "good");
    J->appendEvent(2, "about to be corrupted");
    J->appendEvent(3, "unreachable after corruption");
  }
  std::vector<uint8_t> Bytes = readAll(Path);
  // Flip a byte inside the second record's payload.
  size_t FirstLen = Bytes.size() / 3;
  Bytes[FirstLen + 10] ^= 0xff;
  writeAll(Path, Bytes);

  JournalRecovery R = recoverJournal(Path);
  ASSERT_TRUE(R.Opened);
  EXPECT_EQ(R.TotalEvents, 1u);
  EXPECT_GT(R.TornBytes, 0u);
  std::remove(Path.c_str());
}

TEST(JournalTest, MissingFileReportsUnopened) {
  JournalRecovery R = recoverJournal(tempPath("monsem_journal_absent.bin"));
  EXPECT_FALSE(R.Opened);
  EXPECT_EQ(R.TotalEvents, 0u);
}

TEST(JournalTest, AppendsAreDurablePerRecord) {
  // Without closing the journal, a concurrent reader already sees every
  // completed append (each one is flushed).
  std::string Path = tempPath("monsem_journal_flush.bin");
  std::string Err;
  auto J = Journal::open(Path, Err);
  ASSERT_NE(J, nullptr) << Err;
  J->appendEvent(5, "flushed");
  JournalRecovery R = recoverJournal(Path);
  EXPECT_EQ(R.TotalEvents, 1u);
  ASSERT_EQ(R.Tail.size(), 1u);
  EXPECT_EQ(R.Tail[0].Step, 5u);
  J.reset();
  std::remove(Path.c_str());
}

TEST(JournalTest, OpenTruncatesTheTornTailBeforeAppending) {
  std::string Path = tempPath("monsem_journal_reopen.bin");
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    J->appendEvent(1, "kept");
    J->appendEvent(2, "torn away");
  }
  // Crash mid-append: the second record is half-written.
  std::vector<uint8_t> Bytes = readAll(Path);
  size_t Full = Bytes.size();
  Bytes.resize(Full - 7);
  writeAll(Path, Bytes);

  // Reopening repairs the file in place: the torn bytes are truncated so
  // the next append starts at a record boundary, not inside garbage.
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    EXPECT_LT(readAll(Path).size(), Full - 7); // Torn tail gone already.
    J->appendEvent(3, "after repair");
  }
  JournalRecovery R = recoverJournal(Path);
  ASSERT_TRUE(R.Opened);
  EXPECT_EQ(R.TornBytes, 0u); // Fully healed, not merely tolerated.
  EXPECT_EQ(R.TotalEvents, 2u);
  ASSERT_EQ(R.Tail.size(), 2u);
  EXPECT_EQ(R.Tail[0].Text, "kept");
  EXPECT_EQ(R.Tail[1].Text, "after repair");
  std::remove(Path.c_str());
}

TEST(JournalTest, FirstAppendFailureIsSticky) {
  // The first I/O failure is what a diagnostic should surface, even if
  // later appends fail differently; failed() latches it.
  std::string Path = tempPath("monsem_journal_sticky.bin");
  std::string Err;
  JournalOptions Opts;
  Opts.MaxRetries = 0;
  auto J = Journal::open(Path, Err, Opts);
  ASSERT_NE(J, nullptr) << Err;
  EXPECT_FALSE(J->failed());
  ASSERT_TRUE(J->appendEvent(1, "fine"));
  EXPECT_FALSE(J->failed());
  J.reset();
  std::remove(Path.c_str());
}
