//===- tests/journal_test.cpp - Crash-safe run journal ---------------------===//
//
// The journal's durability contract: records are framed and checksummed
// individually, recovery trusts exactly the valid prefix, and a torn or
// corrupted tail costs at most the record being written. The MappedJournal
// cases cover the shared file mapping the appends go through: zero slack
// after a crash, windows that slide, a record larger than a window, a
// growth failure, and byte identity with the stdio-era file format.
//
//===----------------------------------------------------------------------===//

#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "support/Checkpoint.h"
#include "support/FailPoint.h"
#include "support/Journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

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

//===----------------------------------------------------------------------===//
// The mapped append path
//===----------------------------------------------------------------------===//

namespace {

bool allZero(const std::vector<uint8_t> &Bytes, size_t From) {
  return std::all_of(Bytes.begin() + static_cast<ptrdiff_t>(From),
                     Bytes.end(), [](uint8_t B) { return B == 0; });
}

/// Runs \p Body in a forked child and returns its wait status. The child
/// leaves through _exit (the body's return value), never through gtest.
template <typename Fn> int inChild(Fn Body) {
  std::fflush(nullptr);
  pid_t Pid = ::fork();
  if (Pid == 0)
    ::_exit(Body());
  int St = 0;
  ::waitpid(Pid, &St, 0);
  return St;
}

} // namespace

TEST(MappedJournal, CrashAtTheKthWriteRecoversKMinusOneEvents) {
  // The crash copies nothing of the kth record: the file holds k-1 intact
  // records and then only the zero slack of the mapped window, which
  // recovery must not count as torn.
  const unsigned K = 7;
  std::string Path = tempPath("monsem_journal_crash.bin");
  int St = inChild([&] {
    std::string Err;
    if (!installFailPoints("journal.write=crash@" + std::to_string(K), Err))
      return 1;
    auto J = Journal::open(Path, Err);
    if (!J)
      return 2;
    for (unsigned I = 1; I <= 2 * K; ++I)
      J->appendEvent(I, "event " + std::to_string(I));
    return 3; // The crash never fired.
  });
  ASSERT_TRUE(WIFEXITED(St)) << "child died by signal " << WTERMSIG(St);
  ASSERT_EQ(WEXITSTATUS(St), kFailPointCrashExit);

  std::vector<uint8_t> Crashed = readAll(Path);
  JournalRecovery R = recoverJournal(Path);
  ASSERT_TRUE(R.Opened);
  EXPECT_EQ(R.TotalEvents, K - 1);
  EXPECT_EQ(R.TornBytes, 0u);
  ASSERT_FALSE(R.Tail.empty());
  EXPECT_EQ(R.Tail.back().Text, "event " + std::to_string(K - 1));

  // Reopening truncates the slack, and the next record lands right after
  // the last intact one.
  std::string Err;
  auto J = Journal::open(Path, Err);
  ASSERT_NE(J, nullptr) << Err;
  std::vector<uint8_t> Reopened = readAll(Path);
  EXPECT_EQ(Reopened.size(), J->durableBytes());
  EXPECT_LT(Reopened.size(), Crashed.size()) << "no slack was left behind";
  EXPECT_TRUE(std::equal(Reopened.begin(), Reopened.end(), Crashed.begin()));
  EXPECT_TRUE(allZero(Crashed, Reopened.size()));
  ASSERT_TRUE(J->appendEvent(100, "after the crash"));
  J.reset();
  JournalRecovery After = recoverJournal(Path);
  EXPECT_EQ(After.TornBytes, 0u);
  EXPECT_EQ(After.TotalEvents, K);
  EXPECT_EQ(After.Tail.back().Text, "after the crash");
  std::remove(Path.c_str());
}

TEST(MappedJournal, PartialFrameBeforeSlackIsTorn) {
  // crash(5) copies the first five bytes of the kth record: a frame that
  // starts with a non-zero type byte, so it and the zeros after it are a
  // torn tail, not slack.
  std::string Path = tempPath("monsem_journal_crash5.bin");
  int St = inChild([&] {
    std::string Err;
    if (!installFailPoints("journal.write=crash(5)@3", Err))
      return 1;
    auto J = Journal::open(Path, Err);
    if (!J)
      return 2;
    for (unsigned I = 1; I <= 5; ++I)
      J->appendEvent(I, "event");
    return 3;
  });
  ASSERT_TRUE(WIFEXITED(St));
  ASSERT_EQ(WEXITSTATUS(St), kFailPointCrashExit);
  size_t Size = readAll(Path).size();
  JournalRecovery R = recoverJournal(Path);
  EXPECT_EQ(R.TotalEvents, 2u);
  ASSERT_GT(R.TornBytes, 5u);
  std::string Err;
  auto J = Journal::open(Path, Err);
  ASSERT_NE(J, nullptr) << Err;
  EXPECT_EQ(J->durableBytes(), Size - R.TornBytes);
  ASSERT_TRUE(J->appendEvent(3, "repaired"));
  J.reset();
  JournalRecovery After = recoverJournal(Path);
  EXPECT_EQ(After.TornBytes, 0u);
  EXPECT_EQ(After.TotalEvents, 3u);
  std::remove(Path.c_str());
}

TEST(MappedJournal, RecordsAcrossWindowsAndAnOversizedCheckpointRecover) {
  std::string Path = tempPath("monsem_journal_windows.bin");
  // A checkpoint record larger than a whole window, with a pattern that a
  // misplaced copy would scramble.
  std::vector<uint8_t> Big(Journal::WindowBytes + 12345);
  for (size_t I = 0; I < Big.size(); ++I)
    Big[I] = static_cast<uint8_t>(I * 131 + (I >> 9));
  uint64_t Events = 0;
  {
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    // Three windows' worth of events, then the big record, then more.
    while (J->durableBytes() < 3 * Journal::WindowBytes) {
      ASSERT_TRUE(J->appendEvent(Events, "event " + std::to_string(Events)));
      ++Events;
    }
    ASSERT_TRUE(J->appendCheckpoint(Big));
    for (unsigned I = 0; I < 100; ++I) {
      ASSERT_TRUE(J->appendEvent(Events, "event " + std::to_string(Events)));
      ++Events;
    }
    // A reader of the live file sees every record and no torn bytes.
    JournalRecovery Live = recoverJournal(Path, /*TailLimit=*/1);
    EXPECT_EQ(Live.TotalEvents, Events);
    EXPECT_EQ(Live.TornBytes, 0u);
    EXPECT_EQ(Live.LastCheckpoint, Big);
  }
  JournalRecovery R = recoverJournal(Path, /*TailLimit=*/3);
  EXPECT_EQ(R.TornBytes, 0u);
  EXPECT_EQ(R.TotalEvents, Events);
  EXPECT_EQ(R.EventsSinceCheckpoint, 100u);
  EXPECT_EQ(R.LastCheckpoint, Big);
  ASSERT_EQ(R.Tail.size(), 3u);
  EXPECT_EQ(R.Tail.back().Text, "event " + std::to_string(Events - 1));
  std::remove(Path.c_str());
}

TEST(MappedJournal, GrowthFailureIsAnAppendErrorNotASignal) {
  // The file-size limit lets the first window be reserved but not the
  // next. posix_fallocate must then fail the append with EFBIG (SIGXFSZ
  // ignored), the run must record a durability fault and keep computing,
  // and no store may ever reach an unreserved page (SIGBUS).
  const char *Src = "letrec loop = lambda k. {loop}: if k < 1 then 42 "
                    "else loop (k - 1) in loop 20000";
  std::string Path = tempPath("monsem_journal_efbig.bin");
  int St = inChild([&] {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit Lim;
    Lim.rlim_cur = Lim.rlim_max = Journal::WindowBytes + 4096;
    if (::setrlimit(RLIMIT_FSIZE, &Lim) != 0)
      return 1;
    auto P = ParsedProgram::parse(Src);
    std::string Err;
    auto J = Journal::open(Path, Err);
    if (!P->ok() || !J)
      return 2;
    CallProfiler Prof;
    RunResult R = evaluate(
        Prof & journalInto(*J) &
            onDurabilityFailure(OnDurabilityFailure::DegradeToBestEffort),
        P->root());
    if (R.St != Outcome::Ok || R.IntValue != 42)
      return 3;
    if (R.DurabilityFaults.size() != 1 ||
        R.DurabilityFaults[0].Site != "journal" ||
        R.DurabilityFaults[0].Error.find(std::strerror(EFBIG)) ==
            std::string::npos)
      return 4;
    return 0; // Leaves without closing: the slack stays behind.
  });
  ASSERT_TRUE(WIFEXITED(St)) << "child died by signal " << WTERMSIG(St);
  ASSERT_EQ(WEXITSTATUS(St), 0) << "1 setrlimit, 2 setup, 3 run, 4 fault";
  JournalRecovery R = recoverJournal(Path);
  ASSERT_TRUE(R.Opened);
  EXPECT_EQ(R.TornBytes, 0u);
  EXPECT_GT(R.TotalEvents, 0u);
  EXPECT_LT(R.TotalEvents, 40002u); // The run's 2 x 20001 probes.
  std::remove(Path.c_str());
}

TEST(MappedJournal, CleanCloseIsByteIdenticalToTheStdioJournal) {
  // tests/golden/monitored_run.journal was written by the journal that
  // appended each record with fwrite + fflush: a mapped journal that
  // closes cleanly must leave the very same file.
  std::string Path = tempPath("monsem_journal_golden_run.bin");
  {
    auto P = ParsedProgram::parse("letrec fib = lambda n. {fib}: if n < 2 "
                                  "then n else fib (n - 1) + fib (n - 2) "
                                  "in fib 6");
    ASSERT_TRUE(P->ok());
    CallProfiler Prof;
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_NE(J, nullptr) << Err;
    RunResult R = evaluate(
        Prof & journalInto(*J) & checkpointEveryNSteps(60), P->root());
    ASSERT_EQ(R.St, Outcome::Ok);
    EXPECT_EQ(R.IntValue, 8);
  }
  std::vector<uint8_t> Golden =
      readAll(MONSEM_SOURCE_DIR "/tests/golden/monitored_run.journal");
  ASSERT_EQ(Golden.size(), 4481u);
  EXPECT_TRUE(readAll(Path) == Golden);
  JournalRecovery R = recoverJournal(Path);
  EXPECT_EQ(R.TotalEvents, 50u);
  EXPECT_FALSE(R.LastCheckpoint.empty());
  std::remove(Path.c_str());
}
