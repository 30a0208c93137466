//===- tests/failpoint_test.cpp - Fault injection and durability -----------===//
//
// The failpoint harness itself (spec parsing, selectors, FileSys wrappers)
// and the durability behavior it exists to exercise: hardened checkpoint
// writes (atomic, no temp leak, every site's failure handled), journal
// appends with retry/backoff and torn-tail restoration, the three
// OnDurabilityFailure policies, and crash-point enumeration over every
// byte-prefix truncation of a journal and every failpoint site of a
// checkpoint write.
//
//===----------------------------------------------------------------------===//

#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "support/Checkpoint.h"
#include "support/Durability.h"
#include "support/FailPoint.h"
#include "support/Journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sys/stat.h>

using namespace monsem;

namespace {

std::string tempPath(const char *Name) {
  std::string P = ::testing::TempDir() + Name;
  std::remove(P.c_str());
  std::remove((P + ".tmp").c_str());
  return P;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
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

Checkpoint makeTestCheckpoint() {
  CheckpointHeader H;
  H.ProgramFingerprint = 0xfeedface;
  H.SavedSteps = 41;
  Serializer S = Checkpoint::begin(H);
  for (int I = 0; I < 64; ++I)
    S.writeU64(static_cast<uint64_t>(I) * 7);
  return Checkpoint::seal(std::move(S));
}

//===----------------------------------------------------------------------===//
// Spec parsing and selector arithmetic
//===----------------------------------------------------------------------===//

TEST(FailPointSpec, ParsesSitesActionsAndSelectors) {
  ScopedFailPoints FP("journal.write=err(ENOSPC);checkpoint.sync=crash(5)*2;"
                      "journal.flush=short(3)@2");
  ASSERT_TRUE(FP.ok()) << FP.error();
  EXPECT_TRUE(failPointsArmed());

  FailAction A = failPointHit(FailSite::JournalWrite);
  EXPECT_EQ(A.K, FailAction::Kind::Error);
  EXPECT_EQ(A.Errno, ENOSPC);

  // *2: first two hits trigger, then disarmed.
  EXPECT_EQ(failPointHit(FailSite::CheckpointSync).K,
            FailAction::Kind::Crash);
  A = failPointHit(FailSite::CheckpointSync);
  EXPECT_EQ(A.K, FailAction::Kind::Crash);
  EXPECT_EQ(A.Bytes, 5u);
  EXPECT_EQ(failPointHit(FailSite::CheckpointSync).K, FailAction::Kind::None);

  // @2: first hit passes, triggers from the second on.
  EXPECT_EQ(failPointHit(FailSite::JournalFlush).K, FailAction::Kind::None);
  A = failPointHit(FailSite::JournalFlush);
  EXPECT_EQ(A.K, FailAction::Kind::Short);
  EXPECT_EQ(A.Bytes, 3u);
  EXPECT_EQ(failPointHit(FailSite::JournalFlush).K, FailAction::Kind::Short);

  EXPECT_EQ(failPointHitCount(FailSite::CheckpointSync), 3u);
}

TEST(FailPointSpec, RejectsMalformedSpecs) {
  for (const char *Bad :
       {"nonsense", "journal.write", "journal.write=explode",
        "bogus.site=err", "journal.write=err(EWHAT)", "journal.write=short",
        "journal.write=err*x", "journal.write=err@"}) {
    std::string Err;
    EXPECT_FALSE(installFailPoints(Bad, Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
  clearFailPoints();
}

TEST(FailPointSpec, EmptySpecClears) {
  std::string Err;
  ASSERT_TRUE(installFailPoints("journal.write=err", Err));
  EXPECT_TRUE(failPointsArmed());
  ASSERT_TRUE(installFailPoints("", Err));
  EXPECT_FALSE(failPointsArmed());
  EXPECT_EQ(failPointHit(FailSite::JournalWrite).K, FailAction::Kind::None);
}

TEST(FailPointSpec, SiteNamesRoundTrip) {
  for (unsigned I = 0; I < kNumFailSites; ++I) {
    std::string Spec =
        std::string(failPointSiteName(static_cast<FailSite>(I))) + "=err";
    std::string Err;
    EXPECT_TRUE(installFailPoints(Spec, Err)) << Spec << ": " << Err;
  }
  clearFailPoints();
}

//===----------------------------------------------------------------------===//
// Hardened checkpoint writes: every site's failure is survivable
//===----------------------------------------------------------------------===//

// For each failpoint site of the checkpoint write path: saveFile reports
// failure, leaves no temp file behind, and the destination is either
// absent or still the old (valid) checkpoint — never a torn one.
TEST(CheckpointDurability, EveryFailureSiteIsAtomicAndLeakFree) {
  const char *Sites[] = {"checkpoint.open",  "checkpoint.write",
                         "checkpoint.flush", "checkpoint.sync",
                         "checkpoint.close", "checkpoint.rename",
                         "checkpoint.dirsync"};
  Checkpoint CK = makeTestCheckpoint();
  for (const char *Site : Sites) {
    std::string Path = tempPath("fp_ck_site.bin");
    ScopedFailPoints FP(std::string(Site) + "=err(ENOSPC)");
    ASSERT_TRUE(FP.ok()) << FP.error();
    std::string Err;
    EXPECT_FALSE(CK.saveFile(Path, Err)) << Site;
    EXPECT_FALSE(Err.empty()) << Site;
    EXPECT_FALSE(fileExists(Path + ".tmp")) << Site << ": temp file leaked";
    if (fileExists(Path)) {
      // dirsync fails after the rename: the destination must be complete.
      std::string LoadErr;
      EXPECT_TRUE(Checkpoint::loadFile(Path, LoadErr).valid()) << Site;
    }
  }
}

// A failed overwrite must leave the previous checkpoint intact.
TEST(CheckpointDurability, FailedOverwriteKeepsOldCheckpoint) {
  std::string Path = tempPath("fp_ck_keep.bin");
  Checkpoint Old = makeTestCheckpoint();
  std::string Err;
  ASSERT_TRUE(Old.saveFile(Path, Err)) << Err;
  std::vector<uint8_t> OldBytes = readAll(Path);

  ScopedFailPoints FP("checkpoint.write=short(10)");
  CheckpointHeader H;
  H.SavedSteps = 99;
  Serializer S = Checkpoint::begin(H);
  S.writeU64(1);
  Checkpoint New = Checkpoint::seal(std::move(S));
  EXPECT_FALSE(New.saveFile(Path, Err));
  EXPECT_EQ(readAll(Path), OldBytes);
  EXPECT_FALSE(fileExists(Path + ".tmp"));
}

// A short write injects a genuinely torn temp file; the load path must
// reject those bytes (checksum) — the belt to rename's suspenders.
TEST(CheckpointDurability, TornBytesAreRejectedOnLoad) {
  Checkpoint CK = makeTestCheckpoint();
  std::vector<uint8_t> Torn(CK.bytes().begin(), CK.bytes().end() - 5);
  std::string Path = tempPath("fp_ck_torn.bin");
  writeAll(Path, Torn);
  std::string Err;
  EXPECT_FALSE(Checkpoint::loadFile(Path, Err).valid());
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Journal appends: error checking, retry, boundary restoration
//===----------------------------------------------------------------------===//

TEST(JournalDurability, AppendFailureIsReportedAndSticky) {
  std::string Path = tempPath("fp_j_fail.journal");
  std::string Err;
  auto J = Journal::open(Path, Err);
  ASSERT_TRUE(J) << Err;
  ASSERT_TRUE(J->appendEvent(1, "ok"));
  {
    ScopedFailPoints FP("journal.write=err(ENOSPC)*1");
    EXPECT_FALSE(J->appendEvent(2, "doomed"));
  }
  EXPECT_TRUE(J->failed());
  EXPECT_NE(J->error().find("No space left"), std::string::npos)
      << J->error();
  // The failed append restored the record boundary: later appends are
  // durable and recovery sees no torn bytes.
  EXPECT_TRUE(J->appendEvent(3, "after"));
  J.reset();
  JournalRecovery R = recoverJournal(Path);
  EXPECT_EQ(R.TornBytes, 0u);
  ASSERT_EQ(R.TotalEvents, 2u);
  EXPECT_EQ(R.Tail.back().Text, "after");
}

TEST(JournalDurability, TransientErrorsAreRetried) {
  std::string Path = tempPath("fp_j_retry.journal");
  std::string Err;
  JournalOptions JO;
  JO.RetryBackoffUs = 1; // Keep the test fast.
  auto J = Journal::open(Path, Err, JO);
  ASSERT_TRUE(J) << Err;
  // EINTR twice, then clean: the append succeeds transparently.
  ScopedFailPoints FP("journal.write=err(EINTR)*2");
  EXPECT_TRUE(J->appendEvent(1, "survives"));
  EXPECT_FALSE(J->failed());
  J.reset();
  JournalRecovery R = recoverJournal(Path);
  EXPECT_EQ(R.TotalEvents, 1u);
  EXPECT_EQ(R.TornBytes, 0u);
}

TEST(JournalDurability, PersistentTransientErrorExhaustsRetryBudget) {
  std::string Path = tempPath("fp_j_budget.journal");
  std::string Err;
  JournalOptions JO;
  JO.MaxRetries = 2;
  JO.RetryBackoffUs = 1;
  auto J = Journal::open(Path, Err, JO);
  ASSERT_TRUE(J) << Err;
  ScopedFailPoints FP("journal.write=err(EINTR)");
  EXPECT_FALSE(J->appendEvent(1, "never lands"));
  EXPECT_TRUE(J->failed());
  // 1 initial attempt + 2 retries.
  EXPECT_EQ(failPointHitCount(FailSite::JournalWrite), 3u);
}

TEST(JournalDurability, ShortWriteLeavesNoTornTail) {
  std::string Path = tempPath("fp_j_short.journal");
  std::string Err;
  auto J = Journal::open(Path, Err);
  ASSERT_TRUE(J) << Err;
  ASSERT_TRUE(J->appendEvent(1, "good"));
  {
    // Persist 4 real bytes of the frame, then fail: a genuine torn write.
    ScopedFailPoints FP("journal.write=short(4)*1");
    EXPECT_FALSE(J->appendEvent(2, "torn"));
  }
  EXPECT_TRUE(J->appendEvent(3, "recovered"));
  J.reset();
  JournalRecovery R = recoverJournal(Path);
  EXPECT_EQ(R.TornBytes, 0u) << "failed append left partial bytes behind";
  ASSERT_EQ(R.TotalEvents, 2u);
  EXPECT_EQ(R.Tail[0].Text, "good");
  EXPECT_EQ(R.Tail[1].Text, "recovered");
}

// Satellite 1: open() truncates a torn tail, so records appended after a
// crash are recoverable instead of sitting behind the bad record.
TEST(JournalDurability, OpenTruncatesTornTailBeforeAppending) {
  std::string Path = tempPath("fp_j_reopen.journal");
  std::string Err;
  {
    auto J = Journal::open(Path, Err);
    ASSERT_TRUE(J) << Err;
    ASSERT_TRUE(J->appendEvent(1, "before crash"));
  }
  // Simulate a crash mid-append: half a record at the end of the file.
  std::vector<uint8_t> Bytes = readAll(Path);
  std::vector<uint8_t> Garbage = {2, 200, 0, 0, 0, 9, 9, 9};
  std::vector<uint8_t> WithTorn = Bytes;
  WithTorn.insert(WithTorn.end(), Garbage.begin(), Garbage.end());
  writeAll(Path, WithTorn);

  {
    auto J = Journal::open(Path, Err);
    ASSERT_TRUE(J) << Err;
    ASSERT_TRUE(J->appendEvent(2, "after crash"));
  }
  JournalRecovery R = recoverJournal(Path);
  EXPECT_EQ(R.TornBytes, 0u);
  ASSERT_EQ(R.TotalEvents, 2u) << "post-crash record hidden by torn tail";
  EXPECT_EQ(R.Tail[1].Text, "after crash");
}

TEST(JournalDurability, OpenFailureInjection) {
  ScopedFailPoints FP("journal.open=err(EACCES)");
  std::string Err;
  EXPECT_FALSE(Journal::open(tempPath("fp_j_open.journal"), Err));
  EXPECT_NE(Err.find("Permission denied"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Policies through the evaluate() drivers
//===----------------------------------------------------------------------===//

const char *kLoopSrc = "letrec loop = lambda k. {loop}: if k < 1 then 42 "
                       "else loop (k - 1) in loop 200";

TEST(DurabilityPolicy, AbortEndsTheRunOnJournalFailure) {
  auto P = ParsedProgram::parse(kLoopSrc);
  ASSERT_TRUE(P->ok());
  std::string Path = tempPath("fp_pol_abort.journal");
  std::string Err;
  auto J = Journal::open(Path, Err);
  ASSERT_TRUE(J) << Err;
  CallProfiler Prof;
  RunResult R = evaluate(
      Prof & journalInto(*J) &
          onDurabilityFailure(OnDurabilityFailure::Abort) &
          failpointsSpec("journal.write=err(ENOSPC)@5"),
      P->root());
  clearFailPoints();
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("durable journal write failed"), std::string::npos)
      << R.Error;
  ASSERT_EQ(R.DurabilityFaults.size(), 1u);
  EXPECT_EQ(R.DurabilityFaults[0].Site, "journal");
}

TEST(DurabilityPolicy, DegradeKeepsTheRunAliveAndRecordsFaults) {
  auto P = ParsedProgram::parse(kLoopSrc);
  ASSERT_TRUE(P->ok());
  std::string Path = tempPath("fp_pol_degrade.journal");
  std::string Err;
  auto J = Journal::open(Path, Err);
  ASSERT_TRUE(J) << Err;
  CallProfiler Prof;
  RunResult R = evaluate(
      Prof & journalInto(*J) &
          onDurabilityFailure(OnDurabilityFailure::DegradeToBestEffort) &
          failpointsSpec("journal.write=err(ENOSPC)@5"),
      P->root());
  unsigned WriteHits = failPointHitCount(FailSite::JournalWrite);
  clearFailPoints();
  ASSERT_EQ(R.St, Outcome::Ok);
  EXPECT_EQ(R.IntValue, 42);
  ASSERT_EQ(R.DurabilityFaults.size(), 1u);
  EXPECT_TRUE(R.DurabilityFaults[0].Demoted);
  // Degradation is immediate: exactly one failing append happened, the
  // rest were skipped (the failpoint would have fired on every later one).
  EXPECT_EQ(WriteHits, 5u);
}

TEST(DurabilityPolicy, RetryThenDegradeToleratesTheBudget) {
  auto P = ParsedProgram::parse(kLoopSrc);
  ASSERT_TRUE(P->ok());
  std::string Path = tempPath("fp_pol_retry.journal");
  std::string Err;
  auto J = Journal::open(Path, Err);
  ASSERT_TRUE(J) << Err;
  CallProfiler Prof;
  RunResult R = evaluate(
      Prof & journalInto(*J) &
          onDurabilityFailure(OnDurabilityFailure::RetryThenDegrade, 2) &
          failpointsSpec("journal.write=err(EIO)"),
      P->root());
  clearFailPoints();
  ASSERT_EQ(R.St, Outcome::Ok);
  EXPECT_EQ(R.IntValue, 42);
  // Budget 2 tolerated failures, the 3rd demoted: exactly 3 faults.
  ASSERT_EQ(R.DurabilityFaults.size(), 3u);
  EXPECT_FALSE(R.DurabilityFaults[0].Demoted);
  EXPECT_FALSE(R.DurabilityFaults[1].Demoted);
  EXPECT_TRUE(R.DurabilityFaults[2].Demoted);
}

TEST(DurabilityPolicy, CheckpointSinkFailuresDegradeOnAllBackends) {
  for (Backend B : {Backend::CEK, Backend::VM, Backend::VMRegister}) {
    auto P = ParsedProgram::parse(kLoopSrc);
    ASSERT_TRUE(P->ok());
    std::string Path = tempPath("fp_pol_cksink.journal");
    std::string Err;
    auto J = Journal::open(Path, Err);
    ASSERT_TRUE(J) << Err;
    CallProfiler Prof;
    RunResult R = evaluate(
        Prof & BackendTag{B} & journalInto(*J) & checkpointEveryNSteps(100) &
            onDurabilityFailure(OnDurabilityFailure::DegradeToBestEffort) &
            failpointsSpec("journal.sync=err(ENOSPC)"),
        P->root());
    clearFailPoints();
    ASSERT_EQ(R.St, Outcome::Ok) << R.Error;
    EXPECT_EQ(R.IntValue, 42);
    ASSERT_GE(R.DurabilityFaults.size(), 1u);
    EXPECT_EQ(R.DurabilityFaults[0].Site, "checkpoint");
    EXPECT_TRUE(R.DurabilityFaults[0].Demoted);
  }
}

TEST(DurabilityPolicy, ParseAndNameRoundTrip) {
  for (OnDurabilityFailure P :
       {OnDurabilityFailure::Abort, OnDurabilityFailure::DegradeToBestEffort,
        OnDurabilityFailure::RetryThenDegrade}) {
    OnDurabilityFailure Out;
    ASSERT_TRUE(parseDurabilityPolicy(durabilityPolicyName(P), Out));
    EXPECT_EQ(Out, P);
  }
  OnDurabilityFailure Out;
  EXPECT_FALSE(parseDurabilityPolicy("never", Out));
}

//===----------------------------------------------------------------------===//
// Crash-point enumeration: every byte-prefix truncation of a journal
//===----------------------------------------------------------------------===//

// Build a journal with >= 3 events and >= 2 checkpoints, then replay
// recovery against *every* prefix truncation. Invariants: recovery never
// returns a corrupt record, never drops a completed record, and reopening
// at any truncation point leaves an appendable journal.
TEST(CrashEnumeration, EveryPrefixTruncationRecoversTheValidPrefix) {
  std::string Path = tempPath("fp_enum.journal");
  std::string Err;
  Checkpoint CK = makeTestCheckpoint();
  // Interleave events and checkpoints; record the durable offset, the
  // expected state and the live file after each complete record. The
  // offset comes from the handle: while it is open the file also holds
  // the zero slack of its mapped window.
  struct Mark {
    size_t Bytes;          // durableBytes() after this record.
    uint64_t Events;       // Complete events so far.
    bool HasCheckpoint;    // A checkpoint record is fully on disk.
    std::vector<uint8_t> Live; // The file as a reader saw it then.
  };
  std::vector<Mark> Marks;
  {
    auto J = Journal::open(Path, Err);
    ASSERT_TRUE(J) << Err;
    uint64_t Events = 0;
    bool HasCK = false;
    auto Note = [&]() {
      Marks.push_back(Mark{static_cast<size_t>(J->durableBytes()), Events,
                           HasCK, readAll(Path)});
    };
    ASSERT_TRUE(J->appendEvent(1, "alpha"));
    ++Events;
    Note();
    ASSERT_TRUE(J->appendEvent(2, "beta"));
    ++Events;
    Note();
    ASSERT_TRUE(J->appendCheckpoint(CK.bytes()));
    HasCK = true;
    Note();
    ASSERT_TRUE(J->appendEvent(3, "gamma"));
    ++Events;
    Note();
    ASSERT_TRUE(J->appendCheckpoint(CK.bytes()));
    Note();
    ASSERT_TRUE(J->appendEvent(4, "delta"));
    ++Events;
    Note();
  }
  std::vector<uint8_t> Full = readAll(Path);
  ASSERT_EQ(Full.size(), Marks.back().Bytes);
  ASSERT_GE(Marks.back().Events, 3u);
  // While open, the file held exactly the records appended so far (a
  // prefix of the closed file), followed by nothing but zero slack.
  for (const Mark &M : Marks) {
    ASSERT_GE(M.Live.size(), M.Bytes) << "mark at " << M.Bytes;
    EXPECT_TRUE(std::equal(M.Live.begin(), M.Live.begin() + M.Bytes,
                           Full.begin()))
        << "mark at " << M.Bytes;
    EXPECT_TRUE(std::all_of(M.Live.begin() + M.Bytes, M.Live.end(),
                            [](uint8_t B) { return B == 0; }))
        << "mark at " << M.Bytes;
  }

  const Mark Empty{0, 0, false, {}};
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    std::vector<uint8_t> Prefix(Full.begin(), Full.begin() + Cut);
    writeAll(Path, Prefix);
    JournalRecovery R = recoverJournal(Path, /*TailLimit=*/16);
    ASSERT_TRUE(R.Opened) << "cut " << Cut;

    // The expected state is the last mark at or before the cut.
    const Mark *Want = &Empty;
    for (const Mark &M : Marks)
      if (M.Bytes <= Cut)
        Want = &M;
    EXPECT_EQ(R.TotalEvents, Want->Events) << "cut " << Cut;
    EXPECT_EQ(!R.LastCheckpoint.empty(), Want->HasCheckpoint)
        << "cut " << Cut;
    EXPECT_EQ(R.TornBytes, Cut - Want->Bytes) << "cut " << Cut;
    // No corrupt record text ever surfaces.
    for (const JournalEvent &E : R.Tail)
      EXPECT_TRUE(E.Text == "alpha" || E.Text == "beta" ||
                  E.Text == "gamma" || E.Text == "delta")
          << "cut " << Cut << " leaked '" << E.Text << "'";
    // A recovered checkpoint always verifies.
    if (!R.LastCheckpoint.empty()) {
      std::string CkErr;
      EXPECT_TRUE(Checkpoint::fromBytes(R.LastCheckpoint, CkErr).valid())
          << "cut " << Cut << ": " << CkErr;
    }

    // Reopening at this truncation point truncates the torn tail and
    // leaves an appendable journal.
    auto J = Journal::open(Path, Err);
    ASSERT_TRUE(J) << "cut " << Cut << ": " << Err;
    ASSERT_TRUE(J->appendEvent(99, "appended-after-crash"));
    J.reset();
    JournalRecovery After = recoverJournal(Path);
    EXPECT_EQ(After.TornBytes, 0u) << "cut " << Cut;
    EXPECT_EQ(After.TotalEvents, Want->Events + 1) << "cut " << Cut;
    EXPECT_EQ(After.Tail.back().Text, "appended-after-crash")
        << "cut " << Cut;
  }
}

//===----------------------------------------------------------------------===//
// FileSys wrappers
//===----------------------------------------------------------------------===//

TEST(FileSys, CloseReleasesTheStreamEvenOnInjectedError) {
  std::string Path = tempPath("fp_fs_close.bin");
  ScopedFailPoints FP("checkpoint.close=err(EIO)");
  // Exhaust-the-fd-table insurance: if closeFile leaked streams, a few
  // thousand iterations would start failing fopen long before this loop
  // ends.
  for (int I = 0; I < 2048; ++I) {
    std::FILE *F = FileSys::openFile(FailSite::CheckpointOpen, Path.c_str(),
                                     "wb");
    ASSERT_NE(F, nullptr) << "iteration " << I << " (fd leak?)";
    EXPECT_NE(FileSys::closeFile(FailSite::CheckpointClose, F), 0);
  }
}

TEST(FileSys, ShortWritePersistsExactlyTheRequestedBytes) {
  std::string Path = tempPath("fp_fs_short.bin");
  ScopedFailPoints FP("checkpoint.write=short(7)");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  const char Data[] = "0123456789abcdef";
  size_t W = FileSys::writeFile(FailSite::CheckpointWrite, F, Data, 16);
  EXPECT_LT(W, 16u);
  std::fclose(F);
  EXPECT_EQ(readAll(Path).size(), 7u);
}

TEST(FileSys, TruncateInjection) {
  std::string Path = tempPath("fp_fs_trunc.bin");
  writeAll(Path, {1, 2, 3, 4, 5});
  {
    ScopedFailPoints FP("journal.truncate=err(EIO)");
    EXPECT_NE(FileSys::truncatePath(FailSite::JournalTruncate, Path.c_str(),
                                    2),
              0);
    EXPECT_EQ(readAll(Path).size(), 5u);
  }
  EXPECT_EQ(FileSys::truncatePath(FailSite::JournalTruncate, Path.c_str(), 2),
            0);
  EXPECT_EQ(readAll(Path).size(), 2u);
}

} // namespace
