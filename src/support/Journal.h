//===- support/Journal.h - Crash-safe run journal ---------------*- C++ -*-===//
///
/// \file
/// An append-only on-disk journal of probe events and periodic checkpoints,
/// so a run that crashes (or is killed) leaves behind (a) a FlightRecorder-
/// style tail of the last monitor events and (b) the last durable
/// checkpoint to resume from.
///
/// Record framing (little-endian):
///
///   [u8 type] [u32 len] [len payload bytes] [u64 FNV-1a of type+len+payload]
///
/// Types: 1 = event (u64 step + string text), 2 = checkpoint (the framed
/// Checkpoint bytes, themselves internally checksummed).
///
/// Invariants (see DESIGN.md §5d "Durability and failure model"):
///  - Records are only ever appended; nothing in a valid prefix is mutated.
///  - Each append is written and flushed before appendEvent/appendCheckpoint
///    returns true, so the journal is durable (to the OS) up to the last
///    completed record; checkpoints are additionally fsync'd (batched per
///    JournalOptions), so they survive power loss, not just process death.
///  - open() runs torn-tail recovery first: a trailing partial record left
///    by a crash is truncated away before the first append, so post-crash
///    records land on a record boundary and stay recoverable.
///  - A failed append restores the boundary invariant (the partial frame is
///    chopped back to the last durable offset) before returning false, so a
///    retried or later append never hides behind torn bytes.
///  - Transient errors (EINTR/EAGAIN) are retried with exponential backoff
///    up to MaxRetries before a failure is reported; the first failure
///    message is sticky (error()).
///  - Recovery scans from the start and stops at the first record whose
///    frame or checksum is invalid; the torn tail is reported, not trusted.
///    Everything before it is usable: a crash can lose at most the record
///    being written.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SUPPORT_JOURNAL_H
#define MONSEM_SUPPORT_JOURNAL_H

#include "support/Checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace monsem {

/// One monitor-probe event as recorded in (and recovered from) a journal.
struct JournalEvent {
  uint64_t Step = 0;
  std::string Text;
};

/// Durability knobs for a journal handle. Every record is always fwritten
/// and fflushed; fsync is batched so the per-event cost stays amortized
/// (the checkpoint-overhead CI gate holds with the defaults).
struct JournalOptions {
  /// fsync after every Nth event record; 0 = never fsync for plain events
  /// (they are flushed to the OS, which is the pre-hardening behavior).
  unsigned SyncEveryEvents = 0;
  /// fsync after every checkpoint record (rare, so always affordable).
  bool SyncOnCheckpoint = true;
  /// Bounded retry for transient append errors (EINTR/EAGAIN).
  unsigned MaxRetries = 4;
  /// Backoff before retry attempt k is RetryBackoffUs << k microseconds.
  unsigned RetryBackoffUs = 100;
};

/// Append handle on a journal file. Create with Journal::open; every append
/// is framed, checksummed and flushed individually.
class Journal {
public:
  /// Opens \p Path for appending (creating it if absent). Any torn trailing
  /// record from a previous crash is truncated away first. Returns nullptr
  /// and sets \p Err on I/O failure.
  static std::unique_ptr<Journal> open(const std::string &Path,
                                       std::string &Err,
                                       JournalOptions Opts = {});
  ~Journal();
  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  /// Append one record; false on failure (see error()). After a failed
  /// append the file still ends on a record boundary, so appending again
  /// is safe — unless the journal is poisoned (boundary restoration itself
  /// failed), in which case every further append refuses immediately.
  bool appendEvent(uint64_t Step, std::string_view Text);
  bool appendCheckpoint(const std::vector<uint8_t> &CheckpointBytes);

  /// True once any append has failed.
  bool failed() const { return !FirstError.empty(); }
  /// The first failure's message (sticky; empty while healthy).
  const std::string &error() const { return FirstError; }

  const std::string &path() const { return Path; }

private:
  Journal(std::FILE *F, std::string Path, JournalOptions Opts,
          uint64_t DurableBytes)
      : F(F), Path(std::move(Path)), Opts(Opts), DurableBytes(DurableBytes) {}
  void beginFrame(uint8_t Type, size_t PayloadLen);
  bool appendFrame(bool IsCheckpoint);
  bool writeFrame(int &Errno);
  bool restoreTail();
  void setError(std::string Msg) {
    if (FirstError.empty())
      FirstError = std::move(Msg);
  }

  std::FILE *F;
  std::string Path;
  JournalOptions Opts;
  uint64_t DurableBytes;       ///< Offset just past the last intact record.
  unsigned EventsSinceSync = 0;
  bool Poisoned = false;       ///< Boundary restoration failed; refuse I/O.
  std::string FirstError;
  Serializer Frame; ///< The record being appended; reused across appends.
};

/// What recovery found in a journal file. `LastCheckpoint` holds the framed
/// bytes of the most recent durable checkpoint (feed to
/// Checkpoint::fromBytes); `Tail` holds the last `TailLimit` events *after*
/// discarding any torn trailing record.
struct JournalRecovery {
  bool Opened = false; ///< File existed and was readable.
  std::vector<JournalEvent> Tail;
  uint64_t TotalEvents = 0;
  std::vector<uint8_t> LastCheckpoint;
  uint64_t EventsSinceCheckpoint = 0;
  uint64_t TornBytes = 0; ///< Trailing bytes of an incomplete record.
};

JournalRecovery recoverJournal(const std::string &Path, size_t TailLimit = 16);

} // namespace monsem

#endif // MONSEM_SUPPORT_JOURNAL_H
