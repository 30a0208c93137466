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
/// Storage: the handle appends through a shared writable mapping of the
/// file. Space is reserved with posix_fallocate before a window is mapped
/// (so a full disk is an append error, never a SIGBUS), and the window is
/// a bounded, page-aligned range that slides forward with the appends, so
/// resident memory does not grow with the journal. While the handle is
/// open the file therefore ends in zero *slack* after the last record; a
/// clean close unmaps and truncates it away, leaving exactly the records.
///
/// Invariants (see DESIGN.md §5d "Durability and failure model"):
///  - Records are only ever appended; nothing in a valid prefix is mutated.
///  - Each record is copied into the shared mapping before
///    appendEvent/appendCheckpoint returns true, so it is in the page cache
///    and survives the death of the process exactly as a flushed write
///    would: the journal is durable (to the OS) up to the last completed
///    record. Checkpoints are additionally msync'd and fsync'd (batched per
///    JournalOptions), so they survive power loss, not just process death.
///  - open() runs tail recovery first: a trailing partial record left by a
///    crash, or the zero slack left by a handle that never closed, is
///    truncated away before the first append, so post-crash records land
///    on a record boundary and stay recoverable.
///  - A failed append restores the boundary invariant (the partial frame is
///    zeroed in the mapping, back to the last durable offset) before
///    returning false, so a retried or later append never hides behind
///    torn bytes.
///  - Transient errors (EINTR/EAGAIN) are retried with exponential backoff
///    up to MaxRetries before a failure is reported; the first failure
///    message is sticky (error()).
///  - Recovery scans from the start and stops at the first record whose
///    frame or checksum is invalid. An all-zero remainder that starts at a
///    record boundary is slack, not damage (no valid frame is all zeros:
///    the checksum of a zero header is non-zero); anything else is a torn
///    tail, reported and not trusted. Everything before it is usable: a
///    crash can lose at most the record being written.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SUPPORT_JOURNAL_H
#define MONSEM_SUPPORT_JOURNAL_H

#include "support/Checkpoint.h"

#include <cstdint>
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

/// Durability knobs for a journal handle. Every record always reaches the
/// page cache before its append returns; fsync is batched so the per-event
/// cost stays amortized (the checkpoint-overhead CI gate holds with the
/// defaults).
struct JournalOptions {
  /// fsync after every Nth event record; 0 = never fsync for plain events
  /// (they reach the OS, which is the pre-hardening behavior).
  unsigned SyncEveryEvents = 0;
  /// fsync after every checkpoint record (rare, so always affordable).
  bool SyncOnCheckpoint = true;
  /// Bounded retry for transient append errors (EINTR/EAGAIN).
  unsigned MaxRetries = 4;
  /// Backoff before retry attempt k is RetryBackoffUs << k microseconds.
  unsigned RetryBackoffUs = 100;
};

/// Append handle on a journal file. Create with Journal::open; every append
/// is framed, checksummed and copied into the file mapping individually.
class Journal {
public:
  /// Opens \p Path for appending (creating it if absent). Any torn trailing
  /// record or zero slack from a previous crash is truncated away first.
  /// Returns nullptr and sets \p Err on I/O failure.
  static std::unique_ptr<Journal> open(const std::string &Path,
                                       std::string &Err,
                                       JournalOptions Opts = {});
  ~Journal();
  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  /// Append one record; false on failure (see error()). After a failed
  /// append the records still end on a record boundary followed only by
  /// zero slack, so appending again is safe.
  bool appendEvent(uint64_t Step, std::string_view Text);
  bool appendCheckpoint(const std::vector<uint8_t> &CheckpointBytes);

  /// Offset just past the last intact record: the size the file has once
  /// the handle closes. While open, the file may be longer (zero slack).
  uint64_t durableBytes() const { return DurableBytes; }

  /// Bytes mapped (and reserved on disk) at a time; a record larger than
  /// this gets a window of its own size. Small enough that the window's
  /// touched pages add little to resident memory, large enough that
  /// sliding it (munmap, posix_fallocate, mmap) is rare next to appends.
  static constexpr uint64_t WindowBytes = 256 << 10;

  /// True once any append has failed.
  bool failed() const { return !FirstError.empty(); }
  /// The first failure's message (sticky; empty while healthy).
  const std::string &error() const { return FirstError; }

  const std::string &path() const { return Path; }

private:
  Journal(int Fd, std::string Path, JournalOptions Opts,
          uint64_t DurableBytes)
      : Fd(Fd), Path(std::move(Path)), Opts(Opts), DurableBytes(DurableBytes),
        SyncedBytes(DurableBytes), ReservedBytes(DurableBytes) {}
  void beginFrame(uint8_t Type, size_t PayloadLen);
  bool appendFrame(bool IsCheckpoint);
  bool mapFor(size_t Len, int &Errno);
  void unmap();
  bool writeFrame(int &Errno);
  void restoreTail();
  bool sync();
  void setError(std::string Msg) {
    if (FirstError.empty())
      FirstError = std::move(Msg);
  }

  int Fd;
  std::string Path;
  JournalOptions Opts;
  uint64_t DurableBytes;       ///< Offset just past the last intact record.
  uint64_t SyncedBytes;        ///< DurableBytes at the last successful sync.
  uint64_t ReservedBytes;      ///< File size: end of the fallocated space.
  uint8_t *Win = nullptr;      ///< The mapped window, or null.
  uint64_t WinOff = 0;         ///< File offset of Win[0] (page-aligned).
  size_t WinLen = 0;
  unsigned EventsSinceSync = 0;
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
  /// Trailing bytes of an incomplete record; zero slack does not count.
  uint64_t TornBytes = 0;
};

JournalRecovery recoverJournal(const std::string &Path, size_t TailLimit = 16);

} // namespace monsem

#endif // MONSEM_SUPPORT_JOURNAL_H
