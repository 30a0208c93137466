//===- support/Journal.cpp ------------------------------------------------===//

#include "support/Journal.h"

#include "support/Checkpoint.h"
#include "support/FailPoint.h"

#include <cerrno>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

using namespace monsem;

namespace {
constexpr uint8_t kEventRecord = 1;
constexpr uint8_t kCheckpointRecord = 2;

std::string errnoText(int E) {
  return E ? std::string(std::strerror(E)) : std::string("I/O error");
}

/// Walks \p Bytes record by record, stopping at the first torn or corrupt
/// frame. Returns the byte length of the intact prefix; when \p R is
/// non-null, also fills in the recovery view (tail events, last
/// checkpoint).
size_t scanJournalBytes(const std::vector<uint8_t> &Bytes, JournalRecovery *R,
                        size_t TailLimit) {
  size_t Pos = 0;
  while (Bytes.size() - Pos >= 1 + 4 + 8) {
    Deserializer D(Bytes.data() + Pos, Bytes.size() - Pos);
    uint8_t Type = D.readU8();
    uint32_t Len = D.readU32();
    if (D.remaining() < static_cast<size_t>(Len) + 8)
      break; // torn tail: record body never made it to disk
    size_t FrameLen = 1 + 4 + Len;
    uint64_t Want = fnv1aHash(Bytes.data() + Pos, FrameLen);
    Deserializer T(Bytes.data() + Pos + FrameLen, 8);
    if (T.readU64() != Want)
      break; // corrupt record: stop trusting the file here
    if (R) {
      Deserializer P(Bytes.data() + Pos + 1 + 4, Len);
      if (Type == kEventRecord) {
        JournalEvent E;
        E.Step = P.readU64();
        E.Text = P.readString();
        if (P.ok()) {
          ++R->TotalEvents;
          ++R->EventsSinceCheckpoint;
          R->Tail.push_back(std::move(E));
          if (R->Tail.size() > TailLimit)
            R->Tail.erase(R->Tail.begin());
        }
      } else if (Type == kCheckpointRecord) {
        R->LastCheckpoint.assign(Bytes.data() + Pos + 1 + 4,
                                 Bytes.data() + Pos + 1 + 4 + Len);
        R->EventsSinceCheckpoint = 0;
      }
      // Unknown record types are skipped (forward compatibility).
    }
    Pos += FrameLen + 8;
  }
  return Pos;
}

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return true;
}
} // namespace

std::unique_ptr<Journal> Journal::open(const std::string &Path,
                                       std::string &Err, JournalOptions Opts) {
  // Torn-tail recovery before the first append: a crash mid-record leaves
  // a partial frame at the end of the file, and anything appended behind
  // it would be unreachable to recovery (the scan stops at the bad frame).
  // Chop the tail back to the last intact record boundary first.
  std::vector<uint8_t> Bytes;
  uint64_t ValidPrefix = 0;
  if (readWholeFile(Path, Bytes)) {
    ValidPrefix = scanJournalBytes(Bytes, nullptr, 0);
    if (ValidPrefix < Bytes.size()) {
      errno = 0;
      if (FileSys::truncatePath(FailSite::JournalTruncate, Path.c_str(),
                                ValidPrefix) != 0) {
        Err = "cannot truncate torn tail of journal '" + Path +
              "': " + errnoText(errno);
        return nullptr;
      }
    }
  }
  errno = 0;
  std::FILE *F = FileSys::openFile(FailSite::JournalOpen, Path.c_str(), "ab");
  if (!F) {
    Err = "cannot open journal file '" + Path +
          "' for appending: " + errnoText(errno);
    return nullptr;
  }
  return std::unique_ptr<Journal>(new Journal(F, Path, Opts, ValidPrefix));
}

Journal::~Journal() {
  if (F)
    std::fclose(F);
}

/// One attempt at persisting a framed record: write + flush, with the
/// stream error state checked. On failure \p Errno holds the saved errno
/// (the caller classifies transient vs. persistent).
bool Journal::writeFrame(int &Errno) {
  const std::vector<uint8_t> &Bytes = Frame.bytes();
  errno = 0;
  size_t W = FileSys::writeFile(FailSite::JournalWrite, F, Bytes.data(),
                                Bytes.size());
  if (W != Bytes.size()) {
    Errno = errno;
    return false;
  }
  errno = 0;
  if (FileSys::flushFile(FailSite::JournalFlush, F) != 0 || std::ferror(F)) {
    Errno = errno;
    return false;
  }
  return true;
}

/// Re-establishes the record-boundary invariant after a failed attempt:
/// any partially written frame is truncated back to the last durable
/// offset. False (and poisons the handle) if even that fails — the file
/// may then end mid-record, and further appends must not run.
bool Journal::restoreTail() {
  std::clearerr(F);
  std::fflush(F); // best effort: push buffered partial bytes so ftruncate
                  // sees (and removes) them
  std::clearerr(F);
  if (::ftruncate(fileno(F), static_cast<off_t>(DurableBytes)) != 0) {
    Poisoned = true;
    return false;
  }
  // Mode "ab" positions every write at the (new) end of file, so no seek
  // is needed; clear any lingering stream error so the next attempt is
  // judged on its own I/O.
  std::clearerr(F);
  return true;
}

/// Starts the record in Frame: type + len; the caller writes the payload.
void Journal::beginFrame(uint8_t Type, size_t PayloadLen) {
  Frame.clear();
  Frame.writeU8(Type);
  Frame.writeU32(static_cast<uint32_t>(PayloadLen));
}

/// Seals the record in Frame with its checksum and persists it.
bool Journal::appendFrame(bool IsCheckpoint) {
  if (Poisoned)
    return false;
  // The checksum covers the whole frame so a record with a corrupted
  // header is rejected too.
  Frame.writeU64(fnv1aHash(Frame.bytes().data(), Frame.size()));

  for (unsigned Attempt = 0;; ++Attempt) {
    int Errno = 0;
    if (writeFrame(Errno)) {
      DurableBytes += Frame.size();
      break;
    }
    std::string Msg = "journal append to '" + Path +
                      "' failed: " + errnoText(Errno);
    if (!restoreTail()) {
      setError(Msg + " (and tail restoration failed; journal poisoned)");
      return false;
    }
    bool Transient = Errno == EINTR || Errno == EAGAIN;
    if (!Transient || Attempt >= Opts.MaxRetries) {
      setError(std::move(Msg));
      return false;
    }
    ::usleep(static_cast<useconds_t>(Opts.RetryBackoffUs) << Attempt);
  }

  // Batched fsync: checkpoints always (when configured), events every Nth.
  bool WantSync = IsCheckpoint
                      ? Opts.SyncOnCheckpoint
                      : Opts.SyncEveryEvents != 0 &&
                            ++EventsSinceSync >= Opts.SyncEveryEvents;
  if (WantSync) {
    EventsSinceSync = 0;
    errno = 0;
    if (FileSys::syncFile(FailSite::JournalSync, F) != 0) {
      // The record reached the OS (flush succeeded) but its on-disk
      // durability is not guaranteed; report the append as failed so the
      // policy layer can decide. The boundary invariant is intact.
      setError("journal fsync of '" + Path + "' failed: " + errnoText(errno));
      return false;
    }
  }
  return true;
}

bool Journal::appendEvent(uint64_t Step, std::string_view Text) {
  // Payload: u64 step + length-prefixed text.
  beginFrame(kEventRecord, 8 + 4 + Text.size());
  Frame.writeU64(Step);
  Frame.writeString(Text);
  return appendFrame(/*IsCheckpoint=*/false);
}

bool Journal::appendCheckpoint(const std::vector<uint8_t> &CheckpointBytes) {
  beginFrame(kCheckpointRecord, CheckpointBytes.size());
  Frame.writeBytes(CheckpointBytes.data(), CheckpointBytes.size());
  return appendFrame(/*IsCheckpoint=*/true);
}

JournalRecovery monsem::recoverJournal(const std::string &Path,
                                       size_t TailLimit) {
  JournalRecovery R;
  std::vector<uint8_t> Bytes;
  if (!readWholeFile(Path, Bytes))
    return R;
  R.Opened = true;
  size_t Pos = scanJournalBytes(Bytes, &R, TailLimit);
  R.TornBytes = Bytes.size() - Pos;
  return R;
}
