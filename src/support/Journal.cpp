//===- support/Journal.cpp ------------------------------------------------===//

#include "support/Journal.h"

#include "support/Checkpoint.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

using namespace monsem;

namespace {
constexpr uint8_t kEventRecord = 1;
constexpr uint8_t kCheckpointRecord = 2;

uint64_t pageSize() {
  static const uint64_t Page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return Page;
}

std::string errnoText(int E) {
  return E ? std::string(std::strerror(E)) : std::string("I/O error");
}

/// Walks \p Bytes record by record, stopping at the first torn or corrupt
/// frame — or at zero slack, which never checksums as a frame. Returns the
/// byte length of the intact prefix; when \p R is non-null, also fills in
/// the recovery view (tail events, last checkpoint).
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
  // Tail recovery before the first append: a crash mid-record leaves a
  // partial frame at the end of the file, and anything appended behind it
  // would be unreachable to recovery (the scan stops at the bad frame). A
  // handle that never closed leaves zero slack there instead. Chop either
  // back to the last intact record boundary first.
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
  int Fd = FileSys::openFd(FailSite::JournalOpen, Path.c_str(),
                           O_RDWR | O_CREAT | O_CLOEXEC);
  if (Fd < 0) {
    Err = "cannot open journal file '" + Path +
          "' for appending: " + errnoText(errno);
    return nullptr;
  }
  return std::unique_ptr<Journal>(new Journal(Fd, Path, Opts, ValidPrefix));
}

Journal::~Journal() {
  unmap();
  // A clean close leaves exactly the records: the reserved slack goes.
  if (ReservedBytes > DurableBytes &&
      ::ftruncate(Fd, static_cast<off_t>(DurableBytes)) != 0) {
    // Only the slack stays, which recovery skips and the next open()
    // removes; no record is lost.
  }
  ::close(Fd);
}

void Journal::unmap() {
  if (Win)
    ::munmap(Win, WinLen);
  Win = nullptr;
}

/// Makes [DurableBytes, DurableBytes + Len) writable through Win, sliding
/// the window forward when the frame does not fit in it: the new window
/// starts at the page holding DurableBytes and spans WindowBytes, or the
/// whole frame if that is larger. Its blocks are reserved before it is
/// mapped, so a full disk (or a file-size limit) fails here with an errno
/// in \p Errno rather than raising SIGBUS on a store.
bool Journal::mapFor(size_t Len, int &Errno) {
  if (Win && DurableBytes + Len <= WinOff + WinLen)
    return true;
  unmap();
  const uint64_t Page = pageSize();
  uint64_t Off = DurableBytes / Page * Page;
  uint64_t Need = DurableBytes - Off + Len;
  uint64_t MapLen = std::max<uint64_t>(WindowBytes,
                                       (Need + Page - 1) / Page * Page);
  if (Off + MapLen > ReservedBytes) {
    int Rc = ::posix_fallocate(Fd, static_cast<off_t>(ReservedBytes),
                               static_cast<off_t>(Off + MapLen -
                                                  ReservedBytes));
    if (Rc != 0) {
      Errno = Rc;
      return false;
    }
    ReservedBytes = Off + MapLen;
  }
  void *P = ::mmap(nullptr, MapLen, PROT_READ | PROT_WRITE, MAP_SHARED, Fd,
                   static_cast<off_t>(Off));
  if (P == MAP_FAILED) {
    Errno = errno;
    return false;
  }
  Win = static_cast<uint8_t *>(P);
  WinOff = Off;
  WinLen = MapLen;
  return true;
}

/// One attempt at persisting a framed record: copy it into the mapping at
/// DurableBytes, then the flush step. On failure \p Errno holds the saved
/// errno (the caller classifies transient vs. persistent).
bool Journal::writeFrame(int &Errno) {
  const std::vector<uint8_t> &Bytes = Frame.bytes();
  if (!mapFor(Bytes.size(), Errno))
    return false;
  errno = 0;
  if (FileSys::copyToMapping(FailSite::JournalWrite,
                             Win + (DurableBytes - WinOff), Bytes.data(),
                             Bytes.size()) != Bytes.size()) {
    Errno = errno;
    return false;
  }
  errno = 0;
  if (FileSys::flushMapping(FailSite::JournalFlush) != 0) {
    Errno = errno;
    return false;
  }
  return true;
}

/// Re-establishes the record-boundary invariant after a failed attempt:
/// whatever part of the frame reached the mapping is zeroed again, so the
/// records are followed only by zero slack. This cannot fail: a mapped
/// window always covers the whole frame, and its blocks are reserved.
void Journal::restoreTail() {
  if (Win)
    std::memset(Win + (DurableBytes - WinOff), 0, Frame.size());
}

/// msync of the window's bytes written since the last sync (pages of
/// earlier windows are covered by the fsync), then fsync.
bool Journal::sync() {
  void *Addr = nullptr;
  size_t Len = 0;
  if (Win) {
    const uint64_t Page = pageSize();
    uint64_t From = std::max(WinOff, SyncedBytes / Page * Page);
    if (DurableBytes > From) {
      Addr = Win + (From - WinOff);
      Len = static_cast<size_t>(DurableBytes - From);
    }
  }
  errno = 0;
  if (FileSys::syncMapping(FailSite::JournalSync, Fd, Addr, Len) != 0)
    return false;
  SyncedBytes = DurableBytes;
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
  // The checksum covers the whole frame so a record with a corrupted
  // header is rejected too.
  Frame.writeU64(fnv1aHash(Frame.bytes().data(), Frame.size()));

  for (unsigned Attempt = 0;; ++Attempt) {
    int Errno = 0;
    if (writeFrame(Errno)) {
      DurableBytes += Frame.size();
      break;
    }
    restoreTail();
    std::string Msg = "journal append to '" + Path +
                      "' failed: " + errnoText(Errno);
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
    if (!sync()) {
      // The record reached the OS (it is in the page cache) but its
      // on-disk durability is not guaranteed; report the append as failed
      // so the policy layer can decide. The boundary invariant is intact.
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
  bool Slack = std::all_of(Bytes.begin() + static_cast<ptrdiff_t>(Pos),
                           Bytes.end(), [](uint8_t B) { return B == 0; });
  R.TornBytes = Slack ? 0 : Bytes.size() - Pos;
  return R;
}
