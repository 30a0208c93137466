//===- support/FailPoint.h - Deterministic fault injection ------*- C++ -*-===//
///
/// \file
/// A failpoint harness for the durable-I/O paths (support/Checkpoint.cpp,
/// support/Journal.cpp). Every host-I/O effect those files perform — open,
/// write, flush, fsync, close, rename, truncate, and the journal's copy of
/// a record into its file mapping — is routed through the `FileSys`
/// wrappers below, and each wrapper consults a process-global `FailPlan`
/// before touching the OS. A plan deterministically injects:
///
///   * errors   — the call fails with a chosen errno (ENOSPC, EIO, ...),
///   * short writes — only the first N bytes land, then the call fails,
///   * crashes  — the process `_exit`s mid-operation (optionally after
///                persisting N bytes of the record being written), which is
///                how the crash-point enumeration tests simulate power loss
///                at every byte boundary of a durable write.
///
/// Plans are parsed from a spec string (the `MONSEM_FAILPOINTS` environment
/// variable, the CLI's `--failpoints=`, RunOptions::FailPointSpec, or the
/// `failpointsSpec(...)` EvalMode combinator — all funnel into
/// installFailPoints()):
///
///   spec    := rule (';' rule)*
///   rule    := site '=' action selector*
///   site    := checkpoint.{open,write,flush,sync,close,rename,dirsync}
///            | journal.{open,truncate,write,flush,sync}
///            | socket.{accept,read,write}
///   action  := 'err' ['(' errno-name ')']     fail the call (default EIO)
///            | 'short' '(' N ')'              persist N bytes, then fail
///            | 'crash' ['(' N ')']            _exit(kFailPointCrashExit)
///                                             [after persisting N bytes]
///   selector:= '*' K       trigger on the first K hits, then disarm
///            | '@' N       skip the first N-1 hits, trigger from the Nth
///
/// e.g.  MONSEM_FAILPOINTS='journal.write=short(5)@3;checkpoint.sync=err(ENOSPC)*1'
///
/// Determinism: hit counters are per-site and per-process, so the same
/// spec against the same run injects at exactly the same operation every
/// time. The registry is process-global (like every failpoint library's)
/// because the I/O layer is reached from static entry points; tests use
/// ScopedFailPoints to install and restore around each case.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SUPPORT_FAILPOINT_H
#define MONSEM_SUPPORT_FAILPOINT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace monsem {

/// Exit status of a `crash` failpoint — the supervisor (and the subprocess
/// tests) distinguish an injected crash from a normal error exit by it.
/// 86 collides with no Outcome exit code (0..7) and no 128+signal status.
inline constexpr int kFailPointCrashExit = 86;

/// The enumerated injection sites. Keep failPointSiteName() and the parser
/// in FailPoint.cpp in sync when adding one.
enum class FailSite : uint8_t {
  CheckpointOpen,    ///< fopen of the checkpoint temp file.
  CheckpointWrite,   ///< fwrite of the framed checkpoint bytes.
  CheckpointFlush,   ///< fflush before fsync.
  CheckpointSync,    ///< fsync of the temp file before rename.
  CheckpointClose,   ///< fclose of the temp file.
  CheckpointRename,  ///< rename(temp, final).
  CheckpointDirSync, ///< fsync of the parent directory after rename.
  JournalOpen,       ///< open of the journal for appending.
  JournalTruncate,   ///< torn-tail truncation during Journal::open.
  JournalWrite,      ///< copy of one framed record into the file mapping.
  JournalFlush,      ///< post-copy check of a record append.
  JournalSync,       ///< msync + fsync of the journal (batched; see Journal).
  SocketAccept,      ///< accept() of a client connection (serve).
  SocketRead,        ///< read() from a client socket (serve transport).
  SocketWrite,       ///< write() to a client socket (serve transport).
};

inline constexpr unsigned kNumFailSites =
    static_cast<unsigned>(FailSite::SocketWrite) + 1;

const char *failPointSiteName(FailSite S);

/// What an armed failpoint tells the I/O wrapper to do.
struct FailAction {
  enum class Kind : uint8_t {
    None,  ///< Not armed (or selector not yet satisfied): do the real I/O.
    Error, ///< Fail the call with `Errno`.
    Short, ///< Persist only `Bytes` bytes, then fail with `Errno`.
    Crash, ///< Persist `Bytes` bytes (write sites), then _exit.
  };
  Kind K = Kind::None;
  int Errno = 0;       ///< EIO unless the spec names another.
  uint64_t Bytes = 0;  ///< Short/Crash: bytes to persist first.

  bool armed() const { return K != Kind::None; }
};

/// Installs \p Spec as the process-global failpoint plan, replacing any
/// previous plan and resetting all hit counters. An empty spec clears the
/// plan. Returns false and sets \p Err on a malformed spec.
bool installFailPoints(std::string_view Spec, std::string &Err);

/// Clears the plan: every site reverts to real I/O.
void clearFailPoints();

/// True when any failpoint is armed, or before the env plan has been
/// looked for. Cheap: the I/O wrappers check this first, so once the env
/// has been checked an unarmed process pays two atomic loads (plain loads
/// on x86) and no lock per operation.
bool failPointsArmed();

/// Consults (and advances the hit counter of) site \p S. Called by the
/// FileSys wrappers; tests may call it directly to assert selector
/// arithmetic. On the very first query of a process with no installed
/// plan, the MONSEM_FAILPOINTS environment variable is parsed and
/// installed (malformed env specs are ignored — the env path has nowhere
/// to report to; the CLI flag validates loudly).
FailAction failPointHit(FailSite S);

/// Total times \p S has been queried since the plan was installed
/// (diagnostics and tests).
uint64_t failPointHitCount(FailSite S);

/// RAII plan installation for tests: installs on construction (aborting
/// the test on a malformed spec is the caller's job — check ok()),
/// restores a clean registry on destruction.
class ScopedFailPoints {
public:
  explicit ScopedFailPoints(std::string_view Spec) {
    Ok = installFailPoints(Spec, Err);
  }
  ~ScopedFailPoints() { clearFailPoints(); }
  ScopedFailPoints(const ScopedFailPoints &) = delete;
  ScopedFailPoints &operator=(const ScopedFailPoints &) = delete;

  bool ok() const { return Ok; }
  const std::string &error() const { return Err; }

private:
  bool Ok = false;
  std::string Err;
};

//===----------------------------------------------------------------------===//
// FileSys: failpoint-aware wrappers over the host I/O calls
//===----------------------------------------------------------------------===//

/// The durable-I/O surface of the support layer. Every wrapper consults
/// the failpoint registry first and performs the real operation only when
/// the site is unarmed. Failed wrappers set errno like the real calls do.
namespace FileSys {

/// fopen with an injection site. Returns nullptr on (real or injected)
/// failure.
std::FILE *openFile(FailSite S, const char *Path, const char *Mode);

/// fwrite of \p Len bytes. Returns the number of bytes accepted; short
/// counts signal failure exactly as fwrite does. A `short(N)` injection
/// writes min(N, Len) real bytes (so torn-write tests produce genuine
/// partial records on disk); a `crash(N)` injection writes min(N, Len)
/// bytes, flushes them, and _exits.
size_t writeFile(FailSite S, std::FILE *F, const void *Data, size_t Len);

/// fflush. Returns 0 on success, EOF on failure.
int flushFile(FailSite S, std::FILE *F);

/// fsync(fileno(F)). Returns 0 on success, -1 on failure.
int syncFile(FailSite S, std::FILE *F);

/// fclose. Returns 0 on success, EOF on failure. The stream is closed
/// (and its descriptor released) even when an injected error is reported,
/// so callers never leak a FILE on the failure path.
int closeFile(FailSite S, std::FILE *F);

/// rename(From, To). Returns 0 on success, -1 on failure.
int renameFile(FailSite S, const char *From, const char *To);

/// fsync of the directory containing \p Path — the second half of the
/// atomic-rename discipline: the rename itself is durable only once the
/// parent directory's entry array is. Returns 0 on success, -1 on failure.
int syncParentDir(FailSite S, const char *Path);

/// truncate(Path, Len). Returns 0 on success, -1 on failure.
int truncatePath(FailSite S, const char *Path, uint64_t Len);

/// open(2) of \p Path with \p Flags (mode 0666 when creating). Returns the
/// descriptor, or -1 on (real or injected) failure.
int openFd(FailSite S, const char *Path, int Flags);

/// memcpy of \p Len bytes into a shared writable file mapping: the write
/// of the mapped journal. The copied bytes are in the page cache once this
/// returns, so they survive the process exactly as a flushed write(2)
/// does. Returns the number of bytes copied; a short count signals
/// failure. `short(N)` copies min(N, Len) real bytes, then fails;
/// `crash(N)` copies them, then _exits.
size_t copyToMapping(FailSite S, void *Dst, const void *Src, size_t Len);

/// The flush step of a mapped append. A completed copy has nothing left to
/// push to the OS, so this performs no I/O; it only lets a plan fail the
/// append after its bytes landed (`err`/`short` return -1 with errno set)
/// or crash there. Returns 0 otherwise.
int flushMapping(FailSite S);

/// msync(MS_SYNC) of the \p Len mapped bytes at \p Addr (none when
/// \p Len is 0), then fsync(\p Fd). Returns 0 on success, -1 on failure.
int syncMapping(FailSite S, int Fd, void *Addr, size_t Len);

} // namespace FileSys

} // namespace monsem

#endif // MONSEM_SUPPORT_FAILPOINT_H
