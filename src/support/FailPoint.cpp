//===- support/FailPoint.cpp ----------------------------------------------===//

#include "support/FailPoint.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include <fcntl.h>
#include <libgen.h>
#include <sys/mman.h>
#include <unistd.h>

using namespace monsem;

const char *monsem::failPointSiteName(FailSite S) {
  switch (S) {
  case FailSite::CheckpointOpen:
    return "checkpoint.open";
  case FailSite::CheckpointWrite:
    return "checkpoint.write";
  case FailSite::CheckpointFlush:
    return "checkpoint.flush";
  case FailSite::CheckpointSync:
    return "checkpoint.sync";
  case FailSite::CheckpointClose:
    return "checkpoint.close";
  case FailSite::CheckpointRename:
    return "checkpoint.rename";
  case FailSite::CheckpointDirSync:
    return "checkpoint.dirsync";
  case FailSite::JournalOpen:
    return "journal.open";
  case FailSite::JournalTruncate:
    return "journal.truncate";
  case FailSite::JournalWrite:
    return "journal.write";
  case FailSite::JournalFlush:
    return "journal.flush";
  case FailSite::JournalSync:
    return "journal.sync";
  case FailSite::SocketAccept:
    return "socket.accept";
  case FailSite::SocketRead:
    return "socket.read";
  case FailSite::SocketWrite:
    return "socket.write";
  }
  return "?";
}

namespace {

/// One parsed rule plus its live trigger state.
struct FailRule {
  FailAction Action;     ///< What to do when the selectors say "now".
  uint64_t FromHit = 1;  ///< '@N': first hit (1-based) that triggers.
  uint64_t Times = UINT64_MAX; ///< '*K': triggers remaining before disarm.
  uint64_t Hits = 0;     ///< Queries seen at this site.
};

struct Registry {
  std::mutex M;
  bool HaveRule[kNumFailSites] = {};
  FailRule Rules[kNumFailSites];
  uint64_t Hits[kNumFailSites] = {};
};

Registry &registry() {
  static Registry R;
  return R;
}

/// Cheap armed flag outside the mutex: the I/O wrappers check this (after
/// GEnvChecked) before taking the lock, so runs with no plan take no lock.
std::atomic<bool> GArmed{false};

/// Whether the MONSEM_FAILPOINTS env plan has been looked for (or an
/// explicit install made it moot). Written under the registry mutex with
/// release, after the plan it found is installed, so a reader that
/// acquires `true` also sees that plan's GArmed; read without the lock.
std::atomic<bool> GEnvChecked{false};

int errnoByName(std::string_view Name) {
  struct Entry {
    const char *Name;
    int Value;
  };
  static constexpr Entry Table[] = {
      {"ENOSPC", ENOSPC}, {"EIO", EIO},       {"EDQUOT", EDQUOT},
      {"EINTR", EINTR},   {"EAGAIN", EAGAIN}, {"EACCES", EACCES},
      {"EROFS", EROFS},   {"EMFILE", EMFILE}, {"ENOENT", ENOENT},
      {"EFBIG", EFBIG},
  };
  for (const Entry &E : Table)
    if (Name == E.Name)
      return E.Value;
  return -1;
}

bool parseSite(std::string_view Name, FailSite &Out) {
  for (unsigned I = 0; I < kNumFailSites; ++I) {
    if (Name == failPointSiteName(static_cast<FailSite>(I))) {
      Out = static_cast<FailSite>(I);
      return true;
    }
  }
  return false;
}

bool parseU64(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Out = V;
  return true;
}

/// Parses one `site=action[selector...]` rule into \p Site / \p Rule.
bool parseRule(std::string_view Rule, FailSite &Site, FailRule &Out,
               std::string &Err) {
  size_t Eq = Rule.find('=');
  if (Eq == std::string_view::npos) {
    Err = "failpoint rule '" + std::string(Rule) + "' has no '='";
    return false;
  }
  if (!parseSite(Rule.substr(0, Eq), Site)) {
    Err = "unknown failpoint site '" + std::string(Rule.substr(0, Eq)) + "'";
    return false;
  }
  std::string_view Rest = Rule.substr(Eq + 1);

  // Split trailing selectors ('*K', '@N') off the action.
  Out = FailRule();
  while (!Rest.empty()) {
    size_t Sel = Rest.find_last_of("*@");
    // A '(' after the candidate selector means it is inside the action's
    // parentheses — no selectors remain.
    if (Sel == std::string_view::npos ||
        Rest.find('(', Sel) != std::string_view::npos)
      break;
    uint64_t N = 0;
    if (!parseU64(Rest.substr(Sel + 1), N) || N == 0) {
      Err = "bad failpoint selector in '" + std::string(Rule) + "'";
      return false;
    }
    if (Rest[Sel] == '*')
      Out.Times = N;
    else
      Out.FromHit = N;
    Rest = Rest.substr(0, Sel);
  }

  // The action proper: name, optional parenthesized argument.
  std::string_view Name = Rest;
  std::string_view Arg;
  size_t Paren = Rest.find('(');
  if (Paren != std::string_view::npos) {
    if (Rest.back() != ')') {
      Err = "unbalanced '(' in failpoint rule '" + std::string(Rule) + "'";
      return false;
    }
    Name = Rest.substr(0, Paren);
    Arg = Rest.substr(Paren + 1, Rest.size() - Paren - 2);
  }

  FailAction &A = Out.Action;
  A.Errno = EIO;
  if (Name == "err") {
    A.K = FailAction::Kind::Error;
    if (!Arg.empty()) {
      int E = errnoByName(Arg);
      if (E < 0) {
        Err = "unknown errno name '" + std::string(Arg) + "'";
        return false;
      }
      A.Errno = E;
    }
  } else if (Name == "short") {
    A.K = FailAction::Kind::Short;
    if (!parseU64(Arg, A.Bytes)) {
      Err = "short(...) needs a byte count in '" + std::string(Rule) + "'";
      return false;
    }
  } else if (Name == "crash") {
    A.K = FailAction::Kind::Crash;
    if (!Arg.empty() && !parseU64(Arg, A.Bytes)) {
      Err = "crash(...) takes a byte count in '" + std::string(Rule) + "'";
      return false;
    }
  } else {
    Err = "unknown failpoint action '" + std::string(Name) + "'";
    return false;
  }
  return true;
}

bool installLocked(Registry &R, std::string_view Spec, std::string &Err) {
  bool HaveRule[kNumFailSites] = {};
  FailRule Rules[kNumFailSites];
  std::string_view Rest = Spec;
  while (!Rest.empty()) {
    size_t Semi = Rest.find(';');
    std::string_view One =
        Semi == std::string_view::npos ? Rest : Rest.substr(0, Semi);
    Rest = Semi == std::string_view::npos ? std::string_view()
                                          : Rest.substr(Semi + 1);
    if (One.empty())
      continue;
    FailSite Site;
    FailRule Rule;
    if (!parseRule(One, Site, Rule, Err))
      return false;
    HaveRule[static_cast<unsigned>(Site)] = true;
    Rules[static_cast<unsigned>(Site)] = Rule;
  }
  bool Any = false;
  for (unsigned I = 0; I < kNumFailSites; ++I) {
    R.HaveRule[I] = HaveRule[I];
    R.Rules[I] = Rules[I];
    R.Hits[I] = 0;
    Any = Any || HaveRule[I];
  }
  GArmed.store(Any, std::memory_order_relaxed);
  return true;
}

} // namespace

bool monsem::installFailPoints(std::string_view Spec, std::string &Err) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  bool Ok = installLocked(R, Spec, Err);
  // An explicit install overrides the env.
  GEnvChecked.store(true, std::memory_order_release);
  return Ok;
}

void monsem::clearFailPoints() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  std::string Err;
  installLocked(R, {}, Err);
  GEnvChecked.store(true, std::memory_order_release);
}

bool monsem::failPointsArmed() {
  // The env plan is only discovered on the first hit; report armed until
  // we know either way so wrappers do take the slow path once.
  if (!GEnvChecked.load(std::memory_order_acquire))
    return true;
  return GArmed.load(std::memory_order_relaxed);
}

FailAction monsem::failPointHit(FailSite S) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  if (!GEnvChecked.load(std::memory_order_relaxed)) {
    if (const char *Env = std::getenv("MONSEM_FAILPOINTS")) {
      std::string Err;
      // The env path has no channel to report to; a malformed spec is
      // dropped (the CLI flag is the validating entry point).
      (void)installLocked(R, Env, Err);
    }
    GEnvChecked.store(true, std::memory_order_release);
  }
  unsigned I = static_cast<unsigned>(S);
  ++R.Hits[I];
  if (!R.HaveRule[I])
    return FailAction();
  FailRule &Rule = R.Rules[I];
  ++Rule.Hits;
  if (Rule.Hits < Rule.FromHit || Rule.Times == 0)
    return FailAction();
  --Rule.Times;
  return Rule.Action;
}

uint64_t monsem::failPointHitCount(FailSite S) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Hits[static_cast<unsigned>(S)];
}

//===----------------------------------------------------------------------===//
// FileSys wrappers
//===----------------------------------------------------------------------===//

namespace {

/// Shared slow path: consult the registry; for Crash actions on non-write
/// sites, exit immediately (nothing to persist first).
FailAction consult(FailSite S) {
  if (!failPointsArmed())
    return FailAction();
  return failPointHit(S);
}

[[noreturn]] void crashNow() {
  // Simulated power loss: no flushing of other streams, no atexit — the
  // kernel keeps what was already written, exactly like a real crash.
  _exit(kFailPointCrashExit);
}

} // namespace

std::FILE *monsem::FileSys::openFile(FailSite S, const char *Path,
                                     const char *Mode) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash)
    crashNow();
  if (A.armed()) {
    errno = A.Errno;
    return nullptr;
  }
  return std::fopen(Path, Mode);
}

size_t monsem::FileSys::writeFile(FailSite S, std::FILE *F, const void *Data,
                                  size_t Len) {
  FailAction A = consult(S);
  switch (A.K) {
  case FailAction::Kind::None:
    return std::fwrite(Data, 1, Len, F);
  case FailAction::Kind::Error:
    errno = A.Errno;
    return 0;
  case FailAction::Kind::Short: {
    size_t N = A.Bytes < Len ? static_cast<size_t>(A.Bytes) : Len;
    size_t W = std::fwrite(Data, 1, N, F);
    std::fflush(F); // Make the torn prefix real before reporting failure.
    errno = A.Errno;
    return W < Len ? W : Len - 1; // Always a short count.
  }
  case FailAction::Kind::Crash: {
    size_t N = A.Bytes < Len ? static_cast<size_t>(A.Bytes) : Len;
    if (N) {
      std::fwrite(Data, 1, N, F);
      std::fflush(F);
    }
    crashNow();
  }
  }
  return 0;
}

int monsem::FileSys::flushFile(FailSite S, std::FILE *F) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash) {
    std::fflush(F);
    crashNow();
  }
  if (A.armed()) {
    errno = A.Errno;
    return EOF;
  }
  return std::fflush(F);
}

int monsem::FileSys::syncFile(FailSite S, std::FILE *F) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash)
    crashNow();
  if (A.armed()) {
    errno = A.Errno;
    return -1;
  }
  if (std::fflush(F) != 0)
    return -1;
  return ::fsync(::fileno(F));
}

int monsem::FileSys::closeFile(FailSite S, std::FILE *F) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash) {
    std::fflush(F);
    crashNow();
  }
  if (A.armed()) {
    std::fclose(F); // Do not leak the stream on an injected close error.
    errno = A.Errno;
    return EOF;
  }
  return std::fclose(F);
}

int monsem::FileSys::renameFile(FailSite S, const char *From, const char *To) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash)
    crashNow();
  if (A.armed()) {
    errno = A.Errno;
    return -1;
  }
  return std::rename(From, To);
}

int monsem::FileSys::syncParentDir(FailSite S, const char *Path) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash)
    crashNow();
  if (A.armed()) {
    errno = A.Errno;
    return -1;
  }
  // dirname may modify its argument; work on a copy.
  std::vector<char> Buf(Path, Path + std::strlen(Path) + 1);
  const char *Dir = ::dirname(Buf.data());
  int Fd = ::open(Dir, O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return -1;
  int Rc = ::fsync(Fd);
  ::close(Fd);
  return Rc;
}

int monsem::FileSys::truncatePath(FailSite S, const char *Path, uint64_t Len) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash)
    crashNow();
  if (A.armed()) {
    errno = A.Errno;
    return -1;
  }
  return ::truncate(Path, static_cast<off_t>(Len));
}

int monsem::FileSys::openFd(FailSite S, const char *Path, int Flags) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash)
    crashNow();
  if (A.armed()) {
    errno = A.Errno;
    return -1;
  }
  return ::open(Path, Flags, 0666);
}

size_t monsem::FileSys::copyToMapping(FailSite S, void *Dst, const void *Src,
                                      size_t Len) {
  FailAction A = consult(S);
  size_t N = A.Bytes < Len ? static_cast<size_t>(A.Bytes) : Len;
  switch (A.K) {
  case FailAction::Kind::None:
    std::memcpy(Dst, Src, Len);
    return Len;
  case FailAction::Kind::Error:
    errno = A.Errno;
    return 0;
  case FailAction::Kind::Short:
    // The torn prefix is real: it sits in the page cache like any write.
    std::memcpy(Dst, Src, N);
    errno = A.Errno;
    return N < Len ? N : Len - 1; // Always a short count.
  case FailAction::Kind::Crash:
    std::memcpy(Dst, Src, N);
    crashNow();
  }
  return 0;
}

int monsem::FileSys::flushMapping(FailSite S) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash)
    crashNow();
  if (A.armed()) {
    errno = A.Errno;
    return -1;
  }
  return 0;
}

int monsem::FileSys::syncMapping(FailSite S, int Fd, void *Addr, size_t Len) {
  FailAction A = consult(S);
  if (A.K == FailAction::Kind::Crash)
    crashNow();
  if (A.armed()) {
    errno = A.Errno;
    return -1;
  }
  if (Len && ::msync(Addr, Len, MS_SYNC) != 0)
    return -1;
  return ::fsync(Fd);
}
