//===- support/Symbol.cpp - Interned identifiers --------------------------===//

#include "support/Symbol.h"

#include <atomic>
#include <cassert>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <unordered_map>

using namespace monsem;

namespace {

/// Spellings live in fixed-size segments that never move once allocated,
/// reached through a directory of atomic segment pointers. Index 0 is
/// reserved for the sentinel. A segment is published (release) before any
/// id inside it is handed out, and a spelling is written before its id
/// leaves the exclusive lock, so str() — the hot path, called while
/// rendering probe events — reads without any lock: whoever holds an id
/// obtained it through a synchronizing path (the lock below, or whatever
/// carried the Symbol to its thread), which orders the spelling's write
/// before the read.
constexpr unsigned kSegmentBits = 10;
constexpr size_t kSegmentSize = size_t(1) << kSegmentBits;
constexpr size_t kMaxSegments = size_t(1) << 18; // 2^28 symbols.

/// Namespace-scope and constant-initialized, so the untouched part of the
/// directory costs no resident memory.
std::atomic<std::string *> Segments[kMaxSegments];

/// Process-wide intern table: the spelling -> id index plus the allocator
/// of ids and segments.
///
/// Thread safety: server workers parse programs concurrently, so intern()
/// takes a reader-writer lock — shared for the already-interned fast path,
/// exclusive only when a new spelling is actually inserted.
struct InternTable {
  std::shared_mutex M;
  std::unordered_map<std::string_view, unsigned> Index;
  unsigned Next = 1;

  unsigned intern(std::string_view Spelling) {
    {
      std::shared_lock<std::shared_mutex> Lock(M);
      auto It = Index.find(Spelling);
      if (It != Index.end())
        return It->second;
    }
    std::unique_lock<std::shared_mutex> Lock(M);
    // Re-check: another thread may have interned it between the locks.
    auto It = Index.find(Spelling);
    if (It != Index.end())
      return It->second;
    unsigned Id = Next;
    size_t Seg = Id >> kSegmentBits;
    if (Seg >= kMaxSegments)
      throw std::length_error("symbol table full");
    std::string *Storage = Segments[Seg].load(std::memory_order_relaxed);
    if (!Storage) {
      Storage = new std::string[kSegmentSize];
      Segments[Seg].store(Storage, std::memory_order_release);
    }
    std::string &Slot = Storage[Id & (kSegmentSize - 1)];
    Slot.assign(Spelling);
    Index.emplace(std::string_view(Slot), Id);
    ++Next;
    return Id;
  }
};

InternTable &table() {
  static InternTable Table;
  return Table;
}

} // namespace

Symbol Symbol::intern(std::string_view Spelling) {
  assert(!Spelling.empty() && "cannot intern an empty spelling");
  return Symbol(table().intern(Spelling));
}

std::string_view Symbol::str() const {
  if (Id == 0)
    return "";
  const std::string *Storage =
      Segments[Id >> kSegmentBits].load(std::memory_order_acquire);
  return Storage[Id & (kSegmentSize - 1)];
}
