//===- tests/support_test.cpp - Support-library unit tests ----------------===//

#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/OutChan.h"
#include "support/StrUtils.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace monsem;

TEST(SymbolTest, InternIsIdempotent) {
  Symbol A = Symbol::intern("foo");
  Symbol B = Symbol::intern("foo");
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.id(), B.id());
  EXPECT_EQ(A.str(), "foo");
}

TEST(SymbolTest, DistinctSpellingsDiffer) {
  EXPECT_NE(Symbol::intern("foo"), Symbol::intern("bar"));
  EXPECT_NE(Symbol::intern("foo"), Symbol::intern("fooo"));
}

TEST(SymbolTest, SentinelIsEmpty) {
  Symbol S;
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S);
  EXPECT_NE(S, Symbol::intern("x"));
}

TEST(SymbolTest, ManySymbolsKeepStableSpellings) {
  std::vector<Symbol> Syms;
  for (int I = 0; I < 1000; ++I)
    Syms.push_back(Symbol::intern("sym" + std::to_string(I)));
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(Syms[I].str(), "sym" + std::to_string(I));
}

TEST(SymbolTest, ConcurrentInternAndLockFreeStr) {
  // Two writers intern overlapping spellings across several storage
  // segments while a reader renders symbols interned before it started;
  // every handle must be unique per spelling and every spelling stable.
  std::vector<Symbol> Early;
  for (int I = 0; I < 64; ++I)
    Early.push_back(Symbol::intern("early" + std::to_string(I)));
  constexpr int kCount = 3000;
  std::vector<Symbol> A(kCount), B(kCount);
  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    size_t Bad = 0;
    while (!Done.load())
      for (int I = 0; I < 64; ++I)
        Bad += Early[I].str() != "early" + std::to_string(I);
    EXPECT_EQ(Bad, 0u);
  });
  std::thread WA([&] {
    for (int I = 0; I < kCount; ++I)
      A[I] = Symbol::intern("conc" + std::to_string(I));
  });
  std::thread WB([&] {
    for (int I = kCount; I-- > 0;)
      B[I] = Symbol::intern("conc" + std::to_string(I));
  });
  WA.join();
  WB.join();
  Done = true;
  Reader.join();
  for (int I = 0; I < kCount; ++I) {
    EXPECT_EQ(A[I], B[I]);
    EXPECT_EQ(A[I].str(), "conc" + std::to_string(I));
  }
}

TEST(ArenaTest, AllocatesAligned) {
  Arena A;
  for (int I = 0; I < 100; ++I) {
    void *P = A.allocate(I + 1, 8);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 8, 0u);
  }
}

TEST(ArenaTest, CreateConstructsObjects) {
  Arena A;
  struct Pair {
    int X;
    int Y;
  };
  Pair *P = A.create<Pair>(1, 2);
  EXPECT_EQ(P->X, 1);
  EXPECT_EQ(P->Y, 2);
}

TEST(ArenaTest, GrowsAcrossChunks) {
  Arena A;
  // Force multiple chunk allocations.
  char *First = static_cast<char *>(A.allocate(8, 8));
  *First = 42;
  for (int I = 0; I < 100; ++I)
    A.allocate(4096, 16);
  EXPECT_EQ(*First, 42) << "early allocations must stay valid";
  EXPECT_GT(A.bytesAllocated(), 100u * 4096u);
}

TEST(ArenaTest, ResetReleasesEverything) {
  Arena A;
  A.allocate(1024, 8);
  EXPECT_GT(A.bytesAllocated(), 0u);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
}

TEST(ArenaTest, ResetRetainsAndReusesFirstChunk) {
  Arena A;
  void *First = A.allocate(64, 8);
  A.reset();
  // The retained first chunk is rewound, so the next allocation lands at
  // its start again.
  EXPECT_EQ(A.allocate(64, 8), First);
  EXPECT_EQ(A.bytesAllocated(), 64u);
}

TEST(ArenaTest, ResetAfterGrowthKeepsOnlyFirstChunk) {
  Arena A;
  void *First = A.allocate(64, 8);
  for (int I = 0; I < 100; ++I)
    A.allocate(4096, 16); // Forces additional chunks.
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.allocate(64, 8), First);
  // A reset-and-refill cycle still works past the first chunk.
  for (int I = 0; I < 100; ++I)
    A.allocate(4096, 16);
  EXPECT_GT(A.bytesAllocated(), 100u * 4096u);
}

TEST(DiagnosticsTest, CollectsAndRenders) {
  DiagnosticSink D;
  EXPECT_FALSE(D.hasErrors());
  D.warning({1, 2}, "watch out");
  EXPECT_FALSE(D.hasErrors());
  D.error({3, 4}, "boom");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_NE(D.str().find("error at 3:4: boom"), std::string::npos);
  EXPECT_NE(D.str().find("warning at 1:2: watch out"), std::string::npos);
}

TEST(OutChanTest, LinesAndPending) {
  OutChan C;
  EXPECT_TRUE(C.empty());
  C.addLine("one");
  C.addText("tw");
  C.addText("o");
  C.endLine();
  EXPECT_EQ(C.numLines(), 2u);
  EXPECT_EQ(C.str(), "one\ntwo\n");
  EXPECT_EQ(C.lines()[1], "two");
}

TEST(OutChanTest, PendingPrefixesNextLine) {
  OutChan C;
  C.addText("a");
  C.addLine("b");
  EXPECT_EQ(C.lines()[0], "ab");
}

TEST(StrUtilsTest, SplitTrimJoin) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(trimString("  hi \n"), "hi");
  EXPECT_EQ(trimString(""), "");
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_EQ(joinStrings({"a", "b"}, ", "), "a, b");
}
