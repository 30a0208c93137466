//===- tests/label_slots_test.cpp - Label-indexed monitor states -----------===//
//
// The label-keyed toolbox states (call, cost and allocation profilers,
// call graph, coverage, collecting, demon, and Imp's statement profiler)
// reach their entries through per-run slots indexed by Symbol id. Ids follow
// intern order, which is not spelling order, so these tests intern their
// labels in non-alphabetical order (zeta before mu before alpha) and pin
// what must not depend on it: str() renderings and checkpointed state
// bytes (goldens), load() -> save() round-trips, and resumption from a
// state saved while probes were still open.
//
//===----------------------------------------------------------------------===//

#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "imp/ImpParser.h"
#include "interp/Eval.h"
#include "monitors/AllocProfiler.h"
#include "monitors/CallGraph.h"
#include "monitors/Collecting.h"
#include "monitors/CostProfiler.h"
#include "monitors/Coverage.h"
#include "monitors/Demon.h"
#include "monitors/Profiler.h"
#include "syntax/Annotator.h"

#include <gtest/gtest.h>

#include <deque>

using namespace monsem;

namespace {

std::string hexOf(const std::vector<uint8_t> &Bytes) {
  static const char *Digits = "0123456789abcdef";
  std::string Out;
  for (uint8_t B : Bytes) {
    Out += Digits[B >> 4];
    Out += Digits[B & 15];
  }
  return Out;
}

std::string saveHex(const MonitorState &S) {
  Serializer Ser;
  S.save(Ser);
  return hexOf(Ser.bytes());
}

/// One probe of the script: pre or post of a label at a step, with the
/// arena counter at probe time and (post) the result.
struct Probe {
  bool Post;
  int Label; ///< Index into the three labels.
  uint64_t Step;
  uint64_t Alloc;
  int64_t Result;
};

/// Nested probes over three labels; the state is snapshotted after
/// kMidProbes probes, while the outermost `zeta` probe is still open.
constexpr Probe kScript[] = {
    {false, 0, 1, 0, 0},    {false, 2, 3, 16, 0},  {true, 2, 7, 48, 5},
    {false, 1, 8, 48, 0},   {false, 2, 9, 64, 0},  {true, 2, 12, 96, 5},
    {true, 1, 14, 128, 2},  {true, 0, 20, 160, 9}, {false, 2, 21, 160, 0},
    {true, 2, 22, 176, 6},
};
constexpr size_t kMidProbes = 7;

/// The labels, interned zeta, mu, alpha: ids ascend against spelling.
struct Labels {
  std::deque<Annotation> Anns;
  Labels() {
    for (const char *Name : {"lo_zeta", "lo_mu", "lo_alpha"}) {
      Annotation A;
      A.Head = Symbol::intern(Name);
      Anns.push_back(A);
    }
  }
};

void runScript(RuntimeCascade &RC, const Labels &L, const Expr &E,
               size_t From, size_t To) {
  EnvView Env(static_cast<const EnvNode *>(nullptr));
  for (size_t I = From; I < To; ++I) {
    const Probe &P = kScript[I];
    const Annotation &Ann = L.Anns[P.Label];
    if (P.Post)
      RC.post(Ann, E, Env, Value::mkInt(P.Result), P.Step, P.Alloc);
    else
      RC.pre(Ann, E, Env, P.Step, P.Alloc);
  }
}

struct Golden {
  const char *MidStr, *MidBytes, *FinalStr, *FinalBytes;
};

/// Runs the script under \p M alone and checks the goldens at the mid
/// and final points, the load -> save round-trip of both, and that a
/// fresh state loaded from the mid bytes finishes the script to the same
/// final state.
void checkMonitor(const Monitor &M, const Golden &G) {
  Labels L;
  ASSERT_LT(L.Anns[0].Head.id(), L.Anns[1].Head.id());
  ASSERT_LT(L.Anns[1].Head.id(), L.Anns[2].Head.id());
  AstContext Ctx;
  const Expr &E = *Ctx.mkInt(0);
  Cascade C;
  C.use(M);

  RuntimeCascade RC(C);
  runScript(RC, L, E, 0, kMidProbes);
  EXPECT_EQ(RC.state(0).str(), G.MidStr) << M.name();
  std::string Mid = saveHex(RC.state(0));
  EXPECT_EQ(Mid, G.MidBytes) << M.name();
  runScript(RC, L, E, kMidProbes, std::size(kScript));
  EXPECT_EQ(RC.state(0).str(), G.FinalStr) << M.name();
  EXPECT_EQ(saveHex(RC.state(0)), G.FinalBytes) << M.name();

  // load -> save reproduces the bytes, for the open and the final state.
  for (bool AtMid : {true, false}) {
    Serializer Ser;
    RuntimeCascade Src(C);
    runScript(Src, L, E, 0, AtMid ? kMidProbes : std::size(kScript));
    Src.state(0).save(Ser);
    auto Fresh = M.initialState();
    Deserializer D(Ser.bytes());
    Fresh->load(D);
    ASSERT_TRUE(D.ok()) << M.name() << ": " << D.error();
    EXPECT_EQ(D.remaining(), 0u) << M.name();
    EXPECT_EQ(saveHex(*Fresh), hexOf(Ser.bytes())) << M.name();
    EXPECT_EQ(Fresh->str(), Src.state(0).str()) << M.name();
  }

  // Resume: a fresh cascade loads the mid state and finishes the script.
  Serializer Ser;
  RuntimeCascade First(C);
  runScript(First, L, E, 0, kMidProbes);
  First.state(0).save(Ser);
  RuntimeCascade Resumed(C);
  Deserializer D(Ser.bytes());
  Resumed.state(0).load(D);
  ASSERT_TRUE(D.ok()) << M.name() << ": " << D.error();
  runScript(Resumed, L, E, kMidProbes, std::size(kScript));
  EXPECT_EQ(Resumed.state(0).str(), G.FinalStr) << M.name();
  EXPECT_EQ(saveHex(Resumed.state(0)), G.FinalBytes) << M.name();
}

} // namespace

// The goldens below were produced by the string-keyed implementation that
// preceded the label slots; they must not change.

TEST(LabelOrderGolden, CallProfiler) {
  CallProfiler M;
  checkMonitor(M, {
      "[lo_alpha -> 2, lo_mu -> 1, lo_zeta -> 1]",
      "03000000080000006c6f5f616c7068610200000000000000050000006c6f5f6d"
      "750100000000000000070000006c6f5f7a6574610100000000000000",
      "[lo_alpha -> 3, lo_mu -> 1, lo_zeta -> 1]",
      "03000000080000006c6f5f616c7068610300000000000000050000006c6f5f6d"
      "750100000000000000070000006c6f5f7a6574610100000000000000"});
}

TEST(LabelOrderGolden, CostProfiler) {
  CostProfiler M;
  checkMonitor(M, {
      "[lo_alpha: calls=2 total=7 avg=3, lo_mu: calls=1 total=6 avg=6]",
      "02000000080000006c6f5f616c70686102000000000000000700000000000000"
      "03000000000000000400000000000000050000006c6f5f6d7501000000000000"
      "0006000000000000000600000000000000060000000000000001000000070000"
      "006c6f5f7a6574610100000000000000",
      "[lo_alpha: calls=3 total=8 avg=2, lo_mu: calls=1 total=6 avg=6, "
      "lo_zeta: calls=1 total=19 avg=19]",
      "03000000080000006c6f5f616c70686103000000000000000800000000000000"
      "01000000000000000400000000000000050000006c6f5f6d7501000000000000"
      "00060000000000000006000000000000000600000000000000070000006c6f5f"
      "7a65746101000000000000001300000000000000130000000000000013000000"
      "0000000000000000"});
}

TEST(LabelOrderGolden, AllocProfiler) {
  AllocProfiler M;
  checkMonitor(M, {
      "[lo_alpha: calls=2 bytes=64, lo_mu: calls=1 bytes=80]",
      "02000000080000006c6f5f616c70686102000000000000004000000000000000"
      "2000000000000000050000006c6f5f6d75010000000000000050000000000000"
      "00500000000000000001000000070000006c6f5f7a6574610000000000000000",
      "[lo_alpha: calls=3 bytes=80, lo_mu: calls=1 bytes=80, "
      "lo_zeta: calls=1 bytes=160]",
      "03000000080000006c6f5f616c70686103000000000000005000000000000000"
      "2000000000000000050000006c6f5f6d75010000000000000050000000000000"
      "005000000000000000070000006c6f5f7a6574610100000000000000a0000000"
      "00000000a00000000000000000000000"});
}

TEST(LabelOrderGolden, CallGraph) {
  CallGraphMonitor M;
  checkMonitor(M, {
      "<root> -> lo_zeta: 1, lo_mu -> lo_alpha: 1, "
      "lo_zeta -> lo_alpha: 1, lo_zeta -> lo_mu: 1",
      "04000000060000003c726f6f743e070000006c6f5f7a65746101000000000000"
      "00050000006c6f5f6d75080000006c6f5f616c70686101000000000000000700"
      "00006c6f5f7a657461080000006c6f5f616c7068610100000000000000070000"
      "006c6f5f7a657461050000006c6f5f6d75010000000000000001000000070000"
      "006c6f5f7a657461",
      "<root> -> lo_alpha: 1, <root> -> lo_zeta: 1, "
      "lo_mu -> lo_alpha: 1, lo_zeta -> lo_alpha: 1, "
      "lo_zeta -> lo_mu: 1",
      "05000000060000003c726f6f743e080000006c6f5f616c706861010000000000"
      "0000060000003c726f6f743e070000006c6f5f7a657461010000000000000005"
      "0000006c6f5f6d75080000006c6f5f616c706861010000000000000007000000"
      "6c6f5f7a657461080000006c6f5f616c7068610100000000000000070000006c"
      "6f5f7a657461050000006c6f5f6d75010000000000000000000000"});
}

TEST(LabelOrderGolden, Coverage) {
  CoverageMonitor M(4);
  checkMonitor(M, {
      "3/4 points hit (4 events)",
      "03000000080000006c6f5f616c706861050000006c6f5f6d75070000006c6f5f"
      "7a657461040000000000000004000000",
      "3/4 points hit (5 events)",
      "03000000080000006c6f5f616c706861050000006c6f5f6d75070000006c6f5f"
      "7a657461050000000000000004000000"});
}

TEST(LabelOrderGolden, Collecting) {
  CollectingMonitor M;
  checkMonitor(M, {
      "[lo_alpha -> {5}, lo_mu -> {2}]",
      "02000000080000006c6f5f616c706861010000000100000035050000006c6f5f"
      "6d75010000000100000032",
      "[lo_alpha -> {5, 6}, lo_mu -> {2}, lo_zeta -> {9}]",
      "03000000080000006c6f5f616c70686102000000010000003501000000360500"
      "00006c6f5f6d75010000000100000032070000006c6f5f7a6574610100000001"
      "00000039"});
}

TEST(LabelOrderGolden, Demon) {
  // Fires on odd results: alpha (5) and zeta (9).
  Demon M("demon", [](Value V) { return V.asInt() % 2 != 0; });
  checkMonitor(M, {"{lo_alpha}", "01000000080000006c6f5f616c706861",
                   "{lo_alpha, lo_zeta}",
                   "02000000080000006c6f5f616c706861070000006c6f5f7a657461"});
}

TEST(LabelOrderGolden, ImpStatementProfiler) {
  // Labels first seen zeta, mu, alpha in the source.
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Prog = parseImpProgram(
      Ctx,
      "x := 0; while x < 3 do {lo_zeta}: x := x + 1; "
      "if x = 2 then {lo_mu}: y := x else {lo_alpha}: y := 0 end end",
      Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  ASSERT_LT(Symbol::intern("lo_zeta").id(), Symbol::intern("lo_alpha").id());
  ImpStmtProfiler Prof;
  ImpCascade C;
  C.use(Prof);
  ImpRunResult R = runImp(C, Prog);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.FinalStates.size(), 1u);
  EXPECT_EQ(R.FinalStates[0]->str(),
            "[lo_alpha -> 2, lo_mu -> 1, lo_zeta -> 3]");
}

//===----------------------------------------------------------------------===//
// Cost profiler: resume a checkpoint taken inside open probes
//===----------------------------------------------------------------------===//

TEST(LabelOrderGolden, CostProfilerResumesMidProbeOnEveryTier) {
  // `zz_walk` is interned (parsed) before `aa_step`, against spelling;
  // every aa_step probe runs inside an open zz_walk probe.
  const std::string Src =
      "letrec zz_walk = lambda f n. if n = 0 then 0 else "
      "f n + zz_walk f (n - 1) in "
      "letrec aa_step = lambda k. k * 2 in zz_walk aa_step 30";
  auto P = ParsedProgram::parse(Src);
  ASSERT_TRUE(P->ok()) << P->diags().str();
  AnnotateOptions AO;
  AO.Qualifier = Symbol::intern("cost");
  const Expr *Prog = annotateFunctionBodies(P->context(), P->root(), {}, AO);

  struct Leg {
    BackendTag Writer, Resumer;
    const char *Final; ///< Golden final str() for the writer's step family.
  };
  const char *CekFinal = "[aa_step: calls=30 total=180 avg=6, "
                         "zz_walk: calls=31 total=17949 avg=579]";
  const char *VmFinal = "[aa_step: calls=30 total=120 avg=4, "
                        "zz_walk: calls=31 total=12307 avg=397]";
  const Leg Legs[] = {
      {kCEK, kCEK, CekFinal},
      {kVM, kVM, VmFinal},
      {kVM, kVMReg, VmFinal},
      {kVM, kVMAot, VmFinal},
  };
  for (const Leg &L : Legs) {
    CostProfiler Cost;
    RunResult Want = evaluate(Cost & L.Writer, Prog);
    ASSERT_EQ(Want.St, Outcome::Ok) << Want.Error;
    ASSERT_EQ(Want.FinalStates.size(), 1u);
    EXPECT_EQ(Want.FinalStates[0]->str(), L.Final);

    Checkpoint CK;
    RunResult Cut =
        evaluate(Cost & L.Writer & maxSteps(Want.Steps / 2) &
                     checkpointInto([&](const Checkpoint &C) { CK = C; }),
                 Prog);
    ASSERT_EQ(Cut.St, Outcome::FuelExhausted) << Cut.Error;
    ASSERT_TRUE(CK.valid());
    ASSERT_EQ(Cut.FinalStates.size(), 1u);
    EXPECT_FALSE(CostProfiler::state(*Cut.FinalStates[0]).Stack.empty())
        << "the checkpoint must be taken inside open probes";

    // A fresh monitor object and cascade, as a resuming process has.
    CostProfiler Fresh;
    RunResult Got = evaluate(Fresh & L.Resumer & resumeFrom(CK), Prog);
    ASSERT_EQ(Got.St, Outcome::Ok) << Got.Error;
    EXPECT_EQ(Got.Steps, Want.Steps);
    ASSERT_EQ(Got.FinalStates.size(), 1u);
    EXPECT_EQ(Got.FinalStates[0]->str(), L.Final);
  }
}
