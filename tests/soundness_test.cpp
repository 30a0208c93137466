//===- tests/soundness_test.cpp - Theorem 7.7 property tests ---------------===//
//
// Soundness: for every program sbar (s plus annotations), every monitor
// cascade, and every evaluation strategy, the monitored answer equals the
// standard answer:
//
//   (fix G) [s] a* k / Ans_std  ==  ((fix Gbar) [sbar] a* k sigma)|1
//
// Exercised over generated programs with every toolbox monitor and random
// cascades.
//
//===----------------------------------------------------------------------===//

#include "interp/Eval.h"
#include "monitors/CallGraph.h"
#include "monitors/Collecting.h"
#include "monitors/CostProfiler.h"
#include "monitors/FlightRecorder.h"
#include "monitors/Coverage.h"
#include "monitors/Demon.h"
#include "monitors/Profiler.h"
#include "monitors/Stepper.h"
#include "monitors/Tracer.h"
#include "syntax/Annotator.h"
#include "syntax/Printer.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

constexpr uint64_t Fuel = 500000;

RunResult runStd(const Expr *E, Strategy S = Strategy::Strict) {
  RunOptions Opts;
  Opts.Strat = S;
  Opts.Limits.MaxSteps = Fuel;
  return evaluate(E, Opts);
}

RunResult runMon(const Cascade &C, const Expr *E,
                 Strategy S = Strategy::Strict) {
  return evaluate(C & StrategyTag{S} & maxSteps(Fuel), E);
}

} // namespace

class SoundnessTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SoundnessTest, EveryMonitorPreservesTheAnswer) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  RunResult Std = runStd(Prog);

  CountingProfiler Count;
  CallProfiler Prof;
  Demon D = Demon::unsortedLists();
  CollectingMonitor Coll;
  Stepper Step;
  CoverageMonitor Cov;
  CostProfiler Cost;
  CallGraphMonitor Graph;
  FlightRecorder Rec(8);
  const Monitor *Monitors[] = {&Count, &Prof, &D,     &Coll, &Step,
                               &Cov,   &Cost, &Graph, &Rec};
  for (const Monitor *M : Monitors) {
    Cascade C;
    C.use(*M);
    RunResult Mon = runMon(C, Prog);
    EXPECT_TRUE(Mon.sameOutcome(Std))
        << "monitor " << M->name() << " changed the answer of:\n"
        << printExpr(Prog) << "\nstd: "
        << (Std.Ok ? Std.ValueText : Std.Error)
        << "\nmon: " << (Mon.Ok ? Mon.ValueText : Mon.Error);
  }
}

TEST_P(SoundnessTest, StrippingAnnotationsPreservesTheAnswer) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  AstContext Other;
  const Expr *Plain = stripAnnotations(Other, Prog);
  RunResult A = runStd(Prog);
  RunResult B = runStd(Plain);
  EXPECT_TRUE(A.sameOutcome(B)) << printExpr(Prog);
}

TEST_P(SoundnessTest, TracerHeadersPreserveTheAnswer) {
  // Tracer-style annotation of every letrec function, then run traced.
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  AnnotateOptions Opts;
  Opts.WithParams = true;
  const Expr *Traced = annotateFunctionBodies(Ctx, Prog, {}, Opts);
  Tracer Trc;
  Cascade C;
  C.use(Trc);
  RunResult Std = runStd(Prog);
  RunResult Mon = runMon(C, Traced);
  EXPECT_TRUE(Mon.sameOutcome(Std)) << printExpr(Traced);
}

TEST_P(SoundnessTest, RandomCascadePreservesTheAnswer) {
  AstContext Ctx;
  unsigned Seed = GetParam();
  const Expr *Prog = monsem::testing::genProgram(Ctx, Seed);
  // Shape-disjoint pair + coverage via qualifier-free bare labels would be
  // ambiguous, so use the qualified coverage convention instead: rely on
  // CountingProfiler (A/B only) + Tracer (headers only) + a negativity
  // demon accepting only heads starting with 'm'.
  CountingProfiler Count;
  Tracer Trc;
  class MLabelDemon : public Demon {
  public:
    MLabelDemon()
        : Demon("mdemon", [](Value V) {
            return V.is(ValueKind::Int) && V.asInt() < 0;
          }) {}
    bool accepts(const Annotation &Ann) const override {
      return !Ann.HasParams && !Ann.Head.str().empty() &&
             Ann.Head.str()[0] == 'm';
    }
  };
  MLabelDemon MD;
  Cascade C = cascadeOf({&Count, &Trc, &MD});
  DiagnosticSink Diags;
  ASSERT_TRUE(C.validateFor(Prog, Diags)) << Diags.str();
  RunResult Std = runStd(Prog);
  RunResult Mon = runMon(C, Prog);
  EXPECT_TRUE(Mon.sameOutcome(Std)) << printExpr(Prog);
}

TEST_P(SoundnessTest, SoundnessHoldsUnderLazyStrategies) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  for (Strategy S : {Strategy::CallByName, Strategy::CallByNeed}) {
    RunResult Std = runStd(Prog, S);
    RunResult Mon = runMon(C, Prog, S);
    EXPECT_TRUE(Mon.sameOutcome(Std))
        << strategyName(S) << ": " << printExpr(Prog);
  }
}

TEST_P(SoundnessTest, MonitorStatesAreDeterministic) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunResult R1 = runMon(C, Prog);
  RunResult R2 = runMon(C, Prog);
  ASSERT_EQ(R1.FinalStates.size(), R2.FinalStates.size());
  for (size_t I = 0; I < R1.FinalStates.size(); ++I)
    EXPECT_EQ(R1.FinalStates[I]->str(), R2.FinalStates[I]->str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessTest, ::testing::Range(0u, 120u));
