//===- tests/direct_test.cpp - Definitional interpreter tests --------------===//
//
// Validates the literal transliteration of the paper's derivation: the
// standard functional (Fig. 2), the monitoring derivation Gbar (Fig. 3),
// double derivation (Fig. 5), and agreement with the CEK machine.
//
//===----------------------------------------------------------------------===//

#include "interp/Direct.h"
#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "monitors/Tracer.h"
#include "syntax/Annotator.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <pthread.h>

using namespace monsem;

namespace {

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

/// Runs \p Fn on a fresh thread with a \p StackBytes stack, so stack
/// exhaustion does not depend on the runner's ulimit.
template <class F> void onThreadWithStack(size_t StackBytes, F Fn) {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, StackBytes);
  pthread_t T;
  auto Entry = [](void *Arg) -> void * {
    (*static_cast<F *>(Arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&T, &Attr, Entry, &Fn), 0);
  pthread_join(T, nullptr);
  pthread_attr_destroy(&Attr);
}

} // namespace

TEST(DirectTest, BasicValues) {
  auto P = parseOk("letrec fac = lambda x. if x = 0 then 1 else "
                   "x * fac (x - 1) in fac 5");
  RunResult R = runDirect(P->root());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 120);
}

TEST(DirectTest, ErrorsMatchMachine) {
  for (const char *Src : {"x", "1 / 0", "hd []", "1 2", "if 1 then 2 else 3",
                          "letrec x = x + 1 in x"}) {
    auto P = parseOk(Src);
    RunResult Direct = runDirect(P->root());
    RunResult Machine = evaluate(P->root());
    EXPECT_FALSE(Direct.Ok) << Src;
    EXPECT_EQ(Direct.Error, Machine.Error) << Src;
  }
}

TEST(DirectTest, CallBudgetBoundsRunawayPrograms) {
  auto P = parseOk("letrec loop = lambda x. loop x in loop 1");
  RunResult R = runDirect(P->root(), nullptr, /*CallBudget=*/2000);
  EXPECT_TRUE(R.FuelExhausted);
}

TEST(DirectTest, MonitoringDerivationProfilesFactorial) {
  auto P = parseOk(
      "letrec mul = lambda x. lambda y. {mul}:(x*y) in "
      "letrec fac = lambda x. {fac}: if (x=0) then 1 else "
      "mul x (fac (x-1)) in fac 3");
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunResult R = runDirect(P->root(), &C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 6);
  ASSERT_EQ(R.FinalStates.size(), 1u);
  EXPECT_EQ(R.FinalStates[0]->str(), "[fac -> 4, mul -> 3]");
}

TEST(DirectTest, DoubleDerivationIsCascading) {
  // Fig. 5: derive monitoring semantics, treat it as a standard semantics,
  // and derive again. The tracer (params) and profiler (bare) have
  // disjoint annotation syntaxes.
  auto P = parseOk(
      "letrec mul = lambda x. lambda y. {mul(x, y)}: {mul}:(x*y) in "
      "letrec fac = lambda x. {fac(x)}: {fac}: if (x=0) then 1 else "
      "mul x (fac (x-1)) in fac 3");
  CallProfiler Prof;
  Tracer Trc;
  Cascade C;
  C.use(Prof).use(Trc);
  RunResult R = runDirect(P->root(), &C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 6);
  ASSERT_EQ(R.FinalStates.size(), 2u);
  EXPECT_EQ(R.FinalStates[0]->str(), "[fac -> 4, mul -> 3]");
  EXPECT_EQ(Tracer::state(*R.FinalStates[1]).Chan.numLines(), 14u);

  // And the CEK machine computes the identical cascade result.
  RunResult M = evaluate(C, P->root());
  ASSERT_TRUE(M.Ok) << M.Error;
  EXPECT_EQ(M.ValueText, R.ValueText);
  EXPECT_EQ(M.FinalStates[0]->str(), R.FinalStates[0]->str());
  EXPECT_EQ(M.FinalStates[1]->str(), R.FinalStates[1]->str());
}

TEST(DirectTest, FixpointSharesDerivedBehaviorAtAllLevels) {
  // The annotation sits inside a recursive function: the derived behavior
  // must be exhibited at every level of recursion (the point of using
  // functionals).
  auto P = parseOk("letrec down = lambda n. {down}: if n = 0 then 0 else "
                   "down (n - 1) in down 7");
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunResult R = runDirect(P->root(), &C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(CallProfiler::state(*R.FinalStates[0]).count("down"), 8u);
}

// Differential: direct CPS vs CEK machine over generated programs.
class DirectDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DirectDifferentialTest, AgreesWithMachine) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  RunResult Direct = runDirect(Prog, nullptr, /*CallBudget=*/12000);
  if (Direct.FuelExhausted)
    GTEST_SKIP() << "program too large for the CPS reference interpreter";
  RunOptions Opts;
  Opts.Limits.MaxSteps = 1000000;
  RunResult Machine = evaluate(Prog, Opts);
  EXPECT_TRUE(Direct.sameOutcome(Machine))
      << "direct: " << (Direct.Ok ? Direct.ValueText : Direct.Error)
      << "\nmachine: " << (Machine.Ok ? Machine.ValueText : Machine.Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectDifferentialTest,
                         ::testing::Range(0u, 60u));

//===----------------------------------------------------------------------===//
// Stack headroom: CPS interpretation nests every valuation call on the C
// stack, so a run must stop with DepthExceeded before the stack overflows.
//===----------------------------------------------------------------------===//

TEST(DirectStack, MonitoredRunStopsWithDepthExceeded) {
  // fib 15 under a profiler needs more C stack per call than the default
  // call budget assumes; on a 1 MiB stack it exhausts the stack long
  // before the budget.
  auto P = parseOk("letrec fib = lambda n. if n < 2 then n else "
                   "fib (n - 1) + fib (n - 2) in fib 15");
  AnnotateOptions AO;
  AO.Qualifier = Symbol::intern("profile");
  const Expr *Prog = annotateFunctionBodies(P->context(), P->root(), {}, AO);
  CallProfiler Prof;
  RunResult R;
  onThreadWithStack(1 << 20, [&] { R = evaluate(Prof & kDirect, Prog); });
  EXPECT_EQ(R.St, Outcome::DepthExceeded) << outcomeName(R.St) << R.Error;
  EXPECT_GT(R.Steps, 0u);
  ASSERT_EQ(R.FinalStates.size(), 1u); // Partial states survive the stop.
}

TEST(DirectStack, LongRunStopsWithDepthExceeded) {
  // With a call budget far beyond what any stack can hold, the guard — not
  // the budget — ends the run. Both legs run on threads with fixed stacks
  // so the outcome does not depend on the caller's RLIMIT_STACK.
  auto P = parseOk("letrec fib = lambda n. if n < 2 then n else "
                   "fib (n - 1) + fib (n - 2) in fib 40");
  auto Run = [&](size_t StackBytes) {
    RunResult R;
    onThreadWithStack(StackBytes, [&] {
      R = evaluate(kDirect & maxSteps(4'000'000'000), P->root());
    });
    return R;
  };
  RunResult Large = Run(8 << 20);
  EXPECT_EQ(Large.St, Outcome::DepthExceeded) << outcomeName(Large.St);
  RunResult Small = Run(256 << 10);
  EXPECT_EQ(Small.St, Outcome::DepthExceeded) << outcomeName(Small.St);
  EXPECT_LT(Small.Steps, Large.Steps);
}
