//===- tests/lazy_test.cpp - Lazy strategies (Section 9.2 modules) ---------===//

#include "interp/Eval.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

RunResult runWith(std::string_view Src, Strategy S,
                  uint64_t MaxSteps = 2000000) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  RunOptions Opts;
  Opts.Strat = S;
  Opts.Limits.MaxSteps = MaxSteps;
  return evaluate(P->root(), Opts);
}

} // namespace

TEST(LazyTest, ValuesAgreeAcrossStrategiesOnPurePrograms) {
  const char *Programs[] = {
      "letrec fac = lambda x. if x = 0 then 1 else x * fac (x - 1) in fac 6",
      "letrec sum = lambda l. if l = [] then 0 else hd l + sum (tl l) "
      "in sum [1, 2, 3]",
      "(lambda x y. x + y) 1 2",
      "let f = lambda g. g 3 in f (lambda x. x * x)",
      "if 1 < 2 then 10 else 20",
  };
  for (const char *Src : Programs) {
    RunResult Strict = runWith(Src, Strategy::Strict);
    RunResult ByName = runWith(Src, Strategy::CallByName);
    RunResult ByNeed = runWith(Src, Strategy::CallByNeed);
    ASSERT_TRUE(Strict.Ok) << Src << ": " << Strict.Error;
    EXPECT_EQ(Strict.ValueText, ByName.ValueText) << Src;
    EXPECT_EQ(Strict.ValueText, ByNeed.ValueText) << Src;
  }
}

TEST(LazyTest, UnusedErroringArgumentIsSkipped) {
  const char *Src = "(lambda x. 42) (hd [])";
  EXPECT_FALSE(runWith(Src, Strategy::Strict).Ok);
  RunResult N = runWith(Src, Strategy::CallByName);
  EXPECT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.IntValue, 42);
  RunResult D = runWith(Src, Strategy::CallByNeed);
  EXPECT_TRUE(D.Ok) << D.Error;
  EXPECT_EQ(D.IntValue, 42);
}

TEST(LazyTest, UnusedDivergingArgumentIsSkipped) {
  const char *Src =
      "letrec loop = lambda x. loop x in (lambda y. 7) (loop 1)";
  RunResult S = runWith(Src, Strategy::Strict, 50000);
  EXPECT_TRUE(S.FuelExhausted);
  RunResult N = runWith(Src, Strategy::CallByName, 50000);
  EXPECT_EQ(N.IntValue, 7);
}

TEST(LazyTest, CallByNeedMemoizes) {
  // x is used three times; call-by-name re-evaluates the (expensive)
  // argument every time, call-by-need only once.
  const char *Src =
      "letrec slow = lambda n. if n = 0 then 1 else slow (n - 1) in "
      "(lambda x. x + x + x) (slow 200)";
  RunResult ByName = runWith(Src, Strategy::CallByName);
  RunResult ByNeed = runWith(Src, Strategy::CallByNeed);
  ASSERT_TRUE(ByName.Ok) << ByName.Error;
  ASSERT_TRUE(ByNeed.Ok) << ByNeed.Error;
  EXPECT_EQ(ByName.IntValue, 3);
  EXPECT_EQ(ByNeed.IntValue, 3);
  EXPECT_LT(ByNeed.Steps * 2, ByName.Steps)
      << "memoization should save at least half the work here";
}

TEST(LazyTest, BlackHoleDetectedUnderCallByNeed) {
  RunResult R = runWith("letrec x = x + 1 in x", Strategy::CallByNeed);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("black hole"), std::string::npos) << R.Error;
}

TEST(LazyTest, SelfReferenceDivergesUnderCallByName) {
  RunResult R = runWith("letrec x = x + 1 in x", Strategy::CallByName, 20000);
  EXPECT_TRUE(R.FuelExhausted);
}

TEST(LazyTest, StrictSelfReferenceIsAnError) {
  RunResult R = runWith("letrec x = x + 1 in x", Strategy::Strict);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("before initialization"), std::string::npos);
}

TEST(LazyTest, PrimitivesForceThunkArguments) {
  // Higher-order prim application under laziness: `hd` receives a thunk.
  const char *Src = "let f = hd in f [5]";
  EXPECT_EQ(runWith(Src, Strategy::CallByName).IntValue, 5);
  EXPECT_EQ(runWith(Src, Strategy::CallByNeed).IntValue, 5);
  const char *Src2 = "let m = min in m (2 + 3) (1 + 1)";
  EXPECT_EQ(runWith(Src2, Strategy::CallByName).IntValue, 2);
  EXPECT_EQ(runWith(Src2, Strategy::CallByNeed).IntValue, 2);
}

TEST(LazyTest, MonitoringWorksUnderLazyStrategies) {
  // Annotations fire when the annotated expression is evaluated — under
  // laziness, when the thunk is forced.
  auto P = ParsedProgram::parse(
      "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) "
      "in fac 3");
  ASSERT_TRUE(P->ok());
  // Use the Session-style API via Eval.h in cascade tests; here just check
  // obliviousness under lazy evaluation.
  RunOptions Opts;
  Opts.Strat = Strategy::CallByNeed;
  RunResult R = evaluate(P->root(), Opts);
  EXPECT_EQ(R.IntValue, 6);
}

TEST(LazyTest, StrategyNames) {
  EXPECT_STREQ(strategyName(Strategy::Strict), "strict");
  EXPECT_STREQ(strategyName(Strategy::CallByName), "call-by-name");
  EXPECT_STREQ(strategyName(Strategy::CallByNeed), "call-by-need");
}

TEST(LazyTest, CallByNeedTamesExponentialCallByName) {
  // Mergesort-style repeated destructuring: call-by-name re-evaluates the
  // recursive split chains and blows up exponentially; call-by-need's
  // memoization keeps it polynomial. (This is why the sample-program
  // corpus runs lazy strategies with fuel.)
  const char *Src =
      "letrec merge = lambda a b. "
      "  if a = [] then b else if b = [] then a "
      "  else if hd a <= hd b then hd a : merge (tl a) b "
      "  else hd b : merge a (tl b) in "
      "letrec split = lambda l. "
      "  if l = [] then [[], []] "
      "  else if tl l = [] then [l, []] "
      "  else letrec rest = split (tl (tl l)) in "
      "       (hd l : hd rest) : (hd (tl l) : hd (tl rest)) : [] in "
      "letrec msort = lambda l. "
      "  if l = [] then [] else if tl l = [] then l "
      "  else letrec halves = split l in "
      "       merge (msort (hd halves)) (msort (hd (tl halves))) "
      "in msort [9, 2, 7, 4, 1, 8, 3]";
  auto P = ParsedProgram::parse(Src);
  ASSERT_TRUE(P->ok());

  RunResult Need = runWith(Src, Strategy::CallByNeed, 500000);
  ASSERT_TRUE(Need.Ok) << Need.Error;
  EXPECT_EQ(Need.ValueText, "[1, 2, 3, 4, 7, 8, 9]");

  RunResult Name = runWith(Src, Strategy::CallByName, 500000);
  EXPECT_TRUE(Name.FuelExhausted)
      << "call-by-name should exceed the budget call-by-need met easily";
  EXPECT_GT(Name.Steps, 10 * Need.Steps);
}
