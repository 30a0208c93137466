//===- tests/property_test.cpp - Cross-cutting property tests --------------===//
//
// Properties beyond soundness: printer round-trips over generated trees,
// specializer idempotence, evaluator stack safety under deep nesting, and
// arena accounting.
//
//===----------------------------------------------------------------------===//

#include "interp/Eval.h"
#include "monitors/Profiler.h"
#include "pe/PartialEval.h"
#include "syntax/Parser.h"
#include "syntax/Printer.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <random>

using namespace monsem;

//===----------------------------------------------------------------------===//
// Printer round-trip over generated programs
//===----------------------------------------------------------------------===//

class PrinterRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrinterRoundTrip, ParsePrintParseIsIdentity) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  std::string Printed = printExpr(Prog);
  AstContext Ctx2;
  DiagnosticSink Diags;
  const Expr *Reparsed = parseProgram(Ctx2, Printed, Diags);
  ASSERT_NE(Reparsed, nullptr) << Printed << "\n" << Diags.str();
  EXPECT_TRUE(exprEquals(Prog, Reparsed))
      << "printed:  " << Printed << "\nreprint: " << printExpr(Reparsed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrinterRoundTrip, ::testing::Range(0u, 150u));

//===----------------------------------------------------------------------===//
// Specializer idempotence
//===----------------------------------------------------------------------===//

class PEIdempotence : public ::testing::TestWithParam<unsigned> {};

TEST_P(PEIdempotence, SpecializingTheResidualPreservesTheAnswer) {
  AstContext Ctx;
  const Expr *Prog = monsem::testing::genProgram(Ctx, GetParam());
  AstContext Out1, Out2;
  PEOptions Opts;
  Opts.MaxSteps = 150000;
  PEResult R1 = partialEvaluate(Out1, Prog, Opts);
  PEResult R2 = partialEvaluate(Out2, R1.Residual, Opts);
  RunOptions RO;
  RO.Limits.MaxSteps = 1000000;
  RunResult A = evaluate(Prog, RO);
  RunResult B = evaluate(R2.Residual, RO);
  EXPECT_TRUE(A.sameOutcome(B))
      << printExpr(Prog) << "\n-> " << printExpr(R1.Residual) << "\n-> "
      << printExpr(R2.Residual);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PEIdempotence, ::testing::Range(0u, 40u));

//===----------------------------------------------------------------------===//
// Stack safety under extreme nesting
//===----------------------------------------------------------------------===//

TEST(StressTest, DeeplyNestedAnnotationsAreStackSafe) {
  // 2000 nested {aN}: wrappers around one constant; the machine's MonPost
  // chain must bounce through the trampoline, not the C stack.
  std::string Src;
  for (int I = 0; I < 2000; ++I)
    Src += "{a" + std::to_string(I) + "}: ";
  Src += "42";
  auto P = ParsedProgram::parse(Src);
  ASSERT_TRUE(P->ok()) << P->diags().str();
  EXPECT_EQ(evaluate(P->root()).IntValue, 42);
}

TEST(StressTest, LongConsChainsAreStackSafe) {
  // A 100k-element literal list: Prim2Apply return chains must bounce.
  std::string Src = "letrec build = lambda n. if n = 0 then [] else "
                    "n : build (n - 1) in "
                    "letrec len = lambda l. if l = [] then 0 else "
                    "1 + len (tl l) in len (build 100000)";
  auto P = ParsedProgram::parse(Src);
  ASSERT_TRUE(P->ok());
  RunResult R = evaluate(P->root());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntValue, 100000);
}

TEST(StressTest, DeepLetrecNesting) {
  std::string Src;
  for (int I = 0; I < 500; ++I)
    Src += "letrec x" + std::to_string(I) + " = " + std::to_string(I) +
           " in ";
  Src += "x0 + x499";
  auto P = ParsedProgram::parse(Src);
  ASSERT_TRUE(P->ok());
  EXPECT_EQ(evaluate(P->root()).IntValue, 499);
}

TEST(StressTest, ManyDistinctAnnotationsResolveViaCache) {
  // 500 distinct annotation labels, all claimed by one monitor; the
  // resolution cache must keep this linear.
  std::string Src = "0";
  for (int I = 0; I < 500; ++I)
    Src = "({m" + std::to_string(I) + "}: 1) + (" + Src + ")";
  auto P = ParsedProgram::parse(Src);
  ASSERT_TRUE(P->ok());
  CallProfiler Prof;
  Cascade C;
  C.use(Prof);
  RunResult R = evaluate(C, P->root());
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.IntValue, 500);
  EXPECT_EQ(CallProfiler::state(*R.FinalStates[0]).Counters.size(), 500u);
}

//===----------------------------------------------------------------------===//
// Arena accounting
//===----------------------------------------------------------------------===//

TEST(ArenaAccountingTest, MachineReportsAllocation) {
  auto P = ParsedProgram::parse("letrec f = lambda n. if n = 0 then [] "
                                "else n : f (n - 1) in f 1000");
  ASSERT_TRUE(P->ok());
  StandardMachine M(P->root(), RunOptions());
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok);
  // 1000 cells plus env/frames: at least 16 bytes per cell.
  EXPECT_GT(M.arenaBytes(), 16000u);
}

//===----------------------------------------------------------------------===//
// Parser robustness (fuzz): never crash, always report
//===----------------------------------------------------------------------===//

namespace {

std::string randomText(unsigned Seed) {
  std::mt19937 Rng(Seed);
  const char *Fragments[] = {
      "lambda", "letrec", "let",  "in",  "if",  "then", "else", "(",
      ")",      "[",      "]",    "{",   "}",   ":",    ",",    ".",
      "+",      "-",      "*",    "/",   "=",   "<",    ">",    "x",
      "f",      "42",     "true", "[]",  "\"s\"", "and", "or",  ";",
      ":=",     "while",  "do",   "end", "--c\n", "@",  "hd",   "9999",
  };
  std::uniform_int_distribution<size_t> Pick(0, std::size(Fragments) - 1);
  std::uniform_int_distribution<int> Len(1, 40);
  std::string Out;
  int N = Len(Rng);
  for (int I = 0; I < N; ++I) {
    Out += Fragments[Pick(Rng)];
    Out += ' ';
  }
  return Out;
}

} // namespace

class ParserFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParserFuzz, NeverCrashesAndAlwaysReports) {
  std::string Src = randomText(GetParam());
  AstContext Ctx;
  DiagnosticSink Diags;
  const Expr *E = parseProgram(Ctx, Src, Diags);
  // Either a tree or diagnostics — never silence, never a crash.
  EXPECT_TRUE(E != nullptr || Diags.hasErrors()) << Src;
  if (E) {
    // Whatever parsed must round-trip.
    std::string Printed = printExpr(E);
    AstContext Ctx2;
    DiagnosticSink D2;
    const Expr *E2 = parseProgram(Ctx2, Printed, D2);
    ASSERT_NE(E2, nullptr) << Printed;
    EXPECT_TRUE(exprEquals(E, E2)) << Printed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0u, 300u));
