//===- tests/machine_test.cpp - CEK machine (standard semantics) -----------===//

#include "interp/Eval.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

RunResult runSrc(std::string_view Src, RunOptions Opts = {}) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  if (!P->ok())
    return RunResult();
  return evaluate(P->root(), Opts);
}

int64_t evalInt(std::string_view Src) {
  RunResult R = runSrc(Src);
  EXPECT_TRUE(R.Ok) << R.Error << " for: " << Src;
  EXPECT_TRUE(R.IntValue.has_value()) << R.ValueText << " for: " << Src;
  return R.IntValue.value_or(INT64_MIN);
}

std::string evalText(std::string_view Src) {
  RunResult R = runSrc(Src);
  EXPECT_TRUE(R.Ok) << R.Error << " for: " << Src;
  return R.ValueText;
}

std::string evalError(std::string_view Src) {
  RunResult R = runSrc(Src);
  EXPECT_FALSE(R.Ok) << "expected failure for: " << Src;
  return R.Error;
}

} // namespace

TEST(MachineTest, Constants) {
  EXPECT_EQ(evalInt("42"), 42);
  EXPECT_EQ(evalText("true"), "True");
  EXPECT_EQ(evalText("[]"), "[]");
  EXPECT_EQ(evalText("\"hi\""), "hi");
}

TEST(MachineTest, Arithmetic) {
  EXPECT_EQ(evalInt("1 + 2 * 3"), 7);
  EXPECT_EQ(evalInt("(1 + 2) * 3"), 9);
  EXPECT_EQ(evalInt("10 / 3"), 3);
  EXPECT_EQ(evalInt("10 % 3"), 1);
  EXPECT_EQ(evalInt("-3 + 1"), -2);
  EXPECT_EQ(evalInt("min 3 (max 1 2)"), 2);
}

TEST(MachineTest, Booleans) {
  EXPECT_EQ(evalText("1 = 1"), "True");
  EXPECT_EQ(evalText("1 <> 1"), "False");
  EXPECT_EQ(evalText("1 < 2 and 2 < 3"), "True");
  EXPECT_EQ(evalText("1 > 2 or 2 > 3"), "False");
  EXPECT_EQ(evalText("not (1 = 2)"), "True");
}

TEST(MachineTest, ShortCircuit) {
  // The right operand must not be evaluated when the left decides.
  EXPECT_EQ(evalText("true or (1 / 0 = 0)"), "True");
  EXPECT_EQ(evalText("false and (1 / 0 = 0)"), "False");
}

TEST(MachineTest, Conditionals) {
  EXPECT_EQ(evalInt("if 1 < 2 then 10 else 20"), 10);
  EXPECT_EQ(evalInt("if 1 > 2 then 10 else 20"), 20);
  EXPECT_NE(evalError("if 1 then 2 else 3").find("boolean"),
            std::string::npos);
}

TEST(MachineTest, LambdaAndApplication) {
  EXPECT_EQ(evalInt("(lambda x. x + 1) 41"), 42);
  EXPECT_EQ(evalInt("(lambda x y. x - y) 10 4"), 6);
  EXPECT_EQ(evalInt("let add = lambda x y. x + y in add 1 2"), 3);
  EXPECT_EQ(evalInt("(lambda f. f (f 3)) (lambda x. x * 2)"), 12);
}

TEST(MachineTest, LexicalScope) {
  EXPECT_EQ(evalInt("let x = 1 in let f = lambda y. x + y in "
                    "let x = 100 in f 10"),
            11)
      << "closures must capture their definition environment";
}

TEST(MachineTest, Letrec) {
  EXPECT_EQ(evalInt("letrec fac = lambda x. if x = 0 then 1 else "
                    "x * fac (x - 1) in fac 5"),
            120);
  EXPECT_EQ(evalInt("letrec fib = lambda n. if n < 2 then n else "
                    "fib (n - 1) + fib (n - 2) in fib 10"),
            55);
}

TEST(MachineTest, LetrecValueBinding) {
  EXPECT_EQ(evalInt("letrec x = 1 + 2 in x"), 3);
  EXPECT_NE(evalError("letrec x = x + 1 in x").find("before initialization"),
            std::string::npos);
}

TEST(MachineTest, NestedLetrec) {
  EXPECT_EQ(
      evalInt("letrec even = lambda n. if n = 0 then 1 else "
              "letrec odd = lambda m. if m = 0 then 0 else even (m - 1) "
              "in odd (n - 1) in even 10"),
      1);
}

TEST(MachineTest, Lists) {
  EXPECT_EQ(evalText("[1, 2, 3]"), "[1, 2, 3]");
  EXPECT_EQ(evalInt("hd [7]"), 7);
  EXPECT_EQ(evalText("tl [1, 2]"), "[2]");
  EXPECT_EQ(evalText("1 : 2 : []"), "[1, 2]");
  EXPECT_EQ(evalText("null []"), "True");
  EXPECT_EQ(evalText("[1, 2] = [1, 2]"), "True");
  EXPECT_EQ(evalText("[1, 2] = [1]"), "False");
}

TEST(MachineTest, ListRecursion) {
  EXPECT_EQ(evalInt("letrec sum = lambda l. if l = [] then 0 else "
                    "hd l + sum (tl l) in sum [1, 2, 3, 4]"),
            10);
  EXPECT_EQ(evalText("letrec map = lambda f l. if l = [] then [] else "
                     "f (hd l) : map f (tl l) in map (lambda x. x * x) "
                     "[1, 2, 3]"),
            "[1, 4, 9]");
  EXPECT_EQ(evalText("letrec rev = lambda l acc. if l = [] then acc else "
                     "rev (tl l) (hd l : acc) in rev [1, 2, 3] []"),
            "[3, 2, 1]");
}

TEST(MachineTest, HigherOrderPrimitives) {
  EXPECT_EQ(evalText("letrec map = lambda f l. if l = [] then [] else "
                     "f (hd l) : map f (tl l) in map hd [[1], [2]]"),
            "[1, 2]");
  EXPECT_EQ(evalInt("let m = min in m 3 1"), 1);
  EXPECT_EQ(evalInt("(min 3) 1"), 1) << "partial prim application";
}

TEST(MachineTest, RuntimeErrors) {
  EXPECT_NE(evalError("x").find("unbound variable"), std::string::npos);
  EXPECT_NE(evalError("1 / 0").find("division by zero"), std::string::npos);
  EXPECT_NE(evalError("1 2").find("non-function"), std::string::npos);
  EXPECT_NE(evalError("hd []").find("hd"), std::string::npos);
  EXPECT_NE(evalError("tl 5").find("tl"), std::string::npos);
}

TEST(MachineTest, FunctionComparisonFails) {
  EXPECT_NE(evalError("(lambda x. x) = (lambda y. y)")
                .find("cannot compare functions"),
            std::string::npos);
}

TEST(MachineTest, FuelExhaustion) {
  auto P = ParsedProgram::parse("letrec loop = lambda x. loop x in loop 1");
  ASSERT_TRUE(P->ok());
  RunOptions Opts;
  Opts.Limits.MaxSteps = 10000;
  RunResult R = evaluate(P->root(), Opts);
  EXPECT_TRUE(R.FuelExhausted);
  EXPECT_FALSE(R.Ok);
}

TEST(MachineTest, DeepRecursionDoesNotOverflowCStack) {
  // 200k non-tail-recursive calls: the continuation lives in the arena.
  EXPECT_EQ(evalInt("letrec sum = lambda n. if n = 0 then 0 else "
                    "n + sum (n - 1) in sum 200000 - 20000100000"),
            0);
}

TEST(MachineTest, AnnotationsAreSkippedWithoutMonitors) {
  // Obliviousness (Definition 7.1).
  EXPECT_EQ(evalInt("{A}: 41 + ({B}: 1)"), 42);
  EXPECT_EQ(evalInt("letrec fac = lambda x. {fac(x)}: if x = 0 then 1 else "
                    "x * fac (x - 1) in fac 5"),
            120);
}

TEST(MachineTest, StringAnswerAlgebra) {
  auto P = ParsedProgram::parse("2 + 4");
  ASSERT_TRUE(P->ok());
  RunOptions Opts;
  Opts.Algebra = &StringAnswerAlgebra::instance();
  RunResult R = evaluate(P->root(), Opts);
  EXPECT_EQ(R.ValueText, "The result is: 6");
}

TEST(MachineTest, StepCountIsReported) {
  RunResult R = runSrc("1 + 2");
  EXPECT_GT(R.Steps, 0u);
  RunResult R2 = runSrc("letrec f = lambda x. if x = 0 then 0 else "
                        "f (x - 1) in f 100");
  EXPECT_GT(R2.Steps, R.Steps);
}

TEST(MachineTest, PaperApplicationOrder) {
  // Fig. 2 evaluates the operand before the operator: the operand's error
  // must win when both sides fail.
  RunResult R = runSrc("(hd []) (1 / 0)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos)
      << "operand (argument) must be evaluated first, got: " << R.Error;
}
