//===- tests/imp_test.cpp - Imperative language module ---------------------===//

#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "imp/ImpParser.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

struct ParsedImp {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *C = nullptr;
};

std::unique_ptr<ParsedImp> parseImp(std::string_view Src) {
  auto P = std::make_unique<ParsedImp>();
  P->C = parseImpProgram(P->Ctx, Src, P->Diags);
  return P;
}

std::unique_ptr<ParsedImp> parseImpOk(std::string_view Src) {
  auto P = parseImp(Src);
  EXPECT_NE(P->C, nullptr) << P->Diags.str();
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Parsing and printing
//===----------------------------------------------------------------------===//

TEST(ImpParserTest, BasicForms) {
  EXPECT_EQ(printCmd(parseImpOk("skip")->C), "skip");
  EXPECT_EQ(printCmd(parseImpOk("x := 1 + 2")->C), "x := 1 + 2");
  EXPECT_EQ(printCmd(parseImpOk("x := 1; y := 2")->C), "x := 1; y := 2");
  EXPECT_EQ(printCmd(parseImpOk("print x * 2")->C), "print x * 2");
  EXPECT_EQ(printCmd(parseImpOk("if x < 1 then skip else y := 2 end")->C),
            "if x < 1 then skip else y := 2 end");
  EXPECT_EQ(printCmd(parseImpOk("if x < 1 then skip end")->C),
            "if x < 1 then skip else skip end");
  EXPECT_EQ(printCmd(parseImpOk("while x > 0 do x := x - 1 end")->C),
            "while x > 0 do x := x - 1 end");
  EXPECT_EQ(printCmd(parseImpOk("{p}: x := 1")->C), "{p}: x := 1");
  EXPECT_EQ(printCmd(parseImpOk("begin x := 1; y := 2 end; z := 3")->C),
            "x := 1; y := 2; z := 3");
}

TEST(ImpParserTest, Errors) {
  EXPECT_TRUE(parseImp("x = 1")->Diags.hasErrors()); // := not =
  EXPECT_TRUE(parseImp("while x do skip")->Diags.hasErrors()); // no end
  EXPECT_TRUE(parseImp("if x then skip")->Diags.hasErrors());
  EXPECT_TRUE(parseImp("x := ")->Diags.hasErrors());
  EXPECT_TRUE(parseImp("{}: skip")->Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Standard semantics
//===----------------------------------------------------------------------===//

TEST(ImpMachineTest, AssignAndPrint) {
  auto P = parseImpOk("x := 2 + 3; print x; print x * x");
  ImpRunResult R = runImp(P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"5", "25"}));
  EXPECT_EQ(R.Store.at("x"), "5");
}

TEST(ImpMachineTest, WhileLoopFactorial) {
  auto P = parseImpOk("n := 6; acc := 1; "
                      "while n > 0 do acc := acc * n; n := n - 1 end; "
                      "print acc");
  ImpRunResult R = runImp(P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"720"}));
  EXPECT_EQ(R.Store.at("n"), "0");
}

TEST(ImpMachineTest, Gcd) {
  auto P = parseImpOk("a := 252; b := 105; "
                      "while a <> b do "
                      "  if a > b then a := a - b else b := b - a end "
                      "end; print a");
  ImpRunResult R = runImp(P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"21"}));
}

TEST(ImpMachineTest, ExpressionSubLanguageIsFullLLambda) {
  // The expression language has lambdas, letrec, and lists.
  auto P = parseImpOk(
      "xs := [3, 1, 2]; "
      "total := (letrec sum = lambda l. if l = [] then 0 else "
      "hd l + sum (tl l) in sum xs); "
      "print total");
  ImpRunResult R = runImp(P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"6"}));
  EXPECT_EQ(R.Store.at("xs"), "[3, 1, 2]");
}

TEST(ImpMachineTest, FunctionsAreStorable) {
  auto P = parseImpOk("f := lambda x. x * 2; y := f 21; print y");
  ImpRunResult R = runImp(P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"42"}));
}

TEST(ImpMachineTest, RuntimeErrors) {
  EXPECT_NE(runImp(parseImpOk("x := y + 1")->C)
                .Error.find("not initialized"),
            std::string::npos);
  EXPECT_NE(runImp(parseImpOk("x := 1 / 0")->C)
                .Error.find("division by zero"),
            std::string::npos);
  EXPECT_NE(runImp(parseImpOk("while 3 do skip end")->C)
                .Error.find("boolean"),
            std::string::npos);
  EXPECT_NE(runImp(parseImpOk("if [] then skip end")->C)
                .Error.find("boolean"),
            std::string::npos);
}

TEST(ImpMachineTest, FuelBoundsInfiniteLoops) {
  auto P = parseImpOk("x := 1; while true do x := x + 1 end");
  ImpRunOptions Opts;
  Opts.Limits.MaxSteps = 10000;
  ImpRunResult R = runImp(P->C, Opts);
  EXPECT_TRUE(R.FuelExhausted);
}

//===----------------------------------------------------------------------===//
// Monitoring semantics
//===----------------------------------------------------------------------===//

TEST(ImpMonitorTest, StmtProfilerCountsLoopBodies) {
  auto P = parseImpOk("n := 5; "
                      "while n > 0 do {body}: n := n - 1 end");
  ImpStmtProfiler Prof;
  ImpCascade C;
  C.use(Prof);
  ImpRunResult R = runImp(C, P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(ImpStmtProfiler::state(*R.FinalStates[0]).count("body"), 5u);
}

TEST(ImpMonitorTest, WatchMonitorLogsChanges) {
  auto P = parseImpOk("a := 10; b := 0; "
                      "{s1}: a := a - 4; "
                      "{s2}: b := b + 1; "
                      "{s3}: a := a - 6");
  ImpWatchMonitor Watch("a");
  ImpCascade C;
  C.use(Watch);
  ImpRunResult R = runImp(C, P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  const auto &Lines = ImpWatchMonitor::state(*R.FinalStates[0]).Chan.lines();
  ASSERT_EQ(Lines.size(), 2u) << "only s1 and s3 change a";
  EXPECT_EQ(Lines[0], "s1: a 10 -> 6");
  EXPECT_EQ(Lines[1], "s3: a 6 -> 0");
}

TEST(ImpMonitorTest, TracerShowsStoreSnapshots) {
  auto P = parseImpOk("x := 1; {outer}: begin {inner}: x := 2; x := 3 end");
  ImpTracer Trc;
  ImpCascade C;
  C.use(Trc);
  ImpRunResult R = runImp(C, P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  const auto &Lines = ImpTracer::state(*R.FinalStates[0]).Chan.lines();
  ASSERT_EQ(Lines.size(), 4u);
  EXPECT_EQ(Lines[0], "-> outer [x = 1]");
  EXPECT_EQ(Lines[1], "  -> inner [x = 1]");
  EXPECT_EQ(Lines[2], "  <- inner [x = 2]");
  EXPECT_EQ(Lines[3], "<- outer [x = 3]");
}

TEST(ImpMonitorTest, InvariantDemon) {
  // Invariant: a + b stays 100.
  Symbol A = Symbol::intern("a"), B = Symbol::intern("b");
  ImpInvariantDemon D("demon", [A, B](const ImpStoreView &S) {
    auto VA = S.lookup(A), VB = S.lookup(B);
    if (!VA || !VB || !VA->is(ValueKind::Int) || !VB->is(ValueKind::Int))
      return true;
    return VA->asInt() + VB->asInt() == 100;
  });
  auto P = parseImpOk("a := 60; b := 40; "
                      "{t1}: begin a := 50; b := 50 end; "
                      "{t2}: a := 70; "
                      "{t3}: b := 30");
  ImpCascade C;
  C.use(D);
  ImpRunResult R = runImp(C, P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.FinalStates[0]->str(), "{t2}");
}

TEST(ImpMonitorTest, CascadeWithQualifiers) {
  auto P = parseImpOk("n := 3; "
                      "while n > 0 do "
                      "{profile:body}: {watch:body}: n := n - 1 end");
  ImpStmtProfiler Prof;
  ImpWatchMonitor Watch("n");
  ImpCascade C;
  C.use(Prof).use(Watch);
  ImpRunResult R = runImp(C, P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(ImpStmtProfiler::state(*R.FinalStates[0]).count("body"), 3u);
  EXPECT_EQ(ImpWatchMonitor::state(*R.FinalStates[1]).Chan.numLines(), 3u);
}

TEST(ImpMonitorTest, AmbiguousCascadeRejected) {
  auto P = parseImpOk("{p}: skip");
  ImpStmtProfiler Prof;
  ImpInvariantDemon D("demon", [](const ImpStoreView &) { return true; });
  ImpCascade C;
  C.use(Prof).use(D);
  ImpRunResult R = runImp(C, P->C);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("two monitors"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Soundness (Theorem 7.7 for L_imp)
//===----------------------------------------------------------------------===//

TEST(ImpSoundnessTest, MonitorsPreserveOutputAndStore) {
  const char *Programs[] = {
      "n := 6; acc := 1; while n > 0 do {body}: begin acc := acc * n; "
      "n := n - 1 end end; print acc",
      "a := 252; b := 105; while a <> b do {step}: if a > b then "
      "a := a - b else b := b - a end end; print a",
      "x := 0; {p}: while x < 10 do {q}: x := x + 3 end; print x",
  };
  ImpStmtProfiler Prof;
  ImpTracer Trc;
  ImpWatchMonitor Watch("x");
  for (const char *Src : Programs) {
    auto P = parseImpOk(Src);
    ImpRunResult Std = runImp(P->C);
    for (const ImpMonitor *M :
         {static_cast<const ImpMonitor *>(&Prof),
          static_cast<const ImpMonitor *>(&Trc)}) {
      ImpCascade C;
      C.use(*M);
      ImpRunResult Mon = runImp(C, P->C);
      EXPECT_TRUE(Mon.sameOutcome(Std)) << Src << " under " << M->name();
    }
  }
}

TEST(ImpSoundnessTest, StrippedProgramAgrees) {
  auto P = parseImpOk("n := 4; while n > 0 do {b}: n := n - 1 end; print n");
  const Cmd *Plain = stripCmdAnnotations(P->Ctx, P->C);
  std::vector<const Annotation *> Anns;
  collectCmdAnnotations(Plain, Anns);
  EXPECT_TRUE(Anns.empty());
  EXPECT_TRUE(runImp(P->C).sameOutcome(runImp(Plain)));
}

//===----------------------------------------------------------------------===//
// read: the program input stream
//===----------------------------------------------------------------------===//

TEST(ImpReadTest, ConsumesInputInOrder) {
  auto P = parseImpOk("read a; read b; print a + b; print a * b");
  ImpRunOptions Opts;
  Opts.Input = {6, 7};
  ImpRunResult R = runImp(P->C, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"13", "42"}));
}

TEST(ImpReadTest, ExhaustedInputIsAnError) {
  auto P = parseImpOk("read a; read b");
  ImpRunOptions Opts;
  Opts.Input = {1};
  ImpRunResult R = runImp(P->C, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("input stream exhausted"), std::string::npos);
}

TEST(ImpReadTest, ReadInLoops) {
  // Sum as many inputs as the first value says.
  auto P = parseImpOk("read n; acc := 0; "
                      "while n > 0 do read x; acc := acc + x; n := n - 1 "
                      "end; print acc");
  ImpRunOptions Opts;
  Opts.Input = {3, 10, 20, 12};
  ImpRunResult R = runImp(P->C, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"42"}));
}

TEST(ImpReadTest, PrintsAndStripsCorrectly) {
  auto P = parseImpOk("{r}: read a; print a");
  EXPECT_EQ(printCmd(P->C), "{r}: read a; print a");
  const Cmd *Plain = stripCmdAnnotations(P->Ctx, P->C);
  EXPECT_EQ(printCmd(Plain), "read a; print a");
}

TEST(ImpReadTest, ReadIsNotAReservedWord) {
  auto P = parseImpOk("read := 5; print read");
  ImpRunResult R = runImp(P->C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"5"}));
}

TEST(ImpReadTest, MonitorsObserveReadValues) {
  auto P = parseImpOk("{r}: read a; {r2}: read a");
  ImpWatchMonitor Watch("a");
  ImpCascade C;
  C.use(Watch);
  ImpRunOptions Opts;
  Opts.Input = {1, 2};
  ImpRunResult R = runImp(C, P->C, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  const auto &Lines = ImpWatchMonitor::state(*R.FinalStates[0]).Chan.lines();
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], "r: a ? -> 1");
  EXPECT_EQ(Lines[1], "r2: a 1 -> 2");
}
