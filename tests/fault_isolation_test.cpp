//===- tests/fault_isolation_test.cpp - Monitor fault boundaries -----------===//
//
// Differential soundness under injected monitor faults: a cascade
// containing a misbehaving monitor (monitors/FaultInjector.h) must still
// produce the standard answer under the Quarantine and RetryThenQuarantine
// policies, on every evaluator (CEK in both environment representations
// and all three strategies, bytecode VM, direct CPS interpreter, and the
// imperative machine), and the monitors that did not fault must end with
// exactly the states of a fault-free monitored run. The Abort policy must
// turn the fault into an ordinary error answer.
//
// This is the quarantine-degenerates-to-G_obl argument (Definition 7.1)
// made executable: skipping a monitor's probes is the oblivious semantics,
// and Theorem 7.7 says the oblivious answer is the standard answer.
//
//===----------------------------------------------------------------------===//

#include "compile/AotEmit.h"
#include "compile/VM.h"
#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "imp/ImpParser.h"
#include "interp/Direct.h"
#include "interp/Eval.h"
#include "monitors/FaultInjector.h"
#include "monitors/Profiler.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {

std::unique_ptr<ParsedProgram> parseOk(std::string_view Src) {
  auto P = ParsedProgram::parse(Src);
  EXPECT_TRUE(P->ok()) << P->diags().str();
  return P;
}

/// fac 6 with one qualified probe for each of two monitors: the counting
/// profiler (which the injector wraps) and the call profiler (untouched).
const char *FacSrc =
    "letrec fac = lambda x. {count:A}: {profile:fac}: "
    "if x = 0 then 1 else x * fac (x - 1) in fac 6";

FaultInjector::Config throwAlways() {
  FaultInjector::Config C;
  C.M = FaultInjector::Mode::Throw;
  C.PerMille = 1000;
  return C;
}

RunOptions optionsFor(Strategy S, bool Lexical) {
  RunOptions Opts;
  Opts.Strat = S;
  Opts.Lexical = Lexical;
  Opts.Limits.MaxSteps = 500000;
  return Opts;
}

/// A monitor whose pre hook throws on its first \p Fails probes, then
/// counts normally — the transient-failure shape RetryThenQuarantine is
/// for.
class FlakyMonitor : public Monitor {
public:
  explicit FlakyMonitor(unsigned Fails) : Fails(Fails) {}

  struct State : MonitorState {
    unsigned Attempts = 0;
    unsigned Counted = 0;
    std::string str() const override { return std::to_string(Counted); }
  };

  std::string_view name() const override { return "flaky"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<State>();
  }
  void pre(const MonitorEvent &, MonitorState &S) const override {
    auto &St = static_cast<State &>(S);
    if (St.Attempts++ < Fails)
      throw std::runtime_error("transient flake");
    ++St.Counted;
  }
  void post(const MonitorEvent &, Value, MonitorState &) const override {}

private:
  unsigned Fails;
};

/// An ImpMonitor whose pre hook always throws.
class ThrowingImpMonitor : public ImpMonitor {
public:
  struct State : MonitorState {
    std::string str() const override { return "<throwing>"; }
  };
  std::string_view name() const override { return "boom"; }
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<State>();
  }
  void pre(const ImpMonitorEvent &, MonitorState &) const override {
    throw std::runtime_error("imp monitor fault");
  }
  void post(const ImpMonitorEvent &, MonitorState &) const override {}
};

/// A monitor that claims only `{site:...}` annotations and throws on its
/// pre or its post hook.
class SiteThrower : public Monitor {
public:
  explicit SiteThrower(bool InPost) : InPost(InPost) {}
  std::string_view name() const override { return "site"; }
  bool accepts(const Annotation &) const override { return false; }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<MonitorState>();
  }
  void pre(const MonitorEvent &, MonitorState &) const override {
    if (!InPost)
      throw std::runtime_error("site fault");
  }
  void post(const MonitorEvent &, Value, MonitorState &) const override {
    if (InPost)
      throw std::runtime_error("site fault");
  }

private:
  bool InPost;
};

/// The Imp counterpart of SiteThrower.
class ImpSiteThrower : public ImpMonitor {
public:
  explicit ImpSiteThrower(bool InPost) : InPost(InPost) {}
  std::string_view name() const override { return "site"; }
  bool accepts(const Annotation &) const override { return false; }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<MonitorState>();
  }
  void pre(const ImpMonitorEvent &, MonitorState &) const override {
    if (!InPost)
      throw std::runtime_error("site fault");
  }
  void post(const ImpMonitorEvent &, MonitorState &) const override {
    if (InPost)
      throw std::runtime_error("site fault");
  }

private:
  bool InPost;
};

} // namespace

//===----------------------------------------------------------------------===//
// Fault site: the probe's annotation text, rendered when the fault happens
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, FaultSiteIsTheAnnotationTextOnEveryBackend) {
  // Qualifier, head and parameter list all appear in the rendering.
  auto P = parseOk("letrec fac = lambda x y. {site:fac(x, y)}: "
                   "if x = 0 then y else fac (x - 1) (x * y) in fac 5 1");
  for (bool InPost : {false, true}) {
    SiteThrower M(InPost);
    for (BackendTag B : {kCEK, kVM, kVMReg, kVMAot, kDirect}) {
      if (B.B == Backend::VMAot && !aotAvailable())
        continue; // No C compiler: vm-aot would run as vm-reg.
      const char *Name = backendCaps(B.B).Name;
      RunResult R = evaluate(M & B, P->root());
      EXPECT_EQ(R.St, Outcome::Ok) << Name << ": " << R.Error;
      EXPECT_EQ(R.IntValue, 120) << Name;
      ASSERT_EQ(R.MonitorFaults.size(), 1u) << Name;
      const MonitorFault &F = R.MonitorFaults[0];
      EXPECT_EQ(F.Site, "{site:fac(x, y)}") << Name;
      EXPECT_EQ(F.InPost, InPost) << Name;
      EXPECT_TRUE(F.Quarantined) << Name;
      EXPECT_NE(F.str().find(" at {site:fac(x, y)} "), std::string::npos)
          << Name << ": " << F.str();
    }
  }

  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Prog = parseImpProgram(
      Ctx, "x := 0; while x < 3 do {site:tick}: x := x + 1 end", Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  for (bool InPost : {false, true}) {
    ImpSiteThrower M(InPost);
    ImpCascade C;
    C.use(M);
    ImpRunResult R = runImp(C, Prog);
    EXPECT_TRUE(R.Ok) << R.Error;
    ASSERT_EQ(R.MonitorFaults.size(), 1u);
    EXPECT_EQ(R.MonitorFaults[0].Site, "{site:tick}");
    EXPECT_EQ(R.MonitorFaults[0].InPost, InPost);
  }
}

//===----------------------------------------------------------------------===//
// Quarantine: the faulty run still produces the standard answer
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, QuarantinePreservesTheAnswerOnEveryMachineVariant) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());

  for (Strategy S :
       {Strategy::Strict, Strategy::CallByName, Strategy::CallByNeed}) {
    for (bool Lexical : {false, true}) {
      RunOptions Opts = optionsFor(S, Lexical);
      RunResult Std = evaluate(P->root(), Opts);
      ASSERT_TRUE(Std.Ok) << Std.Error;

      EvalMode Mode = StrategyTag{S} & (Lexical ? kLexicalEnv : kNamedEnv) &
                      maxSteps(500000);
      // Fault-free monitored run, for the untouched monitor's state.
      Cascade Clean;
      Clean.use(Count).use(Prof);
      RunResult CleanR = evaluate(Mode & Count & Prof, P->root());
      ASSERT_TRUE(CleanR.Ok) << CleanR.Error;
      ASSERT_TRUE(CleanR.MonitorFaults.empty());

      RunResult Mon = evaluate(Mode & Inj & Prof, P->root());

      EXPECT_TRUE(Mon.sameOutcome(Std))
          << strategyName(S) << " lexical=" << Lexical
          << ": std=" << Std.ValueText
          << " mon=" << (Mon.Ok ? Mon.ValueText : Mon.Error);
      EXPECT_EQ(Mon.IntValue, 720);

      // The injector faulted on its first probe and was quarantined.
      ASSERT_EQ(Mon.MonitorFaults.size(), 1u);
      const MonitorFault &F = Mon.MonitorFaults[0];
      EXPECT_EQ(F.MonitorIndex, 0u);
      EXPECT_EQ(F.MonitorName, "count");
      EXPECT_EQ(F.Site, "{count:A}");
      EXPECT_FALSE(F.InPost);
      EXPECT_TRUE(F.Quarantined);
      EXPECT_NE(F.Message.find("injected fault"), std::string::npos);

      // The untouched monitor saw every one of its probes.
      ASSERT_EQ(Mon.FinalStates.size(), 2u);
      EXPECT_EQ(Mon.FinalStates[1]->str(), CleanR.FinalStates[1]->str());
      EXPECT_EQ(CallProfiler::state(*Mon.FinalStates[1]).count("fac"), 7u);
    }
  }
}

TEST(FaultIsolationTest, QuarantinePreservesTheAnswerOnTheVM) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());

  RunOptions Opts;
  RunResult Std = evaluate(P->root(), Opts);
  ASSERT_TRUE(Std.Ok) << Std.Error;

  Cascade Clean;
  Clean.use(Count).use(Prof);
  RunResult CleanR = evaluateCompiled(Clean, P->root(), Opts);
  ASSERT_TRUE(CleanR.Ok) << CleanR.Error;

  Cascade Faulty;
  Faulty.use(Inj).use(Prof);
  RunResult Mon = evaluateCompiled(Faulty, P->root(), Opts);
  EXPECT_TRUE(Mon.sameOutcome(Std))
      << "vm: " << (Mon.Ok ? Mon.ValueText : Mon.Error);
  ASSERT_EQ(Mon.MonitorFaults.size(), 1u);
  EXPECT_TRUE(Mon.MonitorFaults[0].Quarantined);
  ASSERT_EQ(Mon.FinalStates.size(), 2u);
  EXPECT_EQ(Mon.FinalStates[1]->str(), CleanR.FinalStates[1]->str());
}

TEST(FaultIsolationTest, QuarantinePreservesTheAnswerOnTheDirectInterpreter) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());

  RunResult Std = runDirect(P->root());
  ASSERT_TRUE(Std.Ok) << Std.Error;

  Cascade Clean;
  Clean.use(Count).use(Prof);
  RunResult CleanR = runDirect(P->root(), &Clean);
  ASSERT_TRUE(CleanR.Ok) << CleanR.Error;

  Cascade Faulty;
  Faulty.use(Inj).use(Prof);
  DirectOptions Opts;
  RunResult Mon = runDirect(P->root(), &Faulty, Opts);
  EXPECT_TRUE(Mon.sameOutcome(Std))
      << "direct: " << (Mon.Ok ? Mon.ValueText : Mon.Error);
  ASSERT_EQ(Mon.MonitorFaults.size(), 1u);
  EXPECT_EQ(Mon.MonitorFaults[0].MonitorName, "count");
  EXPECT_TRUE(Mon.MonitorFaults[0].Quarantined);
  ASSERT_EQ(Mon.FinalStates.size(), 2u);
  EXPECT_EQ(Mon.FinalStates[1]->str(), CleanR.FinalStates[1]->str());
}

//===----------------------------------------------------------------------===//
// Abort policy
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, AbortPolicyTurnsTheFaultIntoAnError) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());
  Cascade Faulty;
  Faulty.use(Inj).use(Prof);

  RunOptions Opts;
  Opts.MonitorFaultPolicy = FaultPolicy::Abort;
  RunResult R = evaluate(Faulty & onMonitorFault(FaultPolicy::Abort),
                         P->root());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("monitor 'count'"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("injected fault"), std::string::npos) << R.Error;
  ASSERT_EQ(R.MonitorFaults.size(), 1u);
  EXPECT_FALSE(R.MonitorFaults[0].Quarantined);

  // Same on the VM.
  RunResult V = evaluateCompiled(Faulty, P->root(), Opts);
  EXPECT_EQ(V.St, Outcome::Error);
  EXPECT_NE(V.Error.find("monitor 'count'"), std::string::npos) << V.Error;

  // Same on the direct interpreter.
  DirectOptions DOpts;
  DOpts.MonitorFaultPolicy = FaultPolicy::Abort;
  RunResult D = runDirect(P->root(), &Faulty, DOpts);
  EXPECT_EQ(D.St, Outcome::Error);
  EXPECT_NE(D.Error.find("monitor 'count'"), std::string::npos) << D.Error;
}

TEST(FaultIsolationTest, PerMonitorPolicyOverridesTheRunWideDefault) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  CallProfiler Prof;
  FaultInjector Inj(Count, throwAlways());

  // Run-wide default stays Quarantine; the injector alone is marked Abort.
  Cascade Faulty;
  Faulty.use(Inj, FaultPolicy::Abort).use(Prof);
  RunResult R = evaluate(EvalMode(Faulty), P->root());
  EXPECT_EQ(R.St, Outcome::Error);
  EXPECT_NE(R.Error.find("monitor 'count'"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// RetryThenQuarantine
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, RetrySurvivesTransientFaultsWithoutQuarantine) {
  // Bare annotation: qualified ones would route past the flaky monitor.
  auto P = parseOk("letrec fac = lambda x. {step}: "
                   "if x = 0 then 1 else x * fac (x - 1) in fac 6");
  FlakyMonitor Flaky(/*Fails=*/2);
  Cascade C;
  C.use(Flaky);

  RunResult Std = evaluate(P->root(), RunOptions());
  RunResult R = evaluate(
      C & onMonitorFault(FaultPolicy::RetryThenQuarantine, 3), P->root());
  EXPECT_TRUE(R.sameOutcome(Std)) << (R.Ok ? R.ValueText : R.Error);

  // Two transient faults recorded, neither tripped quarantine, and the
  // hook eventually ran for all 7 probes.
  ASSERT_EQ(R.MonitorFaults.size(), 2u);
  EXPECT_FALSE(R.MonitorFaults[0].Quarantined);
  EXPECT_FALSE(R.MonitorFaults[1].Quarantined);
  ASSERT_EQ(R.FinalStates.size(), 1u);
  EXPECT_EQ(R.FinalStates[0]->str(), "7");
}

TEST(FaultIsolationTest, RetryBudgetExhaustionQuarantines) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  FaultInjector Inj(Count, throwAlways()); // Never stops throwing.
  Cascade C;
  C.use(Inj);

  RunResult Std = evaluate(P->root(), RunOptions());
  RunResult R = evaluate(
      C & onMonitorFault(FaultPolicy::RetryThenQuarantine, 2), P->root());
  EXPECT_TRUE(R.sameOutcome(Std)) << (R.Ok ? R.ValueText : R.Error);

  // Budget 2: two retried faults, then the third quarantines.
  ASSERT_EQ(R.MonitorFaults.size(), 3u);
  EXPECT_FALSE(R.MonitorFaults[0].Quarantined);
  EXPECT_FALSE(R.MonitorFaults[1].Quarantined);
  EXPECT_TRUE(R.MonitorFaults[2].Quarantined);
}

//===----------------------------------------------------------------------===//
// Imperative machine
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, ImpCommandMonitorFaultsAreQuarantined) {
  ImpContext Ctx;
  DiagnosticSink Diags;
  const Cmd *Prog = parseImpProgram(
      Ctx, "x := 0; while x < 5 do {tick}: x := x + 1 end; print x", Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();

  ImpRunResult Std = runImp(Prog);
  ASSERT_TRUE(Std.Ok) << Std.Error;

  ThrowingImpMonitor Boom;
  ImpCascade C;
  C.use(Boom);
  ImpRunResult Mon = runImp(C, Prog);
  EXPECT_TRUE(Mon.sameOutcome(Std))
      << (Mon.Ok ? "ok" : Mon.Error);
  ASSERT_EQ(Mon.MonitorFaults.size(), 1u);
  EXPECT_EQ(Mon.MonitorFaults[0].MonitorName, "boom");
  EXPECT_TRUE(Mon.MonitorFaults[0].Quarantined);

  // Abort policy: the same fault ends the run with an error.
  ImpRunOptions Opts;
  Opts.MonitorFaultPolicy = FaultPolicy::Abort;
  ImpRunResult Ab = runImp(C, Prog, Opts);
  EXPECT_FALSE(Ab.Ok);
  EXPECT_EQ(Ab.St, Outcome::Error);
  EXPECT_NE(Ab.Error.find("monitor 'boom'"), std::string::npos) << Ab.Error;
}

//===----------------------------------------------------------------------===//
// Injector transparency
//===----------------------------------------------------------------------===//

TEST(FaultIsolationTest, InjectorAtRateZeroIsInvisible) {
  auto P = parseOk(FacSrc);
  CountingProfiler Count;
  FaultInjector::Config Cfg = throwAlways();
  Cfg.PerMille = 0; // Never faults: forwards every probe.
  FaultInjector Inj(Count, Cfg);

  Cascade Clean, Wrapped;
  Clean.use(Count);
  Wrapped.use(Inj);
  RunResult A = evaluate(EvalMode(Clean), P->root());
  RunResult B = evaluate(EvalMode(Wrapped), P->root());
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_TRUE(B.MonitorFaults.empty());
  ASSERT_EQ(A.FinalStates.size(), 1u);
  ASSERT_EQ(B.FinalStates.size(), 1u);
  EXPECT_EQ(A.FinalStates[0]->str(), B.FinalStates[0]->str());
}
