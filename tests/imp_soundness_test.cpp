//===- tests/imp_soundness_test.cpp - Theorem 7.7 for L_imp ----------------===//

#include "imp/ImpMachine.h"
#include "imp/ImpMonitors.h"
#include "monitors/Profiler.h"

#include "RandomImpProgram.h"

#include <gtest/gtest.h>

using namespace monsem;

namespace {
constexpr uint64_t Fuel = 300000;
} // namespace

class ImpSoundnessProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ImpSoundnessProperty, MonitorsPreserveOutputAndStore) {
  ImpContext Ctx;
  const Cmd *Prog = monsem::testing::genImpProgram(Ctx, GetParam());
  ImpRunOptions Opts;
  Opts.Limits.MaxSteps = Fuel;
  ImpRunResult Std = runImp(Prog, Opts);

  ImpStmtProfiler Prof;
  ImpTracer Trc;
  ImpWatchMonitor WatchA("a");
  for (const ImpMonitor *M :
       {static_cast<const ImpMonitor *>(&Prof),
        static_cast<const ImpMonitor *>(&Trc),
        static_cast<const ImpMonitor *>(&WatchA)}) {
    ImpCascade C;
    C.use(*M);
    ImpRunResult Mon = runImp(C, Prog, Opts);
    EXPECT_TRUE(Mon.sameOutcome(Std))
        << "monitor " << M->name() << " changed:\n"
        << printCmd(Prog);
  }
}

TEST_P(ImpSoundnessProperty, StrippingPreservesOutcome) {
  ImpContext Ctx;
  const Cmd *Prog = monsem::testing::genImpProgram(Ctx, GetParam());
  const Cmd *Plain = stripCmdAnnotations(Ctx, Prog);
  ImpRunOptions Opts;
  Opts.Limits.MaxSteps = Fuel;
  EXPECT_TRUE(runImp(Prog, Opts).sameOutcome(runImp(Plain, Opts)))
      << printCmd(Prog);
}

TEST_P(ImpSoundnessProperty, MonitorStatesAreDeterministic) {
  ImpContext Ctx;
  const Cmd *Prog = monsem::testing::genImpProgram(Ctx, GetParam());
  ImpStmtProfiler Prof;
  ImpCascade C;
  C.use(Prof);
  ImpRunOptions Opts;
  Opts.Limits.MaxSteps = Fuel;
  ImpRunResult R1 = runImp(C, Prog, Opts);
  ImpRunResult R2 = runImp(C, Prog, Opts);
  ASSERT_EQ(R1.FinalStates.size(), R2.FinalStates.size());
  for (size_t I = 0; I < R1.FinalStates.size(); ++I)
    EXPECT_EQ(R1.FinalStates[I]->str(), R2.FinalStates[I]->str());
}

TEST_P(ImpSoundnessProperty, CrossLevelMonitoringPreservesOutcome) {
  ImpContext Ctx;
  const Cmd *Prog = monsem::testing::genImpProgram(Ctx, GetParam());
  ImpRunOptions Opts;
  Opts.Limits.MaxSteps = Fuel;
  ImpRunResult Std = runImp(Prog, Opts);

  ImpStmtProfiler CmdProf;
  ImpCascade CmdC;
  CmdC.use(CmdProf);
  CallProfiler ExprProf;
  Cascade ExprC;
  ExprC.use(ExprProf);
  ImpRunResult Mon = runImp(CmdC, ExprC, Prog, Opts);
  EXPECT_TRUE(Mon.sameOutcome(Std)) << printCmd(Prog);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImpSoundnessProperty,
                         ::testing::Range(0u, 80u));
