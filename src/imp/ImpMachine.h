//===- imp/ImpMachine.h - L_imp evaluator -----------------------*- C++ -*-===//
///
/// \file
/// The standard and monitoring semantics of L_imp. Commands execute over a
/// store with an explicit command-continuation stack (the defunctionalized
/// command continuations); the annotated-command case is Definition 4.2
/// again: run updPre, push a post-probe continuation entry, run the inner
/// command.
///
/// Expressions are evaluated by a recursive L_lambda evaluator whose
/// environment is the store extended with the primitives; expression-level
/// annotations inside an imperative program are skipped (the imperative
/// module monitors commands — its valuation function of interest is C, not
/// E).
///
/// The answer of a program is <output stream, final store> (plus monitor
/// states when monitored).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_IMP_IMPMACHINE_H
#define MONSEM_IMP_IMPMACHINE_H

#include "imp/ImpMonitor.h"
#include "monitor/Cascade.h"
#include "support/Governor.h"

#include <map>
#include <string>
#include <vector>

namespace monsem {

struct ImpRunOptions {
  unsigned MaxExprDepth = 8000; ///< C-stack guard for expression recursion.
  /// The program's input stream, consumed by `read x` (integers).
  std::vector<int64_t> Input;
  /// Resource budget: fuel (Limits.MaxSteps; commands and expression nodes
  /// each cost one unit), deadline, arena cap, depth bound, cancellation.
  /// Limits.MaxDepth bounds both the command work stack and expression
  /// recursion depth.
  ResourceLimits Limits;
  /// Run-wide default for what happens when a monitor hook throws.
  FaultPolicy MonitorFaultPolicy = FaultPolicy::Quarantine;
  unsigned MonitorRetryBudget = 3;
};

struct ImpRunResult {
  /// How the run ended; `Ok`/`FuelExhausted` are mirrors kept for older
  /// callers — always set St through setOutcome().
  Outcome St = Outcome::Error;
  bool Ok = false;
  bool FuelExhausted = false;
  std::string Error;
  uint64_t Steps = 0;
  std::vector<std::string> Output;              ///< print lines, in order.
  std::map<std::string, std::string> Store;     ///< Final store, rendered.
  std::vector<std::unique_ptr<MonitorState>> FinalStates;
  /// Faults the monitor fault boundary recorded (command-level cascade
  /// first, then the expression cascade).
  std::vector<MonitorFault> MonitorFaults;

  void setOutcome(Outcome O) {
    St = O;
    Ok = O == Outcome::Ok;
    FuelExhausted = O == Outcome::FuelExhausted;
  }

  bool stoppedByGovernor() const { return isGovernanceStop(St); }

  bool sameOutcome(const ImpRunResult &O) const {
    if (St != O.St)
      return false;
    if (St == Outcome::Error)
      return Error == O.Error;
    if (St != Outcome::Ok)
      return true; // Same governance stop.
    return Output == O.Output && Store == O.Store;
  }
};

/// Standard semantics (annotations skipped).
ImpRunResult runImp(const Cmd *Program, ImpRunOptions Opts = {});

/// Monitoring semantics under \p C (validates disjointness first).
ImpRunResult runImp(const ImpCascade &C, const Cmd *Program,
                    ImpRunOptions Opts = {});

/// Full monitoring: command-level monitors \p C plus an L_lambda cascade
/// \p ExprC over the annotations *inside* the commands' expressions — the
/// two derivations composed across language levels. Expression-monitor
/// states are appended after the command-monitor states in FinalStates.
ImpRunResult runImp(const ImpCascade &C, const Cascade &ExprC,
                    const Cmd *Program, ImpRunOptions Opts = {});

/// Collects every annotation inside the program's expressions (as opposed
/// to collectCmdAnnotations, which gathers the command-level ones).
void collectImpExprAnnotations(const Cmd *Program,
                               std::vector<const Annotation *> &Out);

} // namespace monsem

#endif // MONSEM_IMP_IMPMACHINE_H
