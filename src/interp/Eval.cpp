//===- interp/Eval.cpp -----------------------------------------------------===//

#include "interp/Eval.h"

#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "interp/Direct.h"

#include <optional>

using namespace monsem;

std::unique_ptr<ParsedProgram> ParsedProgram::parse(std::string_view Source,
                                                    ParseOptions Opts) {
  auto P = std::make_unique<ParsedProgram>();
  P->Root = parseProgram(P->Ctx, Source, P->Diags, Opts);
  return P;
}

namespace {

RunResult errorResult(std::string Msg) {
  RunResult R;
  R.setOutcome(Outcome::Error);
  R.Error = std::move(Msg);
  return R;
}

/// The capability table's verdict on running \p B under \p S, with a
/// durable need when \p Durable.
std::string refusal(Backend B, Strategy S, bool Durable) {
  const BackendCaps &Caps = backendCaps(B);
  if (S != Strategy::Strict && !Caps.Lazy)
    return std::string("the ") + Caps.Name + " backend (" + Caps.Tag +
           ") is strict-only; use the CEK backend or the strict strategy";
  if (Durable && !Caps.Durable)
    return std::string("the ") + Caps.Name + " backend (" + Caps.Tag +
           ") cannot resume, checkpoint, journal or tap events; those need "
           "the CEK or VM backend";
  return "";
}

} // namespace

bool monsem::needsDurable(const RunOptions &O) {
  return O.ResumeFrom || O.RunJournal || O.EventSink || O.CheckpointSink ||
         O.CheckpointEveryNSteps;
}

std::string monsem::capabilityError(const EvalMode &M, bool AddsJournal) {
  return refusal(M.B, M.Strat, AddsJournal || needsDurable(M));
}

namespace {

/// The CEK machine, on flat frames when the program resolves and on the
/// named chain otherwise; monitored when \p Hooks is non-null.
RunResult runCEK(const Expr *Program, MonitorHooks *Hooks, RunOptions Opts) {
  // On resume the machine choice (flat frames vs. named chain) must match
  // the one the checkpoint was written under; adopt it from the header so
  // a default-configured resume always pairs up. Program identity is still
  // guarded by the fingerprint check inside restoreCheckpoint().
  if (Opts.ResumeFrom && Opts.ResumeFrom->valid())
    Opts.Lexical = Opts.ResumeFrom->header().Lexical;
  // Level-2 specialization: resolve once, then run on flat frames. The
  // resolver refuses shared-node programs (!ok), in which case the named
  // chain remains the semantics of record. Cached: one tree is resolved
  // once, process-wide, so concurrent runs sharing a program (Session
  // workers) never race on the annotations.
  std::shared_ptr<const Resolution> Res;
  if (Opts.Lexical) {
    Res = resolveProgramCached(Program);
    if (!Res->ok())
      Res.reset();
  }
  if (!Hooks) {
    if (Res)
      return ResolvedMachine(Program, Opts, NoMonitorPolicy(), Res.get())
          .run();
    return StandardMachine(Program, Opts).run();
  }
  DynamicMonitorPolicy Policy{Hooks};
  if (Res)
    return ResolvedMonitoredMachine(Program, Opts, Policy, Res.get()).run();
  return MonitoredMachine(Program, Opts, Policy).run();
}

/// Compiles \p Program (instrumented when \p Hooks is non-null) and runs it
/// on the stack VM, the register tier, or native code over the register
/// tier.
RunResult runBytecode(Backend B, const Expr *Program, MonitorHooks *Hooks,
                      const RunOptions &Opts) {
  DiagnosticSink Diags;
  CompileOptions CO;
  CO.Instrument = Hooks != nullptr;
  std::unique_ptr<CompiledProgram> CP = compileProgram(Program, Diags, CO);
  if (!CP)
    return errorResult(Diags.str());
  // Register tier: lower after compilation; a program the lowering pass
  // cannot encode (pathological nesting depth) falls back to the stack VM
  // — same observable behavior either way.
  std::unique_ptr<RegProgram> RP;
  if (B != Backend::VM)
    RP = lowerToRegisters(*CP);
  // Native tier on top of the lowering: load (emit + compile + cache) the
  // leaf-block library; any reason it cannot be used — no C compiler,
  // nothing eligible — degrades to the register interpreter with identical
  // observable behavior.
  std::shared_ptr<const AotLibrary> AotLib;
  if (B == Backend::VMAot && RP)
    AotLib = aotLoad(*RP, Opts.AotCacheDir, nullptr);
  if (AotLib)
    return runAotProgram(*RP, *AotLib, Hooks, Opts);
  if (RP)
    return runRegisterProgram(*RP, Hooks, Opts);
  return runCompiled(*CP, Hooks, Opts);
}

/// The definitional CPS interpreter. It derives the cascade into its
/// valuation itself (Fig. 3/5) rather than dispatching through hooks, so
/// it returns its own final states and faults.
RunResult runDirectBackend(const Cascade &C, const Expr *Program,
                           const RunOptions &Opts) {
  DirectOptions D;
  // The direct interpreter's call budget doubles as its fuel bound.
  if (Opts.Limits.MaxSteps)
    D.CallBudget = Opts.Limits.MaxSteps;
  D.Limits = Opts.Limits;
  D.MonitorFaultPolicy = Opts.MonitorFaultPolicy;
  D.MonitorRetryBudget = Opts.MonitorRetryBudget;
  return runDirect(Program, C.empty() ? nullptr : &C, D);
}

/// Points the run at \p T unless an embedder already installed a tracker,
/// and installs the failpoint plan (process-global; see
/// support/FailPoint.h).
void armDurabilityTracker(RunOptions &O, DurabilityTracker &T) {
  if (!O.Durability)
    O.Durability = &T;
  if (!O.FailPointSpec.empty()) {
    // The spec was validated where it entered (CLI flag, combinator); a
    // malformed one here degenerates to "no failpoints", never to UB.
    std::string Err;
    installFailPoints(O.FailPointSpec, Err);
  }
}

/// With a journal armed, rewrites the CheckpointSink so every checkpoint
/// is appended to the journal first (each append reaches the OS before it
/// returns, so it is durable even if the original sink never persists it),
/// then forwarded to the original sink if there was one.
void armJournalCheckpointSink(RunOptions &O) {
  if (!O.RunJournal)
    return;
  Journal *J = O.RunJournal;
  DurabilityTracker *DT = O.Durability;
  O.CheckpointSink = [J, DT, User = std::move(O.CheckpointSink)](
                         const Checkpoint &CK) {
    if (DT->degraded("checkpoint"))
      return;
    if (!J->appendCheckpoint(CK.bytes()))
      DT->report("checkpoint", J->error(), CK.header().SavedSteps);
    if (User)
      User(CK);
  };
}

} // namespace

RunResult monsem::evaluateOn(Backend B, const Cascade &C, const Expr *Program,
                             RunOptions Opts) {
  // 1. Capabilities, before anything is armed or run.
  std::string Refusal = refusal(B, Opts.Strat, needsDurable(Opts));
  if (!Refusal.empty())
    return errorResult(std::move(Refusal));

  // 2. Durability and failpoints.
  DurabilityTracker Tracker(Opts.DurabilityPolicy, Opts.DurabilityRetryBudget);
  armDurabilityTracker(Opts, Tracker);
  armJournalCheckpointSink(Opts);

  // 3. The cascade.
  if (!C.empty()) {
    DiagnosticSink Diags;
    if (!C.validateFor(Program, Diags))
      return errorResult(Diags.str());
  }

  // 4. Hook chain, outermost first: journal -> event tap -> cascade. Both
  // decorators render events with the same canonical text, so the tapped
  // and journaled streams are byte-identical on every backend. The Direct
  // interpreter derives the cascade into its valuation itself and takes no
  // hooks.
  std::optional<RuntimeCascade> RC;
  std::optional<EventTapHooks> ET;
  std::optional<JournalingHooks> JH;
  MonitorHooks *Hooks = nullptr;
  if (!C.empty() && B != Backend::Direct) {
    Hooks = &RC.emplace(C, Opts.MonitorFaultPolicy, Opts.MonitorRetryBudget);
    if (Opts.EventSink)
      Hooks = &ET.emplace(*Hooks, Opts.EventSink);
    if (Opts.RunJournal)
      Hooks = &JH.emplace(*Hooks, *Opts.RunJournal, Opts.Durability);
  }

  // 5. The backend.
  RunResult R;
  switch (B) {
  case Backend::CEK:
    R = runCEK(Program, Hooks, Opts);
    break;
  case Backend::VM:
  case Backend::VMRegister:
  case Backend::VMAot:
    R = runBytecode(B, Program, Hooks, Opts);
    break;
  case Backend::Direct:
    R = runDirectBackend(C, Program, Opts);
    break;
  }

  // 6. Final states and faults.
  if (RC) {
    R.FinalStates = RC->takeStates();
    R.MonitorFaults = RC->takeFaults();
  }
  R.DurabilityFaults = Opts.Durability->takeFaults();
  return R;
}

RunResult monsem::evaluate(const Expr *Program, RunOptions Opts) {
  return evaluateOn(Backend::CEK, Cascade(), Program, std::move(Opts));
}

RunResult monsem::evaluate(const EvalMode &Mode, const Expr *Program) {
  return evaluateOn(Mode.B, Mode.C, Program, Mode.runOptions());
}

EvalMode monsem::resumeAsWritten(EvalMode M, const Checkpoint &CK) {
  M = std::move(M) & resumeFrom(CK);
  if (CK.header().Backend == CheckpointBackend::CEK)
    M.B = Backend::CEK;
  else if (M.B != Backend::VMRegister && M.B != Backend::VMAot)
    M.B = Backend::VM;
  M.Strat = static_cast<Strategy>(CK.header().Strategy);
  return M;
}

std::string monsem::describeStates(const Cascade &C, const RunResult &R) {
  std::string Out;
  for (unsigned I = 0; I < C.size() && I < R.FinalStates.size(); ++I) {
    Out += C.monitor(I).name();
    Out += ": ";
    Out += R.FinalStates[I]->str();
    Out += '\n';
  }
  return Out;
}
