//===- monitor/Hooks.h - Machine-side monitoring interface ------*- C++ -*-===//
///
/// \file
/// The interface through which an evaluator (the CEK machine, the direct
/// interpreter, the bytecode VM, the imperative machine) communicates
/// monitoring probes. Definition 4.2's annotated-syntax case becomes:
///
///   case {mu}: s'  =>  Hooks.pre(event);
///                      evaluate s' with a continuation that first calls
///                      Hooks.post(event, result) and then continues;
///
/// A null hooks pointer yields the standard semantics (obliviousness,
/// Definition 7.1 — annotations are skipped entirely).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITOR_HOOKS_H
#define MONSEM_MONITOR_HOOKS_H

#include "monitor/MonitorSpec.h"
#include "support/Durability.h"
#include "support/Journal.h"

#include <functional>

namespace monsem {

/// The canonical one-line rendering of a probe event, appended to \p Out.
/// The journal and the event tap (RunOptions::EventSink — what `monsem
/// serve` streams to clients) both render through these, each into a
/// buffer it reuses across events, so every event stream a run can emit
/// (and the `--resume-journal` tail, which prints journaled text) is
/// byte-identical.
inline void appendProbePreText(std::string &Out, const Annotation &Ann) {
  Out += "pre ";
  Ann.appendText(Out);
}
inline void appendProbePostText(std::string &Out, const Annotation &Ann,
                                Value Result) {
  Out += "post ";
  Ann.appendText(Out);
  Out += " = ";
  appendDisplayString(Out, Result);
}

class MonitorHooks {
public:
  virtual ~MonitorHooks() = default;

  /// updPre = M_pre mu sbar' a* : MS -> MS, applied to the current state.
  /// \p Env is a read-only view of whichever environment representation
  /// the evaluator uses (named chain or flat frames). \p AllocatedBytes is
  /// the run's cumulative arena allocation at probe time (enables
  /// allocation-profiling monitors).
  virtual void pre(const Annotation &Ann, const Expr &E, EnvView Env,
                   uint64_t StepIndex, uint64_t AllocatedBytes) = 0;

  /// updPost = M_post mu sbar' a* iota* : MS -> MS.
  virtual void post(const Annotation &Ann, const Expr &E, EnvView Env,
                    Value Result, uint64_t StepIndex,
                    uint64_t AllocatedBytes) = 0;

  /// Checkpoint support: serialize every live monitor state into the
  /// checkpoint's monitor section. The default writes an empty section
  /// (zero monitors), matching hook implementations that carry no state.
  virtual void saveMonitorSection(Serializer &S) const { S.writeU32(0); }

  /// Restores the monitor section written by saveMonitorSection into
  /// freshly initialized states. Mismatches (different cascade) are
  /// reported through D.fail().
  virtual void loadMonitorSection(Deserializer &D) {
    if (D.readU32() != 0)
      D.fail("checkpoint has monitor states but this run has no monitors");
  }
};

/// Decorator that appends every probe event to a run journal before
/// forwarding to the wrapped hooks — the crash-safe event trail the CLI
/// replays after an abort. Checkpoint sections delegate unchanged.
///
/// Append failures are routed to the run's DurabilityTracker (when one is
/// attached): under Abort the tracker throws out of the probe, ending the
/// run; under the degrade policies the event is dropped, the fault is
/// recorded, and — once the journal sink is demoted — further appends are
/// skipped entirely. The wrapped hooks always still see the event: the
/// journal is an observer, and losing it must not change what the monitors
/// observe (Thm. 7.7 one level down).
class JournalingHooks : public MonitorHooks {
public:
  JournalingHooks(MonitorHooks &Inner, Journal &J,
                  DurabilityTracker *Durability = nullptr)
      : Inner(Inner), J(J), Durability(Durability) {}

  void pre(const Annotation &Ann, const Expr &E, EnvView Env,
           uint64_t StepIndex, uint64_t AllocatedBytes) override {
    if (live()) {
      Text.clear();
      appendProbePreText(Text, Ann);
      append(StepIndex);
    }
    Inner.pre(Ann, E, Env, StepIndex, AllocatedBytes);
  }

  void post(const Annotation &Ann, const Expr &E, EnvView Env, Value Result,
            uint64_t StepIndex, uint64_t AllocatedBytes) override {
    if (live()) {
      Text.clear();
      appendProbePostText(Text, Ann, Result);
      append(StepIndex);
    }
    Inner.post(Ann, E, Env, Result, StepIndex, AllocatedBytes);
  }

  void saveMonitorSection(Serializer &S) const override {
    Inner.saveMonitorSection(S);
  }
  void loadMonitorSection(Deserializer &D) override {
    Inner.loadMonitorSection(D);
  }

private:
  /// False once the journal sink is demoted: events are then neither
  /// rendered nor appended.
  bool live() const { return !Durability || !Durability->degraded("journal"); }

  void append(uint64_t StepIndex) {
    if (!J.appendEvent(StepIndex, Text) && Durability)
      Durability->report("journal", J.error(), StepIndex);
  }

  MonitorHooks &Inner;
  Journal &J;
  DurabilityTracker *Durability;
  std::string Text; ///< The current event's rendering, reused per event.
};

/// Decorator that hands every probe event — rendered with the same
/// canonical text the journal records — to an in-process observer before
/// forwarding to the wrapped hooks. This is how `monsem serve` streams a
/// run's probe events to the submitting client: the tap sees exactly the
/// event stream a journaled standalone run would have persisted, byte for
/// byte. Like the journal, the tap is an observer: it cannot change what
/// the monitors see (Thm. 7.7 one level down), and it must not throw.
class EventTapHooks : public MonitorHooks {
public:
  using Sink = std::function<void(uint64_t Step, const std::string &Text)>;

  EventTapHooks(MonitorHooks &Inner, Sink Tap)
      : Inner(Inner), Tap(std::move(Tap)) {}

  void pre(const Annotation &Ann, const Expr &E, EnvView Env,
           uint64_t StepIndex, uint64_t AllocatedBytes) override {
    Text.clear();
    appendProbePreText(Text, Ann);
    Tap(StepIndex, Text);
    Inner.pre(Ann, E, Env, StepIndex, AllocatedBytes);
  }

  void post(const Annotation &Ann, const Expr &E, EnvView Env, Value Result,
            uint64_t StepIndex, uint64_t AllocatedBytes) override {
    Text.clear();
    appendProbePostText(Text, Ann, Result);
    Tap(StepIndex, Text);
    Inner.post(Ann, E, Env, Result, StepIndex, AllocatedBytes);
  }

  void saveMonitorSection(Serializer &S) const override {
    Inner.saveMonitorSection(S);
  }
  void loadMonitorSection(Deserializer &D) override {
    Inner.loadMonitorSection(D);
  }

private:
  MonitorHooks &Inner;
  Sink Tap;
  std::string Text; ///< The current event's rendering, reused per event.
};

} // namespace monsem

#endif // MONSEM_MONITOR_HOOKS_H
