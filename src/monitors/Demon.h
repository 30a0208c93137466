//===- monitors/Demon.h - Event-monitoring demons (Fig. 8) ------*- C++ -*-===//
///
/// \file
/// Section 8's demons, a la Magpie [DMS84]: annotations mark program points
/// where an event of interest may occur; the demon's post function checks a
/// predicate on the produced value and records the label of every point
/// where the event fired.
///
/// `Demon` is the general form (any predicate over values); the paper's
/// instance — a demon that flags program points producing *unsorted* lists
/// — is `Demon::unsortedLists()`. Its state is the name set {Ide}; for the
/// Section 8 example it ends as {l1, l3}.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITORS_DEMON_H
#define MONSEM_MONITORS_DEMON_H

#include "monitor/MonitorSpec.h"

#include <functional>
#include <set>
#include <string>

namespace monsem {

/// MS = {Ide}: the labels of the points where the event occurred.
class DemonState : public MonitorState {
public:
  std::set<std::string> Fired;

  bool fired(std::string_view Label) const {
    return Fired.count(std::string(Label)) != 0;
  }

  /// "{l1, l3}".
  std::string str() const override {
    std::string Out = "{";
    bool First = true;
    for (const std::string &L : Fired) {
      if (!First)
        Out += ", ";
      First = false;
      Out += L;
    }
    return Out + "}";
  }

  void save(Serializer &S) const override {
    S.writeU32(static_cast<uint32_t>(Fired.size()));
    for (const std::string &L : Fired)
      S.writeString(L);
  }
  void load(Deserializer &D) override {
    Fired.clear();
    Seen.reset();
    uint32_t N = D.readU32();
    for (uint32_t I = 0; I < N && D.ok(); ++I)
      Fired.insert(D.readString());
  }

  /// Adds \p Label to Fired; a label already recorded this run costs a
  /// slot lookup.
  void markFired(Symbol Label) {
    Seen.get(Label, [this](std::string L) -> const std::string & {
      return *Fired.insert(std::move(L)).first;
    });
  }

private:
  LabelSlots<const std::string> Seen;
};

/// The paper's `sorted?` predicate: true for non-decreasing integer lists
/// (and vacuously for anything that is not a list).
bool isSortedList(Value V);

class Demon : public Monitor {
public:
  /// Fires (records the annotation label) when \p Event returns true on
  /// the value of the annotated expression.
  Demon(std::string Name, std::function<bool(Value)> Event)
      : MonitorName(std::move(Name)), Event(std::move(Event)) {}

  /// Fig. 8: the demon that checks for unsorted lists.
  static Demon unsortedLists() {
    return Demon("demon", [](Value V) { return !isSortedList(V); });
  }

  std::string_view name() const override { return MonitorName; }

  /// MSyn: a bare program-point label.
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<DemonState>();
  }

  /// M_pre [p] [e] rho sigma = sigma.
  void pre(const MonitorEvent &, MonitorState &) const override {}

  /// M_post: sigma or {p} ∪ sigma, by the event predicate.
  void post(const MonitorEvent &Ev, Value Result,
            MonitorState &State) const override {
    if (Event(Result))
      static_cast<DemonState &>(State).markFired(Ev.Ann.Head);
  }

  static const DemonState &state(const MonitorState &S) {
    return static_cast<const DemonState &>(S);
  }

private:
  std::string MonitorName;
  std::function<bool(Value)> Event;
};

} // namespace monsem

#endif // MONSEM_MONITORS_DEMON_H
