//===- monitors/Collecting.h - Collecting monitor (Fig. 9) ------*- C++ -*-===//
///
/// \file
/// The collecting monitor a la the collecting interpretation [HY88]: each
/// tagged expression accumulates the set of values it evaluates to during
/// execution. MS = Ide -> {V}; M_post is sigma[x -> sigma(x) ∪ {v}].
///
/// Values are stored *rendered* (as their ToStr text): the observable
/// content is identical and the state then outlives the execution arena
/// that owns cons cells. Sets print in lexicographic order, so the paper's
/// `[test -> {True, False}, n -> {1, 2, 3}]` appears here as
/// `[n -> {1, 2, 3}, test -> {False, True}]` (set/braces content equal).
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_MONITORS_COLLECTING_H
#define MONSEM_MONITORS_COLLECTING_H

#include "monitor/MonitorSpec.h"

#include <map>
#include <set>
#include <string>

namespace monsem {

/// MS = Ide -> {V} (interpretations environment).
class CollectingState : public MonitorState {
public:
  std::map<std::string, std::set<std::string>, std::less<>> Sets;

  const std::set<std::string> *setFor(std::string_view Tag) const {
    auto It = Sets.find(Tag);
    return It == Sets.end() ? nullptr : &It->second;
  }

  std::string str() const override {
    std::string Out = "[";
    bool FirstTag = true;
    for (const auto &[Tag, Vals] : Sets) {
      if (!FirstTag)
        Out += ", ";
      FirstTag = false;
      Out += Tag + " -> {";
      bool FirstVal = true;
      for (const std::string &V : Vals) {
        if (!FirstVal)
          Out += ", ";
        FirstVal = false;
        Out += V;
      }
      Out += "}";
    }
    return Out + "]";
  }

  void save(Serializer &S) const override {
    S.writeU32(static_cast<uint32_t>(Sets.size()));
    for (const auto &[Tag, Vals] : Sets) {
      S.writeString(Tag);
      S.writeU32(static_cast<uint32_t>(Vals.size()));
      for (const std::string &V : Vals)
        S.writeString(V);
    }
  }
  void load(Deserializer &D) override {
    Sets.clear();
    Slots.reset();
    uint32_t NT = D.readU32();
    for (uint32_t I = 0; I < NT && D.ok(); ++I) {
      std::string Tag = D.readString();
      std::set<std::string> Vals;
      uint32_t NV = D.readU32();
      for (uint32_t J = 0; J < NV && D.ok(); ++J)
        Vals.insert(D.readString());
      Sets[std::move(Tag)] = std::move(Vals);
    }
  }

  /// Sets[Tag] ∪= {ToStr(V)}. The set is reached through the per-run
  /// label slots and V is rendered into a reused buffer, so a value
  /// already in the set allocates nothing.
  void collect(Symbol Tag, Value V) {
    Rendered.clear();
    appendDisplayString(Rendered, V);
    Slots.in(Sets, Tag).insert(Rendered);
  }

private:
  LabelSlots<std::set<std::string>> Slots;
  std::string Rendered;
};

class CollectingMonitor : public Monitor {
public:
  std::string_view name() const override { return "collect"; }

  /// MSyn: a bare name tag.
  bool accepts(const Annotation &Ann) const override {
    return !Ann.HasParams;
  }
  std::unique_ptr<MonitorState> initialState() const override {
    return std::make_unique<CollectingState>();
  }

  /// M_pre [x] [e] rho sigma = sigma.
  void pre(const MonitorEvent &, MonitorState &) const override {}

  /// M_post [x] [e] rho v sigma = sigma[x -> sigma(x) ∪ {v}].
  void post(const MonitorEvent &Ev, Value Result,
            MonitorState &State) const override {
    static_cast<CollectingState &>(State).collect(Ev.Ann.Head, Result);
  }

  static const CollectingState &state(const MonitorState &S) {
    return static_cast<const CollectingState &>(S);
  }
};

} // namespace monsem

#endif // MONSEM_MONITORS_COLLECTING_H
