//===- monitors/Tracer.cpp -------------------------------------------------===//

#include "monitors/Tracer.h"

#include <cctype>

using namespace monsem;

// Each event line is built in one string, with no temporaries.
static void appendUpperName(std::string &Out, Symbol S) {
  for (char C : S.str())
    Out += static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
}

static void appendIndent(std::string &Out, int N) {
  if (N > 0)
    Out.append(5 * static_cast<size_t>(N), ' ');
}

std::unique_ptr<MonitorState> Tracer::initialState() const {
  auto S = std::make_unique<TracerState>();
  if (Echo)
    S->Chan.echoTo(Echo);
  return S;
}

void Tracer::pre(const MonitorEvent &Ev, MonitorState &State) const {
  auto &S = static_cast<TracerState &>(State);
  // printChan ("[" ++ f ++ " receives (" ++ ToStr(rho(x1)) ++ ... ++ ")]")
  std::string Line;
  appendIndent(Line, S.Level);
  Line += '[';
  appendUpperName(Line, Ev.Ann.Head);
  Line += " receives (";
  for (size_t I = 0; I < Ev.Ann.Params.size(); ++I) {
    if (I != 0)
      Line += ' ';
    if (auto V = Ev.Env.lookup(Ev.Ann.Params[I]))
      appendDisplayString(Line, *V);
    else
      Line += '?';
  }
  Line += ")]";
  S.Chan.addLine(std::move(Line));
  ++S.Level;
}

void Tracer::post(const MonitorEvent &Ev, Value Result,
                  MonitorState &State) const {
  auto &S = static_cast<TracerState &>(State);
  --S.Level;
  std::string Line;
  appendIndent(Line, S.Level);
  Line += '[';
  appendUpperName(Line, Ev.Ann.Head);
  Line += " returns ";
  appendDisplayString(Line, Result);
  Line += ']';
  S.Chan.addLine(std::move(Line));
}
