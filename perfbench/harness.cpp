//===- perfbench/harness.cpp - In-process side of the monsem benchmark ----===//
///
/// The benchmark's C++ half. It calls monsem's public module functions from
/// outside and never changes them. `run.py` generates every program and
/// expected answer and hands them over as a JSON manifest; this binary
/// loads it with monsem's own json::parse.
///
///   perfbench_harness info
///       Build configuration as one JSON line: AOT compiler id, build type,
///       Value representation, threaded dispatch, nproc.
///   perfbench_harness inproc <manifest> <seconds> <tmpdir> <journal 0|1>
///       The `monitored` / `journaled` workloads: timed setups (in forked
///       children, each with a cold AOT cache), then a closed loop of
///       evaluate(mode, expr) calls for <seconds>.
///   perfbench_harness reference <manifest> <tmpdir>
///       Untimed standalone runs of every job: step counts, monitor finals
///       and probe counts, which run.py compares with CLI and serve runs.
///   perfbench_harness trace <manifest> <tmpdir> <spans.jsonl|->
///       The layer ladder: each job goes through parse, annotate, pe,
///       resolve, compile, lower, AOT emit/cc/dlopen, every tier's run loop
///       with and without monitors, journal and checkpoint I/O, and then an
///       in-process Session with the daemon's configuration. With a spans
///       path every layer call is recorded as a span; with "-" nothing is
///       recorded, which is the untraced baseline for the tracing overhead.
///
/// Output is one JSON line on stdout. Exit code 3 means the build is not
/// fit to be measured: Debug, sanitizer, no working vm-aot tier, or a vm-aot
/// job whose native library does not load (evaluate() would silently run it
/// on vm-reg instead).
///
//===----------------------------------------------------------------------===//

#include "analysis/Resolver.h"
#include "compile/AotEmit.h"
#include "compile/Compiler.h"
#include "compile/VM.h"
#include "imp/ImpMachine.h"
#include "imp/ImpParser.h"
#include "interp/Eval.h"
#include "monitors/CallGraph.h"
#include "monitors/Collecting.h"
#include "monitors/CostProfiler.h"
#include "monitors/Coverage.h"
#include "monitors/Demon.h"
#include "monitors/Profiler.h"
#include "pe/PartialEval.h"
#include "server/Protocol.h"
#include "server/Session.h"
#include "support/Checkpoint.h"
#include "support/Journal.h"
#include "syntax/Annotator.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <tuple>
#include <time.h>
#include <unistd.h>
#include <vector>

using namespace monsem;

namespace {

uint64_t nowNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return uint64_t(T.tv_sec) * 1000000000ull + uint64_t(T.tv_nsec);
}

[[noreturn]] void die(const std::string &Msg, int Code = 2) {
  std::fprintf(stderr, "perfbench_harness: %s\n", Msg.c_str());
  std::exit(Code);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string jstr(std::string_view S) {
  std::string Out;
  json::appendQuoted(Out, S);
  return Out;
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Build configuration
//===----------------------------------------------------------------------===//

bool sanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

std::string infoJson() {
  std::string S = "{\"aot_compiler\":" + jstr(aotCompilerId());
  S += ",\"aot_available\":" + std::string(aotAvailable() ? "true" : "false");
  S += ",\"build_type\":" + jstr(PERFBENCH_BUILD_TYPE);
#ifdef MONSEM_VALUE_BOXED
  S += ",\"value_repr\":\"boxed\"";
#else
  S += ",\"value_repr\":\"tagged\"";
#endif
  S += ",\"threaded_dispatch\":" +
       std::string(vmThreadedDispatchAvailable() ? "true" : "false");
  S += ",\"sanitizer\":" + std::string(sanitizerBuild() ? "true" : "false");
#ifdef NDEBUG
  S += ",\"ndebug\":true";
#else
  S += ",\"ndebug\":false";
#endif
  S += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  return S + "}";
}

/// Refuses to measure a silently degraded configuration.
void requireFitBuild() {
  std::string Bt = PERFBENCH_BUILD_TYPE;
  if (Bt == "Debug" || Bt.empty())
    die("refusing to measure a '" + Bt + "' build", 3);
  if (sanitizerBuild())
    die("refusing to measure a sanitizer build", 3);
  if (!aotAvailable())
    die("vm-aot is unavailable (no C compiler or boxed Values); evaluate() "
        "would silently fall back to vm-reg",
        3);
}

//===----------------------------------------------------------------------===//
// Manifest: jobs = program + flags + expected answer
//===----------------------------------------------------------------------===//

struct Job {
  std::string Id, Group, Kind, Src, Value, Profile, Backend, Tenant;
  std::vector<int64_t> Input;
  std::vector<std::string> Monitors, Names;
  bool Light = false;
};

/// The daemon flags of serve_tenants, which the traced Session mirrors.
struct ServeConfig {
  unsigned Workers = 0;
  uint64_t Quantum = 0;
  uint64_t MaxResidentBytes = 0;
};

struct Manifest {
  std::vector<Job> Jobs;
  std::vector<size_t> Schedule; ///< Job order of the closed loop.
  std::optional<ServeConfig> Serve; ///< Present in trace manifests only.
};

/// Checkpoint interval of journaled runs, in machine steps.
constexpr uint64_t kCheckpointEvery = 65536;
/// Timed set-ups per inproc run; setup_s is their median.
constexpr unsigned kSetups = 3;

Manifest loadManifest(const std::string &Path) {
  json::Value Root;
  std::string Err;
  if (!json::parse(readFile(Path), Root, Err))
    die("bad manifest: " + Err);
  Manifest M;
  auto Str = [](const json::Value &V, const char *K) {
    const json::Value *F = V.field(K);
    return F ? std::string(F->strOr()) : std::string();
  };
  auto Strs = [](const json::Value &V, const char *K) {
    std::vector<std::string> Out;
    if (const json::Value *F = V.field(K))
      for (const json::Value &E : F->Elems)
        Out.emplace_back(E.strOr());
    return Out;
  };
  auto Bool = [](const json::Value &V, const char *K) {
    const json::Value *F = V.field(K);
    return F && F->boolOr();
  };
  if (const json::Value *Js = Root.field("jobs"))
    for (const json::Value &V : Js->Elems) {
      Job J;
      J.Id = Str(V, "id");
      J.Group = Str(V, "group");
      J.Kind = Str(V, "kind");
      J.Src = Str(V, "src");
      J.Value = Str(V, "value");
      J.Profile = Str(V, "profile");
      J.Backend = Str(V, "backend");
      J.Tenant = Str(V, "tenant");
      J.Monitors = Strs(V, "monitors");
      J.Names = Strs(V, "names");
      J.Light = Bool(V, "light");
      if (const json::Value *F = V.field("input"))
        for (const json::Value &E : F->Elems)
          J.Input.push_back(E.intOr());
      M.Jobs.push_back(std::move(J));
    }
  if (const json::Value *S = Root.field("schedule"))
    for (const json::Value &E : S->Elems)
      M.Schedule.push_back(size_t(E.intOr()));
  if (M.Schedule.empty())
    for (size_t I = 0; I < M.Jobs.size(); ++I)
      M.Schedule.push_back(I);
  if (const json::Value *C = Root.field("config")) {
    auto Req = [C](const char *K) {
      const json::Value *F = C->field(K);
      if (!F || F->intOr(0) <= 0)
        die(std::string("manifest config lacks ") + K);
      return uint64_t(F->intOr(0));
    };
    M.Serve = ServeConfig{unsigned(Req("workers")), Req("quantum"),
                          Req("max_resident_bytes")};
  }
  for (size_t I : M.Schedule)
    if (I >= M.Jobs.size())
      die("schedule index out of range");
  return M;
}

Backend backendOf(const std::string &B) {
  if (B == "vm")
    return Backend::VM;
  if (B == "vm-reg")
    return Backend::VMRegister;
  if (B == "vm-aot")
    return Backend::VMAot;
  return Backend::CEK;
}

//===----------------------------------------------------------------------===//
// Tracing: spans recorded in memory, written as JSONL at the end
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name, Layer;
  uint64_t Start = 0, End = 0;
  int64_t Parent = -1;
  int64_t Run = -1;
};

class SpanLog {
public:
  bool Enabled = false;

  /// Opens a span on the calling thread's stack; returns its index.
  int64_t open(std::string Name, std::string Layer, int64_t Run) {
    if (!Enabled)
      return -1;
    std::lock_guard<std::mutex> L(M);
    Span S;
    S.Name = std::move(Name);
    S.Layer = std::move(Layer);
    S.Run = Run;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Start = nowNs();
    Spans.push_back(std::move(S));
    Stack.push_back(int64_t(Spans.size() - 1));
    return Stack.back();
  }
  void close(int64_t Id) {
    if (Id < 0)
      return;
    std::lock_guard<std::mutex> L(M);
    Spans[size_t(Id)].End = nowNs();
    if (!Stack.empty() && Stack.back() == Id)
      Stack.pop_back();
  }
  /// Records a finished span measured elsewhere (a worker callback, a
  /// forked child) under \p Parent.
  int64_t add(std::string Name, std::string Layer, uint64_t Start,
              uint64_t End, int64_t Parent, int64_t Run) {
    if (!Enabled)
      return -1;
    std::lock_guard<std::mutex> L(M);
    Span S{std::move(Name), std::move(Layer), Start, End, Parent, Run};
    Spans.push_back(std::move(S));
    return int64_t(Spans.size() - 1);
  }
  void setEnd(int64_t Id, uint64_t End) {
    if (Id < 0)
      return;
    std::lock_guard<std::mutex> L(M);
    Spans[size_t(Id)].End = End;
  }
  int64_t top() const { return Stack.empty() ? -1 : Stack.back(); }

  /// Self time per span: its duration minus its children's.
  std::vector<int64_t> selfTimes() const {
    std::vector<int64_t> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[I] = int64_t(Spans[I].End - Spans[I].Start);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[size_t(S.Parent)] -= int64_t(S.End - S.Start);
    return Self;
  }

  std::vector<Span> Spans;

private:
  std::mutex M;
  std::vector<int64_t> Stack;
};

SpanLog Trace;

/// Mean duration of the outermost layer calls, keyed "name#run". Compared
/// between a traced and an untraced ladder it gives the tracing overhead
/// without the forked cc children and the Session polling, which are not
/// layer calls. Means, because a call's repetitions depend on its speed.
std::map<std::string, std::pair<uint64_t, uint64_t>> LayerCalls;
int LayerCallDepth = 0;

/// RAII span on the main thread; also measures its own duration, so the
/// ladder gets its timings whether or not spans are recorded. The duration
/// includes recording the span. A container scope (Counted false) is not a
/// layer call itself.
class Scope {
public:
  Scope(const char *Name, const char *Layer, int64_t Run, bool Counted = true)
      : Key(Counted && LayerCallDepth == 0
                ? std::string(Name) + "#" + std::to_string(Run)
                : std::string()),
        Counted(Counted), T0(nowNs()), Id(Trace.open(Name, Layer, Run)) {
    LayerCallDepth += Counted;
  }
  ~Scope() { stop(); }
  uint64_t stop() {
    if (!Done) {
      Trace.close(Id);
      Ns = nowNs() - T0;
      Done = true;
      LayerCallDepth -= Counted;
      if (!Key.empty()) {
        auto &[Sum, N] = LayerCalls[Key];
        Sum += Ns;
        ++N;
      }
    }
    return Ns;
  }
private:
  std::string Key; ///< Non-empty for an outermost layer call.
  bool Counted;
  uint64_t T0;
  int64_t Id;
  uint64_t Ns = 0;
  bool Done = false;
};

//===----------------------------------------------------------------------===//
// Preparing a job: parse, prelude, annotate, pe, cascade
//===----------------------------------------------------------------------===//

struct Prepared {
  std::unique_ptr<ParsedProgram> P;
  const Expr *Program = nullptr;
  std::vector<std::unique_ptr<Monitor>> Mons;
  std::vector<std::string> MonNames;
  EvalMode Mode; ///< Cascade + strategy + backend + AOT cache.
  // imp jobs
  ImpContext ImpCtx;
  const Cmd *ImpProgram = nullptr;
};

/// Builds the monitors a job asks for, annotating the program the way the
/// CLI and the daemon do (one qualifier per monitor kind).
void addMonitors(Prepared &Pr, const Job &J, int64_t Run) {
  std::vector<Symbol> Names;
  for (const std::string &N : J.Names)
    Names.push_back(Symbol::intern(N));
  Scope S("syntax.annotate", "syntax", Run);
  auto Annotate = [&](const char *Qual) {
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern(Qual);
    Pr.Program =
        annotateFunctionBodies(Pr.P->context(), Pr.Program, Names, AO);
  };
  for (const std::string &K : J.Monitors) {
    std::unique_ptr<Monitor> M;
    if (K == "profile") {
      Annotate("profile");
      M = std::make_unique<CallProfiler>();
    } else if (K == "cost") {
      Annotate("cost");
      M = std::make_unique<CostProfiler>();
    } else if (K == "callgraph") {
      Annotate("callgraph");
      M = std::make_unique<CallGraphMonitor>();
    } else if (K == "coverage") {
      unsigned N = 0;
      Pr.Program = labelProgramPoints(Pr.P->context(), Pr.Program, "p",
                                      Symbol::intern("cover"), &N);
      M = std::make_unique<CoverageMonitor>(N);
    } else if (K == "collect") {
      M = std::make_unique<CollectingMonitor>();
    } else if (K == "demon") {
      M = std::make_unique<Demon>(Demon::unsortedLists());
    } else {
      die("unknown monitor " + K);
    }
    Pr.MonNames.push_back(std::string(M->name()));
    Pr.Mode.C.use(*M);
    Pr.Mons.push_back(std::move(M));
  }
}

std::unique_ptr<Prepared> prepare(const Job &J, const std::string &AotDir,
                                  int64_t Run) {
  auto Pr = std::make_unique<Prepared>();
  if (J.Kind == "imp") {
    Scope S("imp.parse", "imp", Run);
    DiagnosticSink D;
    Pr->ImpProgram = parseImpProgram(Pr->ImpCtx, J.Src, D);
    if (!Pr->ImpProgram)
      die("imp parse failed for " + J.Id + ": " + D.str());
    return Pr;
  }
  {
    Scope S("syntax.parse", "syntax", Run);
    Pr->P = ParsedProgram::parse(J.Src);
  }
  if (!Pr->P->ok())
    die("parse failed for " + J.Id + ": " + Pr->P->diags().str());
  Pr->Program = Pr->P->root();
  addMonitors(*Pr, J, Run);
  Pr->Mode.B = backendOf(J.Backend);
  Pr->Mode.AotCacheDir = AotDir;
  return Pr;
}

/// evaluate() runs a vm-aot job on the register VM, with nothing to show
/// for it, whenever aotLoad returns null. This loads the job's library the
/// way evaluate() does and refuses to go on if it does not load.
void requireAot(const Job &J, const Prepared &Pr) {
  if (Pr.Mode.B != Backend::VMAot)
    return;
  DiagnosticSink D;
  CompileOptions CO;
  CO.Instrument = !Pr.Mode.C.empty();
  std::unique_ptr<CompiledProgram> CP = compileProgram(Pr.Program, D, CO);
  std::unique_ptr<RegProgram> RP = CP ? lowerToRegisters(*CP) : nullptr;
  std::string Why = "compile or lowering failed: " + D.str();
  if (!RP || !aotLoad(*RP, Pr.Mode.AotCacheDir, &Why))
    die("vm-aot would fall back to vm-reg for " + J.Id + ": " + Why, 3);
}

/// Tiers that count the same steps: the stack, register and native VMs;
/// the CEK machine.
const char *stepFamily(const std::string &Backend) {
  return Backend == "cek" ? "cek" : "vm";
}

/// Checks a run against the oracle (answer, profiler state) and against
/// the first run of the same program and monitors. Tiers of one step
/// family (see stepFamily) must report identical step counts and monitor
/// finals; across families only the step-independent finals (all but the
/// cost profiler's) must agree. Returns "" when correct.
using RefMap = std::map<std::string, std::pair<uint64_t, std::string>>;
std::string check(const Job &J, const Prepared &Pr, const RunResult &R,
                  RefMap &Ref, const char *Family) {
  if (!R.Ok)
    return J.Id + ": run failed: " + R.Error;
  if (R.ValueText != J.Value)
    return J.Id + ": answer " + R.ValueText + " != " + J.Value;
  if (!R.MonitorFaults.empty())
    return J.Id + ": monitor fault";
  std::string Finals, Portable, Key = J.Group;
  for (size_t I = 0; I < Pr.MonNames.size() && I < R.FinalStates.size(); ++I) {
    std::string St = R.FinalStates[I]->str();
    if (Pr.MonNames[I] == "profile" && !J.Profile.empty() && St != J.Profile)
      return J.Id + ": profile " + St + " != " + J.Profile;
    Key += "/" + Pr.MonNames[I];
    Finals += St + "\n";
    if (Pr.MonNames[I] != "cost")
      Portable += St + "\n";
  }
  auto [It, Fresh] = Ref.try_emplace(Key + "#" + Family, R.Steps, Finals);
  if (!Fresh && (It->second.first != R.Steps || It->second.second != Finals))
    return J.Id + ": steps/finals differ across tiers (" +
           std::to_string(R.Steps) + " vs " +
           std::to_string(It->second.first) + ")";
  auto [Pt, PFresh] = Ref.try_emplace(Key, 0, Portable);
  if (!PFresh && Pt->second.second != Portable)
    return J.Id + ": monitor finals differ between CEK and VM tiers";
  return "";
}

std::string jsonStrings(const std::vector<std::string> &V) {
  std::string S = "[";
  for (size_t I = 0; I < V.size(); ++I)
    S += (I ? "," : "") + jstr(V[I]);
  return S + "]";
}

//===----------------------------------------------------------------------===//
// inproc: the monitored and journaled workloads
//===----------------------------------------------------------------------===//

struct Ready {
  std::vector<std::unique_ptr<Prepared>> Preps;
  RefMap Ref;
  std::vector<std::string> Errors;
};

/// Parse, annotate, load every vm-aot library (compiling it into \p AotDir)
/// and one warm-up run per job.
void setUp(const Manifest &M, const std::string &AotDir, Ready &R) {
  for (size_t I = 0; I < M.Jobs.size(); ++I) {
    R.Preps.push_back(prepare(M.Jobs[I], AotDir, int64_t(I)));
    requireAot(M.Jobs[I], *R.Preps.back());
    RunResult Res = evaluate(R.Preps.back()->Mode, R.Preps.back()->Program);
    std::string E = check(M.Jobs[I], *R.Preps.back(), Res, R.Ref,
                          stepFamily(M.Jobs[I].Backend));
    if (!E.empty())
      R.Errors.push_back("setup " + E);
  }
}

int runInproc(const Manifest &M, double Seconds, const std::string &Tmp,
              bool Journaled) {
  // Timed setups, each in a forked child with its own cold AOT cache so
  // every sample pays the same parse + annotate + cc + warm-up work.
  std::vector<double> SetupS;
  for (unsigned K = 0; K < kSetups; ++K) {
    std::string Dir = Tmp + "/aot-setup-" + std::to_string(K);
    int Fd[2];
    if (pipe(Fd) != 0)
      die("pipe failed");
    uint64_t T0 = nowNs();
    pid_t Pid = fork();
    if (Pid == 0) {
      close(Fd[0]);
      Ready R;
      setUp(M, Dir, R);
      uint64_t Ns = nowNs() - T0;
      for (const std::string &E : R.Errors)
        std::fprintf(stderr, "perfbench_harness: %s\n", E.c_str());
      ssize_t W = write(Fd[1], &Ns, sizeof(Ns));
      _exit(W == sizeof(Ns) && R.Errors.empty() ? 0 : 1);
    }
    close(Fd[1]);
    uint64_t Ns = 0;
    ssize_t Got = read(Fd[0], &Ns, sizeof(Ns));
    close(Fd[0]);
    int St = 0;
    waitpid(Pid, &St, 0);
    if (Got != sizeof(Ns) || !WIFEXITED(St) || WEXITSTATUS(St) != 0)
      die("setup child failed", WIFEXITED(St) && WEXITSTATUS(St) == 3 ? 3 : 2);
    SetupS.push_back(double(Ns) / 1e9);
  }

  // The measured process reuses the last child's libraries (dlopen only).
  Ready R;
  setUp(M, Tmp + "/aot-setup-" + std::to_string(kSetups - 1), R);

  std::string JDir = Tmp + "/journal";
  std::filesystem::create_directories(JDir);
  std::string Runs;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t Start = nowNs(), Deadline = Start + uint64_t(Seconds * 1e9);
  size_t Pos = 0;
  while (nowNs() < Deadline || Pos % M.Schedule.size() != 0) {
    size_t I = M.Schedule[Pos++ % M.Schedule.size()];
    const Job &J = M.Jobs[I];
    Prepared &Pr = *R.Preps[I];
    std::unique_ptr<Journal> Jn;
    std::string JPath = JDir + "/run.journal";
    EvalMode Mode = Pr.Mode;
    if (Journaled) {
      std::string Err;
      Jn = Journal::open(JPath, Err);
      if (!Jn)
        die("cannot open journal: " + Err);
      Mode = Mode & journalInto(*Jn) & checkpointEveryNSteps(kCheckpointEvery);
      Mode.CheckpointOnStop = true;
    }
    uint64_t T0 = nowNs();
    RunResult Res = evaluate(Mode, Pr.Program);
    uint64_t Ns = nowNs() - T0;
    ++Attempted;
    std::string E = check(J, Pr, Res, R.Ref, stepFamily(J.Backend));
    if (Journaled) {
      if (Jn->failed() || !Res.DurabilityFaults.empty())
        E = J.Id + ": journal failed";
      Jn.reset();
      std::filesystem::remove(JPath);
    }
    if (!E.empty()) {
      ++Failed;
      if (R.Errors.size() < 5)
        R.Errors.push_back(E);
    }
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%s[%.6f,%" PRIu64 ",%d,%d]",
                  Runs.empty() ? "" : ",", double(Ns) / 1e6, Res.Steps,
                  J.Light ? 1 : 0, E.empty() ? 1 : 0);
    Runs += Buf;
  }
  double Wall = double(nowNs() - Start) / 1e9;
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  std::string SetupList;
  for (double S : SetupS)
    SetupList += (SetupList.empty() ? "" : ",") + num(S);
  std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"wall_s\":%s,\"peak_rss_kb\":%ld,\"setup_s\":[%s],"
              "\"errors\":%s,\"runs\":[%s]}\n",
              Attempted, Failed, num(Wall).c_str(), RU.ru_maxrss,
              SetupList.c_str(), jsonStrings(R.Errors).c_str(), Runs.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// reference: standalone runs for the CLI and serve checks
//===----------------------------------------------------------------------===//

int runReference(const Manifest &M, const std::string &Tmp) {
  for (size_t I = 0; I < M.Jobs.size(); ++I) {
    const Job &J = M.Jobs[I];
    auto Pr = prepare(J, Tmp + "/aot-ref", int64_t(I));
    requireAot(J, *Pr);
    std::string Line = "{\"id\":" + jstr(J.Id);
    if (J.Kind == "imp") {
      ImpRunOptions O;
      O.Input = J.Input;
      ImpRunResult R = runImp(Pr->ImpProgram, O);
      std::string Out;
      for (const std::string &L : R.Output)
        Out += L + "\n";
      Out += "store:";
      for (const auto &[Name, Val] : R.Store)
        Out += " " + Name + " = " + Val + ";";
      Line += ",\"ok\":" + std::string(R.Ok ? "true" : "false") +
              ",\"steps\":" + std::to_string(R.Steps) +
              ",\"value\":" + jstr(Out) + ",\"finals\":[],\"probes\":0}";
      std::printf("%s\n", Line.c_str());
      continue;
    }
    uint64_t Probes = 0;
    EvalMode Mode = Pr->Mode & eventsInto([&Probes](uint64_t,
                                                    const std::string &) {
                      ++Probes;
                    });
    RunResult R = evaluate(Mode, Pr->Program);
    std::vector<std::string> Finals;
    for (size_t K = 0; K < R.FinalStates.size() && K < Pr->MonNames.size();
         ++K)
      Finals.push_back(Pr->MonNames[K] + ": " + R.FinalStates[K]->str());
    Line += ",\"ok\":" + std::string(R.Ok ? "true" : "false") +
            ",\"steps\":" + std::to_string(R.Steps) +
            ",\"value\":" + jstr(R.ValueText) +
            ",\"finals\":" + jsonStrings(Finals) +
            ",\"probes\":" + std::to_string(Probes) + "}";
    std::printf("%s\n", Line.c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// trace: the layer ladder
//===----------------------------------------------------------------------===//

/// Accumulates samples per metric name; reported as medians or means.
struct Samples {
  std::map<std::string, std::vector<double>> S;
  void add(const std::string &K, double V) { S[K].push_back(V); }
  double med(const std::string &K) const {
    auto It = S.find(K);
    return It == S.end() ? 0 : median(It->second);
  }
  double mean(const std::string &K) const {
    auto It = S.find(K);
    if (It == S.end() || It->second.empty())
      return 0;
    double T = 0;
    for (double V : It->second)
      T += V;
    return T / double(It->second.size());
  }
};

/// Compiles \p RP's native library in a forked child with a cold cache, so
/// the parent's own aotLoad then finds the .so on disk but new to the
/// process (the dlopen path). Returns the child's (start, end) stamps and
/// whether it ran the C compiler (false: the .so was already cached).
std::tuple<uint64_t, uint64_t, bool>
coldCompileInChild(const RegProgram &RP, const std::string &Dir) {
  auto CountFiles = [&Dir] {
    std::error_code EC;
    size_t N = 0;
    for (auto It = std::filesystem::directory_iterator(Dir, EC);
         !EC && It != std::filesystem::directory_iterator(); It.increment(EC))
      ++N;
    return N;
  };
  int Fd[2];
  if (pipe(Fd) != 0)
    die("pipe failed");
  pid_t Pid = fork();
  if (Pid == 0) {
    close(Fd[0]);
    uint64_t T[3];
    size_t Before = CountFiles();
    T[0] = nowNs();
    std::string Why;
    bool Ok = aotLoad(RP, Dir, &Why) != nullptr;
    T[1] = nowNs();
    T[2] = CountFiles() > Before;
    ssize_t W = write(Fd[1], T, sizeof(T));
    _exit(Ok && W == sizeof(T) ? 0 : 1);
  }
  close(Fd[1]);
  uint64_t T[3] = {0, 0, 0};
  ssize_t Got = read(Fd[0], T, sizeof(T));
  close(Fd[0]);
  int St = 0;
  waitpid(Pid, &St, 0);
  if (Got != sizeof(T) || !WIFEXITED(St) || WEXITSTATUS(St) != 0)
    die("AOT compile child failed");
  return {T[0], T[1], T[2] != 0};
}

/// Repetitions per timed ladder call: up to kReps, fewer once a call has
/// used kRepBudgetNs (the heavy programs would otherwise dominate the run).
constexpr int kReps = 3;
constexpr uint64_t kRepBudgetNs = 20'000'000;

bool moreReps(int Done, const std::vector<double> &Ns) {
  double Total = 0;
  for (double V : Ns)
    Total += V;
  return Done < kReps && Total < double(kRepBudgetNs);
}

/// Runs \p Fn (see moreReps) inside spans named \p Name; returns the median
/// run and its wall time.
template <typename F>
std::pair<RunResult, double> timedRuns(const char *Name, const char *Layer,
                                       int64_t Run, F Fn) {
  std::vector<double> Ns;
  RunResult Last;
  for (int K = 0; moreReps(K, Ns); ++K) {
    Scope S(Name, Layer, Run);
    Last = Fn();
    Ns.push_back(double(S.stop()));
  }
  return {std::move(Last), median(Ns)};
}

struct LadderState {
  Samples Sm;
  RefMap Ref;
  std::vector<std::string> Errors;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t SoHits = 0, SoLoads = 0;
  uint64_t ResolveCalls = 0, ResolveHits = 0;
};

void fail(LadderState &L, const std::string &E) {
  if (E.empty())
    return;
  ++L.Failed;
  if (L.Errors.size() < 5)
    L.Errors.push_back(E);
}

void ladderImp(const Job &J, int64_t Run, const std::string &Tmp,
               LadderState &L) {
  auto Pr = prepare(J, Tmp, Run);
  ImpRunOptions O;
  O.Input = J.Input;
  std::vector<double> Ns;
  ImpRunResult R;
  for (int K = 0; moreReps(K, Ns); ++K) {
    Scope S("imp.run", "imp", Run);
    R = runImp(Pr->ImpProgram, O);
    Ns.push_back(double(S.stop()));
  }
  ++L.Attempted;
  if (!R.Ok || R.Output.empty() ||
      J.Value.compare(0, R.Output[0].size() + 1, R.Output[0] + "\n") != 0)
    fail(L, J.Id + ": imp answer");
  if (R.Steps)
    L.Sm.add("imp.ns_per_step", median(Ns) / double(R.Steps));
}

void ladderLam(const Job &J, int64_t Run, const std::string &Tmp,
               LadderState &L) {
  std::string AotDir = Tmp + "/aot-trace";
  // Monitored variant of the job: its own monitors, or the call profiler
  // when it runs unmonitored (so every job yields probe-path numbers).
  Job JM = J;
  if (JM.Monitors.empty())
    JM.Monitors = {"profile"};
  auto Pr = prepare(JM, AotDir, Run);
  {
    // Parse cost per byte, measured on a second parse of the same text.
    Scope S("syntax.parse", "syntax", Run);
    auto P2 = ParsedProgram::parse(J.Src);
    L.Sm.add("syntax.parse_ns_per_byte",
             double(S.stop()) / double(J.Src.size()));
  }
  {
    Scope S("syntax.annotate", "syntax", Run);
    auto P2 = ParsedProgram::parse(J.Src);
    AnnotateOptions AO;
    AO.Qualifier = Symbol::intern("profile");
    annotateFunctionBodies(P2->context(), P2->root(), {}, AO);
    L.Sm.add("syntax.annotate_us", double(S.stop()) / 1e3);
  }
  {
    Scope S("pe.specialize", "pe", Run);
    AstContext Out;
    partialEvaluate(Out, Pr->Program);
    L.Sm.add("pe.specialize_us", double(S.stop()) / 1e3);
  }
  const Expr *Prog = Pr->Program;
  std::shared_ptr<const Resolution> Res0;
  {
    Scope S("analysis.resolve", "analysis", Run);
    Res0 = resolveProgramCached(Prog);
    L.Sm.add("analysis.resolve_us", double(S.stop()) / 1e3);
  }
  auto Lookup = [&] {
    ++L.ResolveCalls;
    if (resolveProgramCached(Prog) == Res0)
      ++L.ResolveHits;
  };

  // Unmonitored reference run and answer check.
  auto [Cek0, CekNs] = timedRuns("interp.cek.run", "interp", Run, [&] {
    return evaluate(Prog, RunOptions());
  });
  ++L.Attempted;
  if (!Cek0.Ok || Cek0.ValueText != J.Value)
    fail(L, J.Id + ": cek answer " + Cek0.ValueText + " != " + J.Value);
  double Steps = double(Cek0.Steps ? Cek0.Steps : 1);
  L.Sm.add("interp.cek.ns_per_step", CekNs / Steps);
  L.Sm.add("interp.arena_bytes_per_step", double(Cek0.ArenaBytes) / Steps);
  Lookup();

  EvalMode MonMode = Pr->Mode;
  MonMode.B = Backend::CEK;
  auto [CekM, CekMNs] = timedRuns("monitor.cek.run", "monitor", Run, [&] {
    return evaluate(MonMode, Prog);
  });
  ++L.Attempted;
  fail(L, check(JM, *Pr, CekM, L.Ref, "cek"));
  uint64_t Probes = 0;
  evaluate(MonMode & eventsInto([&Probes](uint64_t, const std::string &) {
             ++Probes;
           }),
           Prog);
  L.Sm.add("monitor.probes_per_run", double(Probes));
  L.Sm.add("interp.cek.ns_per_step.monitored", CekMNs / Steps);
  if (Probes) {
    L.Sm.add("monitor.ns_per_probe.cek", (CekMNs - CekNs) / double(Probes));
    L.Sm.add("monitor.overhead_ratio.cek", CekMNs / CekNs);
  }

  // The compile pipeline, instrumented (as the monitored job runs it) and
  // plain (as the unmonitored one does).
  DiagnosticSink D;
  if (!Pr->Mode.C.validateFor(Prog, D))
    die("cascade does not validate for " + J.Id + ": " + D.str());
  std::unique_ptr<CompiledProgram> CP1, CP0;
  {
    Scope S("compile.compile", "compile", Run);
    CP1 = compileProgram(Prog, D);
    L.Sm.add("compile.compile_us", double(S.stop()) / 1e3);
  }
  CompileOptions Plain;
  Plain.Instrument = false;
  CP0 = compileProgram(Prog, D, Plain);
  if (!CP1 || !CP0)
    die("compile failed for " + J.Id);
  size_t Instrs = 0;
  for (const CodeBlock &B : CP1->Blocks)
    Instrs += B.Code.size();
  L.Sm.add("compile.bytecode_instrs", double(Instrs));
  std::unique_ptr<RegProgram> RP1, RP0;
  {
    Scope S("compile.lower", "compile", Run);
    RP1 = lowerToRegisters(*CP1);
    L.Sm.add("compile.lower_us", double(S.stop()) / 1e3);
  }
  RP0 = lowerToRegisters(*CP0);
  if (!RP1 || !RP0)
    die("lowering failed for " + J.Id);
  {
    Scope S("compile.aot_emit", "compile", Run);
    std::string C = aotEmitSource(*RP1);
    L.Sm.add("compile.aot_emit_us", double(S.stop()) / 1e3);
    L.Sm.add("compile.aot_c_bytes", double(C.size()));
  }
  auto LoadAot = [&](const RegProgram &RP) {
    std::string Why;
    std::shared_ptr<const AotLibrary> Lib;
    // Fresh to this replay: compile cold in a child, then dlopen here.
    auto [C0, C1, Compiled] = coldCompileInChild(RP, AotDir);
    Trace.add("compile.aot_cc", "compile", C0, C1, Trace.top(), Run);
    if (Compiled)
      L.Sm.add("compile.aot_cc_ms", double(C1 - C0) / 1e6);
    ++L.SoLoads;
    L.SoHits += !Compiled;
    {
      Scope S("compile.aot_dlopen", "compile", Run);
      Lib = aotLoad(RP, AotDir, &Why);
      L.Sm.add("compile.aot_dlopen_us", double(S.stop()) / 1e3);
    }
    if (!Lib)
      die("aotLoad failed for " + J.Id + ": " + Why);
    size_t Native = 0;
    for (auto *Fn : Lib->fns())
      Native += Fn != nullptr;
    L.Sm.add("compile.aot_native_block_ratio",
             double(Native) / double(RP.Blocks.size()));
    return Lib;
  };
  auto Lib1 = LoadAot(*RP1);
  auto Lib0 = LoadAot(*RP0);

  RunOptions VO;
  VO.AotCacheDir = AotDir;
  uint64_t VmSteps = 0;
  auto Tier = [&](const char *Name, const char *NameM, const std::string &Key,
                  auto Plain, auto Mon) {
    auto [R0, Ns0] = timedRuns(Name, "compile", Run, Plain);
    std::pair<RunResult, double> RM;
    {
      std::vector<double> Ns;
      for (int K = 0; moreReps(K, Ns); ++K) {
        RuntimeCascade RCK(Pr->Mode.C);
        Scope S(NameM, "monitor", Run);
        RM.first = Mon(&RCK);
        Ns.push_back(double(S.stop()));
        RM.first.FinalStates = RCK.takeStates();
      }
      RM.second = median(Ns);
    }
    L.Attempted += 2;
    if (!VmSteps)
      VmSteps = R0.Steps;
    if (!R0.Ok || R0.ValueText != J.Value || R0.Steps != VmSteps)
      fail(L, J.Id + ": " + Key + " differs from the stack VM");
    fail(L, check(JM, *Pr, RM.first, L.Ref, "vm"));
    double VSteps = double(VmSteps ? VmSteps : 1);
    L.Sm.add("compile." + Key + ".ns_per_step", Ns0 / VSteps);
    L.Sm.add("compile." + Key + ".ns_per_step.monitored", RM.second / VSteps);
    if (Probes) {
      L.Sm.add("monitor.ns_per_probe." + Key,
               (RM.second - Ns0) / double(Probes));
      L.Sm.add("monitor.overhead_ratio." + Key, RM.second / Ns0);
    }
    Lookup();
  };
  Tier(
      "compile.vm.run", "monitor.vm.run", "vm",
      [&] { return runCompiled(*CP0, nullptr, VO); },
      [&](MonitorHooks *H) { return runCompiled(*CP1, H, VO); });
  Tier(
      "compile.vm_reg.run", "monitor.vm_reg.run", "vm_reg",
      [&] { return runRegisterProgram(*RP0, nullptr, VO); },
      [&](MonitorHooks *H) { return runRegisterProgram(*RP1, H, VO); });
  Tier(
      "compile.vm_aot.run", "monitor.vm_aot.run", "vm_aot",
      [&] { return runAotProgram(*RP0, *Lib0, nullptr, VO); },
      [&](MonitorHooks *H) { return runAotProgram(*RP1, *Lib1, H, VO); });

  // Journal and checkpoint I/O on the register tier.
  EvalMode RegMode = Pr->Mode;
  RegMode.B = Backend::VMRegister;
  auto [RegM, RegMNs] = timedRuns("monitor.vm_reg.evaluate", "monitor", Run,
                                  [&] { return evaluate(RegMode, Prog); });
  std::string JPath = Tmp + "/trace.journal";
  std::vector<double> JNs;
  uint64_t JBytes = 0;
  for (int K = 0; moreReps(K, JNs); ++K) {
    std::string Err;
    auto Jn = Journal::open(JPath, Err);
    if (!Jn)
      die("cannot open journal: " + Err);
    EvalMode JMode =
        RegMode & journalInto(*Jn) & checkpointEveryNSteps(kCheckpointEvery);
    JMode.CheckpointOnStop = true;
    Scope S("support.journaled_run", "support", Run);
    RunResult RJ = evaluate(JMode, Prog);
    JNs.push_back(double(S.stop()));
    ++L.Attempted;
    fail(L, check(JM, *Pr, RJ, L.Ref, "vm"));
    Jn.reset();
    JBytes = std::filesystem::file_size(JPath);
    std::filesystem::remove(JPath);
  }
  if (Probes) {
    L.Sm.add("support.journal_bytes_per_event",
             double(JBytes) / double(Probes));
    L.Sm.add("support.journal_ns_per_event",
             (median(JNs) - RegMNs) / double(Probes));
  }
  Checkpoint CK;
  EvalMode CMode = RegMode & maxSteps(std::max<uint64_t>(Cek0.Steps / 2, 1)) &
                   checkpointInto([&CK](const Checkpoint &C) { CK = C; });
  evaluate(CMode, Prog);
  if (CK.valid()) {
    std::string CPath = Tmp + "/trace.ck", Err;
    Scope S("support.checkpoint_io", "support", Run);
    bool Ok = CK.saveFile(CPath, Err) &&
              Checkpoint::loadFile(CPath, Err).valid();
    L.Sm.add("support.checkpoint_us", double(S.stop()) / 1e3);
    L.Sm.add("support.checkpoint_bytes", double(CK.bytes().size()));
    std::filesystem::remove(CPath);
    if (!Ok)
      fail(L, J.Id + ": checkpoint round trip: " + Err);
  }
}

/// The Direct (definitional CPS) interpreter recurses on the C stack and
/// stops at a call budget of 15000, so it is timed on one fixed small
/// program rather than on the workload's.
void ladderDirect(LadderState &L) {
  const char *Src =
      "letrec fib = lambda n. if n < 2 then n else fib (n - 1) + fib (n - 2) "
      "in fib 12";
  Job J;
  J.Id = J.Group = "direct_fib12";
  J.Kind = "lam";
  J.Src = Src;
  J.Value = "144";
  J.Monitors = {"profile"};
  J.Profile = "[fib -> 465]";
  auto Pr = prepare(J, "", -2);
  auto [Cek0, CekNs] = timedRuns("interp.cek.run", "interp", -2, [&] {
    return evaluate(Pr->Program, RunOptions());
  });
  auto [Dir0, DirNs] = timedRuns("interp.direct.run", "interp", -2, [&] {
    return evaluate(kDirect, Pr->Program);
  });
  EvalMode DirMode = Pr->Mode;
  DirMode.B = Backend::Direct;
  auto [DirM, DirMNs] = timedRuns("monitor.direct.run", "monitor", -2, [&] {
    return evaluate(DirMode, Pr->Program);
  });
  L.Attempted += 2;
  if (!Cek0.Ok || !Dir0.Ok || Dir0.ValueText != J.Value)
    fail(L, J.Id + ": direct answer " + Dir0.ValueText);
  fail(L, check(J, *Pr, DirM, L.Ref, "direct"));
  double Steps = double(Dir0.Steps ? Dir0.Steps : 1);
  L.Sm.add("interp.direct.ns_per_step", DirNs / Steps);
  L.Sm.add("interp.direct.ns_per_step.monitored", DirMNs / Steps);
}

/// One run submitted to the in-process Session, as the daemon would.
struct ServedRun {
  size_t Job = 0;
  std::unique_ptr<Prepared> Pr;
  RunHandle H;
  int64_t SpanId = -1;
  uint64_t Submit = 0, First = 0, LastBoundary = 0;
  uint64_t Checkpoints = 0, ProbeEvents = 0, ProbeRecords = 0, OutBytes = 0;
  uint64_t WriteNs = 0;
  std::vector<std::pair<uint64_t, std::string>> Pending;
  std::vector<double> SliceMs;
  /// (time, steps completed) at each slice boundary.
  std::vector<std::pair<uint64_t, uint64_t>> Credits;
  std::vector<std::string> Lines; ///< A sample of the rendered wire lines.
  std::mutex M;
};

/// Renders the buffered probe events as one `probes` wire record, the way
/// the daemon batches them.
void flushProbeRecord(ServedRun &R) {
  if (R.Pending.empty())
    return;
  uint64_t T0 = nowNs();
  json::Writer W;
  W.beginObject();
  W.key("event");
  W.str("probes");
  W.key("id");
  W.str("r" + std::to_string(R.Job));
  W.key("events");
  W.beginArray();
  for (const auto &[Step, Text] : R.Pending) {
    W.beginObject();
    W.key("step");
    W.num(Step);
    W.key("text");
    W.str(Text);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::string Line = W.take();
  R.WriteNs += nowNs() - T0;
  R.ProbeEvents += R.Pending.size();
  ++R.ProbeRecords;
  R.OutBytes += Line.size() + 1;
  if (R.Lines.size() < 4)
    R.Lines.push_back(std::move(Line));
  R.Pending.clear();
}

/// Closes the slice that ends at \p T with \p Steps completed. Caller holds
/// R.M.
void endSlice(ServedRun &R, uint64_t T, uint64_t Steps) {
  Trace.add("server.slice", "server", R.LastBoundary, T, R.SpanId,
            int64_t(R.Job));
  R.SliceMs.push_back(double(T - R.LastBoundary) / 1e6);
  R.LastBoundary = T;
  R.Credits.emplace_back(T, Steps);
}

/// Submits every lambda job to a Session configured like the daemon (same
/// workers, quantum and eviction threshold; one fair-share queue per
/// tenant) and times the worker callbacks. The heavy runs are submitted
/// first, so the light ones arrive while the heavy tenant has work queued
/// and the light tenants' share of the steps is up to the scheduler.
void ladderServer(const Manifest &M, const ServeConfig &SC,
                  const std::string &Tmp, LadderState &L) {
  std::string Park = Tmp + "/park";
  std::filesystem::create_directories(Park);
  Session::Config Cfg;
  Cfg.Workers = SC.Workers;
  Cfg.QuantumSteps = SC.Quantum;
  Cfg.MaxResidentBytes = SC.MaxResidentBytes;
  Cfg.ParkDir = Park;
  std::vector<size_t> Order;
  for (size_t I = 0; I < M.Jobs.size(); ++I)
    if (M.Jobs[I].Kind == "lam")
      Order.push_back(I);
  std::stable_partition(Order.begin(), Order.end(),
                        [&M](size_t I) { return !M.Jobs[I].Light; });
  std::vector<std::unique_ptr<ServedRun>> Runs;
  uint64_t ResidentMax = 0, Evictions = 0;
  {
    Session S(Cfg);
    Scope Root("server.submit_all", "server", -1, /*Counted=*/false);
    for (size_t I : Order) {
      const Job &J = M.Jobs[I];
      auto R = std::make_unique<ServedRun>();
      ServedRun *RP = R.get();
      RP->Job = I;
      {
        Scope Sub("server.submit", "server", int64_t(I));
        RP->Pr = prepare(J, Tmp + "/aot-serve", int64_t(I));
      }
      RunEvents Ev;
      Ev.OnProbe = [RP](uint64_t Step, const std::string &Text) {
        std::lock_guard<std::mutex> G(RP->M);
        if (!RP->First)
          RP->First = nowNs();
        RP->Pending.emplace_back(Step, Text);
        if (RP->Pending.size() >= 256)
          flushProbeRecord(*RP);
      };
      Ev.OnCheckpoint = [RP](uint64_t Steps) {
        std::lock_guard<std::mutex> G(RP->M);
        flushProbeRecord(*RP);
        ++RP->Checkpoints;
        endSlice(*RP, nowNs(), Steps);
      };
      Ev.OnFinish = [RP](const RunResult &Res) {
        std::lock_guard<std::mutex> G(RP->M);
        uint64_t T = nowNs();
        flushProbeRecord(*RP);
        endSlice(*RP, T, Res.Steps);
        Trace.setEnd(RP->SpanId, T);
        json::Writer W;
        W.beginObject();
        W.key("event");
        W.str("outcome");
        W.key("steps");
        W.num(Res.Steps);
        W.key("value");
        W.str(Res.ValueText);
        W.endObject();
        std::string Line = W.take();
        RP->OutBytes += Line.size() + 1;
        RP->Lines.push_back(std::move(Line));
      };
      RP->Submit = RP->LastBoundary = nowNs();
      // Runs overlap one another, so each is a root span of its own.
      RP->SpanId = Trace.add("server.run", "server", RP->Submit, RP->Submit,
                             -1, int64_t(I));
      RP->H = S.submit(RP->Pr->Mode, RP->Pr->Program, std::move(Ev),
                       J.Tenant);
      Runs.push_back(std::move(R));
    }
    Root.stop();
    for (;;) {
      ResidentMax = std::max(ResidentMax, S.residentBytes());
      bool All = true;
      for (auto &R : Runs)
        All = All && R->H.done();
      if (All)
        break;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    Evictions = S.evictions();
    for (auto &R : Runs) {
      RunResult Res = R->H.outcome();
      ++L.Attempted;
      fail(L, check(M.Jobs[R->Job], *R->Pr, Res, L.Ref,
                    stepFamily(M.Jobs[R->Job].Backend)));
    }
  }

  // The light tenants' share of the steps credited until the last light
  // run finished, while the heavy tenant still had work queued.
  uint64_t LightEnd = 0;
  for (auto &R : Runs)
    if (M.Jobs[R->Job].Light && !R->Credits.empty())
      LightEnd = std::max(LightEnd, R->Credits.back().first);
  double LightSteps = 0, AllSteps = 0;
  for (auto &R : Runs) {
    uint64_t Done = 0;
    for (const auto &[T, Steps] : R->Credits)
      if (T <= LightEnd)
        Done = Steps;
    AllSteps += double(Done);
    if (M.Jobs[R->Job].Light)
      LightSteps += double(Done);
  }
  if (AllSteps)
    L.Sm.add("server.light_tenant_step_share", LightSteps / AllSteps);

  std::vector<double> Wait, Slices;
  double Events = 0, WriteNs = 0;
  std::vector<std::string> Lines;
  for (auto &R : Runs) {
    if (R->First && !R->Pr->MonNames.empty())
      Wait.push_back(double(R->First - R->Submit) / 1e6);
    Slices.insert(Slices.end(), R->SliceMs.begin(), R->SliceMs.end());
    L.Sm.add("server.slices_per_run", double(R->Checkpoints + 1));
    L.Sm.add("server.out_bytes_per_run", double(R->OutBytes));
    L.Sm.add("server.probe_records_per_run", double(R->ProbeRecords));
    Events += double(R->ProbeEvents);
    WriteNs += double(R->WriteNs);
    Lines.insert(Lines.end(), R->Lines.begin(), R->Lines.end());
  }
  L.Sm.add("server.queue_wait_ms", median(Wait));
  L.Sm.add("server.slice_ms", median(Slices));
  L.Sm.add("server.json_write_ns_per_event", Events ? WriteNs / Events : 0);
  L.Sm.add("server.evictions", double(Evictions));
  L.Sm.add("server.resident_bytes_max", double(ResidentMax));
  // json::parse over the captured wire lines.
  if (!Lines.empty()) {
    Scope S("server.json_parse", "server", -1);
    for (const std::string &Line : Lines) {
      json::Value V;
      std::string Err;
      if (!json::parse(Line, V, Err))
        fail(L, "wire line does not parse: " + Err);
    }
    L.Sm.add("server.json_parse_us",
             double(S.stop()) / 1e3 / double(Lines.size()));
  }
}

/// The metrics the trace reports: medians over jobs unless noted.
const char *const kMedianMetrics[] = {
    "syntax.parse_ns_per_byte", "syntax.annotate_us", "analysis.resolve_us",
    "pe.specialize_us", "compile.compile_us", "compile.bytecode_instrs",
    "compile.lower_us", "compile.aot_emit_us", "compile.aot_c_bytes",
    "compile.aot_cc_ms", "compile.aot_dlopen_us",
    "compile.aot_native_block_ratio", "interp.cek.ns_per_step",
    "interp.cek.ns_per_step.monitored", "interp.direct.ns_per_step",
    "interp.direct.ns_per_step.monitored", "compile.vm.ns_per_step",
    "compile.vm.ns_per_step.monitored", "compile.vm_reg.ns_per_step",
    "compile.vm_reg.ns_per_step.monitored", "compile.vm_aot.ns_per_step",
    "compile.vm_aot.ns_per_step.monitored", "interp.arena_bytes_per_step",
    "monitor.probes_per_run", "monitor.ns_per_probe.cek",
    "monitor.ns_per_probe.vm", "monitor.ns_per_probe.vm_reg",
    "monitor.ns_per_probe.vm_aot", "monitor.overhead_ratio.cek",
    "monitor.overhead_ratio.vm", "monitor.overhead_ratio.vm_reg",
    "monitor.overhead_ratio.vm_aot", "support.journal_bytes_per_event",
    "support.journal_ns_per_event", "support.checkpoint_bytes",
    "support.checkpoint_us", "imp.ns_per_step", "server.queue_wait_ms",
    "server.slice_ms", "server.json_write_ns_per_event",
    "server.json_parse_us", "server.evictions", "server.resident_bytes_max",
    "server.light_tenant_step_share"};
const char *const kMeanMetrics[] = {"server.slices_per_run",
                                    "server.out_bytes_per_run",
                                    "server.probe_records_per_run"};
const char *const kLayers[] = {"syntax",  "analysis", "compile",
                               "interp",  "monitor",  "support",
                               "server",  "pe",       "imp"};

int runTrace(const Manifest &M, const std::string &Tmp,
             const std::string &SpansPath) {
  if (!M.Serve)
    die("trace manifest lacks the serve config");
  Trace.Enabled = SpansPath != "-";
  LadderState L;
  uint64_t T0 = nowNs();
  for (size_t I = 0; I < M.Jobs.size(); ++I) {
    const Job &J = M.Jobs[I];
    Scope S("job", "bench", int64_t(I), /*Counted=*/false);
    if (J.Kind == "imp")
      ladderImp(J, int64_t(I), Tmp, L);
    else
      ladderLam(J, int64_t(I), Tmp, L);
  }
  {
    Scope S("job", "bench", -2, /*Counted=*/false);
    ladderDirect(L);
  }
  ladderServer(M, *M.Serve, Tmp, L);
  double Wall = double(nowNs() - T0) / 1e9;

  std::string Out = "{";
  auto Put = [&Out](const std::string &K, double V) {
    Out += (Out.size() > 1 ? "," : "") + jstr(K) + ":" + num(V);
  };
  for (const char *K : kMedianMetrics)
    Put(K, L.Sm.med(K));
  for (const char *K : kMeanMetrics)
    Put(K, L.Sm.mean(K));
  Put("analysis.resolve_cache_hit_ratio",
      L.ResolveCalls ? double(L.ResolveHits) / double(L.ResolveCalls) : 0);
  Put("compile.aot_so_hit_ratio",
      L.SoLoads ? double(L.SoHits) / double(L.SoLoads) : 0);

  size_t NumSpans = Trace.Spans.size();
  if (Trace.Enabled) {
    std::vector<int64_t> Self = Trace.selfTimes();
    std::map<std::string, double> LayerNs;
    std::ofstream SOut(SpansPath, std::ios::trunc);
    for (size_t I = 0; I < NumSpans; ++I) {
      const Span &S = Trace.Spans[I];
      LayerNs[S.Layer] += double(Self[I]);
      SOut << "{\"id\":" << I << ",\"name\":" << jstr(S.Name)
           << ",\"layer\":" << jstr(S.Layer) << ",\"run\":" << S.Run
           << ",\"parent\":" << S.Parent << ",\"start_ns\":" << S.Start
           << ",\"end_ns\":" << S.End << ",\"self_ns\":" << Self[I] << "}\n";
    }
    for (const char *K : kLayers)
      Put(std::string("layer.") + K + ".self_ms",
          LayerNs[K] / 1e6 / double(M.Jobs.size()));
  }
  Out += "}";
  std::string Calls = "{";
  for (const auto &[Key, SumN] : LayerCalls)
    Calls += (Calls.size() > 1 ? "," : "") + jstr(Key) + ":" +
             num(double(SumN.first) / double(SumN.second));
  Calls += "}";
  std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"wall_s\":%s,\"spans\":%zu,\"errors\":%s,\"metrics\":%s,"
              "\"layer_call_ns\":%s}\n",
              L.Attempted, L.Failed, num(Wall).c_str(), NumSpans,
              jsonStrings(L.Errors).c_str(), Out.c_str(), Calls.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Mode = Argc > 1 ? Argv[1] : "";
  if (Mode == "info") {
    std::printf("%s\n", infoJson().c_str());
    return 0;
  }
  requireFitBuild();
  if (Mode == "inproc" && Argc == 6)
    return runInproc(loadManifest(Argv[2]), std::atof(Argv[3]), Argv[4],
                     std::string(Argv[5]) == "1");
  if (Mode == "reference" && Argc == 4)
    return runReference(loadManifest(Argv[2]), Argv[3]);
  if (Mode == "trace" && Argc == 5)
    return runTrace(loadManifest(Argv[2]), Argv[3], Argv[4]);
  die("usage: perfbench_harness info | inproc <manifest> <seconds> <tmp> "
      "<journal> | reference <manifest> <tmp> | trace <manifest> <tmp> "
      "<spans|->");
}
