//===- perfbench/main.cpp - warp-swp end-to-end benchmark -----------------===//
//
// Part of the warp-swp benchmark. See README.md in this directory.
//
// Usage:
//   swp_perfbench --workload livermore|population|apps|session-repeat
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--population-seed N] [--trace-out FILE]
//
// One process, one closed-loop client. After a timed set-up, the chosen
// workload runs whole passes over its program set for --seconds:
//
//   livermore, population, apps: per program, on the main thread,
//     Make() -> compileProgram (cold, no cache) -> simulate -> interpret
//     -> compareStates (bit-identical).
//   session-repeat: per round, a cold compile of every distinct program
//     (Make() -> compileProgram, code checked against the set-up
//     reference; one program per round, in rotation, also simulated and
//     verified), then every program requested kRepeat times in a seeded
//     shuffle through one fresh Session + ScheduleCache, with at most
//     kWindow requests outstanding on a kPoolThreads-thread pool.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// passes with traced ones, replays each traced compile layer by layer
// (Replay.h) and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Tracer.h"

#include "swp/API/Session.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Service/ScheduleCache.h"
#include "swp/Sim/Simulator.h"
#include "swp/Support/RNG.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace perfbench;
using namespace swp;

namespace {

/// The cap on outstanding session requests.
constexpr unsigned kWindow = 4;
/// Session pool threads. One worker makes every round's memo behaviour
/// deterministic (each program compiles once, the other requests hit) and
/// keeps the round on one core: with four workers the round statistics
/// spread 15-35% across runs on a shared 4-vCPU host, since a round then
/// needs every core quiet, and the memo-hit count varied with timing.
constexpr unsigned kPoolThreads = 1;
/// Times each program is requested per session-repeat round.
constexpr unsigned kRepeat = 4;
/// Set-up repetitions; setup_s is their median.
constexpr unsigned kSetupReps = 5;
/// Passes measured at least, however short --seconds is.
constexpr unsigned kMinPasses = 3;

//===----------------------------------------------------------------------===//
// Command line.
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1988;
  uint64_t PopulationSeed = 1988;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
};

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (*End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

std::string parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return "missing value for " + Flag;
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      O.Workload = V;
    } else if (Flag == "--trace-out") {
      O.TraceOut = V;
    } else if (!parseUnsigned(V, N)) {
      return "bad value for " + Flag + ": " + V;
    } else if (Flag == "--seed") {
      O.Seed = N;
    } else if (Flag == "--population-seed") {
      O.PopulationSeed = N;
    } else if (Flag == "--seconds") {
      if (N == 0 || N > 3600)
        return "--seconds must be in [1, 3600]";
      O.Seconds = static_cast<double>(N);
    } else if (Flag == "--trace") {
      if (N > 1)
        return "--trace must be 0 or 1";
      O.Trace = N == 1;
    } else {
      return "unknown flag " + Flag;
    }
  }
  if (O.Workload != "livermore" && O.Workload != "population" &&
      O.Workload != "apps" && O.Workload != "session-repeat")
    return "--workload must be livermore, population, apps or "
           "session-repeat";
  return "";
}

//===----------------------------------------------------------------------===//
// Statistics.
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

/// Order-sensitive FNV-1a digest of everything the emitted code contains.
class Digest {
public:
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void add(const PhysReg &R) {
    add(static_cast<uint64_t>(R.RC));
    add(R.Index);
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

uint64_t codeDigest(const VLIWProgram &Code) {
  Digest D;
  D.add(Code.size());
  for (const VLIWInst &I : Code.Insts) {
    D.add(I.Ops.size());
    for (const MachOp &Op : I.Ops) {
      D.add(static_cast<uint64_t>(Op.Opc));
      D.add(Op.Def);
      D.add(Op.Uses.size());
      for (const PhysReg &U : Op.Uses)
        D.add(U);
      D.add(Op.ArrayId);
      D.add(Op.Index.Terms.size());
      for (const AffineExpr::Term &T : Op.Index.Terms) {
        D.add(T.LoopId);
        D.add(static_cast<uint64_t>(T.Coef));
      }
      D.add(static_cast<uint64_t>(Op.Index.Const));
      D.add(Op.AddendReg);
      uint64_t FBits = 0;
      std::memcpy(&FBits, &Op.FImm, sizeof(FBits));
      D.add(FBits);
      D.add(static_cast<uint64_t>(Op.IImm));
      D.add(static_cast<uint64_t>(Op.Queue));
      D.add(Op.Preds.size());
      for (const PredPhys &P : Op.Preds) {
        D.add(P.Reg);
        D.add(P.Negated);
      }
    }
    D.add(I.Agu.size());
    for (const AguOp &A : I.Agu) {
      D.add(A.LoopId);
      D.add(A.Relative);
      D.add(A.A);
      D.add(static_cast<uint64_t>(A.Imm));
    }
    D.add(static_cast<uint64_t>(I.Ctrl.K));
    D.add(I.Ctrl.Target);
    D.add(I.Ctrl.Counter);
  }
  for (const auto &[Id, R] : Code.LiveInRegs) {
    D.add(Id);
    D.add(R);
  }
  D.add(Code.FloatRegsUsed);
  D.add(Code.IntRegsUsed);
  return D.value();
}

unsigned iiSum(const CompileReport &R) {
  unsigned S = 0;
  for (const LoopReport &L : R.Loops)
    if (L.pipelined())
      S += L.II;
  return S;
}

/// Deterministic Fisher-Yates shuffle (std::shuffle is not portable).
template <typename T> void shuffle(std::vector<T> &V, RNG &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(R.uniform(0, I - 1))]);
}

//===----------------------------------------------------------------------===//
// The workload, its set-up reference and the correctness gate.
//===----------------------------------------------------------------------===//

/// One program of the workload and what set-up established for it.
struct Subject {
  WorkloadSpec Spec;
  uint64_t BaseCycles = 0; ///< Locally compacted (EnablePipelining=false).
  uint64_t RefCycles = 0;  ///< Pipelined.
  size_t RefInsts = 0;
  unsigned RefIISum = 0;
  uint64_t RefDigest = 0;
};

/// Counts programs and requests attempted and failed; keeps the first
/// few failure messages.
struct Gate {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;

  void fail(const std::string &Msg) {
    ++Failed;
    if (Messages.size() < 20)
      Messages.push_back(Msg);
  }
};

std::vector<WorkloadSpec> specsFor(const Options &O) {
  if (O.Workload == "livermore")
    return livermoreKernels();
  if (O.Workload == "population")
    return syntheticPopulation(72, O.PopulationSeed);
  if (O.Workload == "apps")
    return userPrograms();
  std::vector<WorkloadSpec> Specs = livermoreKernels();
  const std::vector<WorkloadSpec> &Apps = userPrograms();
  Specs.insert(Specs.end(), Apps.begin(), Apps.end());
  return Specs;
}

/// Builds the program set and its reference: locally compacted cycles
/// (the speedup baseline) and the pipelined code, cycles and II sum,
/// checked bit-identical against the scalar interpreter.
std::vector<Subject> setUp(const Options &O, const MachineDescription &MD,
                           const CompilerOptions &Opts, Gate &G) {
  std::vector<Subject> Out;
  CompilerOptions BaseOpts = Opts;
  BaseOpts.EnablePipelining = false;
  for (WorkloadSpec &Spec : specsFor(O)) {
    Subject S;
    S.Spec = std::move(Spec);
    const std::string &Name = S.Spec.Name;
    {
      BuiltWorkload W = S.Spec.Make();
      CompileResult CR = compileProgram(*W.Prog, MD, BaseOpts);
      if (!CR.Ok) {
        G.fail(Name + ": baseline compile failed: " + CR.Error);
        continue;
      }
      SimResult Sim = simulate(CR.Code, *W.Prog, MD, W.Input);
      if (!Sim.State.Ok) {
        G.fail(Name + ": baseline simulation failed: " + Sim.State.Error);
        continue;
      }
      S.BaseCycles = Sim.Cycles;
    }
    BuiltWorkload W = S.Spec.Make();
    CompileResult CR = compileProgram(*W.Prog, MD, Opts);
    if (!CR.Ok) {
      G.fail(Name + ": compile failed: " + CR.Error);
      continue;
    }
    SimResult Sim = simulate(CR.Code, *W.Prog, MD, W.Input);
    ProgramState Gold = interpret(*W.Prog, W.Input);
    std::string Mismatch =
        Sim.State.Ok && Gold.Ok ? compareStates(*W.Prog, Gold, Sim.State)
                                : "simulation or interpretation failed";
    if (!Mismatch.empty()) {
      G.fail(Name + ": reference run wrong: " + Mismatch);
      continue;
    }
    S.RefCycles = Sim.Cycles;
    S.RefInsts = CR.Code.size();
    S.RefIISum = iiSum(CR.Report);
    S.RefDigest = codeDigest(CR.Code);
    Out.push_back(std::move(S));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Passes.
//===----------------------------------------------------------------------===//

/// Per-layer totals of one traced pass (work counts and replay-derived
/// quantities; span self times are merged in from the tracer).
using LayerPass = std::map<std::string, double>;

/// What one pass measured.
struct PassResult {
  /// User-visible time of the pass: the programs' pipelines (serial
  /// workloads) or the cold compiles plus the served round (sessions).
  /// Replay work is excluded.
  double UserSeconds = 0;
  double PassSeconds = 0; ///< Session rounds: the served round.
  /// Per subject (indexed like Context::Subjects): Make + compile, the
  /// whole pipeline, and the simulation alone.
  std::vector<double> Compile, Request, Sim;
  /// Session rounds: submit-to-resolved latency of every request.
  std::vector<double> Latency;
  LayerPass Layers;
};

struct Context {
  Options Opt;
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Opts;
  std::vector<Subject> Subjects;
  Gate G;
  RNG Order{0};
  ThreadPool *Pool = nullptr;
  size_t Rounds = 0; ///< Session rounds run so far.
};

void addReportCounts(LayerPass &L, const CompileResult &CR) {
  for (const LoopReport &R : CR.Report.Loops) {
    L["pipeliner.loops"] += 1;
    L["pipeliner.units"] += R.NumUnits;
    L["pipeliner.cond_loops"] += R.HasConditionals;
    if (R.pipelined()) {
      L["pipeliner.pipelined"] += 1;
      L["pipeliner.at_mii"] += R.II == R.MII;
      L["ii"] += R.II;
      L["mii"] += R.MII;
    } else if (R.NumUnits != 0) {
      L["codegen.fallback_loops"] += 1;
    }
  }
  L["sched_in_compile_us"] += CR.Report.SchedTotals.TotalSeconds * 1e6;
  L["codegen.insts"] += CR.Code.size();
  L["codegen.float_regs"] += CR.Code.FloatRegsUsed;
  L["codegen.int_regs"] += CR.Code.IntRegsUsed;
}

void addReplayCounts(LayerPass &L, const ProgramReplay &R) {
  L["ir.scalar_rewrites"] += R.ScalarRewrites;
  L["ir.ops"] += R.Ops;
  for (const LoopReplay &Loop : R.Loops) {
    if (!Loop.Searched)
      continue;
    const SchedulerStats &S = Loop.Search.Stats;
    L["ddg.nodes"] += Loop.Nodes;
    L["ddg.edges"] += Loop.Edges;
    L["ddg.closure_us"] += S.ClosureBuildSeconds * 1e6;
    L["pipeliner.intervals_tried"] += S.IntervalsTried;
    L["pipeliner.slots_probed"] += S.SlotsProbed;
    L["pipeliner.component_retries"] += S.ComponentRetries;
    L["pipeliner.fail_precedence"] += S.FailPrecedence;
    L["pipeliner.fail_resource"] += S.FailResource;
    L["pipeliner.fail_slot_abort"] += S.FailSlotAbort;
    if (Loop.Planned) {
      L["pipeliner.unroll_sum"] += Loop.Unroll;
      L["pipeliner.expanded_regs"] += Loop.ExpandedRegs;
    }
  }
}

/// Simulate every subject in a programPass.
constexpr size_t kSimulateAll = SIZE_MAX;

/// Runs every subject once in a seeded order: Make + cold compile, then
/// simulate + interpret + compare for every subject (\p SimulateOnly ==
/// kSimulateAll) or for subject \p SimulateOnly alone. With a tracer,
/// records spans and replays each compile layer by layer afterwards; a
/// lone simulation is neither traced nor counted.
void programPass(Context &C, Tracer *T, size_t SimulateOnly,
                 PassResult &Out) {
  std::vector<size_t> Order(C.Subjects.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  shuffle(Order, C.Order);
  Out.Compile.assign(Order.size(), 0);
  Out.Request.assign(Order.size(), 0);
  Out.Sim.assign(Order.size(), 0);

  for (size_t Idx : Order) {
    Subject &S = C.Subjects[Idx];
    const std::string &Name = S.Spec.Name;
    bool Simulate = SimulateOnly == kSimulateAll || SimulateOnly == Idx;
    Tracer *SimT = SimulateOnly == kSimulateAll ? T : nullptr;
    ++C.G.Attempted;
    BuiltWorkload W;
    CompileResult CR;
    SimResult Sim;
    ProgramState Gold;
    std::string Mismatch;
    Clock::time_point T0 = Clock::now(), T1, T2, T3;
    {
      Tracer::Scope Prog(T, "program", Idx);
      {
        Tracer::Scope Span(T, "lang.make", Idx);
        W = S.Spec.Make();
      }
      {
        Tracer::Scope Span(T, "codegen.compile", Idx);
        CR = compileProgram(*W.Prog, C.MD, C.Opts);
      }
      T1 = Clock::now();
      if (CR.Ok && Simulate) {
        {
          Tracer::Scope Span(SimT, "sim", Idx);
          Sim = simulate(CR.Code, *W.Prog, C.MD, W.Input);
        }
        T2 = Clock::now();
        {
          Tracer::Scope Span(SimT, "interp", Idx);
          Gold = interpret(*W.Prog, W.Input);
        }
        {
          Tracer::Scope Span(SimT, "verify.compare", Idx);
          if (Sim.State.Ok && Gold.Ok)
            Mismatch = compareStates(*W.Prog, Gold, Sim.State);
        }
      }
      T3 = Clock::now();
    }
    double Compile = secondsBetween(T0, T1);
    double Request = secondsBetween(T0, T3);
    Out.Compile[Idx] = Compile;
    Out.Request[Idx] = Request;
    Out.UserSeconds += Request;

    if (!CR.Ok) {
      C.G.fail(Name + ": compile failed: " + CR.Error);
      continue;
    }
    if (codeDigest(CR.Code) != S.RefDigest || iiSum(CR.Report) != S.RefIISum)
      C.G.fail(Name + ": code differs from the set-up compile");
    if (Simulate) {
      Out.Sim[Idx] = secondsBetween(T1, T2);
      if (!Sim.State.Ok || !Gold.Ok)
        C.G.fail(Name + ": run failed: " + Sim.State.Error + Gold.Error);
      else if (!Mismatch.empty())
        C.G.fail(Name + ": WRONG ANSWER: " + Mismatch);
      else if (Sim.Cycles != S.RefCycles)
        C.G.fail(Name + ": cycles " + std::to_string(Sim.Cycles) +
                 " differ from set-up " + std::to_string(S.RefCycles));
    }
    if (!T)
      continue;

    LayerPass &L = Out.Layers;
    addReportCounts(L, CR);
    if (SimT) {
      L["sim.cycles"] += Sim.Cycles;
      L["sim.exec_cycles"] += Sim.Util.ExecCycles;
      L["sim.stall_cycles"] += Sim.Util.StallCycles;
      L["sim.ops_issued"] += Sim.Util.OpsIssued;
      L["interp.flops"] += Gold.Flops;
    }
    ProgramReplay R;
    {
      Tracer::Scope Span(T, "replay", Idx);
      BuiltWorkload Fresh = S.Spec.Make();
      R = replayCompile(*Fresh.Prog, C.MD, C.Opts, *T, Idx);
    }
    std::string Diff = checkReplay(R, CR.Report);
    if (!Diff.empty())
      C.G.fail(Name + ": replay not faithful: " + Diff);
    addReplayCounts(L, R);
  }
}

struct Pending {
  CompileHandle H;
  size_t Subject = 0;
  Clock::time_point Submitted;
  int Span = -1;
};

/// One session-repeat round: the cold pass, which also simulates and
/// verifies one program in rotation, then the served requests.
void sessionRound(Context &C, Tracer *T, PassResult &Out) {
  programPass(C, T, C.Rounds++ % C.Subjects.size(), Out);

  std::vector<size_t> Seq;
  for (unsigned R = 0; R != kRepeat; ++R)
    for (size_t I = 0; I != C.Subjects.size(); ++I)
      Seq.push_back(I);
  shuffle(Seq, C.Order);

  auto request = [&](size_t Idx) {
    CompileRequest Req;
    const WorkloadSpec *Spec = &C.Subjects[Idx].Spec;
    Req.Make = [Spec] { return Spec->Make().Prog; };
    Req.Label = Spec->Name;
    return Req;
  };

  // Responses are checked after the round, off the clock.
  std::vector<std::pair<size_t, CompileHandle>> Done;
  Done.reserve(Seq.size());
  ServiceStats SS;
  ScheduleCache Cache;
  Clock::time_point T0 = Clock::now();
  int Serve = T ? T->begin("serve", 0) : -1;
  {
    SessionConfig Cfg;
    Cfg.Cache = &Cache;
    Cfg.Pool = C.Pool;
    Session Sess(Cfg);
    std::deque<Pending> Q;
    size_t Next = 0;
    auto track = [&](CompileHandle H, size_t Idx, Clock::time_point At) {
      int Span = T ? T->beginDetached("api.request", H.requestId()) : -1;
      Q.push_back({std::move(H), Idx, At, Span});
    };
    {
      Tracer::Scope Span(T, "api.submit", 0);
      std::vector<CompileRequest> Batch;
      for (; Next != Seq.size() && Next != kWindow; ++Next)
        Batch.push_back(request(Seq[Next]));
      Clock::time_point At = Clock::now();
      std::vector<CompileHandle> Hs = Sess.submitBatch(std::move(Batch));
      for (size_t I = 0; I != Hs.size(); ++I)
        track(std::move(Hs[I]), Seq[I], At);
    }
    while (!Q.empty()) {
      Pending P = std::move(Q.front());
      Q.pop_front();
      P.H.get();
      Out.Latency.push_back(secondsBetween(P.Submitted, Clock::now()));
      if (T)
        T->end(P.Span);
      Done.emplace_back(P.Subject, std::move(P.H));
      if (Next != Seq.size()) {
        Tracer::Scope Span(T, "api.submit", 0);
        Clock::time_point At = Clock::now();
        track(Sess.submit(request(Seq[Next])), Seq[Next], At);
        ++Next;
      }
    }
    SS = Sess.stats();
  }
  if (T)
    T->end(Serve);
  Out.PassSeconds = secondsBetween(T0, Clock::now());
  Out.UserSeconds += Out.PassSeconds;

  for (const auto &[Idx, H] : Done) {
    ++C.G.Attempted;
    const Subject &S = C.Subjects[Idx];
    const CompileResponse &Resp = H.get();
    if (!Resp.Ok)
      C.G.fail(S.Spec.Name + ": request failed: " + Resp.Result.Error);
    else if (codeDigest(Resp.Result.Code) != S.RefDigest ||
             iiSum(Resp.Result.Report) != S.RefIISum)
      C.G.fail(S.Spec.Name + ": served code differs from the reference");
  }
  if (!T)
    return;
  CacheStats CS = Cache.stats();
  LayerPass &L = Out.Layers;
  L["service.requests"] += SS.Requests;
  L["service.compiles"] += SS.Compiles;
  L["service.memo_hits"] += SS.MemoHits;
  L["service.coalesced"] += SS.Coalesced;
  L["cache.lookups"] += CS.Hits + CS.Misses;
  L["cache.hits"] += CS.Hits;
  L["cache.misses"] += CS.Misses;
  L["cache.verify_rejects"] += CS.VerifyRejects;
}

void runPass(Context &C, Tracer *T, PassResult &Out) {
  if (C.Opt.Workload == "session-repeat") {
    sessionRound(C, T, Out);
    return;
  }
  programPass(C, T, kSimulateAll, Out);
}

//===----------------------------------------------------------------------===//
// Output.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// All digits of \p V; JSON has no NaN, so a non-finite value (already a
/// failed check) prints as 0.
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(const Gate &G, const std::vector<Metric> &Ms) {
  std::ostringstream OS;
  OS << "{\"correct\": " << (G.Failed == 0 ? "true" : "false")
     << ", \"attempted\": " << G.Attempted << ", \"failed\": " << G.Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Ms[I].Name << "\": {\"value\": "
       << number(Ms[I].Value) << ", \"unit\": \"" << Ms[I].Unit << "\"}";
  OS << "}}";
  std::cout << OS.str() << std::endl;
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, is not inherited from whatever process forked the benchmark.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.compare(0, 6, "VmHWM:") == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB.
  return 0;
}

/// The per-layer metrics, in the order BENCHMARK.json lists them, with the
/// unit each carries. Names ending in _us are span self times.
const std::vector<std::pair<const char *, const char *>> &layerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"lang.make_us", "us"},
      {"ir.expand_us", "us"},
      {"ir.scalar_us", "us"},
      {"ir.scalar_rewrites", "count"},
      {"ir.ops", "count"},
      {"pipeliner.reduce_us", "us"},
      {"pipeliner.units", "count"},
      {"pipeliner.cond_loops", "count"},
      {"ddg.build_us", "us"},
      {"ddg.nodes", "count"},
      {"ddg.edges", "count"},
      {"ddg.closure_us", "us"},
      {"pipeliner.sched_us", "us"},
      {"pipeliner.intervals_tried", "count"},
      {"pipeliner.slots_probed", "count"},
      {"pipeliner.component_retries", "count"},
      {"pipeliner.fail_precedence", "count"},
      {"pipeliner.fail_resource", "count"},
      {"pipeliner.fail_slot_abort", "count"},
      {"pipeliner.loops", "count"},
      {"pipeliner.pipelined", "count"},
      {"pipeliner.at_mii", "count"},
      {"pipeliner.ii_over_mii", "ratio"},
      {"pipeliner.success_ratio", "ratio"},
      {"pipeliner.mve_us", "us"},
      {"pipeliner.unroll_sum", "count"},
      {"pipeliner.expanded_regs", "count"},
      {"sched.list_us", "us"},
      {"codegen.compile_us", "us"},
      {"codegen.residual_us", "us"},
      {"codegen.insts", "count"},
      {"codegen.float_regs", "count"},
      {"codegen.int_regs", "count"},
      {"codegen.fallback_loops", "count"},
      {"verify.compare_us", "us"},
      {"verify.sched_us", "us"},
      {"sim.us", "us"},
      {"sim.cycles", "cycles"},
      {"sim.exec_cycles", "cycles"},
      {"sim.stall_cycles", "cycles"},
      {"sim.ops_issued", "count"},
      {"sim.issue_fill", "ratio"},
      {"interp.us", "us"},
      {"interp.flops", "count"},
      {"service.requests", "count"},
      {"service.compiles", "count"},
      {"service.memo_hits", "count"},
      {"service.coalesced", "count"},
      {"service.memo_hit_ratio", "ratio"},
      {"cache.lookups", "count"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.verify_rejects", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return M;
}

/// Span names whose self time is a layer's _us metric.
const std::map<std::string, std::string> &spanMetric() {
  static const std::map<std::string, std::string> M = {
      {"lang.make", "lang.make_us"},
      {"ir.expand", "ir.expand_us"},
      {"ir.scalar", "ir.scalar_us"},
      {"pipeliner.reduce", "pipeliner.reduce_us"},
      {"ddg.build", "ddg.build_us"},
      {"pipeliner.sched", "pipeliner.sched_us"},
      {"pipeliner.mve", "pipeliner.mve_us"},
      {"sched.list", "sched.list_us"},
      {"codegen.compile", "codegen.compile_us"},
      {"verify.compare", "verify.compare_us"},
      {"verify.sched", "verify.sched_us"},
      {"sim", "sim.us"},
      {"interp", "interp.us"},
  };
  return M;
}

/// Folds span self times into a traced pass and derives the ratios and
/// the codegen residual.
void finishLayers(LayerPass &L, const std::map<std::string, double> &Self) {
  for (const auto &[Span, Metric] : spanMetric()) {
    auto It = Self.find(Span);
    L[Metric] = It == Self.end() ? 0 : It->second * 1e6;
  }
  // The replay's spans are not nested in the compile's; the compile span
  // has no children, so its self time is the whole compile.
  double Replayed = L["ir.expand_us"] + L["ir.scalar_us"] +
                    L["pipeliner.reduce_us"] + L["ddg.build_us"] +
                    L["sched.list_us"] + L["pipeliner.sched_us"] +
                    L["pipeliner.mve_us"];
  L["codegen.residual_us"] = L["codegen.compile_us"] - Replayed;
  L["pipeliner.ii_over_mii"] = ratio(L["ii"], L["mii"]);
  L["pipeliner.success_ratio"] =
      ratio(L["pipeliner.pipelined"], L["pipeliner.intervals_tried"]);
  L["sim.issue_fill"] = ratio(L["sim.ops_issued"], L["sim.exec_cycles"]);
  L["service.memo_hit_ratio"] =
      ratio(L["service.memo_hits"], L["service.requests"]);
  L["cache.hit_ratio"] = ratio(L["cache.hits"], L["cache.lookups"]);
}

/// Layer values that must repeat exactly in every traced pass: all but
/// times. (The session's single pool worker makes its service and cache
/// counters deterministic too.)
bool exactLayer(const std::string &Name) {
  auto EndsWith = [&](const char *Suffix) {
    size_t N = std::strlen(Suffix);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  return !EndsWith("_us") && !EndsWith(".us");
}

} // namespace

int main(int Argc, char **Argv) {
  Context C;
  std::string Err = parseArgs(Argc, Argv, C.Opt);
  if (!Err.empty()) {
    std::cerr << "swp_perfbench: " << Err << "\n";
    return 2;
  }
  const Options &O = C.Opt;
  C.Order = RNG(O.Seed);
  C.Opts.Sched.SearchThreads = 1;

  // Set-up, several times; the last one is kept. Every repetition must
  // reproduce the first exactly.
  std::unique_ptr<ThreadPool> Pool;
  std::vector<double> SetupSeconds;
  std::vector<Subject> First;
  for (unsigned Rep = 0; Rep != kSetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    std::vector<Subject> S = setUp(O, C.MD, C.Opts, C.G);
    if (O.Workload == "session-repeat")
      Pool = std::make_unique<ThreadPool>(kPoolThreads);
    SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
    if (Rep == 0) {
      First = S;
    } else {
      bool Same = S.size() == First.size();
      for (size_t I = 0; Same && I != First.size(); ++I)
        Same = S[I].RefDigest == First[I].RefDigest &&
               S[I].RefCycles == First[I].RefCycles &&
               S[I].BaseCycles == First[I].BaseCycles;
      if (!Same)
        C.G.fail("set-up repetition " + std::to_string(Rep) +
                 " differs from the first");
    }
    C.Subjects = std::move(S);
  }
  C.Pool = Pool.get();
  if (C.Subjects.empty()) {
    std::cerr << "swp_perfbench: no program survived set-up\n";
    for (const std::string &M : C.G.Messages)
      std::cerr << "  " << M << "\n";
    return 1;
  }

  // Measure whole passes for --seconds. Traced runs alternate untraced
  // and traced passes so both see the same host conditions.
  std::vector<PassResult> Passes, Traced;
  std::vector<double> UntracedUser, TracedUser;
  std::map<std::string, double> TracedSelf;
  Tracer Trace;
  Clock::time_point Start = Clock::now();
  for (unsigned N = 0;
       N < kMinPasses * (O.Trace ? 2 : 1) ||
       secondsBetween(Start, Clock::now()) < O.Seconds;
       ++N) {
    bool Tracing = O.Trace && N % 2 == 1;
    PassResult P;
    if (Tracing) {
      int Root = Trace.begin("pass", N);
      runPass(C, &Trace, P);
      Trace.end(Root);
      std::map<std::string, double> Self = Trace.finishPass();
      for (const auto &[Name, S] : Self)
        TracedSelf[Name] += S;
      finishLayers(P.Layers, Self);
      TracedUser.push_back(P.UserSeconds);
      Traced.push_back(std::move(P));
    } else {
      runPass(C, nullptr, P);
      UntracedUser.push_back(P.UserSeconds);
      Passes.push_back(std::move(P));
    }
  }

  // Exact quantities must repeat in every pass.
  for (const PassResult &P : Traced)
    for (const auto &[Name, V] : P.Layers)
      if (exactLayer(Name) && Traced.front().Layers.count(Name) &&
          V != Traced.front().Layers.at(Name)) {
        C.G.fail("layer count " + Name + " differs between passes");
        break;
      }

  uint64_t SimCycles = 0, RefInsts = 0, IISum = 0;
  double LogSpeedup = 0;
  for (const Subject &S : C.Subjects) {
    SimCycles += S.RefCycles;
    RefInsts += S.RefInsts;
    IISum += S.RefIISum;
    LogSpeedup += std::log(static_cast<double>(S.BaseCycles) /
                           static_cast<double>(S.RefCycles));
  }
  double Speedup = std::exp(LogSpeedup / C.Subjects.size());

  std::printf("workload %s  seed %llu", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed));
  if (O.Workload == "population")
    std::printf("  population-seed %llu",
                static_cast<unsigned long long>(O.PopulationSeed));
  std::printf("  programs %zu  passes %zu%s\n", C.Subjects.size(),
              Passes.size() + Traced.size(),
              O.Trace ? " (alternately traced)" : "");
  std::printf("failed_frac %.6f (%llu of %llu attempted)\n",
              ratio(static_cast<double>(C.G.Failed),
                    static_cast<double>(C.G.Attempted)),
              static_cast<unsigned long long>(C.G.Failed),
              static_cast<unsigned long long>(C.G.Attempted));
  for (const std::string &M : C.G.Messages)
    std::printf("  FAIL %s\n", M.c_str());

  std::vector<Metric> Ms;
  if (!O.Trace) {
    // Contention from other tenants of a shared host slows everything by
    // up to 1.7x for seconds at a time, so the run reports what the code
    // costs in the quietest moments it saw: each program's fastest time
    // across passes, and for session rounds the fastest round statistic
    // (the highest rate). The median pass is printed alongside.
    bool Session = O.Workload == "session-repeat";
    size_t N = C.Subjects.size();
    // A time of 0 means the pass did not run that step for the program.
    auto ProgramQuiet = [&](std::vector<double> PassResult::*Field) {
      std::vector<double> Out(N);
      for (size_t I = 0; I != N; ++I) {
        std::vector<double> V;
        for (const PassResult &P : Passes)
          if ((P.*Field)[I] > 0)
            V.push_back((P.*Field)[I]);
        Out[I] = V.empty() ? 0 : *std::min_element(V.begin(), V.end());
      }
      return Out;
    };
    std::vector<double> Compile = ProgramQuiet(&PassResult::Compile);
    std::vector<double> Request = ProgramQuiet(&PassResult::Request);
    std::vector<double> Sim = ProgramQuiet(&PassResult::Sim);
    std::map<std::string, double> Quiet;
    Quiet["compile_us_p50"] = quantile(Compile, 0.5) * 1e6;
    Quiet["compile_us_p90"] = quantile(Compile, 0.9) * 1e6;
    Quiet["compiles_per_s"] = ratio(N, sum(Compile));
    if (Session) {
      std::map<std::string, std::vector<double>> Round;
      for (const PassResult &P : Passes) {
        Round["pass_ms"].push_back(P.PassSeconds * 1e3);
        Round["request_us_p50"].push_back(quantile(P.Latency, 0.5) * 1e6);
        Round["request_us_p90"].push_back(quantile(P.Latency, 0.9) * 1e6);
        Round["requests_per_s"].push_back(
            ratio(P.Latency.size(), P.PassSeconds));
      }
      for (const auto &[Name, V] : Round)
        Quiet[Name] = Name == "requests_per_s"
                          ? *std::max_element(V.begin(), V.end())
                          : *std::min_element(V.begin(), V.end());
    } else {
      Quiet["pass_ms"] = sum(Request) * 1e3;
      Quiet["request_us_p50"] = quantile(Request, 0.5) * 1e6;
      Quiet["request_us_p90"] = quantile(Request, 0.9) * 1e6;
      Quiet["requests_per_s"] = ratio(N, sum(Request));
    }
    // Over the programs simulated at least once (a session run shorter
    // than one rotation leaves some out).
    double SimmedCycles = 0;
    for (size_t I = 0; I != N; ++I)
      if (Sim[I] > 0)
        SimmedCycles += static_cast<double>(C.Subjects[I].RefCycles);
    Quiet["sim_mcycles_per_s"] = ratio(SimmedCycles, sum(Sim)) / 1e6;
    std::vector<double> PassMs;
    for (const PassResult &P : Passes)
      PassMs.push_back((Session ? P.PassSeconds : sum(P.Request)) * 1e3);
    std::printf("%zu passes; median pass %.3f ms, quiet pass %.3f ms\n",
                Passes.size(), median(PassMs), Quiet["pass_ms"]);
    Ms = {
        {"setup_s", median(SetupSeconds), "s"},
        {"compile_us_p50", Quiet["compile_us_p50"], "us"},
        {"compile_us_p90", Quiet["compile_us_p90"], "us"},
        {"compiles_per_s", Quiet["compiles_per_s"], "1/s"},
        {"pass_ms", Quiet["pass_ms"], "ms"},
        {"sim_mcycles_per_s", Quiet["sim_mcycles_per_s"], "Mcycles/s"},
        {"sim_cycles", static_cast<double>(SimCycles), "cycles"},
        {"speedup_geomean", Speedup, "x"},
        {"ii_sum", static_cast<double>(IISum), "count"},
        {"code_insts", static_cast<double>(RefInsts), "count"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"requests_per_s", Quiet["requests_per_s"], "1/s"},
        {"request_us_p50", Quiet["request_us_p50"], "us"},
        {"request_us_p90", Quiet["request_us_p90"], "us"},
    };
  } else {
    // Median over traced passes of each per-pass layer value.
    std::map<std::string, std::vector<double>> Series;
    for (const PassResult &P : Traced)
      for (const auto &[Name, V] : P.Layers)
        Series[Name].push_back(V);
    double Overhead =
        ratio(median(TracedUser) - median(UntracedUser), median(UntracedUser));
    for (const auto &[Name, Unit] : layerMetrics()) {
      double V = std::string(Name) == "trace.overhead_frac"
                     ? Overhead
                     : median(Series[Name]);
      Ms.push_back({Name, V, Unit});
    }
    // Self time per span name, per traced pass, as a share of the pass.
    double PassTotal = 0;
    for (const auto &[Name, S] : TracedSelf)
      PassTotal += S;
    std::printf("self time per traced pass (%zu passes):\n", Traced.size());
    std::vector<std::pair<double, std::string>> Rows;
    for (const auto &[Name, S] : TracedSelf)
      Rows.push_back({S, Name});
    std::sort(Rows.rbegin(), Rows.rend());
    for (const auto &[S, Name] : Rows)
      std::printf("  %-20s %12.1f us  %5.1f%%\n", Name.c_str(),
                  S / Traced.size() * 1e6, 100 * ratio(S, PassTotal));
    std::printf("pipeliner.sched_us %.1f in the replay vs %.1f timed inside "
                "compileProgram (SchedulerStats)\n",
                median(Series["pipeliner.sched_us"]),
                median(Series["sched_in_compile_us"]));
    std::printf("trace.overhead_frac %.4f (traced %.3f ms vs untraced %.3f "
                "ms per pass)\n",
                Overhead, median(TracedUser) * 1e3,
                median(UntracedUser) * 1e3);
    if (!O.TraceOut.empty()) {
      if (Trace.writeChromeTrace(O.TraceOut, "swp_perfbench " + O.Workload))
        std::printf("trace: %zu spans written to %s (%llu dropped)\n",
                    Trace.keptSpans(), O.TraceOut.c_str(),
                    static_cast<unsigned long long>(Trace.droppedSpans()));
      else
        C.G.fail("cannot write trace file " + O.TraceOut);
    }
  }
  for (const Metric &M : Ms) {
    if (!std::isfinite(M.Value))
      C.G.fail("metric " + M.Name + " is not a finite number");
    std::printf("  %-28s %16.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  }
  printResult(C.G, Ms);
  return C.G.Failed == 0 ? 0 : 1;
}
