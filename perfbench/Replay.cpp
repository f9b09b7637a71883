//===- perfbench/Replay.cpp - Layer-by-layer compile replay ---------------===//
//
// Part of the warp-swp benchmark. See Replay.h.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "swp/DDG/DDGBuilder.h"
#include "swp/IR/Expansion.h"
#include "swp/IR/Transforms.h"
#include "swp/Pipeliner/HierarchicalReducer.h"
#include "swp/Pipeliner/LoopUtils.h"
#include "swp/Sched/ListScheduler.h"
#include "swp/Verify/ScheduleVerifier.h"

#include <algorithm>
#include <map>
#include <set>

using namespace perfbench;
using namespace swp;

namespace {

/// Arrays carrying the no-alias directive (the compiler's memory-analysis
/// input for every loop graph).
std::set<unsigned> noAliasArrays(const Program &P) {
  std::set<unsigned> Out;
  for (unsigned Id = 0; Id != P.numArrays(); ++Id)
    if (P.arrayInfo(Id).NoAlias)
      Out.insert(Id);
  return Out;
}

/// Loop preparation in the compiler's order (every loop, pre-order).
void prepareAll(Program &P, StmtList &List,
                std::map<const ForStmt *, LoopPrep> &Preps) {
  for (StmtPtr &S : List) {
    if (auto *For = dyn_cast<ForStmt>(S.get())) {
      Preps[For] = prepareLoopForCodegen(P, *For);
      prepareAll(P, For->Body, Preps);
    } else if (auto *If = dyn_cast<IfStmt>(S.get())) {
      prepareAll(P, If->Then, Preps);
      prepareAll(P, If->Else, Preps);
    }
  }
}

/// Visits every register access with its innermost enclosing loop (null
/// outside all loops), as the compiler's global/local classification does.
template <typename Fn>
void walkAccesses(const StmtList &List, const ForStmt *Inner, Fn &&F) {
  for (const StmtPtr &S : List) {
    if (const auto *Op = dyn_cast<OpStmt>(S.get())) {
      for (const VReg &R : Op->Op.Operands)
        F(R.Id, Inner);
      if (Op->Op.Mem.isValid() && Op->Op.Mem.Index.hasAddend())
        F(Op->Op.Mem.Index.Addend.Id, Inner);
      if (Op->Op.Def.isValid())
        F(Op->Op.Def.Id, Inner);
      continue;
    }
    if (const auto *If = dyn_cast<IfStmt>(S.get())) {
      F(If->Cond.Id, Inner);
      walkAccesses(If->Then, Inner, F);
      walkAccesses(If->Else, Inner, F);
      continue;
    }
    const auto *For = cast<ForStmt>(S.get());
    if (!For->Lo.IsImm)
      F(For->Lo.Reg.Id, Inner);
    if (!For->Hi.IsImm)
      F(For->Hi.Reg.Id, Inner);
    F(For->IndVar.Id, Inner);
    walkAccesses(For->Body, isInnermost(*For) ? For : nullptr, F);
  }
}

/// Registers whose every access sits in one innermost loop (and that are
/// neither live-in nor touched by a preheader): only these may rotate.
std::map<unsigned, const ForStmt *>
loopLocalRegs(const Program &P,
              const std::map<const ForStmt *, LoopPrep> &Preps) {
  std::map<unsigned, const ForStmt *> Owner;
  std::set<unsigned> Global;
  walkAccesses(P.Body, nullptr, [&](unsigned Id, const ForStmt *Inner) {
    if (!Inner) {
      Global.insert(Id);
      return;
    }
    auto [It, New] = Owner.try_emplace(Id, Inner);
    if (!New && It->second != Inner)
      Global.insert(Id);
  });
  for (const auto &[For, Prep] : Preps)
    for (const Operation &Op : Prep.Preheader) {
      if (Op.Def.isValid())
        Global.insert(Op.Def.Id);
      for (const VReg &R : Op.Operands)
        Global.insert(R.Id);
    }
  std::map<unsigned, const ForStmt *> LocalTo;
  for (const auto &[Id, Inner] : Owner)
    if (!Global.count(Id) && !P.vregInfo(VReg(Id)).IsLiveIn)
      LocalTo[Id] = Inner;
  return LocalTo;
}

/// Innermost loops in emission order: statement order, outer loops
/// recursed into unless their static trip count is zero (the compiler
/// emits nothing for those).
void emissionOrder(StmtList &List, std::vector<ForStmt *> &Out) {
  for (StmtPtr &S : List) {
    auto *For = dyn_cast<ForStmt>(S.get());
    if (!For)
      continue;
    if (isInnermost(*For)) {
      Out.push_back(For);
      continue;
    }
    std::optional<int64_t> N = For->staticTripCount();
    if (!(N && *N <= 0))
      emissionOrder(For->Body, Out);
  }
}

LoopReplay replayLoop(const Program &P, ForStmt &For,
                      const MachineDescription &MD,
                      const CompilerOptions &Opts,
                      const std::map<unsigned, const ForStmt *> &LocalTo,
                      const std::set<unsigned> &NoAlias, Tracer &T,
                      uint64_t Id) {
  LoopReplay L;
  L.LoopId = For.LoopId;
  std::vector<ScheduleUnit> Units;
  {
    Tracer::Scope S(&T, "pipeliner.reduce", Id);
    Units = reduceBodyToUnits(For.Body, MD, For.LoopId);
    L.HasConditionals = bodyHasConditionals(For.Body);
  }
  L.Units = Units.size();
  if (Units.empty())
    return L;

  DDGBuildOptions PlainOpts;
  PlainOpts.CurrentLoopId = For.LoopId;
  PlainOpts.NoAliasArrays = NoAlias;
  DepGraph PlainG = [&] {
    Tracer::Scope S(&T, "ddg.build", Id);
    return buildLoopDepGraph(Units, MD, PlainOpts);
  }();
  int Period = 0;
  {
    Tracer::Scope S(&T, "sched.list", Id);
    Schedule LocalSched = listSchedule(PlainG, MD);
    Period = std::max(unpipelinedPeriod(PlainG, LocalSched),
                      LocalSched.spanLength(PlainG));
  }
  L.UnpipelinedLen = Period;
  if (!Opts.EnablePipelining || Opts.MinLadderRung > 0 ||
      static_cast<unsigned>(Period) > Opts.MaxLoopLenToPipeline ||
      (!Opts.PipelineConditionalLoops && L.HasConditionals))
    return L;

  std::set<unsigned> Eligible;
  if (Opts.MVE != MVEPolicy::Disabled) {
    Tracer::Scope S(&T, "pipeliner.mve", Id);
    Eligible = mveEligibleRegs(Units, liveOutRegs(P, For), P);
    for (auto It = Eligible.begin(); It != Eligible.end();) {
      auto Local = LocalTo.find(*It);
      if (Local == LocalTo.end() || Local->second != &For)
        It = Eligible.erase(It);
      else
        ++It;
    }
  }

  DDGBuildOptions BOpts = PlainOpts;
  BOpts.ExpandedRegs = Eligible;
  DepGraph G = [&] {
    Tracer::Scope S(&T, "ddg.build", Id);
    return buildLoopDepGraph(Units, MD, BOpts);
  }();
  L.Nodes = G.numNodes();
  L.Edges = G.edges().size();

  ModuloScheduleOptions SOpts = Opts.Sched;
  if (SOpts.MaxII == 0)
    SOpts.MaxII = static_cast<unsigned>(Period);
  {
    Tracer::Scope S(&T, "pipeliner.sched", Id);
    L.Search = moduloSchedule(G, MD, SOpts);
  }
  L.Searched = true;
  const ModuloScheduleResult &MS = L.Search;
  if (!MS.Success || MS.II >= static_cast<unsigned>(Period) ||
      static_cast<double>(MS.MII) >= Opts.EfficiencyThreshold * Period)
    return L;

  MVEPlan Plan;
  {
    Tracer::Scope S(&T, "pipeliner.mve", Id);
    Plan = planModuloVariableExpansion(Units, MS.Sched, MS.II, Eligible,
                                       Opts.MVE);
    if (Opts.MVE == MVEPolicy::MinRegisters && Plan.Unroll > Opts.MaxUnroll)
      Plan = planModuloVariableExpansion(Units, MS.Sched, MS.II, Eligible,
                                         MVEPolicy::MinCodeSize);
  }
  L.Planned = true;
  L.Unroll = Plan.Unroll;
  for (const auto &[Reg, Copies] : Plan.Copies)
    L.ExpandedRegs += Copies > 1;
  {
    Tracer::Scope S(&T, "verify.sched", Id);
    VerifyReport VR =
        verifyModuloSchedule(G, MS.Sched, MS.II, MD, SOpts.MaxStages);
    VR.merge(verifyMVEPlan(Units, MS.Sched, MS.II, Plan, Eligible));
    if (!VR.ok())
      L.VerifyError = VR.str();
  }
  return L;
}

} // namespace

ProgramReplay perfbench::replayCompile(Program &P,
                                       const MachineDescription &MD,
                                       const CompilerOptions &Opts,
                                       Tracer &T, uint64_t Id) {
  ProgramReplay R;
  {
    Tracer::Scope S(&T, "ir.expand", Id);
    expandLibraryOps(P);
  }
  if (Opts.ScalarOptimizations) {
    Tracer::Scope S(&T, "ir.scalar", Id);
    for (;;) {
      unsigned N = eliminateDeadCode(P) + hoistLoopInvariants(P) +
                   localValueNumbering(P);
      if (N == 0)
        break;
      R.ScalarRewrites += N;
    }
  }
  R.Ops = countOps(P.Body);

  // Loop preparation and the local/global split belong to codegen; they
  // stay in its residual (no span).
  std::map<const ForStmt *, LoopPrep> Preps;
  prepareAll(P, P.Body, Preps);
  std::map<unsigned, const ForStmt *> LocalTo = loopLocalRegs(P, Preps);
  std::set<unsigned> NoAlias = noAliasArrays(P);

  std::vector<ForStmt *> Loops;
  emissionOrder(P.Body, Loops);
  for (ForStmt *For : Loops)
    R.Loops.push_back(replayLoop(P, *For, MD, Opts, LocalTo, NoAlias, T, Id));
  return R;
}

std::string perfbench::checkReplay(const ProgramReplay &R,
                                   const CompileReport &Rep) {
  if (R.Loops.size() != Rep.Loops.size())
    return "replay saw " + std::to_string(R.Loops.size()) +
           " innermost loops, compile reported " +
           std::to_string(Rep.Loops.size());
  for (size_t I = 0; I != R.Loops.size(); ++I) {
    const LoopReplay &L = R.Loops[I];
    const LoopReport &C = Rep.Loops[I];
    std::string Where = "loop i" + std::to_string(C.LoopId) + ": ";
    if (L.LoopId != C.LoopId)
      return Where + "replay visited loop i" + std::to_string(L.LoopId);
    if (L.Units != C.NumUnits)
      return Where + "units " + std::to_string(L.Units) + " vs " +
             std::to_string(C.NumUnits);
    if (!L.VerifyError.empty())
      return Where + "verifier rejected the replayed schedule: " +
             L.VerifyError;
    if (L.Searched != C.attempted())
      return Where + "modulo search ran in " +
             (L.Searched ? "the replay only" : "the compile only");
    if (!L.Searched)
      continue;
    const ModuloScheduleResult &MS = L.Search;
    if (MS.MII != C.MII || MS.TriedIntervals != C.TriedIntervals ||
        MS.Stats.IntervalsTried != C.Stats.IntervalsTried ||
        MS.Stats.SlotsProbed != C.Stats.SlotsProbed)
      return Where + "search differs (MII " + std::to_string(MS.MII) +
             " vs " + std::to_string(C.MII) + ", intervals " +
             std::to_string(MS.TriedIntervals) + " vs " +
             std::to_string(C.TriedIntervals) + ")";
    if (C.pipelined() && (!L.Planned || MS.II != C.II || L.Unroll != C.Unroll))
      return Where + "II " + std::to_string(MS.II) + " vs " +
             std::to_string(C.II) + ", unroll " + std::to_string(L.Unroll) +
             " vs " + std::to_string(C.Unroll);
  }
  return "";
}
