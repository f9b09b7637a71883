//===- perfbench/Replay.h - Layer-by-layer compile replay ---------*- C++ -*-===//
//
// Part of the warp-swp benchmark. See README.md in this directory.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays the pass order of compileProgram on a fresh copy of a program
/// through the library's public functions only, so that each layer gets a
/// wall time (a Tracer span) and an exact work count without touching
/// library code. The replay follows compileProgram's order: library
/// expansion, the scalar fixpoint, loop preparation, then per innermost
/// loop hierarchical reduction, the plain dependence graph and its list
/// schedule, MVE eligibility, the expanded graph, the modulo-schedule
/// search and the MVE plan. What the replay does not time (loop
/// preparation) or reach (emission, register allocation, the fallback
/// ladder) is the codegen residual: compile time minus the timed layers.
///
/// checkReplay() compares the replay with the CompileReport of the real
/// compile, loop by loop, so the layer shares rest on the same decisions.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_PERFBENCH_REPLAY_H
#define SWP_PERFBENCH_REPLAY_H

#include "Tracer.h"

#include "swp/Codegen/Compiler.h"

#include <string>
#include <vector>

namespace perfbench {

/// What the replay saw for one innermost loop.
struct LoopReplay {
  unsigned LoopId = 0;
  unsigned Units = 0;
  bool HasConditionals = false;
  unsigned UnpipelinedLen = 0;
  /// Modulo scheduling ran (the loop passed the length and conditional
  /// policies).
  bool Searched = false;
  swp::ModuloScheduleResult Search; ///< Valid when Searched.
  unsigned Nodes = 0, Edges = 0;    ///< Expanded graph (when Searched).
  /// An MVE plan was made (the schedule beat the unpipelined period).
  bool Planned = false;
  unsigned Unroll = 1;
  unsigned ExpandedRegs = 0; ///< Registers given more than one copy.
  std::string VerifyError;   ///< Verifier findings on schedule and plan.
};

struct ProgramReplay {
  unsigned ScalarRewrites = 0;
  unsigned Ops = 0; ///< IR operations after the scalar fixpoint.
  std::vector<LoopReplay> Loops;
};

/// Replays compileProgram's layers on \p P (which it mutates as the
/// compiler would), recording one span per layer call under \p Id.
ProgramReplay replayCompile(swp::Program &P, const swp::MachineDescription &MD,
                            const swp::CompilerOptions &Opts, Tracer &T,
                            uint64_t Id);

/// Empty when the replay made the same per-loop decisions as the real
/// compile (unit counts, MII, achieved II, intervals tried); otherwise a
/// description of the first difference.
std::string checkReplay(const ProgramReplay &R, const swp::CompileReport &Rep);

} // namespace perfbench

#endif // SWP_PERFBENCH_REPLAY_H
