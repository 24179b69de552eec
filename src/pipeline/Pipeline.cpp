//===- pipeline/Pipeline.cpp ----------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "baseline/ChaitinBriggsCoalescer.h"
#include "coalesce/CoalescingChecker.h"
#include "coalesce/FastCoalescer.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "regalloc/SpillRewriter.h"
#include "ssa/ParallelCopy.h"
#include "ssa/SSABuilder.h"
#include "support/Timer.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

using namespace fcc;

const char *fcc::pipelineName(PipelineKind Kind) {
  switch (Kind) {
  case PipelineKind::Standard:
    return "Standard";
  case PipelineKind::New:
    return "New";
  case PipelineKind::Briggs:
    return "Briggs";
  case PipelineKind::BriggsImproved:
    return "Briggs*";
  }
  return "<invalid>";
}

// The optional optimization stage: runs the configured pass sequence over
// the freshly built SSA form. Passes may fold branches and delete blocks,
// so critical edges are re-split (ADCE retargeting can create new ones)
// and the dominator tree is rebuilt for the downstream coalescers. The
// whole stage is timed and the caller subtracts it from TimeMicros — the
// paper's window measures the SSA round trip, not the optimizer.
static uint64_t runOptStage(Function &F, const PipelineOptions &Opts,
                            std::optional<DominatorTree> &DT,
                            PipelineResult &Result) {
  if (Opts.Passes.empty())
    return 0;
  Timer OptClock;
  PassManagerOptions PM;
  PM.Instr = Opts.Instr;
  runPassSequence(F, Opts.Passes, PM);
  {
    PhaseScope P(Opts.Instr, "opt-resplit-edges", "opt");
    Result.CriticalEdgesSplit += splitCriticalEdges(F);
  }
  {
    PhaseScope P(Opts.Instr, "opt-redominate", "opt");
    DT.emplace(F, Opts.Analyses.Dominators);
  }
  return OptClock.elapsedMicros();
}

// The optional register-allocation stage: runs after the coalescing
// pipeline (outside the paper's timing window) and only when a machine
// model was requested. The rewriter converges or throws, so on return the
// function's allocation is always complete.
static void runRegallocStage(Function &F, const PipelineOptions &Opts,
                             PipelineResult &Result) {
  if (!Opts.Machine)
    return;
  PhaseScope P(Opts.Instr, "regalloc", "regalloc");
  SpillRewriteOptions SR;
  SR.Machine = *Opts.Machine;
  SpillRewriteResult R = insertSpillCode(F, SR);
  Result.Allocated = true;
  Result.RegistersUsed = R.Alloc.RegistersUsed;
  Result.SpillStores = R.SpillStores;
  Result.Reloads = R.Reloads;
  Result.SpillSlots = R.SlotsUsed;
  Result.RangesSplit = R.RangesSplit;
  Result.RegallocIterations = R.Iterations;
}

PipelineResult fcc::runPipeline(Function &F, const PipelineOptions &Opts) {
  const PipelineKind Kind = Opts.Kind;
  const Instrumentation *Instr = Opts.Instr;
  const bool Briggs =
      Kind == PipelineKind::Briggs || Kind == PipelineKind::BriggsImproved;
  // Live-range web identification undoes SSA renaming by name: it relies on
  // every phi web mirroring exactly one source variable, which holds only
  // for unoptimized, unfolded SSA. SCCP's copy forwarding can merge names
  // from distinct origins (even two parameters) into one web, and rewriting
  // such a web to one name would change semantics — so the opt stage is a
  // configuration error here, not a silent no-op.
  if (Briggs && !Opts.Passes.empty())
    throw std::invalid_argument(
        "optimization passes are not supported with the Briggs pipelines "
        "(live-range webs assume unoptimized SSA)");

  PipelineResult Result;
  Result.Kind = Kind;
  RecordList *Records = recordsOf(Instr);
  const size_t FirstRecord = Records ? Records->Records.size() : 0;
  {
    PhaseScope Split(Instr, "split-critical-edges", "setup");
    Result.CriticalEdgesSplit = splitCriticalEdges(F);
  }

  Timer Clock; // The paper's timer: starts right before SSA construction.
  std::optional<DominatorTree> DT;
  {
    PhaseScope P(Instr, "dominators", "pipeline");
    DT.emplace(F, Opts.Analyses.Dominators);
  }
  // Copy folding suits the SSA-based destructors; the Briggs webs need the
  // copies kept so each web still mirrors one source variable.
  SSABuildOptions BuildOpts;
  BuildOpts.FoldCopies = !Briggs;
  SSABuildStats Ssa;
  {
    PhaseScope P(Instr, "ssa-build", "pipeline");
    Ssa = buildSSA(F, *DT, BuildOpts);
  }
  // Time spent outside the paper's window: the optimizer and the audit.
  uint64_t ExcludedMicros = runOptStage(F, Opts, DT, Result);
  // Peak bytes of the destruction stage, its liveness included; the
  // dominator tree's bytes are added once at the end.
  size_t DestroyBytes = 0;

  switch (Kind) {
  case PipelineKind::Standard: {
    DestructionStats Destr;
    {
      PhaseScope P(Instr, "rewrite", "pipeline");
      Destr = lowerPhis(F, [](Variable *V) { return V; });
    }
    DestroyBytes = Destr.PeakBytes;
    break;
  }
  case PipelineKind::New: {
    std::optional<Liveness> LV;
    {
      PhaseScope P(Instr, "liveness", "pipeline");
      LV.emplace(F, Opts.Analyses.Liveness);
    }
    FastCoalescerOptions CoOpts;
    CoOpts.Instr = Instr;
    std::optional<FastCoalescer> Coalescer;
    {
      PhaseScope P(Instr, "forest-walk", "pipeline");
      Coalescer.emplace(F, *DT, *LV, CoOpts);
      Coalescer->computePartition();
    }
    if (Opts.CheckPartition) {
      // The audit is diagnostics, not conversion work: keep its cost out of
      // the paper-comparable timing and out of Result.Phases. It walks
      // whole live-out sets, so it solves its own block-major ones.
      Timer CheckClock;
      std::string Error;
      bool Valid;
      {
        PhaseScope P(Instr, "partition-check", "audit");
        Valid = checkCoalescing(
            F, Liveness(F, LivenessAlgorithm::Dense),
            [&](const Variable *V) { return Coalescer->rep(V); }, Error);
      }
      if (!Valid)
        throw PartitionRefuted(Error);
      ExcludedMicros += CheckClock.elapsedMicros();
    }
    FastCoalesceStats Co;
    {
      PhaseScope P(Instr, "rewrite", "pipeline");
      Co = Coalescer->rewrite();
    }
    DestroyBytes = Co.PeakBytes + LV->bytes();
    break;
  }
  case PipelineKind::Briggs:
  case PipelineKind::BriggsImproved: {
    {
      PhaseScope P(Instr, "live-range-webs", "pipeline");
      identifyLiveRangeWebs(F);
    }
    Timer CoalesceClock;
    BriggsOptions BO;
    BO.Improved = Kind == PipelineKind::BriggsImproved;
    BO.Instr = Instr;
    BriggsStats Stats;
    {
      PhaseScope P(Instr, "briggs-coalesce", "pipeline");
      Stats = coalesceCopiesBriggs(F, BO);
    }
    Result.CoalesceTimeMicros = CoalesceClock.elapsedMicros();
    DestroyBytes = Stats.PeakBytes;
    Result.GraphBytesPerPass = std::move(Stats.GraphBytesPerPass);
    Result.CoalescePasses = Stats.Iterations;
    break;
  }
  }

  uint64_t Elapsed = Clock.elapsedMicros();
  Result.TimeMicros = Elapsed > ExcludedMicros ? Elapsed - ExcludedMicros : 0;
  Result.PhisInserted = Ssa.PhisInserted;
  Result.PeakBytes = std::max(Ssa.PeakBytes, DestroyBytes) + DT->bytes();
  Result.StaticCopies = F.staticCopyCount();
  runRegallocStage(F, Opts, Result);
  // Result.Phases: this run's spans except the nested "coalesce"
  // sub-phases and the "audit", that is, its top-level phases in order.
  if (Records)
    for (size_t I = FirstRecord; I != Records->Records.size(); ++I) {
      const Record &R = Records->Records[I];
      if (!R.isCounter() && !R.is("coalesce") && !R.is("audit"))
        Result.Phases.push_back({R.Name, R.Value});
    }
  return Result;
}

RoutineReport fcc::runOnRoutine(const RoutineSpec &Spec, PipelineKind Kind,
                                bool Execute) {
  RoutineReport Report;
  Report.Name = Spec.Name;
  std::unique_ptr<Module> M = Spec.materialize();
  Function &F = *M->functions()[0];
  Report.InputStaticCopies = F.staticCopyCount();
  Report.InputInstructions = F.instructionCount();
  Report.Compile = runPipeline(F, Kind);
  if (Execute)
    Report.Exec = Interpreter().run(F, Spec.Args);
  return Report;
}
