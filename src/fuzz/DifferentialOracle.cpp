//===- fuzz/DifferentialOracle.cpp ----------------------------------------===//

#include "fuzz/DifferentialOracle.h"

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "baseline/ChaitinBriggsCoalescer.h"
#include "coalesce/CoalescingChecker.h"
#include "coalesce/FastCoalescer.h"
#include "interp/Interpreter.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "regalloc/GraphColoringAllocator.h"
#include "regalloc/SpillRewriter.h"
#include "ssa/ParallelCopy.h"
#include "ssa/SSABuilder.h"
#include "support/SplitMix64.h"

#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>

using namespace fcc;

namespace {

/// How a configuration takes the function out of SSA form.
enum class DestructKind {
  Standard,    ///< Naive phi instantiation (Briggs et al.).
  Fast,        ///< The paper's dominance-forest coalescer.
  FastChecked, ///< Fast, with the CoalescingChecker audit before rewrite.
  Briggs,      ///< Interference-graph build/coalesce loop.
  BriggsStar,  ///< Briggs with copy-involved-only rebuilds.
};

struct OracleConfig {
  const char *Name;
  SSAFlavor Flavor;
  bool Fold;
  DestructKind Destruct;
  /// Optimization pass sequence (passSequenceName spelling) run over the
  /// SSA form before destruction; null or empty runs no passes. The passes
  /// only rewrite within our total semantics (wrapping arithmetic, safe
  /// div/mod), so the optimized code must still execute equivalently on
  /// every argument vector — that is the property under test.
  const char *Passes = nullptr;
};

/// Every SSA flavor appears with folding so the fast coalescer's deleted-
/// copy reconstruction is exercised per flavor; the no-fold group adds the
/// two graph baselines, which the paper only defines over unfolded SSA
/// (phi webs as live ranges). Each fold group pairs Fast with Standard so
/// the static copy invariant has a config-matched baseline.
constexpr OracleConfig Configs[] = {
    {"minimal+fold/fast", SSAFlavor::Minimal, true, DestructKind::Fast},
    {"minimal+fold/standard", SSAFlavor::Minimal, true,
     DestructKind::Standard},
    {"semi+fold/fast", SSAFlavor::SemiPruned, true, DestructKind::Fast},
    {"semi+fold/standard", SSAFlavor::SemiPruned, true,
     DestructKind::Standard},
    {"pruned+fold/fast-checked", SSAFlavor::Pruned, true,
     DestructKind::FastChecked},
    {"pruned+fold/standard", SSAFlavor::Pruned, true, DestructKind::Standard},
    {"pruned+nofold/fast", SSAFlavor::Pruned, false, DestructKind::Fast},
    {"pruned+nofold/standard", SSAFlavor::Pruned, false,
     DestructKind::Standard},
    {"pruned+nofold/briggs", SSAFlavor::Pruned, false, DestructKind::Briggs},
    {"pruned+nofold/briggs*", SSAFlavor::Pruned, false,
     DestructKind::BriggsStar},
    // Optimized-pipeline configurations: each fast entry has a standard
    // twin with the same flavor, fold and passes, so the copy-regression
    // invariant below stays config-matched. The fold pair exercises SCCP
    // over already-folded copies; the nofold pair leaves every input copy
    // for SCCP's own forwarding, then runs the full three-pass sequence.
    {"pruned+fold/fast+sccp", SSAFlavor::Pruned, true, DestructKind::Fast,
     "sccp"},
    {"pruned+fold/standard+sccp", SSAFlavor::Pruned, true,
     DestructKind::Standard, "sccp"},
    {"pruned+nofold/fast+sccp,adce,pre", SSAFlavor::Pruned, false,
     DestructKind::Fast, "sccp,adce,pre"},
    {"pruned+nofold/standard+sccp,adce,pre", SSAFlavor::Pruned, false,
     DestructKind::Standard, "sccp,adce,pre"},
};
constexpr unsigned NumConfigs = sizeof(Configs) / sizeof(Configs[0]);

bool isFastKind(DestructKind K) {
  return K == DestructKind::Fast || K == DestructKind::FastChecked;
}

/// Null and "" both mean "no passes" (the dynamic extra configuration
/// always carries a spelled-out sequence).
bool samePasses(const char *A, const char *B) {
  return std::strcmp(A ? A : "", B ? B : "") == 0;
}

/// The seeded argument vectors one function is executed on: all-zeros plus
/// Opts.ArgVectors vectors mixing small branch-steering values with larger
/// magnitudes (wraparound and memory-index coverage).
std::vector<std::vector<int64_t>> argVectors(unsigned NumParams,
                                             unsigned FuncIndex,
                                             const OracleOptions &Opts) {
  std::vector<std::vector<int64_t>> Sets;
  Sets.emplace_back(NumParams, 0);
  SplitMix64 Rng(Opts.ArgSeed + 0x9e3779b97f4a7c15ull * (FuncIndex + 1));
  for (unsigned V = 0; V != Opts.ArgVectors; ++V) {
    std::vector<int64_t> Args;
    Args.reserve(NumParams);
    for (unsigned P = 0; P != NumParams; ++P)
      Args.push_back(Rng.chancePercent(25) ? Rng.nextInRange(-1000, 1000)
                                           : Rng.nextInRange(-4, 9));
    Sets.push_back(std::move(Args));
  }
  return Sets;
}

std::string formatArgs(const std::vector<int64_t> &Args) {
  std::string Out = "[";
  for (size_t I = 0; I != Args.size(); ++I) {
    if (I)
      Out += ",";
    Out += std::to_string(Args[I]);
  }
  Out += "]";
  return Out;
}

/// Transforms \p F under \p C. Returns false (with \p Error filled) only
/// for a checker refutation; structural problems surface via the caller's
/// re-verification, crashes via the caller's catch.
bool runConfig(Function &F, const OracleConfig &C, std::string &Error) {
  splitCriticalEdges(F);
  std::optional<DominatorTree> DT;
  DT.emplace(F);
  SSABuildOptions Build;
  Build.Flavor = C.Flavor;
  Build.FoldCopies = C.Fold;
  buildSSA(F, *DT, Build);

  if (C.Passes && *C.Passes) {
    std::vector<PassKind> Seq;
    if (!parsePassSequence(C.Passes, Seq))
      throw std::logic_error(std::string("bad pass sequence: ") + C.Passes);
    PassManagerOptions PM;
    // Always verify between passes here, even in release campaigns: a
    // broken invariant becomes an InternalError divergence naming the
    // offending pass instead of a downstream miscompile.
    PM.Verify = true;
    runPassSequence(F, Seq, PM);
    // Branch folding can merge blocks' edges and delete blocks; restore
    // the pipeline invariants the coalescers assume.
    splitCriticalEdges(F);
    DT.emplace(F);
  }

  switch (C.Destruct) {
  case DestructKind::Standard:
    lowerPhis(F, [](Variable *V) { return V; });
    return true;
  case DestructKind::Fast:
  case DestructKind::FastChecked: {
    Liveness LV(F, LivenessAlgorithm::Sparse);
    FastCoalescer Coalescer(F, *DT, LV);
    Coalescer.computePartition();
    if (C.Destruct == DestructKind::FastChecked &&
        !checkCoalescing(
            F, LV, [&](const Variable *V) { return Coalescer.rep(V); },
            Error))
      return false;
    Coalescer.rewrite();
    return true;
  }
  case DestructKind::Briggs:
  case DestructKind::BriggsStar: {
    identifyLiveRangeWebs(F);
    BriggsOptions BO;
    BO.Improved = C.Destruct == DestructKind::BriggsStar;
    coalesceCopiesBriggs(F, BO);
    return true;
  }
  }
  return true;
}

/// Direct analysis cross-validation: on one fresh copy of the function,
/// build dominators and (when every block reaches a return) postdominators
/// with both algorithms, and liveness (over pruned+fold SSA) with both
/// solvers, and demand bit-identical results — idom, ipdom, preorder and
/// max-preorder per block, every live-in/live-out word per block. Catches
/// any divergence long before it could bias a pipeline comparison. Returns
/// false with \p Detail set to the first disagreement.
bool crossValidateAnalyses(Function &F, std::string &Detail) {
  splitCriticalEdges(F);
  auto Name = [](const BasicBlock *D, const char *Null) {
    return D ? D->name() : std::string(Null);
  };
  DominatorTree Chk(F, DomAlgorithm::CHK);
  DominatorTree Dsu(F, DomAlgorithm::DSU);
  for (const auto &B : F.blocks()) {
    if (Chk.idom(B.get()) != Dsu.idom(B.get())) {
      Detail = "idom(" + B->name() + "): CHK " +
               Name(Chk.idom(B.get()), "<none>") + " != DSU " +
               Name(Dsu.idom(B.get()), "<none>");
      return false;
    }
    if (Chk.preorder(B.get()) != Dsu.preorder(B.get()) ||
        Chk.maxPreorder(B.get()) != Dsu.maxPreorder(B.get())) {
      Detail = "preorder(" + B->name() + "): CHK [" +
               std::to_string(Chk.preorder(B.get())) + "," +
               std::to_string(Chk.maxPreorder(B.get())) + "] != DSU [" +
               std::to_string(Dsu.preorder(B.get())) + "," +
               std::to_string(Dsu.maxPreorder(B.get())) + "]";
      return false;
    }
  }
  std::vector<BasicBlock *> ChkPdom, DsuPdom;
  if (computePostDominators(F, ChkPdom, DomAlgorithm::CHK) &&
      computePostDominators(F, DsuPdom, DomAlgorithm::DSU))
    for (const auto &B : F.blocks())
      if (ChkPdom[B->id()] != DsuPdom[B->id()]) {
        Detail = "ipdom(" + B->name() + "): CHK " +
                 Name(ChkPdom[B->id()], "<exit>") + " != DSU " +
                 Name(DsuPdom[B->id()], "<exit>");
        return false;
      }

  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, Chk, Build);
  Liveness Dense(F, LivenessAlgorithm::Dense);
  Liveness Sparse(F, LivenessAlgorithm::Sparse);
  for (const auto &B : F.blocks()) {
    if (Dense.liveIn(B.get()) != Sparse.liveIn(B.get())) {
      Detail = "live-in(" + B->name() + "): dense != sparse";
      return false;
    }
    if (Dense.liveOut(B.get()) != Sparse.liveOut(B.get())) {
      Detail = "live-out(" + B->name() + "): dense != sparse";
      return false;
    }
  }
  return true;
}

/// Compares one rewritten function against the reference results. Appends
/// at most one ExecMismatch divergence (the first offending vector).
void compareExecutions(const Function &Rewritten,
                       const std::vector<std::vector<int64_t>> &Vectors,
                       const std::vector<ExecutionResult> &Reference,
                       const OracleOptions &Opts, const std::string &Config,
                       std::vector<Divergence> &Out) {
  // Conversion changes the executed instruction count (naive destruction
  // of minimal SSA can multiply copies well past any fixed factor in tight
  // loops), so rewritten code gets a budget scaled from the reference
  // run's actual length: a legitimate completion always still completes,
  // and a reference non-completion stays incomparable (skipped).
  for (size_t V = 0; V != Vectors.size(); ++V) {
    const ExecutionResult &Ref = Reference[V];
    if (!Ref.Completed)
      continue;
    Interpreter Interp(Opts.MemoryWords,
                       Ref.InstructionsExecuted * 64 + 10'000);
    ExecutionResult Got = Interp.run(Rewritten, Vectors[V]);
    std::string Prefix = "args " + formatArgs(Vectors[V]) + ": ";
    if (!Got.Completed) {
      Out.push_back({DivergenceKind::ExecMismatch, Config,
                     Prefix + "rewritten code hit the step limit; the "
                              "reference completed"});
      return;
    }
    if (Got.ReturnValue != Ref.ReturnValue) {
      Out.push_back({DivergenceKind::ExecMismatch, Config,
                     Prefix + "return " + std::to_string(Got.ReturnValue) +
                         " != " + std::to_string(Ref.ReturnValue)});
      return;
    }
    for (size_t W = 0; W != Ref.FinalMemory.size(); ++W) {
      if (Got.FinalMemory[W] != Ref.FinalMemory[W]) {
        Out.push_back({DivergenceKind::ExecMismatch, Config,
                       Prefix + "mem[" + std::to_string(W) + "] " +
                           std::to_string(Got.FinalMemory[W]) + " != " +
                           std::to_string(Ref.FinalMemory[W])});
        return;
      }
    }
  }
}

} // namespace

const char *fcc::divergenceKindName(DivergenceKind Kind) {
  switch (Kind) {
  case DivergenceKind::VerifyFail:
    return "verify-fail";
  case DivergenceKind::CheckRefuted:
    return "check-refuted";
  case DivergenceKind::ExecMismatch:
    return "exec-mismatch";
  case DivergenceKind::CopyRegression:
    return "copy-regression";
  case DivergenceKind::AllocUnsound:
    return "alloc-unsound";
  case DivergenceKind::AnalysisMismatch:
    return "analysis-mismatch";
  case DivergenceKind::InternalError:
    return "internal-error";
  }
  return "<invalid>";
}

std::vector<std::string> fcc::oracleConfigNames() {
  std::vector<std::string> Names;
  for (const OracleConfig &C : Configs)
    Names.push_back(C.Name);
  return Names;
}

OracleResult fcc::runDifferentialOracle(const std::string &IrText,
                                        const OracleOptions &Opts) {
  OracleResult Result;

  // Reference module: validate the input and record per-function behaviour.
  std::unique_ptr<Module> RefM = parseModule(IrText, Result.InputError);
  if (!RefM)
    return Result;
  if (RefM->functions().empty()) {
    Result.InputError = "module has no functions";
    return Result;
  }
  unsigned NumFuncs = RefM->size();
  std::vector<std::vector<std::vector<int64_t>>> Vectors(NumFuncs);
  std::vector<std::vector<ExecutionResult>> Reference(NumFuncs);
  Interpreter RefInterp(Opts.MemoryWords, Opts.StepLimit);
  for (unsigned FI = 0; FI != NumFuncs; ++FI) {
    const Function &F = *RefM->functions()[FI];
    if (checkCompileInput(F, Result.InputError) != InputFault::None)
      return Result;
    Vectors[FI] =
        argVectors(static_cast<unsigned>(F.params().size()), FI, Opts);
    for (const auto &Args : Vectors[FI])
      Reference[FI].push_back(RefInterp.run(F, Args));
  }
  Result.InputOk = true;

  // The configurations for this invocation: the static table plus, when
  // requested, one fast-checked configuration running the caller's pass
  // sequence (fcc-fuzz --passes=), so campaigns can stress an arbitrary
  // phase ordering without a rebuild. The extra entry has no standard
  // twin, so it participates in every check except the copy-regression
  // pairing below.
  std::vector<OracleConfig> Run(Configs, Configs + NumConfigs);
  std::string ExtraName, ExtraPasses;
  if (!Opts.Passes.empty()) {
    ExtraPasses = passSequenceName(Opts.Passes);
    ExtraName = "pruned+fold/fast-checked+" + ExtraPasses;
    OracleConfig Extra = {ExtraName.c_str(), SSAFlavor::Pruned, true,
                          DestructKind::FastChecked, ExtraPasses.c_str()};
    Run.push_back(Extra);
  }
  const unsigned NumRun = static_cast<unsigned>(Run.size());

  // Static copy counts per (function, config), for the invariant check.
  constexpr unsigned NoCount = std::numeric_limits<unsigned>::max();
  std::vector<std::vector<unsigned>> Copies(
      NumFuncs, std::vector<unsigned>(NumRun, NoCount));

  for (unsigned CI = 0; CI != NumRun; ++CI) {
    const OracleConfig &C = Run[CI];
    ++Result.ConfigsRun;
    std::string ParseError;
    std::unique_ptr<Module> M = parseModule(IrText, ParseError);
    // The text parsed once already; a failure here is a parser bug.
    if (!M) {
      Result.Divergences.push_back({DivergenceKind::InternalError, C.Name,
                                    "re-parse failed: " + ParseError});
      continue;
    }
    for (unsigned FI = 0; FI != NumFuncs; ++FI) {
      Function &F = *M->functions()[FI];
      std::string Config = "@" + F.name() + " " + C.Name;
      std::string Error;
      try {
        if (!runConfig(F, C, Error)) {
          Result.Divergences.push_back(
              {DivergenceKind::CheckRefuted, Config, Error});
          continue;
        }
      } catch (const std::exception &E) {
        Result.Divergences.push_back(
            {DivergenceKind::InternalError, Config, E.what()});
        continue;
      } catch (...) {
        Result.Divergences.push_back(
            {DivergenceKind::InternalError, Config, "unknown exception"});
        continue;
      }
      if (!verifyFunction(F, Error)) {
        Result.Divergences.push_back(
            {DivergenceKind::VerifyFail, Config, Error});
        continue;
      }
      Copies[FI][CI] = F.staticCopyCount();
      compareExecutions(F, Vectors[FI], Reference[FI], Opts, Config,
                        Result.Divergences);

      // The regalloc path: color the paper-pipeline output and audit the
      // assignment with the partition checker over from-scratch liveness,
      // not the allocator's own interference graph.
      if (C.Destruct == DestructKind::FastChecked && Opts.Registers != 0) {
        ++Result.ConfigsRun;
        RegAllocOptions RO;
        RO.Machine = uniformMachine(Opts.Registers);
        try {
          RegAllocResult Alloc = allocateRegisters(F, RO);
          if (!checkRegisterAssignment(F, Liveness(F), Alloc.RegisterOf,
                                       Error))
            Result.Divergences.push_back(
                {DivergenceKind::AllocUnsound, Config + "/regalloc", Error});
        } catch (const std::exception &E) {
          Result.Divergences.push_back({DivergenceKind::InternalError,
                                        Config + "/regalloc", E.what()});
        }

        // Spill rewriting to convergence: the rewritten function must
        // still verify, the final (complete) assignment must be
        // interference-free against scratch liveness of the REWRITTEN
        // code, and execution must match the reference bit for bit —
        // spill slots live outside observable memory, so FinalMemory
        // comparison stays valid.
        ++Result.ConfigsRun;
        std::string SpillConfig = Config + "/spill";
        try {
          SpillRewriteOptions SR;
          SR.Machine = uniformMachine(Opts.Registers);
          SpillRewriteResult R = insertSpillCode(F, SR);
          if (!R.Alloc.Spilled.empty()) {
            Result.Divergences.push_back(
                {DivergenceKind::InternalError, SpillConfig,
                 "insertSpillCode returned a non-empty spill set"});
          } else if (!verifyFunction(F, Error)) {
            Result.Divergences.push_back(
                {DivergenceKind::VerifyFail, SpillConfig, Error});
          } else if (!checkRegisterAssignment(F, Liveness(F),
                                              R.Alloc.RegisterOf, Error)) {
            Result.Divergences.push_back(
                {DivergenceKind::AllocUnsound, SpillConfig, Error});
          } else {
            compareExecutions(F, Vectors[FI], Reference[FI], Opts,
                              SpillConfig, Result.Divergences);
          }
        } catch (const std::exception &E) {
          Result.Divergences.push_back(
              {DivergenceKind::InternalError, SpillConfig, E.what()});
        }
      }
    }
  }

  // Direct analysis cross-validation: both dominator algorithms and both
  // liveness solvers over one fresh copy of every function, compared bit
  // for bit on the split CFG and pruned+fold SSA form the configurations
  // above build with the default pair (DSU, sparse). Equal here, the other
  // pair would hand the coalescer exactly the same inputs.
  {
    std::string ParseError;
    std::unique_ptr<Module> M = parseModule(IrText, ParseError);
    for (unsigned FI = 0; M && FI != NumFuncs; ++FI) {
      Function &F = *M->functions()[FI];
      std::string Config = "@" + F.name() + " analysis-crosscheck";
      ++Result.ConfigsRun;
      std::string Detail;
      try {
        if (!crossValidateAnalyses(F, Detail))
          Result.Divergences.push_back(
              {DivergenceKind::AnalysisMismatch, Config, Detail});
      } catch (const std::exception &E) {
        Result.Divergences.push_back(
            {DivergenceKind::InternalError, Config, E.what()});
      }
    }
  }

  // Static invariant: within each (flavor, fold, passes) group the fast
  // coalescer must not leave more copies than naive destruction — it only
  // removes copies the standard scheme would insert. Same-passes matters:
  // the passes rewrite the SSA form itself, so only configs that saw the
  // same pre-destruction code are comparable.
  for (unsigned FI = 0; FI != NumFuncs; ++FI) {
    for (unsigned A = 0; A != NumRun; ++A) {
      if (!isFastKind(Run[A].Destruct) || Copies[FI][A] == NoCount)
        continue;
      for (unsigned B = 0; B != NumRun; ++B) {
        if (Run[B].Destruct != DestructKind::Standard ||
            Run[B].Flavor != Run[A].Flavor ||
            Run[B].Fold != Run[A].Fold ||
            !samePasses(Run[B].Passes, Run[A].Passes) ||
            Copies[FI][B] == NoCount)
          continue;
        if (Copies[FI][A] > Copies[FI][B]) {
          const std::string &Name = RefM->functions()[FI]->name();
          Result.Divergences.push_back(
              {DivergenceKind::CopyRegression,
               "@" + Name + " " + Run[A].Name,
               "fast coalescing left " + std::to_string(Copies[FI][A]) +
                   " copies; " + Run[B].Name + " leaves only " +
                   std::to_string(Copies[FI][B])});
        }
      }
    }
  }
  return Result;
}
