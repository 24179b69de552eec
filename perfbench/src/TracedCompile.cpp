//===- perfbench/src/TracedCompile.cpp ------------------------------------===//

#include "TracedCompile.h"

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/FastCoalescer.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/StructuralHash.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "regalloc/SpillRewriter.h"
#include "server/ResultCache.h"
#include "ssa/SSABuilder.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace fcc;
using namespace perfbench;

namespace {

/// Hashes the options that shape the rewritten text, standing in for the
/// service's configuration fingerprint (the replica's cache is its own, so
/// only the cost and the key-space separation matter).
uint64_t configTag(const ServiceOptions &O) {
  Hasher128 H;
  H.absorb(0xfccc0f19);
  H.absorb(static_cast<uint64_t>(O.Pipeline));
  H.absorb(static_cast<uint64_t>(O.Analyses.Dominators) << 8 |
           static_cast<uint64_t>(O.Analyses.Liveness));
  H.absorb(O.Machine ? 1 : 0);
  if (O.Machine)
    H.absorbBytes(O.Machine->Name);
  std::string Passes = passSequenceName(O.Passes);
  H.absorb(Passes.size());
  H.absorbBytes(Passes);
  Digest128 D = H.digest();
  return D.Hi ^ D.Lo;
}

unsigned phiOperands(const Function &F) {
  unsigned N = 0;
  for (const auto &B : F.blocks())
    for (const auto &Phi : B->phis())
      N += Phi->getNumOperands();
  return N;
}

} // namespace

TracedOutcome TracedService::compile(const WorkUnit &Unit, unsigned Index) {
  TracedOutcome Out;
  std::vector<FunctionRecord> Records;
  std::unique_ptr<Module> M;
  {
    SpanScope Root(Spans, RootSpan, Index);
    auto Fail = [&](std::string Error) -> TracedOutcome & {
      Out.Error = std::move(Error);
      SpanScope S(Spans, "ir.free", Index);
      M.reset();
      return Out;
    };
    auto Serve = [&](const std::shared_ptr<const CacheValue> &V,
                     const std::vector<std::string> &Names) {
      SpanScope S(Spans, "server.serve", Index);
      Records = V->Functions;
      for (size_t I = 0; I < Records.size() && I < Names.size(); ++I)
        Records[I].Name = Names[I];
      if (Opts.WantRewritten)
        Out.Rewritten = V->RewrittenText;
      Out.Ok = true;
      Out.FromCache = true;
    };

    CacheKey TextKey{}, StructKey{};
    if (Cache) {
      SpanScope S(Spans, "server.text_lookup", Index);
      Hasher128 H;
      H.absorb(0x7e77);
      H.absorb(configTag(Opts));
      H.absorb(2);
      H.absorbBytes(Unit.Source);
      Digest128 D = H.digest();
      TextKey = {D.Hi, D.Lo};
      if (auto Hit = Cache->lookupText(TextKey)) {
        Serve(Hit->Value, Hit->FunctionNames);
        return Out;
      }
    }

    {
      SpanScope S(Spans, "ir.parse", Index);
      std::string ParseError;
      M = parseModule(Unit.Source, ParseError);
      if (!M)
        return Fail("parse error: " + ParseError);
    }
    for (const auto &FPtr : M->functions())
      Counters.ParseInsts += FPtr->instructionCount();

    auto VerifyInput = [&](Function &F, std::string &Error) {
      SpanScope S(Spans, "ir.verify", Index);
      if (!verifyFunction(F, Error))
        return false;
      if (!isStrict(F)) {
        Error = "not strict";
        return false;
      }
      return true;
    };

    bool OwnerActive = false;
    if (Cache) {
      for (const auto &FPtr : M->functions()) {
        std::string Error;
        if (!VerifyInput(*FPtr, Error))
          return Fail("@" + FPtr->name() + ": " + Error);
      }
      {
        SpanScope S(Spans, "server.hash", Index);
        Hasher128 H;
        H.absorb(0x57c7);
        H.absorb(configTag(Opts));
        Digest128 Sh = structuralHash(*M);
        H.absorb(Sh.Hi);
        H.absorb(Sh.Lo);
        Digest128 D = H.digest();
        StructKey = {D.Hi, D.Lo};
      }
      ResultCache::StructResult R;
      {
        SpanScope S(Spans, "server.lookup", Index);
        R = Cache->lookupOrStart(StructKey);
      }
      if (!R.Owner) {
        std::vector<std::string> Names;
        for (const auto &FPtr : M->functions())
          Names.push_back(FPtr->name());
        {
          SpanScope S(Spans, "server.publish", Index);
          Cache->addAlias(TextKey, StructKey, Names);
        }
        Serve(R.Value, Names);
        SpanScope S(Spans, "ir.free", Index);
        M.reset();
        return Out;
      }
      OwnerActive = true;
    }
    struct OwnerGuard {
      ResultCache *Cache;
      CacheKey Key;
      bool Active;
      ~OwnerGuard() {
        if (Active)
          Cache->abort(Key);
      }
    } Guard{Cache, StructKey, OwnerActive};

    for (const auto &FPtr : M->functions()) {
      Function &F = *FPtr;
      std::string Error;
      if (!Cache && !VerifyInput(F, Error))
        return Fail("@" + F.name() + ": " + Error);

      FunctionRecord Record;
      Record.Name = F.name();
      Record.InputStaticCopies = F.staticCopyCount();
      Record.InputInstructions = F.instructionCount();
      PipelineResult &R = Record.Compile;
      R.Kind = PipelineKind::New;
      {
        SpanScope S(Spans, "analysis.split", Index);
        R.CriticalEdgesSplit = splitCriticalEdges(F);
      }
      {
        std::optional<DominatorTree> DT;
        {
          SpanScope S(Spans, "analysis.domtree", Index);
          DT.emplace(F, Opts.Analyses.Dominators);
        }
        SSABuildOptions BuildOpts;
        BuildOpts.FoldCopies = true;
        SSABuildStats Ssa;
        {
          SpanScope S(Spans, "ssa.build", Index);
          Ssa = buildSSA(F, *DT, BuildOpts);
        }
        Counters.SsaPhis += Ssa.PhisInserted;
        Counters.SsaCopiesFolded += Ssa.CopiesFolded;
        Counters.SsaNamesCreated += Ssa.NamesCreated;
        Counters.SsaPeakBytesMax =
            std::max(Counters.SsaPeakBytesMax, Ssa.PeakBytes);
        if (!Opts.Passes.empty()) {
          PassStats P;
          {
            SpanScope S(Spans, "opt.passes", Index);
            P = runPassSequence(F, Opts.Passes);
          }
          {
            SpanScope S(Spans, "opt.reanalyse", Index);
            R.CriticalEdgesSplit += splitCriticalEdges(F);
            DT.emplace(F, Opts.Analyses.Dominators);
          }
          Counters.SccpCopies += P.SccpCopies;
          Counters.InstsRemoved += P.InstsRemoved;
          Counters.PreHoisted += P.PreHoisted;
        }
        std::optional<Liveness> LV;
        {
          SpanScope S(Spans, "analysis.liveness", Index);
          LV.emplace(F, Opts.Analyses.Liveness);
        }
        {
          SpanScope S(Spans, "bench.count", Index);
          Counters.PhiOperands += phiOperands(F);
        }
        std::optional<FastCoalescer> Coalescer;
        {
          SpanScope S(Spans, "coalesce.partition", Index);
          Coalescer.emplace(F, *DT, *LV, FastCoalescerOptions());
          Coalescer->computePartition();
        }
        FastCoalesceStats Co;
        {
          SpanScope S(Spans, "coalesce.rewrite", Index);
          Co = Coalescer->rewrite();
        }
        Counters.CopiesInserted += Co.CopiesInserted;
        Counters.Evictions += Co.ForestEvictions + Co.LocalEvictions;
        Counters.CoalesceRounds += Co.Rounds;
        Counters.CoalescePeakBytesMax =
            std::max(Counters.CoalescePeakBytesMax, Co.PeakBytes);
        Counters.LivenessBytesMax =
            std::max(Counters.LivenessBytesMax, LV->bytes());
        R.PhisInserted = Ssa.PhisInserted;
        R.PeakBytes =
            std::max(Ssa.PeakBytes, Co.PeakBytes + LV->bytes()) + DT->bytes();
      }
      R.StaticCopies = F.staticCopyCount();
      if (Opts.Machine) {
        SpillRewriteResult SR;
        {
          SpanScope S(Spans, "regalloc.spill_rewrite", Index);
          SpillRewriteOptions SO;
          SO.Machine = *Opts.Machine;
          SR = insertSpillCode(F, SO);
        }
        R.Allocated = true;
        R.RegistersUsed = SR.Alloc.RegistersUsed;
        R.SpillStores = SR.SpillStores;
        R.Reloads = SR.Reloads;
        R.SpillSlots = SR.SlotsUsed;
        R.RangesSplit = SR.RangesSplit;
        R.RegallocIterations = SR.Iterations;
        ++Counters.AllocatedFunctions;
        Counters.FirstRoundFunctions += SR.Iterations == 1;
        Counters.RegallocRounds += SR.Iterations;
        Counters.SpillStores += SR.SpillStores;
        Counters.Reloads += SR.Reloads;
        Counters.RangesSplit += SR.RangesSplit;
      }
      if (Opts.VerifyOutput) {
        SpanScope S(Spans, "ir.verify", Index);
        if (!verifyFunction(F, Error))
          return Fail("@" + F.name() + ": output: " + Error);
      }
      Records.push_back(std::move(Record));
    }

    if (OwnerActive) {
      auto Value = std::make_shared<CacheValue>();
      Value->Functions = Records;
      {
        SpanScope S(Spans, "ir.print", Index);
        Value->RewrittenText = printModule(*M);
      }
      Out.Rewritten = Value->RewrittenText;
      std::vector<std::string> Names;
      for (const FunctionRecord &R : Records)
        Names.push_back(R.Name);
      SpanScope S(Spans, "server.publish", Index);
      Cache->complete(StructKey, std::move(Value));
      Guard.Active = false;
      Cache->addAlias(TextKey, StructKey, std::move(Names));
    } else {
      // Without WantRewritten the service prints nothing: the text is made
      // for the check only, under a span outside every layer.
      SpanScope S(Spans, Opts.WantRewritten ? "ir.print" : "bench.print",
                  Index);
      Out.Rewritten = printModule(*M);
    }
    Out.Ok = true;
    SpanScope S(Spans, "ir.free", Index);
    M.reset();
  }
  return Out;
}
