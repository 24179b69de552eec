//===- examples/regalloc_demo.cpp -----------------------------------------===//
//
// The paper's stated future work (Section 5): a register allocator driven
// by the fast live-range identification. This example runs the New
// pipeline on a kernel — live ranges are identified and coalesced without
// any interference graph — and only then builds the one graph the
// Chaitin/Briggs colorer needs, sweeping the register count to show where
// spilling starts.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "pipeline/Pipeline.h"
#include "regalloc/GraphColoringAllocator.h"

#include <cstdio>

using namespace fcc;

int main() {
  // tomcatv: the mesh-relaxation kernel; fully coalesced by the pipeline.
  const RoutineSpec &Spec = kernelSuite()[0];
  std::unique_ptr<Module> M = Spec.materialize();
  Function &F = *M->functions()[0];

  PipelineResult Compile = runPipeline(F, PipelineKind::New);
  std::printf("routine %s: %u phis coalesced into copy-free code "
              "(%u copies left)\n\n",
              F.name().c_str(), Compile.PhisInserted, Compile.StaticCopies);

  std::printf("%9s %14s %9s\n", "registers", "spilled vars", "used");
  unsigned FirstCleanK = 0;
  for (unsigned K : {2u, 3u, 4u, 5u, 6u, 8u, 12u}) {
    RegAllocOptions Opts;
    Opts.Machine = uniformMachine(K);
    RegAllocResult R = allocateRegisters(F, Opts);
    std::printf("%9u %14zu %9u\n", K, R.Spilled.size(), R.RegistersUsed);
    if (R.Spilled.empty() && FirstCleanK == 0)
      FirstCleanK = K;
  }

  if (FirstCleanK != 0) {
    RegAllocOptions Opts;
    Opts.Machine = uniformMachine(FirstCleanK);
    RegAllocResult R = allocateRegisters(F, Opts);
    std::printf("\nassignment at %u registers (first spill-free fit):\n",
                FirstCleanK);
    for (const auto &V : F.variables()) {
      int Reg = R.RegisterOf[V->id()];
      if (Reg >= 0)
        std::printf("  %-12s -> r%d\n", V->name().c_str(), Reg);
    }
  }
  return 0;
}
