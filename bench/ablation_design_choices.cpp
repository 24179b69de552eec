//===- bench/ablation_design_choices.cpp ----------------------------------===//
//
// Ablation study for the design choices DESIGN.md calls out:
//
//   * SSA flavor feeding the coalescer (pruned / semi-pruned / minimal):
//     Section 3 predicts "the additional inexactness of those forms
//     propagates itself into our analysis, possibly causing the insertion
//     of extra copies".
//   * The five Section 3.1 filters on/off: filters catch two-name
//     interferences early, where one copy suffices; without them the same
//     interference surfaces later against a whole set.
//   * Figure 2's cost-based victim selection vs always evicting the child.
//
// Each configuration reports total static copies, total conversion time
// and total phis over the full suite.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/FastCoalescer.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ssa/SSABuilder.h"
#include "support/Timer.h"
#include "workload/KernelSuite.h"

using namespace fcc;
using namespace fcc::bench;

namespace {

struct Config {
  const char *Name;
  SSAFlavor Flavor;
  FastCoalescerOptions Opts;
};

struct Totals {
  uint64_t TimeMicros = 0;
  uint64_t StaticCopies = 0;
  uint64_t Phis = 0;
  uint64_t Evictions = 0;
  uint64_t FilterRejections = 0;
};

Totals runConfig(const Config &C) {
  Totals T;
  for (const RoutineSpec &Spec : paperSuite()) {
    auto M = Spec.materialize();
    Function &F = *M->functions()[0];
    splitCriticalEdges(F);
    Timer Clock;
    DominatorTree DT(F);
    SSABuildOptions SOpts;
    SOpts.Flavor = C.Flavor;
    SOpts.FoldCopies = true;
    SSABuildStats Ssa = buildSSA(F, DT, SOpts);
    Liveness LV(F);
    FastCoalesceStats Co = coalesceSSA(F, DT, LV, C.Opts);
    T.TimeMicros += Clock.elapsedMicros();
    T.StaticCopies += F.staticCopyCount();
    T.Phis += Ssa.PhisInserted;
    T.Evictions += Co.ForestEvictions + Co.LocalEvictions;
    T.FilterRejections += Co.FilterRejections;
  }
  return T;
}

} // namespace

int main() {
  std::printf("Ablation: design choices of the fast coalescer "
              "(full-suite totals)\n\n");

  FastCoalescerOptions Default; // eager checks + multi-round, pruned SSA

  FastCoalescerOptions Lazy; // the paper's two-phase algorithm
  Lazy.EagerSetChecks = false;
  Lazy.RecoalesceEvicted = false;

  FastCoalescerOptions LazyRounds = Lazy; // + re-coalesce evicted members
  LazyRounds.RecoalesceEvicted = true;

  FastCoalescerOptions LazyNoFilters = Lazy;
  LazyNoFilters.UseFilters = false;

  FastCoalescerOptions LazyChildEvict = Lazy;
  LazyChildEvict.CostBasedVictims = false;

  const Config Configs[] = {
      {"eager(def.)", SSAFlavor::Pruned, Default},
      {"eager/semi", SSAFlavor::SemiPruned, Default},
      {"eager/minimal", SSAFlavor::Minimal, Default},
      {"lazy+rounds", SSAFlavor::Pruned, LazyRounds},
      {"lazy(paper)", SSAFlavor::Pruned, Lazy},
      {"lazy-nofilt", SSAFlavor::Pruned, LazyNoFilters},
      {"lazy-child", SSAFlavor::Pruned, LazyChildEvict},
  };

  for (const char *H : {"Config", "Copies", "Time(us)", "Phis", "Evicts",
                        "FilterRej"})
    printCell(H);
  std::printf("\n");
  printDivider(6);

  // Warm the page cache and the CPU governor so the first row's timing is
  // comparable to the rest.
  (void)runConfig(Configs[0]);

  uint64_t BaselineCopies = 0;
  for (const Config &C : Configs) {
    Totals T = runConfig(C);
    if (BaselineCopies == 0)
      BaselineCopies = T.StaticCopies;
    printCell(C.Name);
    printCell(T.StaticCopies);
    printCell(T.TimeMicros);
    printCell(T.Phis);
    printCell(T.Evictions);
    printCell(T.FilterRejections);
    std::printf("\n");
  }

  std::printf("\nExpected shape: the eager default leaves the fewest copies; "
              "minimal SSA adds\nphis and copies (Section 3's inexactness "
              "remark); the lazy modes trade copies\nfor slightly less "
              "analysis; under the lazy modes, disabling the filters or "
              "the\nvictim heuristics costs further copies at equal "
              "correctness.\n");
  return 0;
}
