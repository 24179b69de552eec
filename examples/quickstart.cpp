//===- examples/quickstart.cpp --------------------------------------------===//
//
// Quickstart: parse a routine in the textual IR, run the paper's pipeline
// (split critical edges -> pruned SSA with copy folding -> dominance-forest
// coalescing out of SSA) and show each stage.
//
//   build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/FastCoalescer.h"
#include "interp/Interpreter.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ssa/SSABuilder.h"
#include "support/Stats.h"

#include <cstdio>

using namespace fcc;

static const char *Source = R"(
; max(a*b, a+b) with an explicit copy in each arm
func @demo(%a, %b) {
entry:
  %prod = mul %a, %b
  %sum = add %a, %b
  %c = cmpgt %prod, %sum
  cbr %c, takeprod, takesum
takeprod:
  %best = copy %prod
  br done
takesum:
  %best = copy %sum
  br done
done:
  %scaled = mul %best, 10
  ret %scaled
}
)";

int main() {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(Source, Error);
  if (!M) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    return 1;
  }
  Function &F = *M->functions()[0];
  std::printf("== input ==\n%s\n", printFunction(F).c_str());

  // 1. Critical edges first (Section 3.6: the lost-copy problem).
  unsigned Split = splitCriticalEdges(F);
  std::printf("critical edges split: %u\n\n", Split);

  // 2. Pruned SSA with copy folding (the copies disappear into the phis).
  DominatorTree DT(F);
  SSABuildOptions BuildOpts;
  BuildOpts.FoldCopies = true;
  SSABuildStats BuildStats = buildSSA(F, DT, BuildOpts);
  std::printf("== pruned SSA, %u phis, %u copies folded ==\n%s\n",
              BuildStats.PhisInserted, BuildStats.CopiesFolded,
              printFunction(F).c_str());

  // 3. The paper's coalescer: liveness + dominance forests, no
  //    interference graph. Trace output narrates each decision.
  Liveness LV(F);
  Instrumentation Narration;
  Narration.Narrate = stdout;
  FastCoalescerOptions CoalesceOpts;
  CoalesceOpts.Instr = &Narration;
  std::printf("== coalescing decisions ==\n");
  FastCoalesceStats Stats = coalesceSSA(F, DT, LV, CoalesceOpts);

  std::printf("\n== result: %u copies inserted, %u sets renamed ==\n%s\n",
              Stats.CopiesInserted, Stats.SetsRenamed,
              printFunction(F).c_str());

  // 4. Run it.
  ExecutionResult R = Interpreter().run(F, {3, 4});
  std::printf("demo(3, 4) = %lld (dynamic copies executed: %llu)\n",
              static_cast<long long>(R.ReturnValue),
              static_cast<unsigned long long>(R.CopiesExecuted));
  return 0;
}
