//===- bench/scaling_complexity.cpp ---------------------------------------===//
//
// Section 3.7's complexity claim, measured: the coalescing conversion is
// O(n alpha(n)) in the phi-argument count, while the classic graph
// coalescer carries an O(names^2) bit matrix through every build/coalesce
// pass. This bench sweeps generated routines over a ~100x size range and
// prints, per size, the conversion times and the classic graph's bytes —
// the quadratic column is the one that blows up. A second table times the
// alpha(n) factor itself: the union-find that groups names joined at phis,
// per union over a 100x range of random unions.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "pipeline/Pipeline.h"
#include "support/SplitMix64.h"
#include "support/UnionFind.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <chrono>

using namespace fcc;
using namespace fcc::bench;

namespace {

RoutineSpec specOfSize(unsigned Budget) {
  RoutineSpec Spec;
  Spec.Name = "scale" + std::to_string(Budget);
  GeneratorOptions &G = Spec.GenOpts;
  G.Seed = 1234 + Budget;
  G.SizeBudget = Budget;
  G.NumVars = 12;
  G.NumParams = 2;
  G.CopyPercent = 12;
  Spec.Args = {3, 5};
  return Spec;
}

uint64_t minTime(const RoutineSpec &Spec, PipelineKind Kind,
                 std::vector<size_t> *GraphBytes = nullptr) {
  uint64_t Best = ~0ull;
  for (int R = 0; R != 3; ++R) {
    RoutineReport Report = runOnRoutine(Spec, Kind, /*Execute=*/false);
    Best = std::min(Best, Report.Compile.TimeMicros);
    if (GraphBytes && !Report.Compile.GraphBytesPerPass.empty())
      *GraphBytes = Report.Compile.GraphBytesPerPass;
  }
  return Best;
}

/// Nanoseconds per union of \p N random unions over \p N elements, min of
/// 3; \p Sets receives the number of sets left.
double nanosPerUnion(unsigned N, unsigned &Sets) {
  double Best = 1e300;
  for (int R = 0; R != 3; ++R) {
    UnionFind UF(N);
    SplitMix64 Rng(1);
    auto Start = std::chrono::steady_clock::now();
    for (unsigned I = 0; I != N; ++I)
      UF.unite(static_cast<unsigned>(Rng.nextBelow(N)),
               static_cast<unsigned>(Rng.nextBelow(N)));
    std::chrono::duration<double, std::nano> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Best = std::min(Best, Elapsed.count() / N);
    Sets = 0;
    for (unsigned I = 0; I != N; ++I)
      Sets += UF.find(I) == I;
  }
  return Best;
}

} // namespace

int main() {
  std::printf("Scaling study (Section 3.7): conversion time vs routine "
              "size\n\n");
  for (const char *H : {"size", "insts", "phis", "T New", "T Briggs",
                        "T Briggs*", "IG bytes"})
    printCell(H);
  std::printf("\n");
  printDivider(7);

  for (unsigned Budget : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    RoutineSpec Spec = specOfSize(Budget);

    // Instruction and phi counts from one probe run of the New pipeline.
    RoutineReport Probe = runOnRoutine(Spec, PipelineKind::New, false);

    std::vector<size_t> GraphBytes;
    uint64_t TNew = minTime(Spec, PipelineKind::New);
    uint64_t TBriggs =
        minTime(Spec, PipelineKind::Briggs, &GraphBytes);
    uint64_t TImproved = minTime(Spec, PipelineKind::BriggsImproved);

    printCell(static_cast<uint64_t>(Budget));
    printCell(static_cast<uint64_t>(Probe.InputInstructions));
    printCell(static_cast<uint64_t>(Probe.Compile.PhisInserted));
    printCell(TNew);
    printCell(TBriggs);
    printCell(TImproved);
    printCell(static_cast<uint64_t>(
        GraphBytes.empty() ? 0 : GraphBytes.front()));
    std::printf("\n");
  }

  std::printf("\nExpected shape: all three times grow with size, but the "
              "classic graph's bytes\ngrow quadratically in the name count "
              "while the New column tracks the phi count\nlinearly — the "
              "memory-system pressure behind the paper's timing results.\n");

  std::printf("\nUnion-find (Section 3.7's alpha(n) factor): random unions "
              "over as many names\n\n");
  for (const char *H : {"unions", "ns/union", "sets left"})
    printCell(H);
  std::printf("\n");
  printDivider(3);
  for (unsigned N : {1000u, 10000u, 100000u}) {
    unsigned Sets = 0;
    double Nanos = nanosPerUnion(N, Sets);
    printCell(static_cast<uint64_t>(N));
    printRatioCell(Nanos);
    printCell(static_cast<uint64_t>(Sets));
    std::printf("\n");
  }
  std::printf("\nExpected shape: the cost per union stays nearly flat over "
              "the 100x range\n(union by size with path halving is "
              "O(alpha(n)) amortized).\n");
  return 0;
}
