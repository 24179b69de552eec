//===- bench/paper_tables.cpp ---------------------------------------------===//
//
// Reproduces Tables 1-5 of the paper from one pass over the 169-routine
// suite (Section 4). Each routine is compiled under all four conversions
// (Standard, New, Briggs, Briggs*): once untimed, then five timed times.
// Times are the medians of the five; every other number comes from the
// first timed run, the only one whose output program is executed.
//
//   Table 1  coalescing time and interference-graph memory, Briggs/Briggs*
//   Table 2  SSA-to-CFG conversion time
//   Table 3  conversion working memory
//   Table 4  dynamic copies executed, with a semantic cross-check
//   Table 5  static copies left in the code
//
// Rows: each table's ten largest routines by the key it names, plus the
// AVERAGE (Tables 1-3) or TOTAL (Tables 4-5) over the whole suite.
//
// Exit status: 1 when some routine's executed result differs between
// conversions (Table 4's cross-check) or Briggs and Briggs* leave different
// copies in it (Table 1's SameResult), 0 otherwise.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "pipeline/Pipeline.h"
#include "workload/KernelSuite.h"

#include <algorithm>
#include <functional>
#include <vector>

using namespace fcc;
using namespace fcc::bench;

namespace {

constexpr unsigned Repeats = 5;

/// All measurements for one routine under every configuration.
struct SuiteRow {
  std::string Name;
  RoutineReport Standard;
  RoutineReport New;
  RoutineReport Briggs;
  RoutineReport BriggsImproved;
};

/// Compiles \p Spec under \p Kind once untimed, then Repeats times, and
/// reports the first timed run with the median times. Only that run is
/// executed: the other metrics are deterministic, so its counts serve. The
/// untimed pass absorbs first-touch effects (page faults, cold caches, lazy
/// suite materialization); the median resists scheduling outliers.
RoutineReport timedRun(const RoutineSpec &Spec, PipelineKind Kind) {
  runOnRoutine(Spec, Kind, /*Execute=*/false);

  RoutineReport Result;
  std::vector<uint64_t> Times, CoalesceTimes;
  for (unsigned I = 0; I != Repeats; ++I) {
    RoutineReport Next = runOnRoutine(Spec, Kind, /*Execute=*/I == 0);
    Times.push_back(Next.Compile.TimeMicros);
    CoalesceTimes.push_back(Next.Compile.CoalesceTimeMicros);
    if (I == 0)
      Result = std::move(Next);
  }
  std::sort(Times.begin(), Times.end());
  std::sort(CoalesceTimes.begin(), CoalesceTimes.end());
  Result.Compile.TimeMicros = Times[Repeats / 2];
  Result.Compile.CoalesceTimeMicros = CoalesceTimes[Repeats / 2];
  return Result;
}

/// Runs the whole paper suite under all four configurations.
std::vector<SuiteRow> runSuite() {
  std::vector<SuiteRow> Rows;
  for (const RoutineSpec &Spec : paperSuite()) {
    SuiteRow Row;
    Row.Name = Spec.Name;
    Row.Standard = timedRun(Spec, PipelineKind::Standard);
    Row.New = timedRun(Spec, PipelineKind::New);
    Row.Briggs = timedRun(Spec, PipelineKind::Briggs);
    Row.BriggsImproved = timedRun(Spec, PipelineKind::BriggsImproved);
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

using RowKey = std::function<uint64_t(const SuiteRow &)>;

/// Keeps the \p N rows with the largest \p Key, ordered descending — the
/// paper's "ten largest results in each experiment".
std::vector<SuiteRow> topRows(std::vector<SuiteRow> Rows, const RowKey &Key,
                              unsigned N = 10) {
  std::stable_sort(Rows.begin(), Rows.end(),
                   [&](const SuiteRow &A, const SuiteRow &B) {
                     return Key(A) > Key(B);
                   });
  if (Rows.size() > N)
    Rows.resize(N);
  return Rows;
}

/// Table 1. Returns false when Briggs and Briggs* leave different static
/// copies in some routine.
bool printTable1(const std::vector<SuiteRow> &All) {
  std::printf("Table 1: time (us) and interference-graph memory (bytes) "
              "for the graph coalescers\n\n");
  auto Pass = [](const RoutineReport &R, unsigned I) -> uint64_t {
    return I < R.Compile.GraphBytesPerPass.size()
               ? R.Compile.GraphBytesPerPass[I]
               : 0;
  };
  auto Same = [](const SuiteRow &Row) {
    return Row.Briggs.Compile.StaticCopies ==
           Row.BriggsImproved.Compile.StaticCopies;
  };

  for (const char *H : {"File", "T Briggs", "T Briggs*", "T B/B*",
                        "Mem1 Briggs", "Mem1 Briggs*", "Mem2 Briggs",
                        "Mem2 Briggs*", "SameResult"})
    printCell(H);
  std::printf("\n");
  printDivider(9);

  for (const SuiteRow &Row : topRows(All, [](const SuiteRow &R) {
         return R.Briggs.Compile.CoalesceTimeMicros;
       })) {
    printCell(Row.Name);
    uint64_t TB = Row.Briggs.Compile.CoalesceTimeMicros;
    uint64_t TI = Row.BriggsImproved.Compile.CoalesceTimeMicros;
    printCell(TB);
    printCell(TI);
    printRatioCell(ratio(static_cast<double>(TB), static_cast<double>(TI)));
    printCell(Pass(Row.Briggs, 0));
    printCell(Pass(Row.BriggsImproved, 0));
    printCell(Pass(Row.Briggs, 1));
    printCell(Pass(Row.BriggsImproved, 1));
    printCell(Same(Row) ? "yes" : "NO");
    std::printf("\n");
  }

  // Full-suite averages (the paper's AVERAGE row).
  uint64_t TB = 0, TI = 0, M1B = 0, M1I = 0, M2B = 0, M2I = 0;
  bool AllSame = true;
  for (const SuiteRow &Row : All) {
    TB += Row.Briggs.Compile.CoalesceTimeMicros;
    TI += Row.BriggsImproved.Compile.CoalesceTimeMicros;
    M1B += Pass(Row.Briggs, 0);
    M1I += Pass(Row.BriggsImproved, 0);
    M2B += Pass(Row.Briggs, 1);
    M2I += Pass(Row.BriggsImproved, 1);
    AllSame &= Same(Row);
  }
  unsigned N = static_cast<unsigned>(All.size());
  printDivider(9);
  printCell("AVERAGE");
  printCell(TB / N);
  printCell(TI / N);
  printRatioCell(ratio(static_cast<double>(TB), static_cast<double>(TI)));
  printCell(M1B / N);
  printCell(M1I / N);
  printCell(M2B / N);
  printCell(M2I / N);
  printCell(AllSame ? "yes" : "NO");
  std::printf("\n\nExpected shape (paper): Briggs* memory is orders of "
              "magnitude smaller,\ntime roughly halves, results identical.\n");
  return AllSame;
}

/// Tables 2-5: one value per conversion (after the input's, when
/// \p WithInput), then New's ratios to Standard and to Briggs*. Rows are
/// the ten largest by \p Key and the suite AVERAGE (when \p Average) or
/// TOTAL.
void printComparison(
    const std::vector<SuiteRow> &All, bool WithInput, const RowKey &Key,
    const std::function<std::vector<uint64_t>(const SuiteRow &)> &Values,
    bool Average) {
  unsigned Cols = WithInput ? 7 : 6;
  printCell("File");
  if (WithInput)
    printCell("Input");
  for (const char *H : {"Standard", "New", "Briggs*", "New/Std",
                        "New/Briggs*"})
    printCell(H);
  std::printf("\n");
  printDivider(Cols);

  auto PrintRow = [](const std::string &Name,
                     const std::vector<uint64_t> &Cells) {
    printCell(Name);
    for (uint64_t V : Cells)
      printCell(V);
    double S = static_cast<double>(Cells[Cells.size() - 3]);
    double N = static_cast<double>(Cells[Cells.size() - 2]);
    double BI = static_cast<double>(Cells[Cells.size() - 1]);
    printRatioCell(ratio(N, S));
    printRatioCell(ratio(N, BI));
    std::printf("\n");
  };

  for (const SuiteRow &Row : topRows(All, Key))
    PrintRow(Row.Name, Values(Row));

  std::vector<uint64_t> Sums(Cols - 3, 0);
  for (const SuiteRow &Row : All) {
    std::vector<uint64_t> Cells = Values(Row);
    for (size_t I = 0; I != Sums.size(); ++I)
      Sums[I] += Cells[I];
  }
  if (Average)
    for (uint64_t &Sum : Sums)
      Sum /= All.size();
  printDivider(Cols);
  PrintRow(Average ? "AVERAGE" : "TOTAL", Sums);
}

} // namespace

int main() {
  std::vector<SuiteRow> All = runSuite();
  RowKey StandardTime = [](const SuiteRow &R) {
    return R.Standard.Compile.TimeMicros;
  };
  RowKey StandardDynamicCopies = [](const SuiteRow &R) {
    return R.Standard.Exec.CopiesExecuted;
  };

  bool SameResults = printTable1(All);

  std::printf("\nTable 2: SSA-to-CFG conversion time (us)\n\n");
  printComparison(All, /*WithInput=*/false, StandardTime,
                  [](const SuiteRow &R) -> std::vector<uint64_t> {
                    return {R.Standard.Compile.TimeMicros,
                            R.New.Compile.TimeMicros,
                            R.BriggsImproved.Compile.TimeMicros};
                  },
                  /*Average=*/true);
  std::printf("\nExpected shape (paper): New/Std > 1 (extra analysis), "
              "New/Briggs* well below 1\n(the paper reports roughly one "
              "third of the graph coalescer's time).\n");

  // Same row selection as Table 2: the largest Standard conversions.
  std::printf("\nTable 3: conversion working memory (bytes)\n\n");
  printComparison(All, /*WithInput=*/false, StandardTime,
                  [](const SuiteRow &R) -> std::vector<uint64_t> {
                    return {R.Standard.Compile.PeakBytes,
                            R.New.Compile.PeakBytes,
                            R.BriggsImproved.Compile.PeakBytes};
                  },
                  /*Average=*/true);
  std::printf("\nExpected shape (paper): New above Standard (liveness plus "
              "forests), within a few\ntens of percent of Briggs*.\n");

  std::printf("\nTable 4: dynamic copies executed\n\n");
  printComparison(All, /*WithInput=*/false, StandardDynamicCopies,
                  [](const SuiteRow &R) -> std::vector<uint64_t> {
                    return {R.Standard.Exec.CopiesExecuted,
                            R.New.Exec.CopiesExecuted,
                            R.BriggsImproved.Exec.CopiesExecuted};
                  },
                  /*Average=*/false);
  unsigned Diverged = 0;
  for (const SuiteRow &Row : All)
    if (Row.Standard.Exec.ReturnValue != Row.New.Exec.ReturnValue ||
        Row.Standard.Exec.ReturnValue != Row.BriggsImproved.Exec.ReturnValue)
      ++Diverged;
  std::printf("\nSemantic cross-check: %u of %zu routines diverged "
              "(must be 0).\n",
              Diverged, All.size());
  std::printf("Expected shape (paper): New's total within a few percent of "
              "Briggs*, both far\nbelow Standard.\n");

  // The routines Table 4 features: most dynamic copies under Standard.
  std::printf("\nTable 5: static copies left in the code\n\n");
  printComparison(All, /*WithInput=*/true, StandardDynamicCopies,
                  [](const SuiteRow &R) -> std::vector<uint64_t> {
                    return {R.Standard.InputStaticCopies,
                            R.Standard.Compile.StaticCopies,
                            R.New.Compile.StaticCopies,
                            R.BriggsImproved.Compile.StaticCopies};
                  },
                  /*Average=*/false);
  std::printf("\nExpected shape (paper): New within a few percent of "
              "Briggs*; Standard far above\nboth (and usually above the "
              "input, since folding's deleted copies come back\nmultiplied "
              "at phi edges).\n");

  return Diverged == 0 && SameResults ? 0 : 1;
}
