//===- perfbench/src/Workloads.cpp ----------------------------------------===//

#include "Workloads.h"

#include "Helpers.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "regalloc/MachineModel.h"
#include "support/SplitMix64.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace fcc;
using namespace perfbench;

namespace {

/// Requests per pool unit in one daemon-mix pass, and alpha variants
/// prepared per unit.
constexpr unsigned DaemonRequestsPerUnit = 8;
constexpr unsigned DaemonVariants = 3;
/// Share of repeat requests (after a unit's first sighting) that submit a
/// not-yet-seen alpha variant while one is left.
constexpr unsigned DaemonVariantPercent = 20;
/// Seeds what must not vary with the workload seed: the big-shapes programs
/// and the daemon-mix stream. The workload seed orders the other streams
/// and names the daemon-mix variants, so the count metrics repeat exactly
/// across seeds and the timings compare like with like.
constexpr uint64_t FixedContentSeed = 0xb16c0de5eedull;

template <typename T> void shuffle(std::vector<T> &V, SplitMix64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.nextBelow(I)]);
}

const char *pickArith(SplitMix64 &Rng) {
  static const char *Ops[] = {"add", "sub", "mul"};
  return Ops[Rng.nextBelow(3)];
}

/// Parses \p Unit.Texts[0], counts its instructions and interprets it.
bool finishUnit(BenchUnit &Unit, std::string &Error) {
  std::string ParseError;
  std::unique_ptr<Module> M = parseModule(Unit.Texts[0], ParseError);
  if (!M || M->size() != 1) {
    Error = Unit.Name + ": input does not parse to one function: " +
            ParseError;
    return false;
  }
  const Function &F = *M->functions()[0];
  std::string VerifyError;
  if (!verifyFunction(F, VerifyError) || !isStrict(F)) {
    Error = Unit.Name + ": input does not verify: " + VerifyError;
    return false;
  }
  Unit.Instructions = F.instructionCount();
  Unit.Reference = benchInterpreter().run(F, Unit.Args);
  if (!Unit.Reference.Completed) {
    Error = Unit.Name + ": reference run hit the step limit";
    return false;
  }
  return true;
}

bool addUnit(std::vector<BenchUnit> &Units, std::string Name,
             std::string Text, std::vector<int64_t> Args, std::string &Error) {
  BenchUnit U;
  U.Name = std::move(Name);
  U.Args = std::move(Args);
  U.Texts.push_back(std::move(Text));
  if (!finishUnit(U, Error))
    return false;
  Units.push_back(std::move(U));
  return true;
}

bool paperSuiteUnits(std::vector<BenchUnit> &Units, std::string &Error) {
  for (const RoutineSpec &Spec : paperSuite()) {
    std::unique_ptr<Module> M = Spec.materialize();
    if (!addUnit(Units, Spec.Name, printModule(*M), Spec.Args, Error))
      return false;
  }
  return true;
}

bool bigShapeUnits(std::vector<BenchUnit> &Units, SplitMix64 &Rng,
                   std::string &Error) {
  auto Args = [&] {
    return std::vector<int64_t>{Rng.nextInRange(1, 9), Rng.nextInRange(1, 9),
                                Rng.nextInRange(1, 9)};
  };
  for (unsigned Statements : {8000u, 12000u, 16000u}) {
    std::string Name = "fat" + std::to_string(Statements);
    if (!addUnit(Units, Name,
                 fatBlockSource(Name, Statements, 24, Rng.next()), Args(),
                 Error))
      return false;
  }
  for (unsigned Blocks : {4000u, 8000u, 12000u}) {
    std::string Name = "chain" + std::to_string(Blocks);
    if (!addUnit(Units, Name, blockChainSource(Name, Blocks, 24, Rng.next()),
                 Args(), Error))
      return false;
  }
  for (unsigned Budget : {400u, 600u, 800u}) {
    GeneratorOptions G;
    G.Seed = Rng.next();
    G.SizeBudget = Budget;
    G.NumVars = 24 + Budget / 8;
    G.NumParams = 3;
    G.MaxLoopDepth = 3;
    G.LoopTripMax = 3;
    G.CopyPercent = 20;
    G.MemPercent = 10;
    G.RunLength = 6;
    std::string Name = "gen" + std::to_string(Budget);
    Module M;
    generateProgram(M, Name, G);
    if (!addUnit(Units, Name, printModule(M), Args(), Error))
      return false;
  }
  return true;
}

/// The daemon-mix request stream. Every unit is requested at least once;
/// the remaining requests are shared out Zipf-like over a fixed ranking of
/// the units, and the whole stream is shuffled. A unit's first request
/// submits its original text, later ones either a fresh alpha variant or a
/// text already submitted. The stream's shape is fixed, because the order
/// decides what the LRU evicts; the workload seed only picks the variants'
/// names (a fixed-length prefix), so every seed sees the same mix of hits,
/// misses and evictions.
std::vector<Request> daemonStream(std::vector<BenchUnit> &Units,
                                  uint64_t Seed) {
  char Tag[8];
  std::snprintf(Tag, sizeof(Tag), "%04x", static_cast<unsigned>(
                                              SplitMix64(Seed).next() >> 48));
  for (BenchUnit &U : Units)
    for (unsigned V = 1; V <= DaemonVariants; ++V)
      U.Texts.push_back(alphaRename(
          U.Texts[0], "r" + std::to_string(V) + Tag + "_"));

  SplitMix64 Rng(FixedContentSeed);
  const unsigned N = Units.size();
  std::vector<unsigned> ByRank(N);
  for (unsigned I = 0; I != N; ++I)
    ByRank[I] = I;
  shuffle(ByRank, Rng);
  double Total = 0;
  for (unsigned R = 0; R != N; ++R)
    Total += 1.0 / (R + 16);
  const unsigned Extra = (DaemonRequestsPerUnit - 1) * N;
  std::vector<unsigned> Tokens;
  for (unsigned R = 0; R != N; ++R) {
    unsigned Share = static_cast<unsigned>(Extra / (R + 16) / Total);
    Tokens.insert(Tokens.end(), 1 + Share, ByRank[R]);
  }
  for (unsigned R = 0; Tokens.size() < N + Extra; R = (R + 1) % N)
    Tokens.push_back(ByRank[R]);
  shuffle(Tokens, Rng);

  std::vector<unsigned> Submitted(N, 0); // Texts used so far.
  std::vector<Request> Stream;
  for (unsigned U : Tokens) {
    Request R;
    R.Unit = U;
    if (Submitted[U] == 0) {
      R.Variant = 0;
      R.Expected = RequestClass::Miss;
      Submitted[U] = 1;
    } else if (Submitted[U] <= DaemonVariants &&
               Rng.chancePercent(DaemonVariantPercent)) {
      R.Variant = Submitted[U]++;
      R.Expected = RequestClass::StructHit;
    } else {
      R.Variant = Rng.nextBelow(Submitted[U]);
      R.Expected = RequestClass::TextHit;
    }
    Stream.push_back(R);
  }
  return Stream;
}

} // namespace

Interpreter perfbench::benchInterpreter() {
  return Interpreter(/*MemoryWords=*/64, ServiceOptions().ExecStepLimit);
}

std::string perfbench::fatBlockSource(const std::string &Name,
                                      unsigned Statements, unsigned Vars,
                                      uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::string S = "func @" + Name + "(%p0, %p1, %p2) {\nentry:\n";
  auto Var = [](unsigned I) { return "%v" + std::to_string(I); };
  for (unsigned I = 0; I != Vars; ++I)
    S += "  " + Var(I) + " = add %p" + std::to_string(I % 3) + ", " +
         std::to_string(I) + "\n";
  for (unsigned I = 0; I != Statements; ++I) {
    std::string Dst = Var(Rng.nextBelow(Vars));
    std::string A = Var(Rng.nextBelow(Vars));
    if (Rng.chancePercent(50))
      S += "  " + Dst + " = copy " + A + "\n";
    else
      S += "  " + Dst + " = " + pickArith(Rng) + " " + A + ", " +
           Var(Rng.nextBelow(Vars)) + "\n";
  }
  S += "  %sum0 = add " + Var(0) + ", " + Var(1) + "\n";
  for (unsigned I = 2; I != Vars; ++I)
    S += "  %sum" + std::to_string(I - 1) + " = add %sum" +
         std::to_string(I - 2) + ", " + Var(I) + "\n";
  S += "  ret %sum" + std::to_string(Vars - 2) + "\n}\n";
  return S;
}

std::string perfbench::blockChainSource(const std::string &Name,
                                        unsigned Blocks, unsigned Vars,
                                        uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::string S = "func @" + Name + "(%p0, %p1, %p2) {\nentry:\n";
  auto Var = [](unsigned I) { return "%v" + std::to_string(I); };
  auto Link = [](unsigned I) { return "c" + std::to_string(I); };
  for (unsigned I = 0; I != Vars; ++I)
    S += "  " + Var(I) + " = add %p" + std::to_string(I % 3) + ", " +
         std::to_string(I) + "\n";
  S += "  br " + Link(0) + "\n";
  // Each link is one block, or three for a diamond (head and two arms).
  unsigned Links = 0;
  for (unsigned Made = 0; Made < Blocks; ++Links) {
    std::string L = Link(Links), Next = Link(Links + 1);
    std::string A = Var(Rng.nextBelow(Vars)), B = Var(Rng.nextBelow(Vars));
    std::string D = Var(Rng.nextBelow(Vars));
    S += L + ":\n";
    if (Links % 8 == 7) {
      S += "  %t" + std::to_string(Links) + " = cmplt " + A + ", " + B + "\n";
      S += "  cbr %t" + std::to_string(Links) + ", " + L + "l, " + L + "r\n";
      S += L + "l:\n  " + D + " = add " + A + ", 1\n  br " + Next + "\n";
      S += L + "r:\n  " + D + " = sub " + B + ", 1\n  br " + Next + "\n";
      Made += 3;
      continue;
    }
    S += "  " + D + " = " + pickArith(Rng) + " " + A + ", " + B + "\n";
    S += "  " + Var(Rng.nextBelow(Vars)) + " = copy " + D + "\n";
    S += "  br " + Next + "\n";
    ++Made;
  }
  S += Link(Links) + ":\n  %sum0 = add " + Var(0) + ", " + Var(1) + "\n";
  for (unsigned I = 2; I != Vars; ++I)
    S += "  %sum" + std::to_string(I - 1) + " = add %sum" +
         std::to_string(I - 2) + ", " + Var(I) + "\n";
  S += "  ret %sum" + std::to_string(Vars - 2) + "\n}\n";
  return S;
}

bool perfbench::buildWorkload(const std::string &Name, uint64_t Seed,
                              Workload &Out, std::string &Error) {
  Out = Workload();
  Out.Name = Name;
  bool Ok;
  if (Name == "paper-suite") {
    Ok = paperSuiteUnits(Out.Units, Error);
  } else if (Name == "alloc-pressure") {
    Ok = paperSuiteUnits(Out.Units, Error);
    Out.Service.Passes = {PassKind::Sccp, PassKind::Adce, PassKind::Pre};
    MachineModel Dsp;
    parseMachineModel("dsp", Dsp);
    Out.Service.Machine = std::move(Dsp);
  } else if (Name == "big-shapes") {
    SplitMix64 ShapeRng(FixedContentSeed);
    Ok = bigShapeUnits(Out.Units, ShapeRng, Error);
  } else if (Name == "daemon-mix") {
    Ok = paperSuiteUnits(Out.Units, Error);
    Out.UsesCache = true;
    Out.Service.WantRewritten = true;
  } else {
    Error = "unknown workload '" + Name + "'";
    return false;
  }
  if (!Ok)
    return false;

  if (Out.UsesCache) {
    Out.Stream = daemonStream(Out.Units, Seed);
  } else {
    for (unsigned I = 0; I != Out.Units.size(); ++I)
      Out.Stream.push_back({I, 0, RequestClass::Miss});
    SplitMix64 Rng(Seed);
    shuffle(Out.Stream, Rng);
  }
  for (const Request &R : Out.Stream) {
    const BenchUnit &U = Out.Units[R.Unit];
    std::string UnitName = U.Name;
    if (R.Variant)
      UnitName = "r" + std::to_string(R.Variant) + "_" + UnitName;
    Out.Inputs.push_back(WorkUnit::fromSource(UnitName, U.Texts[R.Variant]));
  }
  return true;
}
