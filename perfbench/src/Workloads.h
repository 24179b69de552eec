//===- perfbench/src/Workloads.h - The benchmark's inputs -------*- C++ -*-===//
///
/// \file
/// The four named workloads. Each is a pool of textual-IR units (with the
/// arguments they are executed on and the reference result of interpreting
/// the unoptimised input) plus the request stream one timed pass sends,
/// in order, to CompilationService::compileOne. The programs themselves are
/// fixed; the workload seed orders the stream (and, in daemon-mix, picks
/// which repeats submit alpha variants), so count metrics repeat exactly
/// across seeds.
///
///   paper-suite    the 169 paperSuite() routines on the default pipeline;
///   big-shapes     a few large single-function units: copy-dense fat
///                  blocks, long block chains and big generator programs;
///   alloc-pressure the paper-suite units with sccp,adce,pre and the dsp
///                  machine;
///   daemon-mix     a request stream over the paper-suite pool (exact
///                  repeats, alpha-renamed variants, first-seen units) sent
///                  to one cached service.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_PERFBENCH_WORKLOADS_H
#define FCC_PERFBENCH_WORKLOADS_H

#include "interp/Interpreter.h"
#include "service/CompilationService.h"
#include "service/WorkUnit.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Interpreter configuration shared by the reference run and the oracle
/// (the service's own Execute defaults).
fcc::Interpreter benchInterpreter();

/// One program of a workload's pool.
struct BenchUnit {
  std::string Name;
  std::vector<int64_t> Args;
  /// Input instructions (summed over the module's functions).
  unsigned Instructions = 0;
  /// The unoptimised input interpreted on Args (one function per unit).
  fcc::ExecutionResult Reference;
  /// Texts[0] is the unit as printed; Texts[1..] are alpha-renamed variants.
  std::vector<std::string> Texts;
};

/// How a request is expected to resolve against a cached service.
enum class RequestClass { Miss, TextHit, StructHit };

/// One call of a timed pass: unit Unit submitted as text Texts[Variant].
struct Request {
  unsigned Unit = 0;
  unsigned Variant = 0;
  RequestClass Expected = RequestClass::Miss;
};

struct Workload {
  std::string Name;
  fcc::ServiceOptions Service;
  /// A fresh ResultCache backs every pass (daemon-mix only).
  bool UsesCache = false;
  std::vector<BenchUnit> Units;
  std::vector<Request> Stream;
  /// Inputs[i] is the WorkUnit for Stream[i], built once during set-up.
  std::vector<fcc::WorkUnit> Inputs;
};

/// Builds workload \p Name from \p Seed: generate, print to text, run the
/// reference interpreter. Returns false with \p Error on an unknown name or
/// an input that does not parse, verify or terminate.
bool buildWorkload(const std::string &Name, uint64_t Seed, Workload &Out,
                   std::string &Error);

/// Textual shape generators for big-shapes (exposed for the tests).
/// A single block of \p Statements statements over \p Vars variables, about
/// half of them copies.
std::string fatBlockSource(const std::string &Name, unsigned Statements,
                           unsigned Vars, uint64_t Seed);
/// A chain of \p Blocks blocks; every eighth link is a diamond whose arms
/// both redefine a variable, so the join needs a phi.
std::string blockChainSource(const std::string &Name, unsigned Blocks,
                             unsigned Vars, uint64_t Seed);

} // namespace perfbench

#endif // FCC_PERFBENCH_WORKLOADS_H
