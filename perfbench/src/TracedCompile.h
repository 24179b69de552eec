//===- perfbench/src/TracedCompile.h - Outside-in layer spans ---*- C++ -*-===//
///
/// \file
/// The traced pass: a replica of CompilationService::compileOne for the
/// New pipeline that calls each layer's public entry points itself, in
/// runPipeline's order, and records a span around every call:
///
///   ir.parse -> ir.verify -> analysis.split -> analysis.domtree ->
///   ssa.build -> [opt.passes -> opt.reanalyse] -> analysis.liveness ->
///   coalesce.partition -> coalesce.rewrite -> [regalloc.spill_rewrite] ->
///   ir.verify -> [ir.print] -> ir.free
///
/// all nested under one service.unit root per request. With a cache the
/// replica also walks the service's cache protocol on its own ResultCache
/// (server.text_lookup, server.hash, server.lookup, server.serve,
/// server.publish). It uses the analyses the service is configured with,
/// not the constructors' defaults. The program itself carries no tracing.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_PERFBENCH_TRACEDCOMPILE_H
#define FCC_PERFBENCH_TRACEDCOMPILE_H

#include "Helpers.h"

#include "service/CompilationService.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace fcc {
class ResultCache;
}

namespace perfbench {

/// Work counts recorded at the layer boundaries, summed over a pass.
struct LayerCounters {
  uint64_t ParseInsts = 0;
  uint64_t SsaPhis = 0;
  uint64_t SsaCopiesFolded = 0;
  uint64_t SsaNamesCreated = 0;
  size_t SsaPeakBytesMax = 0;
  size_t LivenessBytesMax = 0;
  uint64_t SccpCopies = 0;
  uint64_t InstsRemoved = 0;
  uint64_t PreHoisted = 0;
  uint64_t PhiOperands = 0;
  uint64_t CopiesInserted = 0;
  uint64_t Evictions = 0;
  uint64_t CoalesceRounds = 0;
  size_t CoalescePeakBytesMax = 0;
  uint64_t AllocatedFunctions = 0;
  uint64_t FirstRoundFunctions = 0;
  uint64_t RegallocRounds = 0;
  uint64_t SpillStores = 0;
  uint64_t Reloads = 0;
  uint64_t RangesSplit = 0;
};

/// What one traced request produced.
struct TracedOutcome {
  bool Ok = false;
  bool FromCache = false;
  std::string Error;
  /// The rewritten module text (printed after the root span closes when
  /// the service does not print it itself).
  std::string Rewritten;
};

/// Span names outside every layer: the per-request root, and work the
/// traced pass does only for its own checks.
constexpr const char *RootSpan = "service.unit";
constexpr const char *CheckSpanPrefix = "bench.";

class TracedService {
public:
  /// \p Cache (owned by the caller, fresh per pass) must be non-null
  /// exactly when the service would run with a cache.
  TracedService(const fcc::ServiceOptions &Opts, fcc::ResultCache *Cache,
                SpanRecorder &Spans, LayerCounters &Counters)
      : Opts(Opts), Cache(Cache), Spans(Spans), Counters(Counters) {}

  TracedOutcome compile(const fcc::WorkUnit &Unit, unsigned Index);

private:
  const fcc::ServiceOptions &Opts;
  fcc::ResultCache *Cache;
  SpanRecorder &Spans;
  LayerCounters &Counters;
};

} // namespace perfbench

#endif // FCC_PERFBENCH_TRACEDCOMPILE_H
