//===- perfbench/src/Helpers.h - Benchmark statistics and tracing -*- C++ -*-===//
///
/// \file
/// The small, separately tested pieces of the benchmark: order statistics
/// with the tail-sample rule, the in-memory span recorder the traced pass
/// uses at layer boundaries (and its self-time reduction), and the textual
/// alpha-renamer that turns a unit into a structurally identical variant
/// with fresh names.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_PERFBENCH_HELPERS_H
#define FCC_PERFBENCH_HELPERS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of \p Values (mean of the middle pair for even sizes); 0 when
/// empty.
double median(std::vector<double> Values);

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Values; 0 when empty.
double percentile(std::vector<double> Values, double P);

/// Samples strictly above the nearest-rank \p P-th percentile of \p N
/// samples: N - ceil(P/100 * N). The benchmark reports p90 only when this
/// is at least ten.
size_t samplesBeyond(size_t N, double P);

/// The quiet passes (or calls) of a run: indices of the fastest tenth of
/// \p PassNs (at least one), widened fastest-first until they hold at least
/// \p MinSamples samples at \p SamplesPerPass each (or every pass). On a
/// shared host, slow passes are the ones other tenants slowed down; timings
/// taken from the quiet ones repeat much better across runs.
std::vector<size_t> quietPasses(const std::vector<double> &PassNs,
                                size_t SamplesPerPass, size_t MinSamples);

/// One recorded span: a named interval on one unit, nested under Parent
/// (an index into the same recording, -1 for a root).
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1;
  unsigned Unit = 0;
};

/// Records nested spans in memory. begin() opens a span under the most
/// recently opened one that is still open; end() closes the innermost.
class SpanRecorder {
public:
  void begin(const char *Name, unsigned Unit);
  void end();
  const std::vector<Span> &spans() const { return Spans; }
  void clear() {
    Spans.clear();
    Open.clear();
  }

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
public:
  SpanScope(SpanRecorder &R, const char *Name, unsigned Unit) : R(R) {
    R.begin(Name, Unit);
  }
  ~SpanScope() { R.end(); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanRecorder &R;
};

/// Self time per span name: each span's duration minus the durations of
/// its direct children, summed by name. Spans must be closed.
std::map<std::string, uint64_t> selfTimeByName(const std::vector<Span> &Spans);

/// The spans as a Chrome trace (JSON array of complete events, times in
/// fractional microseconds relative to the first span).
std::string spansToChromeTrace(const std::vector<Span> &Spans);

/// A consistent renaming of textual IR: every variable, function and block
/// name gets \p Prefix prepended. Structure, operands and immediates are
/// untouched, so the result parses to an alpha-variant of the input (same
/// StructuralHash, different text). Comments are copied verbatim.
std::string alphaRename(const std::string &Text, const std::string &Prefix);

} // namespace perfbench

#endif // FCC_PERFBENCH_HELPERS_H
