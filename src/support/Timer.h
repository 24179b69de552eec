//===- support/Timer.h - Wall-clock timing ----------------------*- C++ -*-===//
///
/// \file
/// The steady clock in nanoseconds and a minimal stopwatch over it for the
/// compile-time tables. The paper reports seconds on a 300 MHz Ultra 10; we
/// report microseconds and, like the paper, lean on ratios rather than
/// absolute values.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_TIMER_H
#define FCC_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace fcc {

/// Nanoseconds on the steady clock: the one timebase of Timer, the probes'
/// records and the trace writer's epoch.
inline uint64_t steadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stopwatch measuring elapsed wall-clock time since construction.
class Timer {
public:
  Timer() : StartNanos(steadyNanos()) {}

  uint64_t startNanos() const { return StartNanos; }
  uint64_t elapsedNanos() const { return steadyNanos() - StartNanos; }
  uint64_t elapsedMicros() const { return elapsedNanos() / 1000; }

private:
  uint64_t StartNanos;
};

} // namespace fcc

#endif // FCC_SUPPORT_TIMER_H
