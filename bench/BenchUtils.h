//===- bench/BenchUtils.h - Table printers ----------------------*- C++ -*-===//
///
/// \file
/// Fixed-width table printers shared by the benchmark binaries, so every
/// table they print is shaped like the paper's.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_BENCH_BENCHUTILS_H
#define FCC_BENCH_BENCHUTILS_H

#include <cstdint>
#include <cstdio>
#include <string>

namespace fcc::bench {

/// Fixed-width cell printers.
inline void printDivider(unsigned Cols, unsigned Width = 12) {
  for (unsigned C = 0; C != Cols; ++C)
    for (unsigned I = 0; I != Width + 1; ++I)
      std::putchar('-');
  std::putchar('\n');
}
inline void printCell(const char *Text) { std::printf("%12s ", Text); }
inline void printCell(const std::string &Text) {
  std::printf("%12s ", Text.c_str());
}
inline void printCell(uint64_t Value) {
  std::printf("%12llu ", static_cast<unsigned long long>(Value));
}
inline void printRatioCell(double Value) { std::printf("%12.2f ", Value); }

/// Safe ratio (0 denominators happen for empty routines).
inline double ratio(double Num, double Den) {
  return Den == 0.0 ? 0.0 : Num / Den;
}

} // namespace fcc::bench

#endif // FCC_BENCH_BENCHUTILS_H
