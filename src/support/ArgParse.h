//===- support/ArgParse.h - Strict CLI integer parsing ----------*- C++ -*-===//
///
/// \file
/// Whole-string, range-checked integer parsing for the command-line tools.
/// The raw strtoll/strtoull idiom has two traps these helpers close: a
/// non-numeric string silently parses as 0 (so `--run 3 x` executed with a
/// bogus argument), and strtoull wraps negative input (so `--jobs=-1`
/// became a four-billion-thread request). Every helper consumes the entire
/// string or fails. The flag helpers at the end parse the shapes several
/// tools share and print their own diagnostic to stderr.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_ARGPARSE_H
#define FCC_SUPPORT_ARGPARSE_H

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace fcc {

/// Parses a signed decimal integer. The whole string must be consumed and
/// the value must fit in int64_t; leading/trailing whitespace, empty input
/// and partial parses all fail.
bool parseInt64Arg(const std::string &Text, int64_t &Out);

/// Parses an unsigned decimal integer. Rejects any sign character (strtoull
/// would silently wrap "-1") as well as partial parses and overflow.
bool parseUint64Arg(const std::string &Text, uint64_t &Out);

/// Splits \p Text on commas and parses each piece with parseInt64Arg,
/// appending to \p Out. On failure returns false with \p BadToken set to
/// the offending piece (possibly empty, for inputs like "1,,2") and leaves
/// successfully parsed prefixes in \p Out.
bool splitIntList(const std::string &Text, std::vector<int64_t> &Out,
                  std::string &BadToken);

/// Parses the value of an unsigned `--name=N` flag: \p Arg starts with
/// \p Prefix ("--name="), and the rest must be a decimal integer in
/// [\p Min, \p Max] (Min = 1 for a flag that rejects 0). On failure prints
/// "bad --name value in 'ARG'" and returns false, leaving \p Out alone.
bool parseUnsignedFlag(const std::string &Arg, const char *Prefix,
                       uint64_t &Out, uint64_t Min = 0,
                       uint64_t Max = std::numeric_limits<uint64_t>::max());

/// The same into a narrower unsigned type, whose range bounds \p Max.
template <typename T>
bool parseUnsignedFlag(const std::string &Arg, const char *Prefix, T &Out,
                       uint64_t Min = 0,
                       uint64_t Max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>, "an unsigned flag needs an unsigned");
  assert(Max <= std::numeric_limits<T>::max() && "bound past the type");
  uint64_t Value = 0;
  if (!parseUnsignedFlag(Arg, Prefix, Value, Min, Max))
    return false;
  Out = static_cast<T>(Value);
  return true;
}

/// Parses `--generate=N[:SEED]`: a routine count that fits in unsigned and
/// an optional seed (\p Seed is left alone without one). On failure prints
/// "bad --generate count in 'ARG'" or "bad --generate seed in 'ARG'" and
/// returns false.
bool parseGenerateFlag(const std::string &Arg, unsigned &Count,
                       uint64_t &Seed);

/// Parses the optional value of `--run ARG,...`, the flag at Argv[\p I]:
/// when the next argument is not a flag (a '-' before a digit starts a
/// negative number, not a flag), \p I moves onto it and its comma-separated
/// integers are appended to \p Out. On a bad integer prints "bad --run
/// argument 'TOKEN'" and returns false.
bool parseRunFlag(int Argc, char **Argv, int &I, std::vector<int64_t> &Out);

} // namespace fcc

#endif // FCC_SUPPORT_ARGPARSE_H
