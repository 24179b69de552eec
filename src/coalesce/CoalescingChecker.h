//===- coalesce/CoalescingChecker.h - Independent validation ----*- C++ -*-===//
///
/// \file
/// Cross-validates any coalescing decision: given a location assignment
/// (variable -> representative), walks the SSA function with exact per-point
/// liveness and reports two distinct variables that share a location while
/// simultaneously live. The check is graph-free but equivalent to building
/// Chaitin's interference graph and testing the merged pairs, so it lets the
/// paper's algorithm and the baseline coalescers audit each other. The same
/// walk audits a register assignment, each register standing in for a
/// location.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_COALESCE_COALESCINGCHECKER_H
#define FCC_COALESCE_COALESCINGCHECKER_H

#include <functional>
#include <string>
#include <vector>

namespace fcc {

class Function;
class Liveness;
class Variable;

/// Maps a variable to the location (representative variable) it will occupy.
using LocationFn = std::function<const Variable *(const Variable *)>;

/// Verifies that no two simultaneously-live variables of SSA function \p F
/// share a location under \p Loc. Copy sources are exempt at the copy
/// itself (Chaitin's refinement): `d = copy s` makes d and s hold the same
/// value, so overlapping exactly there is harmless. Returns true when the
/// assignment is interference free; otherwise fills \p Error with the
/// offending pair.
bool checkCoalescing(const Function &F, const Liveness &LV,
                     const LocationFn &Loc, std::string &Error);

/// checkCoalescing over a register assignment (RegAllocResult::RegisterOf:
/// a register per variable id, -1 for none). Each register is one location,
/// named after the first variable in id order that holds it; a variable
/// without a register, or past the end of \p RegisterOf, is its own
/// location. \p F may be post-destruction code that defines a name many
/// times, given dense liveness in \p LV.
bool checkRegisterAssignment(const Function &F, const Liveness &LV,
                             const std::vector<int> &RegisterOf,
                             std::string &Error);

} // namespace fcc

#endif // FCC_COALESCE_COALESCINGCHECKER_H
