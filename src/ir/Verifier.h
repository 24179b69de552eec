//===- ir/Verifier.h - IR well-formedness checks ----------------*- C++ -*-===//
///
/// \file
/// Structural verification of functions, the strictness check of the paper's
/// Definition 2.1, the input contract every compile checks, and the
/// strictness-enforcement transformation of Section 2 (initialize
/// upward-exposed variables at the entry block).
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_VERIFIER_H
#define FCC_IR_VERIFIER_H

#include <string>
#include <vector>

namespace fcc {

class Function;
class Variable;

/// Checks CFG and instruction well-formedness: a terminator per block, no
/// predecessors of the entry block, phi/predecessor alignment, operands that
/// belong to the function, reachability of every block, 'const' operands
/// being immediates, and 'copy' sources being variables. Returns true when
/// well-formed; otherwise fills \p Error.
bool verifyFunction(const Function &F, std::string &Error);

/// Definition 2.1: every path from entry to a use of v passes a definition
/// of v. Parameters count as defined on entry. Returns the variables with a
/// possibly-undefined use, in id order: the names live into the entry block
/// other than the parameters (empty means the function is strict).
std::vector<const Variable *> findNonStrictVariables(const Function &F);

/// True when the function is strict per Definition 2.1.
bool isStrict(const Function &F);

/// Which rule of the compile-input contract a function breaks.
enum class InputFault : unsigned char {
  None,      ///< The contract holds.
  Invalid,   ///< The function does not verify or already holds phis.
  NotStrict, ///< A use may precede every definition (Definition 2.1).
};

/// The contract every compile starts from (runPipeline's precondition): \p F
/// verifies, holds no phis and is strict. On a fault, \p Error names the
/// function and the broken rule: "@f: <verifier message>", "@f: input has
/// phis; compiles start from phi-free code" or "@f is not strict (a use may
/// precede every definition)". Strictness enforcement, when wanted, is the
/// caller's step before this check.
InputFault checkCompileInput(const Function &F, std::string &Error);

/// Makes \p F strict by inserting `v = const 0` at the top of the entry
/// block for every variable reported by findNonStrictVariables — exactly the
/// live-in-of-b0 restriction the paper describes. Returns the number of
/// initializations inserted.
unsigned enforceStrictness(Function &F);

} // namespace fcc

#endif // FCC_IR_VERIFIER_H
