//===- ir/Opcode.h - Instruction opcodes ------------------------*- C++ -*-===//
///
/// \file
/// Opcode enumeration and static traits for the three-address IR. The set is
/// deliberately small: enough arithmetic, comparison, memory and control
/// operations to express the numerical kernels the paper evaluates on, plus
/// the two opcodes the paper's algorithms revolve around: Copy and Phi.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_OPCODE_H
#define FCC_IR_OPCODE_H

#include <cassert>
#include <cstdint>

namespace fcc {

/// Operation kinds. Keep Opcode::NumOpcodes last.
enum class Opcode {
  // Value-producing.
  Const, ///< def = immediate
  Copy,  ///< def = use0   (the subject of coalescing)
  Add,
  Sub,
  Mul,
  Div, ///< division by zero yields 0 (defined so workloads never trap)
  Mod, ///< modulo by zero yields 0
  Neg,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  Load,  ///< def = memory[use0]
  Phi,   ///< def = phi of one value per predecessor
  // Non-value-producing.
  Store, ///< memory[use0] = use1
  // Terminators.
  Br,     ///< unconditional branch to successor 0
  CondBr, ///< use0 != 0 ? successor 0 : successor 1
  Ret,    ///< return use0

  // Spill machinery, inserted by the register allocator's spill rewriter
  // (never by frontends or the generator). Spill slots live in storage
  // separate from program memory so spill traffic can never alias a
  // program's own Load/Store state — the differential oracle compares
  // final memory, and spilled code must be observationally identical.
  // These are appended after the terminators so that the numeric values
  // of the pre-existing opcodes (and hence structural hashes of programs
  // that do not use them) are unchanged.
  Spill,  ///< spillslot[use1] = use0   (use1 must be an immediate)
  Reload, ///< def = spillslot[use0]    (use0 must be an immediate)

  NumOpcodes
};

/// Number of operands the opcode requires, or -1 for Phi (predecessor count).
constexpr int opcodeNumOperands(Opcode Op) {
  switch (Op) {
  case Opcode::Br:
    return 0;
  case Opcode::Const: // The single operand must be an immediate.
  case Opcode::Copy:
  case Opcode::Neg:
  case Opcode::Load:
  case Opcode::CondBr:
  case Opcode::Ret:
  case Opcode::Reload: // The single operand must be an immediate slot.
    return 1;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Mod:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::Store:
  case Opcode::Spill: // use0 = value (variable), use1 = immediate slot.
    return 2;
  case Opcode::Phi:
    return -1;
  case Opcode::NumOpcodes:
    break;
  }
  return 0;
}

/// True for opcodes that define a result variable.
constexpr bool opcodeHasDef(Opcode Op) {
  switch (Op) {
  case Opcode::Store:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
  case Opcode::Spill:
    return false;
  default:
    return true;
  }
}

/// True for opcodes that must terminate a basic block.
constexpr bool opcodeIsTerminator(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret;
}

/// Number of successor blocks the terminator names.
constexpr unsigned opcodeNumSuccessors(Opcode Op) {
  switch (Op) {
  case Opcode::Br:
    return 1;
  case Opcode::CondBr:
    return 2;
  default:
    return 0;
  }
}

/// The value of a binary opcode (Add through CmpGe) on \p A and \p B, in the
/// IR's total semantics: two's-complement wraparound, x / 0 = x % 0 = 0,
/// INT64_MIN / -1 = INT64_MIN and INT64_MIN % -1 = 0. Neg x is Sub 0, x.
/// The interpreter executes with it and SCCP folds with it, so folded code
/// agrees with executed code bit for bit.
constexpr int64_t evalBinary(Opcode Op, int64_t A, int64_t B) {
  uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
  switch (Op) {
  case Opcode::Add:
    return static_cast<int64_t>(UA + UB);
  case Opcode::Sub:
    return static_cast<int64_t>(UA - UB);
  case Opcode::Mul:
    return static_cast<int64_t>(UA * UB);
  case Opcode::Div:
    if (B == 0)
      return 0;
    return A == INT64_MIN && B == -1 ? INT64_MIN : A / B;
  case Opcode::Mod:
    return B == 0 || (A == INT64_MIN && B == -1) ? 0 : A % B;
  case Opcode::CmpEq:
    return A == B;
  case Opcode::CmpNe:
    return A != B;
  case Opcode::CmpLt:
    return A < B;
  case Opcode::CmpLe:
    return A <= B;
  case Opcode::CmpGt:
    return A > B;
  case Opcode::CmpGe:
    return A >= B;
  default:
    assert(false && "not a binary opcode");
    return 0;
  }
}

/// Textual mnemonic used by the printer and parser.
const char *opcodeName(Opcode Op);

} // namespace fcc

#endif // FCC_IR_OPCODE_H
