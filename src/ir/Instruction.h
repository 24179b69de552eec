//===- ir/Instruction.h - Three-address instructions ------------*- C++ -*-===//
///
/// \file
/// Instructions are three-address operations over Variables and immediates.
/// Phi instructions keep one operand per predecessor, in the same order as
/// the parent block's predecessor list; terminators carry their successor
/// blocks directly.
///
/// Every instruction lives in its Function's pool (Function::
/// makeInstruction is the only way to make one), with its operand and
/// successor arrays stored right behind it. Nothing here owns heap memory,
/// so an instruction is never destroyed: erasing it unlinks it from its
/// block, and its bytes go when the function does.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_INSTRUCTION_H
#define FCC_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Operand.h"
#include <cassert>
#include <cstdint>
#include <span>

namespace fcc {

class BasicBlock;
class Variable;

/// One IR operation. Lives in its Function's pool; linked into at most one
/// BasicBlock at a time.
class Instruction {
public:
  Instruction(const Instruction &) = delete;
  Instruction &operator=(const Instruction &) = delete;

  Opcode opcode() const { return Op; }
  bool isPhi() const { return Op == Opcode::Phi; }
  bool isCopy() const { return Op == Opcode::Copy; }
  bool isTerminator() const { return opcodeIsTerminator(Op); }

  /// The defined variable, or nullptr for stores and terminators.
  Variable *getDef() const { return Def; }
  void setDef(Variable *V) {
    assert(opcodeHasDef(Op) && "opcode defines nothing");
    Def = V;
  }

  unsigned getNumOperands() const { return NumOps; }
  const Operand &getOperand(unsigned I) const {
    assert(I < NumOps && "operand index out of range");
    return Ops[I];
  }
  Operand &getOperand(unsigned I) {
    assert(I < NumOps && "operand index out of range");
    return Ops[I];
  }

  std::span<const Operand> operands() const { return {Ops, NumOps}; }
  std::span<Operand> operands() { return {Ops, NumOps}; }

  /// Invokes \p Fn on every variable operand (mutable, so renamers can
  /// retarget uses in place).
  template <typename CallableT> void forEachUse(CallableT Fn) {
    for (Operand &O : operands())
      if (O.isVar())
        Fn(O);
  }

  /// Invokes \p Fn on every used Variable.
  template <typename CallableT> void forEachUsedVar(CallableT Fn) const {
    for (const Operand &O : operands())
      if (O.isVar())
        Fn(O.getVar());
  }

  /// True when some operand reads \p V.
  bool uses(const Variable *V) const;

  unsigned getNumSuccessors() const { return NumSuccs; }
  BasicBlock *getSuccessor(unsigned I) const {
    assert(I < NumSuccs && "successor index out of range");
    return Succs[I];
  }
  void setSuccessor(unsigned I, BasicBlock *B) {
    assert(I < NumSuccs && "successor index out of range");
    Succs[I] = B;
  }
  std::span<BasicBlock *const> successors() const {
    return {Succs, NumSuccs};
  }

  /// Removes a phi's incoming operand at predecessor slot \p I. Phis are
  /// made with one operand per predecessor and never grow.
  void removePhiOperand(unsigned I) {
    assert(isPhi() && I < NumOps && "bad phi slot");
    for (unsigned J = I + 1; J != NumOps; ++J)
      Ops[J - 1] = Ops[J];
    --NumOps;
  }

  BasicBlock *getParent() const { return Parent; }

private:
  friend class BasicBlock;
  friend class Function;

  Instruction(Opcode Op, Variable *Def, Operand *Ops, unsigned NumOps,
              BasicBlock **Succs, unsigned NumSuccs);

  /// Marks an unlinked instruction's bytes off limits to AddressSanitizer,
  /// so a stale pointer to it still reports; a no-op in other builds.
  void poisonErased();

  Opcode Op;
  uint8_t NumSuccs;
  unsigned NumOps;
  Variable *Def;
  BasicBlock *Parent = nullptr;
  Operand *Ops;
  BasicBlock **Succs;
};

} // namespace fcc

#endif // FCC_IR_INSTRUCTION_H
