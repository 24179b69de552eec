//===- ir/Instruction.cpp -------------------------------------------------===//

#include "ir/Instruction.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <algorithm>

using namespace fcc;

Instruction::Instruction(Opcode Op, Variable *Def, Operand *Ops,
                         unsigned NumOps, BasicBlock **Succs,
                         unsigned NumSuccs)
    : Op(Op), NumSuccs(static_cast<uint8_t>(NumSuccs)), NumOps(NumOps),
      Capacity(NumOps), Def(Def), Ops(Ops), Succs(Succs) {
  assert((Def == nullptr || opcodeHasDef(Op)) &&
         "def supplied for a non-defining opcode");
  int Required = opcodeNumOperands(Op);
  assert((Required < 0 || NumOps == static_cast<unsigned>(Required)) &&
         "wrong operand count for opcode");
  (void)Required;
  assert(NumSuccs == opcodeNumSuccessors(Op) &&
         "wrong successor count for opcode");
}

void Instruction::addPhiOperand(Operand O) {
  assert(isPhi() && "not a phi");
  if (NumOps == Capacity) {
    assert(Parent && "a phi grows in its block's function pool");
    unsigned Grown = Capacity < 2 ? 4 : 2 * Capacity;
    Operand *To =
        Parent->getParent()->Pool.allocateArray<Operand>(Grown);
    std::copy(Ops, Ops + NumOps, To);
    ASAN_POISON_MEMORY_REGION(Ops, Capacity * sizeof(Operand));
    Ops = To;
    Capacity = Grown;
  }
  Ops[NumOps++] = O;
}

void Instruction::poisonErased() {
  ASAN_POISON_MEMORY_REGION(Ops, Capacity * sizeof(Operand));
  ASAN_POISON_MEMORY_REGION(Succs, NumSuccs * sizeof(BasicBlock *));
  ASAN_POISON_MEMORY_REGION(this, sizeof(Instruction));
}

const char *fcc::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Const:
    return "const";
  case Opcode::Copy:
    return "copy";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Mod:
    return "mod";
  case Opcode::Neg:
    return "neg";
  case Opcode::CmpEq:
    return "cmpeq";
  case Opcode::CmpNe:
    return "cmpne";
  case Opcode::CmpLt:
    return "cmplt";
  case Opcode::CmpLe:
    return "cmple";
  case Opcode::CmpGt:
    return "cmpgt";
  case Opcode::CmpGe:
    return "cmpge";
  case Opcode::Load:
    return "load";
  case Opcode::Phi:
    return "phi";
  case Opcode::Store:
    return "store";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "cbr";
  case Opcode::Ret:
    return "ret";
  case Opcode::Spill:
    return "spill";
  case Opcode::Reload:
    return "reload";
  case Opcode::NumOpcodes:
    break;
  }
  assert(false && "invalid opcode");
  return "<invalid>";
}

bool Instruction::uses(const Variable *V) const {
  for (const Operand &O : operands())
    if (O.isVar() && O.getVar() == V)
      return true;
  return false;
}
