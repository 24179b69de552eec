//===- ir/Instruction.cpp -------------------------------------------------===//

#include "ir/Instruction.h"
#include "ir/Variable.h"
#include "support/Arena.h"

using namespace fcc;

Instruction::Instruction(Opcode Op, Variable *Def, Operand *Ops,
                         unsigned NumOps, BasicBlock **Succs,
                         unsigned NumSuccs)
    : Op(Op), NumSuccs(static_cast<uint8_t>(NumSuccs)), NumOps(NumOps),
      Def(Def), Ops(Ops), Succs(Succs) {
  assert((Def == nullptr || opcodeHasDef(Op)) &&
         "def supplied for a non-defining opcode");
  int Required = opcodeNumOperands(Op);
  assert((Required < 0 || NumOps == static_cast<unsigned>(Required)) &&
         "wrong operand count for opcode");
  (void)Required;
  assert(NumSuccs == opcodeNumSuccessors(Op) &&
         "wrong successor count for opcode");
}

void Instruction::poisonErased() {
  // Function::makeInstruction lays the instruction, its operands and its
  // successors out back to back, so the successor array ends the record;
  // operand slots a phi gave up stay inside it.
  auto *End = reinterpret_cast<char *>(Succs + NumSuccs);
  ASAN_POISON_MEMORY_REGION(this, End - reinterpret_cast<char *>(this));
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
