//===- interp/Interpreter.cpp ---------------------------------------------===//

#include "interp/Interpreter.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

using namespace fcc;

ExecutionResult Interpreter::run(const Function &F,
                                 const std::vector<int64_t> &Args) const {
  assert(MemoryWords != 0 && "interpreter needs at least one memory word");
  ExecutionResult Result;
  std::vector<int64_t> Regs(F.numVariables(), 0);
  Result.FinalMemory.assign(MemoryWords, 0);
  // Spill slots are separate from program memory: a Store can never clobber
  // a live spilled value, and FinalMemory stays comparable across the
  // pre-spill and post-spill versions of a function. Grown on demand;
  // reading a never-written slot yields 0 (the rewriter never emits that).
  std::vector<int64_t> SpillSlots;
  auto SlotRef = [&](int64_t Slot) -> int64_t & {
    assert(Slot >= 0 && "verifier guarantees non-negative spill slots");
    size_t Index = static_cast<size_t>(Slot);
    if (Index >= SpillSlots.size())
      SpillSlots.resize(Index + 1, 0);
    return SpillSlots[Index];
  };

  for (unsigned I = 0, E = static_cast<unsigned>(F.params().size()); I != E;
       ++I)
    Regs[F.params()[I]->id()] = I < Args.size() ? Args[I] : 0;

  auto Eval = [&](const Operand &O) {
    return O.isImm() ? O.getImm() : Regs[O.getVar()->id()];
  };
  auto MemIndex = [&](int64_t Addr) {
    uint64_t U = static_cast<uint64_t>(Addr);
    return static_cast<size_t>(U % MemoryWords);
  };

  const BasicBlock *Block = F.entry();
  const BasicBlock *PrevBlock = nullptr;
  uint64_t Steps = 0;

  while (true) {
    // Parallel phi evaluation on block entry: read all sources against the
    // pre-entry register state, then commit.
    if (!Block->phis().empty()) {
      assert(PrevBlock && "phis in the entry block");
      unsigned Slot = Block->predIndex(PrevBlock);
      std::vector<std::pair<unsigned, int64_t>> Writes;
      Writes.reserve(Block->phis().size());
      for (const auto &Phi : Block->phis())
        Writes.push_back(
            {Phi->getDef()->id(), Eval(Phi->getOperand(Slot))});
      for (auto [Id, Value] : Writes)
        Regs[Id] = Value;
    }

    for (const auto &I : Block->insts()) {
      if (++Steps > StepLimit)
        return Result; // Completed stays false.
      ++Result.InstructionsExecuted;

      switch (I->opcode()) {
      case Opcode::Const:
        Regs[I->getDef()->id()] = I->getOperand(0).getImm();
        break;
      case Opcode::Copy:
        ++Result.CopiesExecuted;
        Regs[I->getDef()->id()] = Eval(I->getOperand(0));
        break;
      case Opcode::Neg:
        Regs[I->getDef()->id()] =
            evalBinary(Opcode::Sub, 0, Eval(I->getOperand(0)));
        break;
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
        Regs[I->getDef()->id()] = evalBinary(
            I->opcode(), Eval(I->getOperand(0)), Eval(I->getOperand(1)));
        break;
      case Opcode::Load:
        Regs[I->getDef()->id()] =
            Result.FinalMemory[MemIndex(Eval(I->getOperand(0)))];
        break;
      case Opcode::Store:
        Result.FinalMemory[MemIndex(Eval(I->getOperand(0)))] =
            Eval(I->getOperand(1));
        break;
      case Opcode::Br:
        break; // Successor handled below.
      case Opcode::CondBr:
        break;
      case Opcode::Ret:
        Result.ReturnValue = Eval(I->getOperand(0));
        Result.Completed = true;
        return Result;
      case Opcode::Spill:
        ++Result.SpillOpsExecuted;
        SlotRef(I->getOperand(1).getImm()) = Eval(I->getOperand(0));
        break;
      case Opcode::Reload:
        ++Result.SpillOpsExecuted;
        Regs[I->getDef()->id()] = SlotRef(I->getOperand(0).getImm());
        break;
      case Opcode::Phi:
      case Opcode::NumOpcodes:
        assert(false && "phi outside the phi list / invalid opcode");
        break;
      }
    }

    const Instruction *Term = Block->terminator();
    PrevBlock = Block;
    if (Term->opcode() == Opcode::Br) {
      Block = Term->getSuccessor(0);
    } else {
      assert(Term->opcode() == Opcode::CondBr && "ret returns above");
      Block = Eval(Term->getOperand(0)) != 0 ? Term->getSuccessor(0)
                                             : Term->getSuccessor(1);
    }
  }
}
