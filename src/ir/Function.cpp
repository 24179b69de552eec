//===- ir/Function.cpp ----------------------------------------------------===//

#include "ir/Function.h"

#include <algorithm>
#include <memory>
#include <new>
#include <type_traits>

using namespace fcc;

Function::~Function() {
  // Instructions are trivially destructible and Blocks' deleters destroy
  // the blocks; the variables' names are the rest of what holds memory
  // outside the pool. The chunks go with Pool, the last member destroyed.
  for (Variable *V : Vars)
    V->~Variable();
}

Variable *Function::makeVariable(std::string VarName,
                                 const Variable *Origin) {
  unsigned Id = static_cast<unsigned>(Vars.size());
  void *Mem = Pool.allocate(sizeof(Variable), alignof(Variable));
  Vars.push_back(new (Mem) Variable(Id, std::move(VarName), Origin));
  return Vars.back();
}

BasicBlock *Function::makeBlock(std::string BlockName) {
  unsigned Id = static_cast<unsigned>(Blocks.size());
  void *Mem = Pool.allocate(sizeof(BasicBlock), alignof(BasicBlock));
  Blocks.emplace_back(new (Mem) BasicBlock(Id, std::move(BlockName), this));
  return Blocks.back().get();
}

void Function::DestroyInPool::operator()(BasicBlock *B) const {
  B->~BasicBlock();
  ASAN_POISON_MEMORY_REGION(B, sizeof(BasicBlock));
}

Instruction *Function::makeInstruction(Opcode Op, Variable *Def,
                                       std::span<const Operand> Ops,
                                       std::span<BasicBlock *const> Succs) {
  static_assert(std::is_trivially_destructible_v<Instruction> &&
                    sizeof(Instruction) % alignof(Operand) == 0,
                "operands are stored behind the instruction, never freed");
  size_t Bytes = sizeof(Instruction) + Ops.size() * sizeof(Operand) +
                 Succs.size() * sizeof(BasicBlock *);
  char *Mem = static_cast<char *>(Pool.allocate(Bytes, alignof(Instruction)));
  auto *OpMem = reinterpret_cast<Operand *>(Mem + sizeof(Instruction));
  auto *SuccMem = reinterpret_cast<BasicBlock **>(OpMem + Ops.size());
  std::uninitialized_copy(Ops.begin(), Ops.end(), OpMem);
  std::uninitialized_copy(Succs.begin(), Succs.end(), SuccMem);
  return new (Mem)
      Instruction(Op, Def, OpMem, static_cast<unsigned>(Ops.size()), SuccMem,
                  static_cast<unsigned>(Succs.size()));
}

bool Function::isParam(const Variable *V) const {
  return std::find(Params.begin(), Params.end(), V) != Params.end();
}

BasicBlock *Function::findBlock(const std::string &BlockName) const {
  for (const auto &B : Blocks)
    if (B->name() == BlockName)
      return B.get();
  return nullptr;
}

Variable *Function::findVariable(const std::string &VarName) const {
  for (Variable *V : Vars)
    if (V->name() == VarName)
      return V;
  return nullptr;
}

void Function::recomputePreds() {
  for (const auto &B : Blocks) {
    assert(B->phis().empty() &&
           "recomputePreds would break phi operand ordering");
    B->Preds.clear();
  }
  for (const auto &B : Blocks) {
    if (!B->hasTerminator())
      continue;
    for (BasicBlock *S : B->terminator()->successors())
      BasicBlock::pushSmall(S->Preds, B.get());
  }
}

unsigned Function::removeUnreachableBlocks() {
  if (Blocks.empty())
    return 0;
  std::vector<bool> Reached(Blocks.size(), false);
  std::vector<BasicBlock *> Stack{entry()};
  Reached[entry()->id()] = true;
  while (!Stack.empty()) {
    BasicBlock *B = Stack.back();
    Stack.pop_back();
    if (!B->hasTerminator())
      continue;
    for (BasicBlock *S : B->terminator()->successors())
      if (!Reached[S->id()]) {
        Reached[S->id()] = true;
        Stack.push_back(S);
      }
  }

  // Drop edges entering surviving blocks from doomed ones first, so phi
  // operands stay aligned with the predecessor lists throughout.
  for (const auto &B : Blocks) {
    if (!Reached[B->id()])
      continue;
    for (unsigned I = B->getNumPreds(); I-- != 0;)
      if (!Reached[B->preds()[I]->id()])
        B->removePredEdge(B->preds()[I]);
  }

  // One compaction of the block list, not one erase per dead block.
  unsigned Removed =
      static_cast<unsigned>(std::erase_if(Blocks, [&](const BlockPtr &B) {
        if (Reached[B->id()])
          return false;
        B->poisonContents();
        return true;
      }));
  for (size_t I = 0; I != Blocks.size(); ++I)
    Blocks[I]->Id = static_cast<unsigned>(I);
  return Removed;
}

unsigned Function::instructionCount() const {
  unsigned Total = 0;
  for (const auto &B : Blocks)
    Total += static_cast<unsigned>(B->phis().size() + B->insts().size());
  return Total;
}

unsigned Function::phiCount() const {
  unsigned Total = 0;
  for (const auto &B : Blocks)
    Total += static_cast<unsigned>(B->phis().size());
  return Total;
}

unsigned Function::staticCopyCount() const {
  unsigned Total = 0;
  for (const auto &B : Blocks)
    for (const auto &I : B->insts())
      if (I->isCopy())
        ++Total;
  return Total;
}
