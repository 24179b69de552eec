//===- ir/Function.cpp ----------------------------------------------------===//

#include "ir/Function.h"

#include <algorithm>

using namespace fcc;

Variable *Function::makeVariable(std::string VarName,
                                 const Variable *Origin) {
  unsigned Id = static_cast<unsigned>(Vars.size());
  Vars.push_back(std::unique_ptr<Variable>(
      new Variable(Id, std::move(VarName), Origin)));
  return Vars.back().get();
}

BasicBlock *Function::makeBlock(std::string BlockName) {
  unsigned Id = static_cast<unsigned>(Blocks.size());
  Blocks.push_back(std::unique_ptr<BasicBlock>(
      new BasicBlock(Id, std::move(BlockName), this)));
  return Blocks.back().get();
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
  for (const auto &V : Vars)
    if (V->name() == VarName)
      return V.get();
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
      S->Preds.push_back(B.get());
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

  unsigned Removed = 0;
  for (size_t I = Blocks.size(); I-- != 0;)
    if (!Reached[Blocks[I]->id()]) {
      Blocks.erase(Blocks.begin() + I);
      ++Removed;
    }
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
