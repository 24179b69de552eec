//===- ir/BasicBlock.cpp --------------------------------------------------===//

#include "ir/BasicBlock.h"

#include <algorithm>

using namespace fcc;

Instruction *BasicBlock::append(std::unique_ptr<Instruction> I) {
  assert(!hasTerminator() && "appending past the terminator");
  assert(!I->isPhi() && "phis go through addPhi()");
  I->Parent = this;
  Insts.push_back(std::move(I));
  return Insts.back().get();
}

Instruction *BasicBlock::addPhi(std::unique_ptr<Instruction> I) {
  assert(I->isPhi() && "addPhi() requires a phi");
  I->Parent = this;
  Phis.push_back(std::move(I));
  return Phis.back().get();
}

Instruction *BasicBlock::insertBeforeTerminator(std::unique_ptr<Instruction> I) {
  assert(hasTerminator() && "no terminator to insert before");
  assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
  I->Parent = this;
  Insts.insert(Insts.end() - 1, std::move(I));
  return (Insts.end() - 2)->get();
}

Instruction *BasicBlock::insertAt(unsigned Index,
                                  std::unique_ptr<Instruction> I) {
  assert(Index <= Insts.size() && "insertion index out of range");
  assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
  I->Parent = this;
  auto It = Insts.insert(Insts.begin() + Index, std::move(I));
  return It->get();
}

void BasicBlock::adopt(InstList &To, InstList &From) {
  for (std::unique_ptr<Instruction> &I : From) {
    assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
    I->Parent = this;
    To.push_back(std::move(I));
  }
  From.clear();
}

void BasicBlock::eraseInst(Instruction *I) {
  auto It = std::find_if(Insts.begin(), Insts.end(),
                         [&](const auto &P) { return P.get() == I; });
  assert(It != Insts.end() && "instruction not in this block");
  Insts.erase(It);
}

std::unique_ptr<Instruction> BasicBlock::takeInst(Instruction *I) {
  assert(!I->isTerminator() && "terminators cannot be detached");
  auto It = std::find_if(Insts.begin(), Insts.end(),
                         [&](const auto &P) { return P.get() == I; });
  assert(It != Insts.end() && "instruction not in this block");
  std::unique_ptr<Instruction> Out = std::move(*It);
  Insts.erase(It);
  Out->Parent = nullptr;
  return Out;
}

std::vector<std::unique_ptr<Instruction>> BasicBlock::takePhis() {
  return std::move(Phis);
}

unsigned BasicBlock::predIndex(const BasicBlock *P) const {
  for (unsigned I = 0, E = getNumPreds(); I != E; ++I)
    if (Preds[I] == P)
      return I;
  assert(false && "block is not a predecessor");
  return ~0u;
}

void BasicBlock::replacePred(BasicBlock *Old, BasicBlock *New) {
  unsigned Idx = predIndex(Old);
  Preds[Idx] = New;
}

void BasicBlock::removePredEdge(const BasicBlock *P) {
  unsigned Slot = predIndex(P);
  for (const auto &Phi : Phis)
    Phi->removePhiOperand(Slot);
  Preds.erase(Preds.begin() + Slot);
}
