//===- ir/BasicBlock.cpp --------------------------------------------------===//

#include "ir/BasicBlock.h"

#include <algorithm>

using namespace fcc;

Instruction *BasicBlock::append(Instruction *I) {
  assert(!hasTerminator() && "appending past the terminator");
  assert(!I->isPhi() && "phis go through addPhi()");
  I->Parent = this;
  pushSmall(Insts, I);
  return I;
}

Instruction *BasicBlock::addPhi(Instruction *I) {
  assert(I->isPhi() && "addPhi() requires a phi");
  I->Parent = this;
  pushSmall(Phis, I);
  return I;
}

Instruction *BasicBlock::insertBeforeTerminator(Instruction *I) {
  assert(hasTerminator() && "no terminator to insert before");
  assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
  I->Parent = this;
  Insts.insert(Insts.end() - 1, I);
  return I;
}

Instruction *BasicBlock::insertAt(unsigned Index, Instruction *I) {
  assert(Index <= Insts.size() && "insertion index out of range");
  assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
  I->Parent = this;
  Insts.insert(Insts.begin() + Index, I);
  return I;
}

void BasicBlock::adopt(InstList &To, InstList &From) {
  for (Instruction *I : From) {
    assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
    I->Parent = this;
    To.push_back(I);
  }
  From.clear();
}

void BasicBlock::eraseInst(Instruction *I) {
  auto It = std::find(Insts.begin(), Insts.end(), I);
  assert(It != Insts.end() && "instruction not in this block");
  Insts.erase(It);
  I->poisonErased();
}

Instruction *BasicBlock::takeInst(Instruction *I) {
  assert(!I->isTerminator() && "terminators cannot be detached");
  auto It = std::find(Insts.begin(), Insts.end(), I);
  assert(It != Insts.end() && "instruction not in this block");
  Insts.erase(It);
  I->Parent = nullptr;
  return I;
}

void BasicBlock::poisonContents() {
  for (Instruction *I : Phis)
    I->poisonErased();
  for (Instruction *I : Insts)
    I->poisonErased();
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
  for (Instruction *Phi : Phis)
    Phi->removePhiOperand(Slot);
  Preds.erase(Preds.begin() + Slot);
}
