//===- ir/BasicBlock.h - CFG basic blocks -----------------------*- C++ -*-===//
///
/// \file
/// A BasicBlock holds a (possibly empty) group of phi instructions, a body of
/// ordinary instructions, and exactly one trailing terminator. The block
/// also owns its predecessor list; phi operand order is kept in lock-step
/// with that list, which is the invariant every SSA algorithm here leans on.
///
/// A block lists its instructions by pointer; they live in the function's
/// pool. An instruction leaves a block only through an erase (its bytes
/// stay in the pool until the function dies, poisoned under
/// AddressSanitizer) or through takeInst, which hands it back for
/// re-insertion.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_BASICBLOCK_H
#define FCC_IR_BASICBLOCK_H

#include "ir/Instruction.h"
#include <string>
#include <vector>

namespace fcc {

class Function;

/// One node of the control-flow graph.
class BasicBlock {
public:
  unsigned id() const { return Id; }
  const std::string &name() const { return Name; }
  Function *getParent() const { return Parent; }

  /// Phi instructions, conceptually executed in parallel at block entry.
  const std::vector<Instruction *> &phis() const { return Phis; }
  /// Ordinary instructions; the last one is the terminator once the block is
  /// complete.
  const std::vector<Instruction *> &insts() const { return Insts; }

  bool hasTerminator() const {
    return !Insts.empty() && Insts.back()->isTerminator();
  }
  Instruction *terminator() const {
    assert(hasTerminator() && "block has no terminator");
    return Insts.back();
  }

  /// Appends \p I; terminators may only be appended last.
  Instruction *append(Instruction *I);

  /// Adds a phi instruction (order among phis is irrelevant semantically).
  Instruction *addPhi(Instruction *I);

  /// Inserts \p I immediately before the terminator (copy insertion point).
  Instruction *insertBeforeTerminator(Instruction *I);

  /// Inserts \p I at body position \p Index (0 = before the first non-phi).
  Instruction *insertAt(unsigned Index, Instruction *I);

  /// Erases the non-phi instruction \p I from the block.
  void eraseInst(Instruction *I);

  /// Removes every phi for which \p Pred(const Instruction &) holds, in one
  /// pass that keeps the survivors in order. Returns the number removed.
  template <typename PredT> unsigned erasePhisIf(PredT Pred) {
    return eraseIf(Phis, Pred);
  }

  /// Removes every non-phi instruction for which \p Pred holds, in one pass
  /// that keeps the survivors in order; \p Pred must spare the terminator.
  /// Returns the number removed. Batch deletions go through here: erasing
  /// one at a time costs a search and a shift per instruction.
  template <typename PredT> unsigned eraseInstsIf(PredT Pred) {
    [[maybe_unused]] bool HadTerminator = hasTerminator();
    unsigned Removed = eraseIf(Insts, Pred);
    assert((!HadTerminator || hasTerminator()) && "erased the terminator");
    return Removed;
  }

  /// Inserts instructions around existing ones in one pass that keeps the
  /// body's order: \p Fn(Instruction &I, InstList &Before, InstList &After)
  /// sees each body instruction once and appends what must land right
  /// before and right after it (nothing after the terminator). The batch
  /// counterpart of insertAt, as eraseInstsIf is of eraseInst: inserting
  /// one at a time costs a shift per instruction.
  using InstList = std::vector<Instruction *>;
  template <typename FnT> void insertAround(FnT Fn) {
    InstList Out, Before, After;
    Out.reserve(Insts.size());
    for (Instruction *I : Insts) {
      Fn(*I, Before, After);
      assert((After.empty() || !I->isTerminator()) &&
             "inserting past the terminator");
      if (!Before.empty())
        adopt(Out, Before);
      Out.push_back(I);
      if (!After.empty())
        adopt(Out, After);
    }
    Insts = std::move(Out);
  }

  /// Detaches the non-terminator body instruction \p I and returns it, so
  /// a pass can re-insert it elsewhere (code motion).
  Instruction *takeInst(Instruction *I);

  const std::vector<BasicBlock *> &preds() const { return Preds; }
  unsigned getNumPreds() const { return static_cast<unsigned>(Preds.size()); }

  /// Index of \p P in the predecessor list; asserts when absent.
  unsigned predIndex(const BasicBlock *P) const;

  /// Rewrites the predecessor entry \p Old to \p New, leaving phi operands
  /// untouched (the value now flows along the new edge; used by critical
  /// edge splitting).
  void replacePred(BasicBlock *Old, BasicBlock *New);

  /// Deletes the incoming edge from \p P: removes the predecessor entry and
  /// every phi's operand at that slot, keeping the phi/pred lock-step
  /// invariant. The caller owns the other half of the edge (\p P's
  /// terminator must stop naming this block).
  void removePredEdge(const BasicBlock *P);

  /// Successor blocks as named by the terminator.
  std::span<BasicBlock *const> succs() const {
    return terminator()->successors();
  }

  /// Number of non-phi instructions.
  unsigned size() const { return static_cast<unsigned>(Insts.size()); }

private:
  friend class Function;
  BasicBlock(unsigned Id, std::string Name, Function *Parent)
      : Id(Id), Name(std::move(Name)), Parent(Parent) {}

  /// Moves \p From's instructions to the end of \p To as this block's own,
  /// leaving \p From empty (insertAround's splice).
  void adopt(InstList &To, InstList &From);

  /// Appends to a block list, starting it at four slots: blocks average
  /// three or four instructions and one or two predecessors, so one
  /// allocation replaces a growth step per doubling.
  template <typename T> static void pushSmall(std::vector<T> &List, T X) {
    if (List.capacity() == 0)
      List.reserve(4);
    List.push_back(X);
  }

  /// Keeps the instructions \p Pred spares, in order, and erases the rest.
  /// Every predicate runs before the first erased instruction is poisoned.
  template <typename PredT>
  static unsigned eraseIf(InstList &List, PredT &Pred) {
    size_t Kept = 0;
    for (size_t I = 0, E = List.size(); I != E; ++I)
      if (!Pred(*List[I]))
        std::swap(List[Kept++], List[I]);
    for (size_t I = Kept, E = List.size(); I != E; ++I)
      List[I]->poisonErased();
    unsigned Removed = static_cast<unsigned>(List.size() - Kept);
    List.resize(Kept);
    return Removed;
  }

  /// Poisons every instruction of a block its function is deleting.
  void poisonContents();

  unsigned Id;
  std::string Name;
  Function *Parent;
  InstList Phis;
  InstList Insts;
  std::vector<BasicBlock *> Preds;
};

} // namespace fcc

#endif // FCC_IR_BASICBLOCK_H
