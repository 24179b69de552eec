//===- ir/BasicBlock.h - CFG basic blocks -----------------------*- C++ -*-===//
///
/// \file
/// A BasicBlock holds a (possibly empty) group of phi instructions, a body of
/// ordinary instructions, and exactly one trailing terminator. The block
/// also owns its predecessor list; phi operand order is kept in lock-step
/// with that list, which is the invariant every SSA algorithm here leans on.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_BASICBLOCK_H
#define FCC_IR_BASICBLOCK_H

#include "ir/Instruction.h"
#include <memory>
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
  const std::vector<std::unique_ptr<Instruction>> &phis() const {
    return Phis;
  }
  /// Ordinary instructions; the last one is the terminator once the block is
  /// complete.
  const std::vector<std::unique_ptr<Instruction>> &insts() const {
    return Insts;
  }

  bool hasTerminator() const {
    return !Insts.empty() && Insts.back()->isTerminator();
  }
  Instruction *terminator() const {
    assert(hasTerminator() && "block has no terminator");
    return Insts.back().get();
  }

  /// Appends \p I; terminators may only be appended last.
  Instruction *append(std::unique_ptr<Instruction> I);

  /// Adds a phi instruction (order among phis is irrelevant semantically).
  Instruction *addPhi(std::unique_ptr<Instruction> I);

  /// Inserts \p I immediately before the terminator (copy insertion point).
  Instruction *insertBeforeTerminator(std::unique_ptr<Instruction> I);

  /// Inserts \p I at body position \p Index (0 = before the first non-phi).
  Instruction *insertAt(unsigned Index, std::unique_ptr<Instruction> I);

  /// Removes the non-phi instruction \p I from the block.
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
  using InstList = std::vector<std::unique_ptr<Instruction>>;
  template <typename FnT> void insertAround(FnT Fn) {
    InstList Out, Before, After;
    Out.reserve(Insts.size());
    for (std::unique_ptr<Instruction> &I : Insts) {
      Fn(*I, Before, After);
      assert((After.empty() || !I->isTerminator()) &&
             "inserting past the terminator");
      if (!Before.empty())
        adopt(Out, Before);
      Out.push_back(std::move(I));
      if (!After.empty())
        adopt(Out, After);
    }
    Insts = std::move(Out);
  }

  /// Detaches the non-terminator body instruction \p I, returning ownership
  /// so a pass can re-insert it elsewhere (code motion).
  std::unique_ptr<Instruction> takeInst(Instruction *I);

  /// Removes all phis, returning ownership to the caller (SSA destruction
  /// consumes them in bulk).
  std::vector<std::unique_ptr<Instruction>> takePhis();

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
  const std::vector<BasicBlock *> &succs() const {
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

  template <typename PredT>
  static unsigned eraseIf(std::vector<std::unique_ptr<Instruction>> &List,
                          PredT &Pred) {
    return static_cast<unsigned>(std::erase_if(
        List, [&](const std::unique_ptr<Instruction> &I) { return Pred(*I); }));
  }

  unsigned Id;
  std::string Name;
  Function *Parent;
  std::vector<std::unique_ptr<Instruction>> Phis;
  std::vector<std::unique_ptr<Instruction>> Insts;
  std::vector<BasicBlock *> Preds;
};

} // namespace fcc

#endif // FCC_IR_BASICBLOCK_H
