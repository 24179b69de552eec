//===- ssa/SSABuilder.cpp -------------------------------------------------===//

#include "ssa/SSABuilder.h"

#include "analysis/DominanceFrontier.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "support/IndexSet.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

using namespace fcc;

namespace {

constexpr unsigned NoSlot = ~0u;

/// Renaming state: the current SSA name of each original variable, plus a
/// log of the names it replaced along the dominator-tree path.
class Renamer {
public:
  Renamer(Function &F, const DominatorTree &DT, bool FoldCopies,
          unsigned NumOriginals, std::vector<unsigned> &SlotInSucc,
          SSABuildStats &Stats)
      : F(F), DT(DT), FoldCopies(FoldCopies), Current(NumOriginals, nullptr),
        Counter(NumOriginals, 0), NumOriginals(NumOriginals),
        SlotInSucc(SlotInSucc), Stats(Stats) {
    // Parameters enter with themselves as version zero.
    for (Variable *P : F.params())
      Current[P->id()] = P;
  }

  void run();

private:
  Variable *fresh(Variable *Orig) {
    Variable *V = F.makeVariable(
        Orig->name() + "." + std::to_string(++Counter[Orig->id()]), Orig);
    ++Stats.NamesCreated;
    return V;
  }

  /// Makes \p Name the current name of \p Orig until run() leaves the
  /// block being renamed.
  void define(Variable *Orig, Variable *Name) {
    Pushed.push_back({Orig, Current[Orig->id()]});
    Current[Orig->id()] = Name;
  }

  /// Replaces a use of an original variable with its current SSA name. Uses
  /// of names that cannot be reached by a definition are dead by strictness;
  /// they become the constant 0 so the IR stays well formed.
  void rewriteUse(Operand &O) {
    Variable *Orig = O.getVar();
    assert(Orig->id() < NumOriginals && "use already renamed");
    if (Variable *Cur = Current[Orig->id()])
      O.setVar(Cur);
    else
      O = Operand::imm(0);
  }

  /// Renames \p B's phis and instructions and its successors' phi operands
  /// on the edges leaving it, logging into Pushed the names run() restores
  /// when it leaves \p B. A folded copy keeps its original def.
  void renameBlock(BasicBlock *B);

  Function &F;
  const DominatorTree &DT;
  bool FoldCopies;
  std::vector<Variable *> Current; // indexed by original var id
  std::vector<unsigned> Counter;   // indexed by original var id
  unsigned NumOriginals;
  /// By block id: a one-successor block's operand slot in its successor's
  /// phis, NoSlot until the first edge into that successor is renamed.
  std::vector<unsigned> &SlotInSucc;
  SSABuildStats &Stats;
  // Each renaming of the blocks on the current dominator-tree path, oldest
  // first: the original and the name it had before.
  std::vector<std::pair<Variable *, Variable *>> Pushed;
};

/// Walks the dominator tree in preorder with an explicit stack (a chain of
/// blocks makes the tree as deep as the function is long). Leaving a block
/// restores the names it replaced, after all its children.
void Renamer::run() {
  struct Frame {
    BasicBlock *B;
    unsigned NextChild;
    size_t PushedMark;
  };
  std::vector<Frame> Path;
  auto Enter = [&](BasicBlock *B) {
    Path.push_back({B, 0, Pushed.size()});
    renameBlock(B);
  };
  Enter(F.entry());
  while (!Path.empty()) {
    Frame &Top = Path.back();
    const auto &Kids = DT.children(Top.B);
    if (Top.NextChild < Kids.size()) {
      Enter(Kids[Top.NextChild++]);
      continue;
    }
    for (; Pushed.size() != Top.PushedMark; Pushed.pop_back())
      Current[Pushed.back().first->id()] = Pushed.back().second;
    Path.pop_back();
  }
}

void Renamer::renameBlock(BasicBlock *B) {
  // Phi definitions first: they define at the top of the block.
  for (const auto &Phi : B->phis()) {
    Variable *Orig = Phi->getDef();
    assert(Orig->id() < NumOriginals && "phi already renamed");
    Variable *New = fresh(Orig);
    Phi->setDef(New);
    define(Orig, New);
  }

  for (const auto &I : B->insts()) {
    I->forEachUse([&](Operand &O) { rewriteUse(O); });

    Variable *Def = I->getDef();
    if (!Def)
      continue;
    assert(Def->id() < NumOriginals && "def already renamed");

    if (FoldCopies && I->isCopy() && I->getOperand(0).isVar()) {
      // Copy folding: the destination's uses read the source's current name
      // directly; buildSSA erases the copy.
      define(Def, I->getOperand(0).getVar());
      continue;
    }
    if (FoldCopies && I->isCopy() && I->getOperand(0).isImm()) {
      // The source use was rewritten to the constant 0 placeholder (dead by
      // strictness); keep the instruction as a constant definition.
      Variable *New = fresh(Def);
      I->setDef(New);
      define(Def, New);
      continue;
    }

    Variable *New = fresh(Def);
    I->setDef(New);
    define(Def, New);
  }

  // Fill phi operands of CFG successors for the edges leaving B. The first
  // edge renamed into a join records every predecessor's slot in one pass
  // over its list, so a wide join costs its width once, not per arm. A
  // block with two successors has a critical edge into any join; only
  // input whose critical edges are not split asks predIndex (the first
  // match).
  std::span<BasicBlock *const> Succs = B->terminator()->successors();
  for (BasicBlock *S : Succs) {
    if (S->phis().empty())
      continue;
    unsigned SlotIdx;
    if (Succs.size() == 1) {
      if (SlotInSucc[B->id()] == NoSlot)
        for (unsigned Slot = 0, E = S->getNumPreds(); Slot != E; ++Slot)
          SlotInSucc[S->preds()[Slot]->id()] = Slot;
      SlotIdx = SlotInSucc[B->id()];
    } else {
      SlotIdx = S->predIndex(B);
    }
    for (const auto &Phi : S->phis()) {
      Operand &O = Phi->getOperand(SlotIdx);
      if (O.isVar() && O.getVar()->id() < NumOriginals)
        rewriteUse(O);
    }
  }
}

} // namespace

SSABuildStats fcc::buildSSA(Function &F, const DominatorTree &DT,
                            const SSABuildOptions &Opts) {
  assert(F.phiCount() == 0 && "function already has phis");
  SSABuildStats Stats;

  unsigned NumOriginals = F.numVariables();
  unsigned NumBlocks = F.numBlocks();

  DominanceFrontier DF(DT);
  size_t SideBytes = DF.bytes();

  // Per-variable definition blocks; parameters are defined at the entry.
  // A name whose last definition block is the current one is defined above
  // the current instruction.
  std::vector<std::vector<BasicBlock *>> DefBlocks(NumOriginals);
  IndexSet Globals(NumOriginals); // Upward-exposed names, for SemiPruned.
  for (const auto &B : F.blocks()) {
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) {
        const auto &DB = DefBlocks[V->id()];
        if (DB.empty() || DB.back() != B.get())
          Globals.insert(V->id()); // Upward exposed somewhere.
      });
      if (Variable *Def = I->getDef()) {
        auto &DB = DefBlocks[Def->id()];
        if (DB.empty() || DB.back() != B.get())
          DB.push_back(B.get());
      }
    }
  }
  for (Variable *P : F.params()) {
    auto &DB = DefBlocks[P->id()];
    if (DB.empty() || DB.front() != F.entry())
      DB.insert(DB.begin(), F.entry());
  }

  // Liveness is needed only for the pruned flavor, and only over the names
  // that can be live into some block.
  std::optional<UpwardExposedLiveness> Live;
  if (Opts.Flavor == SSAFlavor::Pruned) {
    Live.emplace(F);
    SideBytes += Live->bytes();
  }

  // Iterated dominance frontier phi placement (worklist per variable),
  // at the frontier blocks where \p LiveAt holds. The has-phi marker uses
  // generation stamps so no per-variable set is allocated or cleared.
  std::vector<unsigned> PhiStamp(NumBlocks, 0);
  unsigned Generation = 0;
  SideBytes += PhiStamp.capacity() * sizeof(unsigned);
  std::vector<BasicBlock *> Work;
  std::vector<Operand> PhiOps;
  auto Place = [&](unsigned VarId, auto LiveAt) {
    if (DefBlocks[VarId].empty())
      return; // Used but never defined: dead by strictness.
    Variable *V = F.variable(VarId);
    ++Generation;
    Work = DefBlocks[VarId];
    while (!Work.empty()) {
      BasicBlock *B = Work.back();
      Work.pop_back();
      for (BasicBlock *Frontier : DF.frontier(B)) {
        if (PhiStamp[Frontier->id()] == Generation || !LiveAt(Frontier))
          continue;
        PhiStamp[Frontier->id()] = Generation;
        PhiOps.assign(Frontier->getNumPreds(), Operand::var(V));
        Frontier->addPhi(F.makeInstruction(Opcode::Phi, V, PhiOps));
        ++Stats.PhisInserted;
        Work.push_back(Frontier);
      }
    }
  };
  if (Live) {
    // Pruned: a name live into no block needs no phi, and a live one only
    // at the joins it is live into.
    for (unsigned Slot = 0; Slot != Live->numSlots(); ++Slot)
      Place(Live->nameOf(Slot),
            [&](const BasicBlock *B) { return Live->isLiveIn(B, Slot); });
  } else {
    // SemiPruned skips the names that never cross a block boundary.
    for (unsigned VarId = 0; VarId != NumOriginals; ++VarId)
      if (Opts.Flavor != SSAFlavor::SemiPruned || Globals.test(VarId))
        Place(VarId, [](const BasicBlock *) { return true; });
  }

  // Placement is done with the stamps, so their storage holds renaming's
  // phi slots.
  std::vector<unsigned> &SlotInSucc = PhiStamp;
  std::fill(SlotInSucc.begin(), SlotInSucc.end(), NoSlot);

  // Rename, then erase the folded copies: theirs are the only defs still
  // naming an original variable.
  Renamer R(F, DT, Opts.FoldCopies, NumOriginals, SlotInSucc, Stats);
  R.run();
  if (Opts.FoldCopies)
    for (const auto &B : F.blocks())
      Stats.CopiesFolded += B->eraseInstsIf([&](const Instruction &I) {
        return I.getDef() && I.getDef()->id() < NumOriginals;
      });

  Stats.PeakBytes = SideBytes + NumOriginals * sizeof(void *) * 3;
  return Stats;
}

bool fcc::verifySSAForm(const Function &F, const DominatorTree &DT,
                        std::string &Error) {
  // Where each name is defined: its block and its position there, 0 for a
  // phi (phis precede the whole body) and 1 + the index of a body
  // instruction, so a same-block order test is one comparison.
  struct DefPoint {
    const BasicBlock *Block = nullptr;
    unsigned Pos = 0;
  };
  std::vector<DefPoint> DefAt(F.numVariables());
  auto RecordDef = [&](const Instruction &I, const BasicBlock *B,
                       unsigned Pos) {
    Variable *Def = I.getDef();
    if (!Def)
      return true;
    if (DefAt[Def->id()].Block) {
      Error = "variable '" + Def->name() + "' has multiple definitions";
      return false;
    }
    DefAt[Def->id()] = {B, Pos};
    return true;
  };
  for (const auto &B : F.blocks()) {
    for (const auto &I : B->phis())
      if (!RecordDef(*I, B.get(), 0))
        return false;
    unsigned Pos = 0;
    for (const auto &I : B->insts())
      if (!RecordDef(*I, B.get(), ++Pos))
        return false;
  }
  for (const Variable *P : F.params())
    if (DefAt[P->id()].Block) {
      Error = "parameter '" + P->name() + "' is redefined";
      return false;
    }

  // A definition in block D reaches a use in block U when D strictly
  // dominates U, or D == U and the def precedes the use in the body (an
  // instruction's own def counts as preceding its uses).
  auto DefDominatesUse = [&](const Variable *V, const BasicBlock *UseBlock,
                             unsigned UsePos) {
    if (F.isParam(V))
      return true; // Defined at entry, which dominates everything.
    const DefPoint &Def = DefAt[V->id()];
    if (!Def.Block)
      return false;
    if (Def.Block != UseBlock)
      return DT.strictlyDominates(Def.Block, UseBlock);
    return Def.Pos <= UsePos;
  };

  for (const auto &B : F.blocks()) {
    for (const auto &I : B->phis()) {
      for (unsigned Idx = 0, E = I->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = I->getOperand(Idx);
        if (!O.isVar())
          continue;
        const BasicBlock *P = B->preds()[Idx];
        // The use happens at the end of the predecessor (footnote 1 of the
        // paper: the move happens along the incoming edge).
        const Variable *V = O.getVar();
        if (!F.isParam(V)) {
          const BasicBlock *DefBlock = DefAt[V->id()].Block;
          if (!DefBlock) {
            Error = "phi operand '" + V->name() + "' has no definition";
            return false;
          }
          if (!DT.dominates(DefBlock, P)) {
            Error = "phi operand '" + V->name() +
                    "' does not dominate the edge from '" + P->name() + "'";
            return false;
          }
        }
      }
    }
    unsigned Pos = 0;
    for (const auto &I : B->insts()) {
      bool Ok = true;
      ++Pos;
      I->forEachUsedVar([&](Variable *V) {
        if (Ok && !DefDominatesUse(V, B.get(), Pos)) {
          Error = "use of '" + V->name() + "' in block '" + B->name() +
                  "' is not dominated by its definition";
          Ok = false;
        }
      });
      if (!Ok)
        return false;
    }
  }
  return true;
}
