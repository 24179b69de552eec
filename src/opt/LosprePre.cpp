//===- opt/LosprePre.cpp --------------------------------------------------===//

#include "opt/LosprePre.h"

#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <cstdint>
#include <map>
#include <vector>

using namespace fcc;

namespace {

/// Candidates: total, side-effect-free value computations. Loads are out
/// (they read mutable memory), Const/Copy are out (nothing to save).
bool isPureCandidate(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Mod:
  case Opcode::Neg:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
    return true;
  default:
    return false;
  }
}

/// Syntactic value key: opcode plus each operand as (kind, id-or-imm).
using ExprKey = std::vector<int64_t>;

ExprKey keyOf(const Instruction &I) {
  ExprKey Key{static_cast<int64_t>(I.opcode())};
  for (const Operand &O : I.operands()) {
    Key.push_back(O.isVar() ? 1 : 0);
    Key.push_back(O.isVar() ? static_cast<int64_t>(O.getVar()->id())
                            : O.getImm());
  }
  return Key;
}

} // namespace

LosprePreStats fcc::runLosprePre(Function &F) {
  LosprePreStats Stats;
  DominatorTree DT(F);
  LoopInfo LI(DT);
  if (LI.loops().empty())
    return Stats;

  // Defining block of each variable; parameters count as defined on entry.
  // Maintained as instructions move (the CFG itself never changes, so the
  // dominator tree and loop nests stay valid throughout).
  std::vector<BasicBlock *> DefBlock(F.numVariables(), nullptr);
  for (const Variable *P : F.params())
    DefBlock[P->id()] = F.entry();
  for (const auto &B : F.blocks()) {
    for (const auto &Phi : B->phis())
      DefBlock[Phi->getDef()->id()] = B.get();
    for (const auto &I : B->insts())
      if (I->getDef())
        DefBlock[I->getDef()->id()] = B.get();
  }

  std::vector<unsigned char> InLoop(F.numBlocks(), 0);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Expressions available per hoist target, seeded lazily from the
    // target's current body (which includes earlier rounds' hoists).
    std::map<const BasicBlock *, std::map<ExprKey, Instruction *>> Avail;
    auto AvailAt = [&](BasicBlock *T) -> std::map<ExprKey, Instruction *> & {
      auto [It, Fresh] = Avail.try_emplace(T);
      if (Fresh)
        for (const auto &I : T->insts())
          if (isPureCandidate(I->opcode()))
            It->second.emplace(keyOf(*I), I);
      return It->second;
    };

    for (const Loop &L : LI.loops()) {
      if (L.Header == F.entry())
        continue;
      BasicBlock *Target = DT.idom(L.Header);
      for (BasicBlock *B : L.Blocks)
        InLoop[B->id()] = 1;

      for (BasicBlock *B : L.Blocks) {
        // Hoisting into a deeper (or equally deep) loop would add work.
        if (LI.loopDepth(Target) >= LI.loopDepth(B))
          continue;
        std::vector<Instruction *> Candidates;
        for (const auto &I : B->insts())
          if (isPureCandidate(I->opcode()))
            Candidates.push_back(I);
        for (Instruction *I : Candidates) {
          bool Invariant = true;
          I->forEachUsedVar([&](const Variable *V) {
            if (InLoop[DefBlock[V->id()]->id()])
              Invariant = false;
          });
          if (!Invariant)
            continue;
          auto &Exprs = AvailAt(Target);
          auto [It, Fresh] = Exprs.try_emplace(keyOf(*I), I);
          if (Fresh) {
            // Nothing equal available: move the computation above the loop.
            Target->insertBeforeTerminator(B->takeInst(I));
            DefBlock[I->getDef()->id()] = Target;
            ++Stats.Hoisted;
          } else {
            // Fully redundant: retarget every use at the available def
            // (its block dominates everything this def dominated).
            Variable *Old = I->getDef();
            Variable *New = It->second->getDef();
            for (const auto &Blk : F.blocks()) {
              for (const auto &Phi : Blk->phis())
                Phi->forEachUse([&](Operand &O) {
                  if (O.getVar() == Old)
                    O.setVar(New);
                });
              for (const auto &Inst : Blk->insts())
                Inst->forEachUse([&](Operand &O) {
                  if (O.getVar() == Old)
                    O.setVar(New);
                });
            }
            B->eraseInst(I);
            ++Stats.Eliminated;
          }
          Changed = true;
        }
      }

      for (BasicBlock *B : L.Blocks)
        InLoop[B->id()] = 0;
    }
  }
  return Stats;
}
