//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

using namespace fcc;

static bool failVerify(std::string &Error, const std::string &Message) {
  Error = Message;
  return false;
}

bool fcc::verifyFunction(const Function &F, std::string &Error) {
  if (F.blocks().empty())
    return failVerify(Error, "function '" + F.name() + "' has no blocks");

  if (!F.entry()->preds().empty())
    return failVerify(Error, "entry block '" + F.entry()->name() +
                                 "' has predecessors");

  // Blocks: ids dense, one terminator, phi shape.
  for (const auto &B : F.blocks()) {
    if (F.block(B->id()) != B.get())
      return failVerify(Error, "block id table corrupt at '" + B->name() + "'");
    if (!B->hasTerminator())
      return failVerify(Error, "block '" + B->name() + "' lacks a terminator");
    for (const auto &I : B->insts()) {
      if (I->isPhi())
        return failVerify(Error,
                          "phi outside the phi list in '" + B->name() + "'");
      if (I->isTerminator() && I != B->terminator())
        return failVerify(Error,
                          "terminator mid-block in '" + B->name() + "'");
      if (I->getParent() != B.get())
        return failVerify(Error, "instruction parent link broken in '" +
                                     B->name() + "'");
    }
    for (const auto &I : B->phis()) {
      if (!I->isPhi())
        return failVerify(Error,
                          "non-phi in the phi list of '" + B->name() + "'");
      if (I->getNumOperands() != B->getNumPreds())
        return failVerify(Error, "phi operand count does not match the " +
                                     std::to_string(B->getNumPreds()) +
                                     " predecessors of '" + B->name() + "'");
      if (!I->getDef())
        return failVerify(Error, "phi without a result in '" + B->name() + "'");
      if (I->getParent() != B.get())
        return failVerify(Error,
                          "phi parent link broken in '" + B->name() + "'");
    }
  }

  // Edges: successors and predecessor lists must agree as multisets, and
  // multi-edges are disallowed (they break phi operand addressing). One
  // pass over the predecessor lists finds stale entries and counts how
  // often each block appears in its successors' lists (no opcode has more
  // than two successors, which the Instruction constructor asserts);
  // counting through a join's whole list per edge would be quadratic in its
  // width. Only a count of exactly one is valid, so the counts stop at two
  // and a byte holds each.
  std::vector<std::array<uint8_t, 2>> InSuccPreds(F.numBlocks(), {0, 0});
  const BasicBlock *StaleIn = nullptr, *StalePred = nullptr;
  for (const auto &B : F.blocks())
    for (BasicBlock *P : B->preds()) {
      const auto &Succs = P->terminator()->successors();
      auto It = std::find(Succs.begin(), Succs.end(), B.get());
      if (It == Succs.end()) {
        if (!StaleIn) {
          StaleIn = B.get();
          StalePred = P;
        }
      } else if (P->id() < F.numBlocks() && F.block(P->id()) == P) {
        uint8_t &Count = InSuccPreds[P->id()][It - Succs.begin()];
        Count = std::min<uint8_t>(Count + 1, 2);
      }
    }
  for (const auto &B : F.blocks()) {
    const auto &Succs = B->terminator()->successors();
    for (size_t J = 0; J != Succs.size(); ++J) {
      BasicBlock *S = Succs[J];
      if (std::count(Succs.begin(), Succs.end(), S) != 1)
        return failVerify(Error, "multi-edge from '" + B->name() + "' to '" +
                                     S->name() + "'");
      if (InSuccPreds[B->id()][J] != 1)
        return failVerify(Error, "edge '" + B->name() + "' -> '" + S->name() +
                                     "' missing from predecessor list");
    }
  }
  if (StaleIn)
    return failVerify(Error, "stale predecessor '" + StalePred->name() +
                                 "' of '" + StaleIn->name() + "'");

  // Operand hygiene.
  auto CheckVar = [&](const Variable *V) {
    return V && V->id() < F.numVariables() && F.variable(V->id()) == V;
  };
  for (const auto &B : F.blocks()) {
    auto CheckInst = [&](const Instruction &I) {
      if (Variable *Def = I.getDef())
        if (!CheckVar(Def))
          return failVerify(Error, "foreign def in '" + B->name() + "'");
      for (const Operand &O : I.operands())
        if (O.isVar() && !CheckVar(O.getVar()))
          return failVerify(Error, "foreign operand in '" + B->name() + "'");
      if (I.opcode() == Opcode::Const && !I.getOperand(0).isImm())
        return failVerify(Error, "'const' with a variable operand");
      if (I.isCopy() && !I.getOperand(0).isVar())
        return failVerify(Error, "'copy' with an immediate operand");
      if (I.opcode() == Opcode::Reload &&
          (!I.getOperand(0).isImm() || I.getOperand(0).getImm() < 0))
        return failVerify(Error, "'reload' slot must be a non-negative "
                                 "immediate");
      if (I.opcode() == Opcode::Spill) {
        if (!I.getOperand(0).isVar())
          return failVerify(Error, "'spill' value must be a variable");
        if (!I.getOperand(1).isImm() || I.getOperand(1).getImm() < 0)
          return failVerify(Error, "'spill' slot must be a non-negative "
                                   "immediate");
      }
      return true;
    };
    for (const auto &I : B->phis())
      if (!CheckInst(*I))
        return false;
    for (const auto &I : B->insts())
      if (!CheckInst(*I))
        return false;
  }

  // Reachability: every block must be reachable from the entry.
  std::vector<bool> Reached(F.numBlocks(), false);
  std::vector<const BasicBlock *> Work{F.entry()};
  Reached[F.entry()->id()] = true;
  while (!Work.empty()) {
    const BasicBlock *B = Work.back();
    Work.pop_back();
    for (BasicBlock *S : B->terminator()->successors())
      if (!Reached[S->id()]) {
        Reached[S->id()] = true;
        Work.push_back(S);
      }
  }
  for (const auto &B : F.blocks())
    if (!Reached[B->id()])
      return failVerify(Error, "block '" + B->name() + "' is unreachable");

  return true;
}

std::vector<const Variable *> fcc::findNonStrictVariables(const Function &F) {
  // A use no definition covers on some path from the entry is live into the
  // entry, and only such a use is; parameters are defined there. A dense
  // solve, because input code may define a name many times, over only the
  // upward-exposed names, because no other name is live anywhere.
  std::vector<const Variable *> Result;
  UpwardExposedLiveness(F).forEachLiveIn(F.entry(), [&](unsigned Id) {
    if (!F.isParam(F.variable(Id)))
      Result.push_back(F.variable(Id));
  });
  return Result;
}

bool fcc::isStrict(const Function &F) {
  return findNonStrictVariables(F).empty();
}

InputFault fcc::checkCompileInput(const Function &F, std::string &Error) {
  if (!verifyFunction(F, Error)) {
    Error = "@" + F.name() + ": " + Error;
    return InputFault::Invalid;
  }
  if (F.phiCount() != 0) {
    Error = "@" + F.name() +
            ": input has phis; compiles start from phi-free code";
    return InputFault::Invalid;
  }
  if (!isStrict(F)) {
    Error = "@" + F.name() +
            " is not strict (a use may precede every definition)";
    return InputFault::NotStrict;
  }
  return InputFault::None;
}

unsigned fcc::enforceStrictness(Function &F) {
  std::vector<const Variable *> Bad = findNonStrictVariables(F);
  BasicBlock *Entry = F.entry();
  unsigned Inserted = 0;
  for (const Variable *V : Bad) {
    Entry->insertAt(Inserted++,
                    F.makeInstruction(Opcode::Const, const_cast<Variable *>(V),
                                      {Operand::imm(0)}));
  }
  return Inserted;
}
