//===- analysis/CFGUtils.cpp ----------------------------------------------===//

#include "analysis/CFGUtils.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"

using namespace fcc;

bool fcc::isCriticalEdge(const BasicBlock *From, const BasicBlock *To) {
  return From->terminator()->getNumSuccessors() > 1 && To->getNumPreds() > 1;
}

unsigned fcc::splitCriticalEdges(Function &F) {
  // Collect first: splitting adds blocks while we scan.
  std::vector<std::pair<BasicBlock *, BasicBlock *>> Critical;
  for (const auto &B : F.blocks())
    for (BasicBlock *S : B->terminator()->successors())
      if (isCriticalEdge(B.get(), S))
        Critical.push_back({B.get(), S});

  for (auto [From, To] : Critical) {
    BasicBlock *Mid = F.makeBlock(From->name() + "." + To->name() + ".crit");
    Mid->append(F.makeInstruction(Opcode::Br, nullptr, {}, {To}));
    // Retarget the branch and splice the predecessor lists. Phi operand
    // slots in To are positional, so rewriting the pred entry in place keeps
    // them aligned.
    Instruction *Term = From->terminator();
    for (unsigned I = 0, E = Term->getNumSuccessors(); I != E; ++I)
      if (Term->getSuccessor(I) == To)
        Term->setSuccessor(I, Mid);
    To->replacePred(From, Mid);
    F.addPredEdge(Mid, From);
  }
  return static_cast<unsigned>(Critical.size());
}

bool fcc::hasCriticalEdges(const Function &F) {
  for (const auto &B : F.blocks())
    for (BasicBlock *S : B->terminator()->successors())
      if (isCriticalEdge(B.get(), S))
        return true;
  return false;
}
