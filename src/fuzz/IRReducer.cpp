//===- fuzz/IRReducer.cpp -------------------------------------------------===//

#include "fuzz/IRReducer.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Variable.h"

#include <cassert>
#include <memory>
#include <vector>

using namespace fcc;

namespace {

/// Prints \p M keeping only the blocks of each function that \p Keep marks
/// (indexed by function, then block). Callers guarantee no kept block
/// branches to a dropped one and that kept functions are phi-free when
/// blocks were dropped.
std::string printModuleKeeping(const Module &M,
                               const std::vector<std::vector<bool>> &Keep) {
  std::string Out;
  for (unsigned FI = 0; FI != M.size(); ++FI) {
    const Function &F = *M.functions()[FI];
    Out += "func @" + F.name() + "(";
    bool First = true;
    for (const Variable *P : F.params()) {
      if (!First)
        Out += ", ";
      First = false;
      Out += '%';
      Out += P->name();
    }
    Out += ") {\n";
    for (unsigned BI = 0; BI != F.numBlocks(); ++BI) {
      if (!Keep[FI][BI])
        continue;
      const BasicBlock &B = *F.block(BI);
      Out += B.name();
      Out += ":\n";
      for (const auto &I : B.phis()) {
        Out += "  ";
        Out += printInstruction(*I);
        Out += '\n';
      }
      for (const auto &I : B.insts()) {
        Out += "  ";
        Out += printInstruction(*I);
        Out += '\n';
      }
    }
    Out += "}\n\n";
  }
  return Out;
}

/// Marks the blocks of \p F reachable from the entry via terminators.
std::vector<bool> reachableBlocks(const Function &F) {
  std::vector<bool> Seen(F.numBlocks(), false);
  std::vector<const BasicBlock *> Stack{F.entry()};
  Seen[F.entry()->id()] = true;
  while (!Stack.empty()) {
    const BasicBlock *B = Stack.back();
    Stack.pop_back();
    for (const BasicBlock *S : B->succs())
      if (!Seen[S->id()]) {
        Seen[S->id()] = true;
        Stack.push_back(S);
      }
  }
  return Seen;
}

std::vector<std::vector<bool>> keepEverything(const Module &M) {
  std::vector<std::vector<bool>> Keep;
  for (const auto &F : M.functions())
    Keep.emplace_back(F->numBlocks(), true);
  return Keep;
}

/// Shared sweep state: the current best candidate and global budgets.
struct Reduction {
  std::string Best;
  const ReducerPredicate &StillFails;
  ReductionStats &Stats;
  const ReducerOptions &Opts;

  bool budgetLeft() const {
    return Stats.CandidatesTried < Opts.MaxCandidates;
  }

  /// Evaluates one candidate; adopts it when it still fails.
  bool tryCandidate(std::string Candidate) {
    ++Stats.CandidatesTried;
    if (!StillFails(Candidate))
      return false;
    Best = std::move(Candidate);
    return true;
  }
};

/// Replaces each conditional branch by one of its sides, dropping whatever
/// becomes unreachable. Linear sweep; on acceptance the module is re-parsed
/// and the sweep continues at the same indices.
bool sweepBranches(Reduction &R) {
  bool Progress = false;
  unsigned FI = 0, BI = 0, Side = 0;
  while (R.budgetLeft()) {
    std::string Error;
    std::unique_ptr<Module> M = parseModule(R.Best, Error);
    assert(M && "best candidate must stay parseable");
    if (FI >= M->size())
      break;
    Function &F = *M->functions()[FI];
    if (F.phiCount() != 0 || BI >= F.numBlocks()) {
      ++FI;
      BI = Side = 0;
      continue;
    }
    BasicBlock &B = *F.block(BI);
    if (!B.hasTerminator() ||
        B.terminator()->opcode() != Opcode::CondBr || Side >= 2) {
      Side = 0;
      ++BI;
      continue;
    }
    BasicBlock *Target = B.terminator()->getSuccessor(Side);
    B.eraseInst(B.terminator());
    B.append(F.makeInstruction(Opcode::Br, nullptr, {}, {Target}));
    auto Keep = keepEverything(*M);
    Keep[FI] = reachableBlocks(F);
    if (R.tryCandidate(printModuleKeeping(*M, Keep))) {
      Progress = true;
      Side = 0; // The block now ends in Br; the sweep advances past it.
    } else {
      ++Side;
    }
  }
  return Progress;
}

/// Deletes non-terminator statements one at a time. On acceptance the same
/// index now names the following instruction, so the sweep stays linear.
bool sweepDeletions(Reduction &R) {
  bool Progress = false;
  unsigned FI = 0, BI = 0, II = 0;
  while (R.budgetLeft()) {
    std::string Error;
    std::unique_ptr<Module> M = parseModule(R.Best, Error);
    assert(M && "best candidate must stay parseable");
    if (FI >= M->size())
      break;
    Function &F = *M->functions()[FI];
    if (BI >= F.numBlocks()) {
      ++FI;
      BI = II = 0;
      continue;
    }
    BasicBlock &B = *F.block(BI);
    if (II >= B.size()) {
      II = 0;
      ++BI;
      continue;
    }
    Instruction *I = B.insts()[II];
    if (I->isTerminator()) {
      ++II;
      continue;
    }
    B.eraseInst(I);
    if (R.tryCandidate(printModuleKeeping(*M, keepEverything(*M))))
      Progress = true; // Same index now points at the next instruction.
    else
      ++II;
  }
  return Progress;
}

/// Halves immediates toward zero (|v| > 1), which lowers loop trip counts
/// and shrinks constants; repeated rounds converge to 0 or 1.
bool sweepImmediates(Reduction &R) {
  bool Progress = false;
  unsigned FI = 0, BI = 0, II = 0, OI = 0;
  while (R.budgetLeft()) {
    std::string Error;
    std::unique_ptr<Module> M = parseModule(R.Best, Error);
    assert(M && "best candidate must stay parseable");
    if (FI >= M->size())
      break;
    Function &F = *M->functions()[FI];
    if (BI >= F.numBlocks()) {
      ++FI;
      BI = II = OI = 0;
      continue;
    }
    BasicBlock &B = *F.block(BI);
    if (II >= B.size()) {
      II = OI = 0;
      ++BI;
      continue;
    }
    Instruction *I = B.insts()[II];
    if (OI >= I->getNumOperands()) {
      OI = 0;
      ++II;
      continue;
    }
    Operand &O = I->getOperand(OI);
    if (!O.isImm() || (O.getImm() >= -1 && O.getImm() <= 1)) {
      ++OI;
      continue;
    }
    O = Operand::imm(O.getImm() / 2);
    if (R.tryCandidate(printModuleKeeping(*M, keepEverything(*M))))
      Progress = true; // Same operand again: keep halving while it fails.
    else
      ++OI;
  }
  return Progress;
}

void countSize(const std::string &IrText, unsigned &Blocks,
               unsigned &Insts) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(IrText, Error);
  Blocks = Insts = 0;
  if (!M)
    return;
  for (const auto &F : M->functions()) {
    Blocks += F->numBlocks();
    Insts += F->instructionCount();
  }
}

} // namespace

std::string fcc::reduceIr(const std::string &IrText,
                          const ReducerPredicate &StillFails,
                          ReductionStats &Stats,
                          const ReducerOptions &Opts) {
  Stats = ReductionStats();
  countSize(IrText, Stats.BlocksBefore, Stats.InstsBefore);
  assert(StillFails(IrText) && "input to the reducer must fail");

  Reduction R{IrText, StillFails, Stats, Opts};
  for (unsigned Round = 0; Round != Opts.MaxRounds; ++Round) {
    ++Stats.Rounds;
    bool Progress = false;
    Progress |= sweepBranches(R);
    Progress |= sweepDeletions(R);
    Progress |= sweepImmediates(R);
    if (!Progress || !R.budgetLeft())
      break;
  }
  countSize(R.Best, Stats.BlocksAfter, Stats.InstsAfter);
  return std::move(R.Best);
}
