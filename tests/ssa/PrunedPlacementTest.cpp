//===- tests/ssa/PrunedPlacementTest.cpp ----------------------------------===//
//
// The pre-SSA liveness questions — strictness (the entry's live-in set) and
// pruned phi placement (is v live into this join) — are answered by
// UpwardExposedLiveness, a dense solve over only the upward-exposed names
// (every name, when there are at most 64). Here they are checked against a
// reference that asks the full dense solve instead, Liveness(F, Dense),
// with the placement and renaming algorithm of buildSSA copied below. On
// 300 fuzzer programs, 100 generator programs of more than 64 names (where
// only the exposed names are solved), every kernel, a diamond chain and a
// large generator program, and on the mutant of each that drops the entry
// block's first definition (mostly non-strict), findNonStrictVariables
// must match the reference, and so must pruned buildSSA with copy folding
// on and off: printed code, variable table and every counter.
//
//===----------------------------------------------------------------------===//

#include "ssa/SSABuilder.h"

#include "../common/ShapeSources.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominanceFrontier.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "ir/Verifier.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace fcc;

namespace {

std::vector<const Variable *> referenceNonStrict(const Function &F) {
  std::vector<const Variable *> Result;
  Liveness(F, LivenessAlgorithm::Dense)
      .liveIn(F.entry())
      .forEach([&](unsigned Id) {
        if (!F.isParam(F.variable(Id)))
          Result.push_back(F.variable(Id));
      });
  return Result;
}

/// Pruned SSA construction as buildSSA performs it, with placement asking
/// the full dense liveness solve.
SSABuildStats referenceBuildSSA(Function &F, const DominatorTree &DT,
                                bool FoldCopies) {
  SSABuildStats Stats;
  unsigned NumOriginals = F.numVariables();
  DominanceFrontier DF(DT);
  std::vector<std::vector<BasicBlock *>> DefBlocks(NumOriginals);
  for (const auto &B : F.blocks())
    for (const auto &I : B->insts())
      if (Variable *Def = I->getDef()) {
        auto &DB = DefBlocks[Def->id()];
        if (DB.empty() || DB.back() != B.get())
          DB.push_back(B.get());
      }
  for (Variable *P : F.params()) {
    auto &DB = DefBlocks[P->id()];
    if (DB.empty() || DB.front() != F.entry())
      DB.insert(DB.begin(), F.entry());
  }

  Liveness Live(F, LivenessAlgorithm::Dense);
  std::vector<unsigned> PhiStamp(F.numBlocks(), 0);
  unsigned Generation = 0;
  for (unsigned VarId = 0; VarId != NumOriginals; ++VarId) {
    if (DefBlocks[VarId].empty())
      continue;
    Variable *V = F.variable(VarId);
    ++Generation;
    std::vector<BasicBlock *> Work = DefBlocks[VarId];
    while (!Work.empty()) {
      BasicBlock *B = Work.back();
      Work.pop_back();
      for (BasicBlock *Frontier : DF.frontier(B)) {
        if (PhiStamp[Frontier->id()] == Generation ||
            !Live.isLiveIn(Frontier, V))
          continue;
        PhiStamp[Frontier->id()] = Generation;
        std::vector<Operand> Ops(Frontier->getNumPreds(), Operand::var(V));
        Frontier->addPhi(F.makeInstruction(Opcode::Phi, V, Ops));
        ++Stats.PhisInserted;
        Work.push_back(Frontier);
      }
    }
  }

  // Renaming: a stack of current names per original, walked down the
  // dominator tree.
  std::vector<std::vector<Variable *>> Stacks(NumOriginals);
  std::vector<unsigned> Counter(NumOriginals, 0);
  for (Variable *P : F.params())
    Stacks[P->id()].push_back(P);
  auto Fresh = [&](Variable *Orig) {
    ++Stats.NamesCreated;
    return F.makeVariable(
        Orig->name() + "." + std::to_string(++Counter[Orig->id()]), Orig);
  };
  auto RewriteUse = [&](Operand &O) {
    auto &S = Stacks[O.getVar()->id()];
    if (S.empty())
      O = Operand::imm(0);
    else
      O.setVar(S.back());
  };
  // An explicit stack, not recursion: the dominator tree of a long chain
  // is as deep as the chain.
  std::vector<Variable *> Pushed;
  auto Push = [&](Variable *Orig, Variable *Name) {
    Stacks[Orig->id()].push_back(Name);
    Pushed.push_back(Orig);
  };
  auto Rename = [&](BasicBlock *B) {
    for (const auto &Phi : B->phis()) {
      Variable *Orig = Phi->getDef();
      Variable *New = Fresh(Orig);
      Phi->setDef(New);
      Push(Orig, New);
    }
    for (const auto &I : B->insts()) {
      I->forEachUse([&](Operand &O) { RewriteUse(O); });
      Variable *Def = I->getDef();
      if (!Def)
        continue;
      if (FoldCopies && I->isCopy() && I->getOperand(0).isVar()) {
        Push(Def, I->getOperand(0).getVar());
        continue;
      }
      Variable *New = Fresh(Def);
      I->setDef(New);
      Push(Def, New);
    }
    for (BasicBlock *S : B->terminator()->successors()) {
      unsigned Slot = S->predIndex(B);
      for (const auto &Phi : S->phis()) {
        Operand &O = Phi->getOperand(Slot);
        if (O.isVar() && O.getVar()->id() < NumOriginals)
          RewriteUse(O);
      }
    }
  };
  struct Frame {
    BasicBlock *B;
    size_t NextChild, PushedMark;
  };
  std::vector<Frame> Path{{F.entry(), 0, 0}};
  Rename(F.entry());
  while (!Path.empty()) {
    Frame &Top = Path.back();
    const auto &Kids = DT.children(Top.B);
    if (Top.NextChild != Kids.size()) {
      BasicBlock *Kid = Kids[Top.NextChild++];
      Path.push_back({Kid, 0, Pushed.size()});
      Rename(Kid);
      continue;
    }
    for (; Pushed.size() != Top.PushedMark; Pushed.pop_back())
      Stacks[Pushed.back()->id()].pop_back();
    Path.pop_back();
  }
  if (FoldCopies)
    for (const auto &B : F.blocks())
      Stats.CopiesFolded += B->eraseInstsIf([&](const Instruction &I) {
        return I.getDef() && I.getDef()->id() < NumOriginals;
      });
  return Stats;
}

/// Every variable's id, name and origin, one per line.
std::string variableTable(const Function &F) {
  std::string Table;
  for (unsigned Id = 0; Id != F.numVariables(); ++Id) {
    const Variable *V = F.variable(Id);
    Table += std::to_string(Id) + " " + V->name() + " " +
             (V->origin() ? std::to_string(V->origin()->id()) : "-") + "\n";
  }
  return Table;
}

/// Parses \p Text, with the entry block's first definition dropped when
/// \p Mutate is set.
std::unique_ptr<Module> parseVariant(const std::string &Text, bool Mutate) {
  auto M = parseSingleFunctionOrDie(Text);
  if (Mutate) {
    bool Dropped = false;
    M->functions()[0]->entry()->eraseInstsIf([&](const Instruction &I) {
      if (Dropped || !I.getDef())
        return false;
      return Dropped = true;
    });
  }
  return M;
}

/// Compares both pre-SSA questions against the reference on \p Text and on
/// its mutant; returns how many of the two are non-strict.
unsigned expectSameAsReference(const std::string &Text,
                               const std::string &Context) {
  unsigned NonStrict = 0;
  for (bool Mutate : {false, true}) {
    std::string Where = Context + (Mutate ? " (mutant)" : "");
    auto M = parseVariant(Text, Mutate);
    Function &F = *M->functions()[0];
    std::vector<const Variable *> Got = findNonStrictVariables(F);
    EXPECT_EQ(Got, referenceNonStrict(F)) << Where;
    NonStrict += !Got.empty();

    for (bool Fold : {false, true}) {
      auto Build = [&](bool Reference, SSABuildStats &Stats) {
        auto Copy = parseVariant(Text, Mutate);
        Function &G = *Copy->functions()[0];
        splitCriticalEdges(G);
        DominatorTree DT(G);
        SSABuildOptions Opts;
        Opts.FoldCopies = Fold;
        Stats = Reference ? referenceBuildSSA(G, DT, Fold)
                          : buildSSA(G, DT, Opts);
        return printFunction(G) + variableTable(G);
      };
      SSABuildStats Want, Have;
      std::string Expected = Build(true, Want);
      std::string Actual = Build(false, Have);
      std::string How = Where + (Fold ? ", folding" : ", no folding");
      EXPECT_EQ(Actual, Expected) << How;
      EXPECT_EQ(Have.PhisInserted, Want.PhisInserted) << How;
      EXPECT_EQ(Have.CopiesFolded, Want.CopiesFolded) << How;
      EXPECT_EQ(Have.NamesCreated, Want.NamesCreated) << How;
    }
  }
  return NonStrict;
}

TEST(PrunedPlacementTest, FuzzerProgramsAndMutantsMatchTheDenseReference) {
  unsigned NonStrict = 0;
  for (unsigned I = 0; I != 300; ++I) {
    Module M;
    generateProgram(M, "g" + std::to_string(I), fuzzerOptionsForRun(29, I));
    NonStrict += expectSameAsReference(printModule(M), "g" + std::to_string(I));
  }
  // The generator emits strict programs; most mutants are not, so the
  // non-strict path is exercised too.
  EXPECT_GE(NonStrict, 200u);
}

TEST(PrunedPlacementTest, ManyNamedProgramsAndMutantsMatchTheDenseReference) {
  // Most fuzzer programs have at most 64 names, where every name keeps a
  // slot. These have more, so only the exposed names are solved.
  unsigned NonStrict = 0, Narrowed = 0;
  for (unsigned I = 0; I != 100; ++I) {
    GeneratorOptions G = fuzzerOptionsForRun(31, I);
    G.NumVars = 70 + I % 50;
    G.SizeBudget = 80 + 2 * I;
    Module M;
    Function *F = generateProgram(M, "m" + std::to_string(I), G);
    ASSERT_GT(F->numVariables(), 64u);
    Narrowed += UpwardExposedLiveness(*F).numSlots() < F->numVariables();
    NonStrict += expectSameAsReference(printModule(M), F->name());
  }
  EXPECT_GE(Narrowed, 90u);
  EXPECT_GE(NonStrict, 50u);
}

TEST(PrunedPlacementTest, KernelsAndMutantsMatchTheDenseReference) {
  for (const RoutineSpec &Spec : kernelSuite())
    expectSameAsReference(printModule(*Spec.materialize()), Spec.Name);
}

TEST(PrunedPlacementTest, LargeShapesAndMutantsMatchTheDenseReference) {
  expectSameAsReference(testprogs::diamondChainSource(4000), "diamond chain");
  GeneratorOptions G;
  G.Seed = 5;
  G.SizeBudget = 1000;
  G.NumVars = 24 + G.SizeBudget / 8;
  G.NumParams = 3;
  G.MaxLoopDepth = 3;
  G.CopyPercent = 20;
  G.RunLength = 6;
  Module M;
  generateProgram(M, "gen1000", G);
  expectSameAsReference(printModule(M), "gen1000");
}

} // namespace
