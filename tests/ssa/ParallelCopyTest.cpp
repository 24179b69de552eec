//===- tests/ssa/ParallelCopyTest.cpp -------------------------------------===//

#include "ssa/ParallelCopy.h"

#include "ir/Function.h"
#include "ir/Variable.h"
#include "support/SplitMix64.h"
#include <gtest/gtest.h>
#include <map>

using namespace fcc;

namespace {

/// Applies the emitted sequence to a register file and checks it equals the
/// parallel semantics of the original tasks.
void checkAgainstParallelSemantics(const std::vector<CopyTask> &Tasks,
                                   const SequencedCopies &Seq,
                                   const Function &F) {
  std::map<const Variable *, int64_t> Regs;
  // Give every variable a distinct initial value (temps get 0 and are never
  // read before being written, which the walk below checks).
  int64_t Next = 100;
  for (const auto &V : F.variables())
    Regs[V] = Next++;

  std::map<const Variable *, int64_t> Expected = Regs;
  for (const CopyTask &T : Tasks)
    Expected[T.Dst] = T.Src.isImm() ? T.Src.getImm() : Regs[T.Src.getVar()];

  for (const auto &I : Seq.Insts) {
    ASSERT_TRUE(I->opcode() == Opcode::Copy || I->opcode() == Opcode::Const);
    int64_t Value = I->getOperand(0).isImm()
                        ? I->getOperand(0).getImm()
                        : Regs[I->getOperand(0).getVar()];
    Regs[I->getDef()] = Value;
  }

  for (const CopyTask &T : Tasks)
    EXPECT_EQ(Regs[T.Dst], Expected[T.Dst])
        << "destination " << T.Dst->name();
}

struct PCFixture {
  Function F{"pc"};
  unsigned TempCounter = 0;
  std::vector<Variable *> Vars;

  PCFixture(unsigned N) {
    for (unsigned I = 0; I != N; ++I)
      Vars.push_back(F.makeVariable("v" + std::to_string(I)));
  }

  SequencedCopies seq(const std::vector<CopyTask> &Tasks) {
    return sequentializeParallelCopy(Tasks, F, TempCounter);
  }
};

TEST(ParallelCopyTest, EmptyProducesNothing) {
  PCFixture Fx(0);
  SequencedCopies Seq = Fx.seq({});
  EXPECT_TRUE(Seq.Insts.empty());
  EXPECT_EQ(Seq.TempsUsed, 0u);
}

TEST(ParallelCopyTest, SingleCopy) {
  PCFixture Fx(2);
  std::vector<CopyTask> Tasks = {{Fx.Vars[0], Operand::var(Fx.Vars[1])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  ASSERT_EQ(Seq.Insts.size(), 1u);
  EXPECT_EQ(Seq.TempsUsed, 0u);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

TEST(ParallelCopyTest, SelfCopyIsDropped) {
  PCFixture Fx(1);
  std::vector<CopyTask> Tasks = {{Fx.Vars[0], Operand::var(Fx.Vars[0])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  EXPECT_TRUE(Seq.Insts.empty());
}

TEST(ParallelCopyTest, ChainEmitsLeafFirst) {
  PCFixture Fx(3);
  // {v1 <- v0, v2 <- v1}: v2 must be written before v1.
  std::vector<CopyTask> Tasks = {{Fx.Vars[1], Operand::var(Fx.Vars[0])},
                                 {Fx.Vars[2], Operand::var(Fx.Vars[1])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  ASSERT_EQ(Seq.Insts.size(), 2u);
  EXPECT_EQ(Seq.TempsUsed, 0u);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

TEST(ParallelCopyTest, SwapUsesOneTemp) {
  PCFixture Fx(2);
  std::vector<CopyTask> Tasks = {{Fx.Vars[0], Operand::var(Fx.Vars[1])},
                                 {Fx.Vars[1], Operand::var(Fx.Vars[0])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  EXPECT_EQ(Seq.TempsUsed, 1u);
  EXPECT_EQ(Seq.Insts.size(), 3u);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

TEST(ParallelCopyTest, ThreeCycleUsesOneTemp) {
  PCFixture Fx(3);
  std::vector<CopyTask> Tasks = {{Fx.Vars[0], Operand::var(Fx.Vars[1])},
                                 {Fx.Vars[1], Operand::var(Fx.Vars[2])},
                                 {Fx.Vars[2], Operand::var(Fx.Vars[0])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  EXPECT_EQ(Seq.TempsUsed, 1u);
  EXPECT_EQ(Seq.Insts.size(), 4u);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

TEST(ParallelCopyTest, FanOutNeedsNoTemp) {
  PCFixture Fx(4);
  std::vector<CopyTask> Tasks = {{Fx.Vars[1], Operand::var(Fx.Vars[0])},
                                 {Fx.Vars[2], Operand::var(Fx.Vars[0])},
                                 {Fx.Vars[3], Operand::var(Fx.Vars[0])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  EXPECT_EQ(Seq.TempsUsed, 0u);
  EXPECT_EQ(Seq.Insts.size(), 3u);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

TEST(ParallelCopyTest, ImmediateLoadsComeAfterReads) {
  PCFixture Fx(2);
  // {v0 <- 7, v1 <- v0}: v1 must read v0's OLD value, so the const goes last.
  std::vector<CopyTask> Tasks = {{Fx.Vars[0], Operand::imm(7)},
                                 {Fx.Vars[1], Operand::var(Fx.Vars[0])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  ASSERT_EQ(Seq.Insts.size(), 2u);
  EXPECT_EQ(Seq.Insts[0]->opcode(), Opcode::Copy);
  EXPECT_EQ(Seq.Insts[1]->opcode(), Opcode::Const);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

TEST(ParallelCopyTest, TwoIndependentSwaps) {
  PCFixture Fx(4);
  std::vector<CopyTask> Tasks = {{Fx.Vars[0], Operand::var(Fx.Vars[1])},
                                 {Fx.Vars[1], Operand::var(Fx.Vars[0])},
                                 {Fx.Vars[2], Operand::var(Fx.Vars[3])},
                                 {Fx.Vars[3], Operand::var(Fx.Vars[2])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  EXPECT_EQ(Seq.TempsUsed, 2u);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

TEST(ParallelCopyTest, CycleWithTail) {
  PCFixture Fx(4);
  // Cycle v0<->v1 plus tail v2 <- v0, v3 <- v1.
  std::vector<CopyTask> Tasks = {{Fx.Vars[0], Operand::var(Fx.Vars[1])},
                                 {Fx.Vars[1], Operand::var(Fx.Vars[0])},
                                 {Fx.Vars[2], Operand::var(Fx.Vars[0])},
                                 {Fx.Vars[3], Operand::var(Fx.Vars[1])}};
  SequencedCopies Seq = Fx.seq(Tasks);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

class RandomParallelCopyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomParallelCopyTest, RandomPermutationsAndMappings) {
  SplitMix64 Rng(GetParam());
  constexpr unsigned N = 12;
  PCFixture Fx(N);
  // Random function from destinations to sources (or immediates).
  std::vector<CopyTask> Tasks;
  for (unsigned D = 0; D != N; ++D) {
    if (Rng.chancePercent(30))
      continue; // Not every variable is a destination.
    if (Rng.chancePercent(15)) {
      Tasks.push_back({Fx.Vars[D], Operand::imm(Rng.nextInRange(-9, 9))});
      continue;
    }
    Tasks.push_back(
        {Fx.Vars[D],
         Operand::var(Fx.Vars[static_cast<unsigned>(Rng.nextBelow(N))])});
  }
  SequencedCopies Seq = Fx.seq(Tasks);
  checkAgainstParallelSemantics(Tasks, Seq, Fx.F);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomParallelCopyTest,
                         ::testing::Range(1u, 41u));

} // namespace
