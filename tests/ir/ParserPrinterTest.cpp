//===- tests/ir/ParserPrinterTest.cpp -------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"

#include "../common/TestPrograms.h"
#include "ir/BasicBlock.h"
#include "ir/Variable.h"
#include <gtest/gtest.h>

#include <cstdint>

using namespace fcc;

namespace {

std::unique_ptr<Module> parseOk(const char *Text) {
  std::string Error;
  auto M = parseModule(Text, Error);
  EXPECT_NE(M, nullptr) << Error;
  return M;
}

void expectParseError(const char *Text, const char *Fragment) {
  std::string Error;
  auto M = parseModule(Text, Error);
  EXPECT_EQ(M, nullptr) << "expected failure containing '" << Fragment << "'";
  EXPECT_NE(Error.find(Fragment), std::string::npos)
      << "got diagnostic: " << Error;
}

TEST(ParserTest, ParsesStraightLine) {
  auto M = parseOk(testprogs::StraightLine);
  ASSERT_EQ(M->size(), 1u);
  Function *F = M->functions()[0].get();
  EXPECT_EQ(F->name(), "straight");
  EXPECT_EQ(F->params().size(), 2u);
  EXPECT_EQ(F->numBlocks(), 1u);
  EXPECT_EQ(F->entry()->insts().size(), 4u);
}

TEST(ParserTest, ParsesLoopWithForwardReferences) {
  auto M = parseOk(testprogs::SumLoop);
  Function *F = M->functions()[0].get();
  EXPECT_EQ(F->numBlocks(), 4u);
  BasicBlock *Header = F->findBlock("header");
  ASSERT_NE(Header, nullptr);
  EXPECT_EQ(Header->getNumPreds(), 2u);
}

TEST(ParserTest, ParsesPhiAndAlignsWithPreds) {
  auto M = parseOk(R"(
func @f(%c) {
entry:
  %a = const 1
  %b = const 2
  cbr %c, l, r
l:
  br j
r:
  br j
j:
  %x = phi [%b, r], [%a, l]
  ret %x
}
)");
  Function *F = M->functions()[0].get();
  BasicBlock *J = F->findBlock("j");
  ASSERT_EQ(J->phis().size(), 1u);
  const Instruction &Phi = *J->phis()[0];
  // Preds are in terminator-discovery order: l first, then r.
  ASSERT_EQ(J->getNumPreds(), 2u);
  EXPECT_EQ(J->preds()[0]->name(), "l");
  EXPECT_EQ(Phi.getOperand(0).getVar()->name(), "a");
  EXPECT_EQ(Phi.getOperand(1).getVar()->name(), "b");
}

TEST(ParserTest, AcceptsCommentsAndNegativeIntegers) {
  auto M = parseOk(R"(
; leading comment
func @f() {
entry:               ; block comment
  %x = const -42     ; negative literal
  ret %x
}
)");
  Function *F = M->functions()[0].get();
  EXPECT_EQ(F->entry()->insts()[0]->getOperand(0).getImm(), -42);
}

TEST(ParserTest, IntegerLiteralsCoverInt64AndNoMore) {
  auto M = parseOk(R"(
func @f() {
entry:
  %max = const 9223372036854775807
  %min = const -9223372036854775808
  store %max, %min
  ret %min
}
)");
  const BasicBlock *B = M->functions()[0]->entry();
  EXPECT_EQ(B->insts()[0]->getOperand(0).getImm(), INT64_MAX);
  EXPECT_EQ(B->insts()[1]->getOperand(0).getImm(), INT64_MIN);

  for (const char *Literal : {"9223372036854775808", "-9223372036854775809"}) {
    std::string Text = "func @f() {\nentry:\n  %x = const 1\n  ret ";
    Text += Literal;
    Text += "\n}\n";
    std::string Error;
    EXPECT_EQ(parseModule(Text, Error), nullptr) << Literal;
    EXPECT_EQ(Error, "line 4: integer literal out of range") << Literal;
  }
}

TEST(ParserTest, ParsesMultipleFunctions) {
  auto M = parseOk(R"(
func @one() {
entry:
  ret 1
}
func @two() {
entry:
  ret 2
}
)");
  EXPECT_EQ(M->size(), 2u);
  EXPECT_NE(M->findFunction("one"), nullptr);
  EXPECT_NE(M->findFunction("two"), nullptr);
  EXPECT_EQ(M->findFunction("three"), nullptr);
}

TEST(ParserTest, VariablesAreSharedWithinAFunction) {
  auto M = parseOk(testprogs::SumLoop);
  Function *F = M->functions()[0].get();
  // %i appears in entry, header condition, and body; one Variable object.
  unsigned Count = 0;
  for (const auto &V : F->variables())
    if (V->name() == "i")
      ++Count;
  EXPECT_EQ(Count, 1u);
}

TEST(ParserTest, RejectsUnknownOpcode) {
  expectParseError(R"(
func @f() {
entry:
  %x = frobnicate 1, 2
  ret %x
}
)", "unknown value opcode");
}

TEST(ParserTest, RejectsMissingTerminator) {
  expectParseError(R"(
func @f() {
entry:
  %x = const 1
}
)", "lacks a terminator");
}

TEST(ParserTest, RejectsStatementAfterTerminator) {
  expectParseError(R"(
func @f() {
entry:
  ret 1
  %x = const 2
}
)", "after terminator");
}

TEST(ParserTest, RejectsUnknownLabel) {
  expectParseError(R"(
func @f() {
entry:
  br nowhere
}
)", "unknown block label");
}

TEST(ParserTest, RejectsDuplicateLabel) {
  expectParseError(R"(
func @f() {
entry:
  br entry2
entry2:
  ret 1
entry2:
  ret 2
}
)", "duplicate label");
}

TEST(ParserTest, RejectsPhiPredMismatch) {
  expectParseError(R"(
func @f(%c) {
entry:
  cbr %c, l, r
l:
  br j
r:
  br j
j:
  %x = phi [1, l]
  ret %x
}
)", "incoming values");
}

TEST(ParserTest, RejectsPhiFromNonPredecessor) {
  expectParseError(R"(
func @f(%c) {
entry:
  cbr %c, l, r
l:
  br j
r:
  br j
j:
  %x = phi [1, l], [2, entry]
  ret %x
}
)", "not a predecessor");
}

TEST(ParserTest, RejectsIdenticalCbrTargets) {
  expectParseError(R"(
func @f(%c) {
entry:
  cbr %c, next, next
next:
  ret 1
}
)", "must be distinct");
}

TEST(ParserTest, RejectsCopyOfImmediate) {
  expectParseError(R"(
func @f() {
entry:
  %x = copy 5
  ret %x
}
)", "'copy' source must be a variable");
}

TEST(ParserTest, RejectsConstOfVariable) {
  expectParseError(R"(
func @f(%a) {
entry:
  %x = const %a
  ret %x
}
)", "integer literal");
}

TEST(ParserTest, RejectsDuplicateParameter) {
  expectParseError(R"(
func @f(%a, %a) {
entry:
  ret %a
}
)", "duplicate parameter");
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  std::string Error;
  auto M = parseModule("func @f() {\nentry:\n  %x = bogus 1\n  ret %x\n}\n",
                       Error);
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
}

class RoundTripTest : public ::testing::TestWithParam<const char *> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  auto M1 = parseOk(GetParam());
  std::string P1 = printModule(*M1);
  std::string Error;
  auto M2 = parseModule(P1, Error);
  ASSERT_NE(M2, nullptr) << Error;
  EXPECT_EQ(printModule(*M2), P1);
}

INSTANTIATE_TEST_SUITE_P(Programs, RoundTripTest,
                         ::testing::Values(testprogs::StraightLine,
                                           testprogs::SumLoop,
                                           testprogs::Diamond,
                                           testprogs::VirtualSwap,
                                           testprogs::SwapLoop,
                                           testprogs::LostCopy,
                                           testprogs::ArraySum,
                                           testprogs::NestedLoops));

} // namespace
