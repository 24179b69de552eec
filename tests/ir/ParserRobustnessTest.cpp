//===- tests/ir/ParserRobustnessTest.cpp ----------------------------------===//
//
// The parser must reject arbitrary mutations of valid programs with a
// diagnostic — never crash, never accept garbage that then trips asserts
// downstream. Classic fuzz-shaped property test with deterministic seeds.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "../common/ShapeSources.h"
#include "../common/TestPrograms.h"
#include "ir/Function.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/SplitMix64.h"
#include <gtest/gtest.h>

#include <algorithm>

using namespace fcc;

namespace {

const char *Corpus[] = {testprogs::SumLoop, testprogs::Diamond,
                        testprogs::VirtualSwap, testprogs::NestedLoops,
                        testprogs::ArraySum};

class ParserMutationTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParserMutationTest, MutatedSourcesNeverCrashTheParser) {
  SplitMix64 Rng(GetParam());
  std::string Base = Corpus[Rng.nextBelow(std::size(Corpus))];

  for (int Trial = 0; Trial != 40; ++Trial) {
    std::string Text = Base;
    unsigned Mutations = 1 + static_cast<unsigned>(Rng.nextBelow(4));
    for (unsigned I = 0; I != Mutations; ++I) {
      size_t Pos = Rng.nextBelow(Text.size());
      switch (Rng.nextBelow(4)) {
      case 0: // Delete a character.
        Text.erase(Pos, 1);
        break;
      case 1: // Duplicate a character.
        Text.insert(Pos, 1, Text[Pos]);
        break;
      case 2: // Replace with a random printable character.
        Text[Pos] = static_cast<char>(' ' + Rng.nextBelow(95));
        break;
      case 3: // Swap two characters.
        std::swap(Text[Pos], Text[Rng.nextBelow(Text.size())]);
        break;
      }
    }

    std::string Error;
    std::unique_ptr<Module> M = parseModule(Text, Error);
    if (!M) {
      EXPECT_FALSE(Error.empty()) << "rejections must carry a diagnostic";
      continue;
    }
    // If the mutation still parses, it must be a well-formed program the
    // rest of the system can safely consume.
    for (const auto &F : M->functions()) {
      std::string VerifyError;
      if (verifyFunction(*F, VerifyError)) {
        // And printing must round-trip without losing it.
        std::string Printed = printFunction(*F);
        std::unique_ptr<Module> M2 = parseModule(Printed, VerifyError);
        EXPECT_NE(M2, nullptr) << VerifyError;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserMutationTest, ::testing::Range(1u, 21u));

/// True for "line N: <message>" with N a line of \p Text (or one past its
/// end, where the end-of-input token sits).
bool hasLinePrefix(const std::string &Error, const std::string &Text) {
  size_t Colon = Error.find(": ");
  if (Error.rfind("line ", 0) != 0 || Colon == std::string::npos ||
      Colon == 5 || Colon + 2 == Error.size())
    return false;
  unsigned long Line = 0;
  for (size_t I = 5; I != Colon; ++I) {
    if (Error[I] < '0' || Error[I] > '9')
      return false;
    Line = Line * 10 + (Error[I] - '0');
  }
  return Line >= 1 &&
         Line <= 1 + static_cast<unsigned long>(
                         std::count(Text.begin(), Text.end(), '\n'));
}

/// Whether \p Error is the one diagnostic without a line: a block that ends
/// without a terminator.
bool isMissingTerminator(const std::string &Error) {
  return Error.rfind("block '", 0) == 0 &&
         Error.find("' lacks a terminator") != std::string::npos;
}

TEST(ParserMutationSweepTest, EveryRejectionIsALineNumberedDiagnostic) {
  // Truncations, byte deletions, substitutions from the grammar's own
  // characters and 20-digit literals, over the round-trip corpus.
  const std::string Subst = "%@:,=[](){}-0a; \n";
  const char *Literals[] = {"99999999999999999999", "-99999999999999999999",
                            "18446744073709551616", "10000000000000000000"};
  SplitMix64 Rng(41);
  unsigned Rejected = 0, Total = 0;
  for (const std::string &Base : testprogs::parserCorpus()) {
    for (unsigned Kind = 0; Kind != 8; ++Kind) {
      std::string Text = Base;
      size_t Pos = Rng.nextBelow(Text.size());
      switch (Kind % 4) {
      case 0:
        Text.resize(Pos);
        break;
      case 1:
        Text.erase(Pos, 1 + Rng.nextBelow(3));
        break;
      case 2:
        Text[Pos] = Subst[Rng.nextBelow(Subst.size())];
        break;
      case 3:
        Text.insert(Pos, Literals[Rng.nextBelow(std::size(Literals))]);
        break;
      }
      ++Total;
      std::string Error;
      std::unique_ptr<Module> M;
      EXPECT_NO_THROW(M = parseModule(Text, Error)) << Text;
      if (M)
        continue;
      ++Rejected;
      EXPECT_FALSE(Error.empty()) << Text;
      EXPECT_TRUE(isMissingTerminator(Error) || hasLinePrefix(Error, Text))
          << Error;
    }
  }
  // Most mutants break the program; the sweep must exercise rejections.
  EXPECT_GT(Rejected, Total / 2);
}

TEST(ParserRobustnessTest, EmptyAndWhitespaceInputs) {
  std::string Error;
  auto M1 = parseModule("", Error);
  ASSERT_NE(M1, nullptr);
  EXPECT_EQ(M1->size(), 0u);
  auto M2 = parseModule("   \n\t ; only a comment\n", Error);
  ASSERT_NE(M2, nullptr);
  EXPECT_EQ(M2->size(), 0u);
}

TEST(ParserRobustnessTest, TruncatedInputsAreRejected) {
  const std::string Full = testprogs::SumLoop;
  for (size_t Len : {5ul, 20ul, 50ul, 100ul, Full.size() - 2}) {
    std::string Error;
    auto M = parseModule(Full.substr(0, Len), Error);
    EXPECT_EQ(M, nullptr) << "prefix of length " << Len;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(ParserRobustnessTest, DeeplyNestedLabelsParse) {
  // A long chain of blocks: no recursion in the parser should overflow.
  std::string Text = "func @f() {\nb0:\n";
  for (int I = 1; I != 2000; ++I)
    Text += "  br b" + std::to_string(I) + "\nb" + std::to_string(I) + ":\n";
  Text += "  ret 0\n}\n";
  std::string Error;
  auto M = parseModule(Text, Error);
  ASSERT_NE(M, nullptr) << Error;
  EXPECT_EQ(M->functions()[0]->numBlocks(), 2000u);
}

} // namespace
