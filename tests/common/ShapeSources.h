//===- tests/common/ShapeSources.h - Textual IR at scale --------*- C++ -*-===//
///
/// \file
/// Textual-IR generators for shape tests (deep block chains, diamond
/// chains, fat blocks, wide joins, loop nests, if-chains) and the corpus the
/// parser's round-trip and mutation tests share.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_TESTS_COMMON_SHAPESOURCES_H
#define FCC_TESTS_COMMON_SHAPESOURCES_H

#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "support/SplitMix64.h"
#include "workload/ProgramGenerator.h"
#include <string>
#include <vector>

namespace fcc::testprogs {

/// A straight chain of \p Depth `br`-only blocks between an entry that
/// defines %x and a tail that returns 2 * (%a + 1); the middle block folds a
/// copy, so renaming has a name to push and a copy to erase deep down.
inline std::string chainSource(unsigned Depth) {
  std::string Text = "func @chain(%a) {\nentry:\n  %x = add %a, 1\n  br b0\n";
  for (unsigned I = 0; I != Depth; ++I) {
    Text += "b" + std::to_string(I) + ":\n";
    if (I == Depth / 2)
      Text += "  %y = copy %x\n";
    Text += I + 1 == Depth ? std::string("  %r = add %x, %y\n  ret %r\n")
                           : "  br b" + std::to_string(I + 1) + "\n";
  }
  return Text + "}\n";
}

/// One block of \p Statements seeded statements over 24 variables, half of
/// them copies, ending in a sum of every variable.
inline std::string fatBlockSource(unsigned Statements, uint64_t Seed) {
  static const char *Arith[] = {"add", "sub", "mul"};
  const unsigned Vars = 24;
  auto Var = [](uint64_t I) { return "%v" + std::to_string(I); };
  SplitMix64 Rng(Seed);
  std::string Text = "func @fat(%a) {\nentry:\n";
  for (unsigned I = 0; I != Vars; ++I)
    Text += "  " + Var(I) + " = add %a, " + std::to_string(I) + "\n";
  for (unsigned I = 0; I != Statements; ++I) {
    std::string Dst = Var(Rng.nextBelow(Vars));
    std::string Src = Var(Rng.nextBelow(Vars));
    if (Rng.chancePercent(50)) {
      Text += "  " + Dst + " = copy " + Src + "\n";
      continue;
    }
    const char *Op = Arith[Rng.nextBelow(3)];
    Text += "  " + Dst + " = " + Op + " " + Src + ", " +
            Var(Rng.nextBelow(Vars)) + "\n";
  }
  Text += "  %sum = add %v0, %v1\n";
  for (unsigned I = 2; I != Vars; ++I)
    Text += "  %sum = add %sum, " + Var(I) + "\n";
  return Text + "  ret %sum\n}\n";
}

/// A chain of about \p Blocks blocks over 24 variables and three
/// parameters: each link defines one variable from two others and copies it
/// into a third, and every eighth link is a diamond whose arms redefine one
/// variable, branching on a fresh temporary. Names grow with the blocks
/// (one temporary per diamond), so anything that stores blocks x names
/// grows quadratically here.
inline std::string diamondChainSource(unsigned Blocks, uint64_t Seed = 1) {
  static const char *Arith[] = {"add", "sub", "mul"};
  const unsigned Vars = 24;
  auto Var = [](uint64_t I) { return "%v" + std::to_string(I); };
  auto Link = [](unsigned I) { return "c" + std::to_string(I); };
  SplitMix64 Rng(Seed);
  std::string Text = "func @dchain(%p0, %p1, %p2) {\nentry:\n";
  for (unsigned I = 0; I != Vars; ++I)
    Text += "  " + Var(I) + " = add %p" + std::to_string(I % 3) + ", " +
            std::to_string(I) + "\n";
  Text += "  br " + Link(0) + "\n";
  unsigned Links = 0;
  for (unsigned Made = 0; Made < Blocks; ++Links) {
    std::string L = Link(Links), Next = Link(Links + 1);
    std::string A = Var(Rng.nextBelow(Vars)), B = Var(Rng.nextBelow(Vars));
    std::string D = Var(Rng.nextBelow(Vars));
    Text += L + ":\n";
    if (Links % 8 == 7) {
      std::string T = "%t" + std::to_string(Links);
      Text += "  " + T + " = cmplt " + A + ", " + B + "\n";
      Text += "  cbr " + T + ", " + L + "l, " + L + "r\n";
      Text += L + "l:\n  " + D + " = add " + A + ", 1\n  br " + Next + "\n";
      Text += L + "r:\n  " + D + " = sub " + B + ", 1\n  br " + Next + "\n";
      Made += 3;
      continue;
    }
    Text += "  " + D + " = " + Arith[Rng.nextBelow(3)] + " " + A + ", " + B +
            "\n";
    Text += "  " + Var(Rng.nextBelow(Vars)) + " = copy " + D + "\n";
    Text += "  br " + Next + "\n";
    ++Made;
  }
  Text += Link(Links) + ":\n  %sum0 = add " + Var(0) + ", " + Var(1) + "\n";
  for (unsigned I = 2; I != Vars; ++I)
    Text += "  %sum" + std::to_string(I - 1) + " = add %sum" +
            std::to_string(I - 2) + ", " + Var(I) + "\n";
  return Text + "  ret %sum" + std::to_string(Vars - 2) + "\n}\n";
}

/// \p Arms arms of a compare ladder joining one block, like a lowered
/// switch: `dk` branches to arm `ak` when %p < k and on to `d(k+1)`
/// otherwise, each arm defines %x and jumps to `join`, and the last rung
/// falls through to its own arm.
inline std::string wideJoinSource(unsigned Arms) {
  std::string Text = "func @wide(%p) {\nentry:\n  br d0\n";
  for (unsigned K = 0; K != Arms; ++K) {
    std::string N = std::to_string(K);
    Text += "d" + N + ":\n";
    if (K + 1 != Arms)
      Text += "  %c" + N + " = cmplt %p, " + N + "\n  cbr %c" + N + ", a" +
              N + ", d" + std::to_string(K + 1) + "\n";
    else
      Text += "  br a" + N + "\n";
    Text += "a" + N + ":\n  %x = add %p, " + N + "\n  br join\n";
  }
  return Text + "join:\n  ret %x\n}\n";
}

/// \p Depth natural loops nested in one another: header `hk` tests %x
/// against %p and enters body `bk` or leaves to exit `ek`; `bk` enters the
/// next loop, the innermost body bumps %x and loops back, and each exit
/// bumps %x and returns to the enclosing header (`e0` returns %x).
inline std::string loopNestSource(unsigned Depth) {
  std::string Text = "func @nest(%p) {\nentry:\n  %x = add %p, 0\n  br h0\n";
  for (unsigned K = 0; K != Depth; ++K) {
    std::string N = std::to_string(K);
    Text += "h" + N + ":\n  %t" + N + " = cmplt %x, %p\n  cbr %t" + N +
            ", b" + N + ", e" + N + "\nb" + N + ":\n";
    Text += K + 1 == Depth
                ? "  %x = add %x, 1\n  br h" + N + "\n"
                : "  br h" + std::to_string(K + 1) + "\n";
  }
  for (unsigned K = Depth; K-- > 0;)
    Text += "e" + std::to_string(K) + ":\n  %x = add %x, 1\n" +
            (K == 0 ? std::string("  ret %x\n")
                    : "  br h" + std::to_string(K - 1) + "\n");
  return Text + "}\n";
}

/// \p Ifs one-armed ifs in a row: block `ck` tests %x against %p and
/// branches to `ckl`, which bumps %x, or to `ckr`, which only branches on;
/// both go to `c(k+1)`, and the last block returns %x.
inline std::string ifChainSource(unsigned Ifs) {
  std::string Text =
      "func @ifchain(%p) {\nentry:\n  %x = add %p, 0\n  br c0\n";
  for (unsigned K = 0; K != Ifs; ++K) {
    std::string C = "c" + std::to_string(K);
    std::string Next = "c" + std::to_string(K + 1);
    Text += C + ":\n  %t" + std::to_string(K) + " = cmplt %x, %p\n  cbr %t" +
            std::to_string(K) + ", " + C + "l, " + C + "r\n";
    Text += C + "l:\n  %x = add %x, 1\n  br " + Next + "\n";
    Text += C + "r:\n  br " + Next + "\n";
  }
  return Text + "c" + std::to_string(Ifs) + ":\n  ret %x\n}\n";
}

/// The parser's property corpus: 300 printed generator programs (the
/// fuzzer's knob sweep), a 400-block chain and a 2 000-statement block.
inline std::vector<std::string> parserCorpus() {
  std::vector<std::string> Texts;
  for (unsigned I = 0; I != 300; ++I) {
    Module M;
    generateProgram(M, "g" + std::to_string(I), fuzzerOptionsForRun(29, I));
    Texts.push_back(printModule(M));
  }
  Texts.push_back(chainSource(400));
  Texts.push_back(fatBlockSource(2000, 5));
  return Texts;
}

} // namespace fcc::testprogs

#endif // FCC_TESTS_COMMON_SHAPESOURCES_H
