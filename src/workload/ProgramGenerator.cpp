//===- workload/ProgramGenerator.cpp --------------------------------------===//

#include "workload/ProgramGenerator.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "ir/Verifier.h"
#include "support/SplitMix64.h"

#include <cstdio>
#include <cstdlib>

using namespace fcc;

namespace {

/// Emits structured regions into a growing CFG. The cursor (Cur) is the
/// block currently receiving statements; control constructs seal it with a
/// terminator and move the cursor to a fresh block.
class Builder {
public:
  Builder(Module &M, const std::string &Name, const GeneratorOptions &Opts)
      : Opts(Opts), Rng(Opts.Seed), F(M.makeFunction(Name)) {}

  Function *run() {
    Cur = F->makeBlock("entry");
    for (unsigned I = 0; I != Opts.NumParams; ++I) {
      Variable *P = F->makeVariable("p" + std::to_string(I));
      F->addParam(P);
      Pool.push_back(P);
    }
    // Initialize the rest of the pool so every program is strict; Section 2
    // of the paper does the same for non-strict languages.
    while (Pool.size() < Opts.NumVars) {
      Variable *V = F->makeVariable("v" + std::to_string(Pool.size()));
      emitConst(V, Rng.nextInRange(-4, 9));
      Pool.push_back(V);
    }

    region(Opts.SizeBudget, /*LoopDepth=*/0);

    // Fold a few live values into the result so late code stays relevant.
    Variable *Acc = pick();
    for (int I = 0; I != 2; ++I) {
      Variable *Sum = F->makeVariable(fresh("res"));
      append(Opcode::Add, Sum, {Operand::var(Acc), Operand::var(pick())});
      Acc = Sum;
    }
    append(Opcode::Ret, nullptr, {Operand::var(Acc)});

    F->recomputePreds();
    return F;
  }

private:
  std::string fresh(const char *Prefix) {
    return std::string(Prefix) + "_" + std::to_string(NameCounter++);
  }

  Variable *pick() {
    return Pool[static_cast<size_t>(Rng.nextBelow(Pool.size()))];
  }

  Operand pickOperand() {
    if (Rng.chancePercent(20))
      return Operand::imm(Rng.nextInRange(-3, 7));
    return Operand::var(pick());
  }

  Instruction *append(Opcode Op, Variable *Def,
                      std::initializer_list<Operand> Ops,
                      std::initializer_list<BasicBlock *> Succs = {}) {
    return Cur->append(F->makeInstruction(Op, Def, Ops, Succs));
  }

  void emitConst(Variable *Def, int64_t Value) {
    append(Opcode::Const, Def, {Operand::imm(Value)});
  }

  /// A run of plain statements over the pool.
  void statements() {
    unsigned Count = 1 + static_cast<unsigned>(Rng.nextBelow(Opts.RunLength));
    for (unsigned I = 0; I != Count; ++I) {
      unsigned Roll = static_cast<unsigned>(Rng.nextBelow(100));
      if (Roll < Opts.CopyPercent) {
        // Copies come in the three flavors real pre-optimization IR has:
        unsigned Kind = static_cast<unsigned>(Rng.nextBelow(100));
        if (Kind < 60) {
          // Naive-codegen temp move: a one-shot temporary feeding the next
          // operation. Folds away completely; every coalescer handles it.
          Variable *Tmp = F->makeVariable(fresh("t"));
          append(Opcode::Copy, Tmp, {Operand::var(pick())});
          append(Opcode::Add, pick(),
                 {Operand::var(Tmp), pickOperand()});
        } else if (Kind < 85) {
          // Pool-to-pool move (`x = y`): may entangle webs at joins.
          Variable *Src = pick();
          Variable *Dst = pick();
          if (Src != Dst)
            append(Opcode::Copy, Dst, {Operand::var(Src)});
        } else {
          // Save-before-clobber: the copy preserves the old value across a
          // redefinition and is genuinely necessary for every coalescer.
          Variable *Src = pick();
          Variable *Dst = pick();
          if (Src != Dst) {
            append(Opcode::Copy, Dst, {Operand::var(Src)});
            append(Opcode::Add, Src,
                   {Operand::var(Src), Operand::imm(Rng.nextInRange(1, 3))});
          }
        }
        continue;
      }
      if (Roll < Opts.CopyPercent + Opts.MemPercent) {
        if (Rng.chancePercent(50)) {
          append(Opcode::Store, nullptr, {pickOperand(), pickOperand()});
        } else {
          append(Opcode::Load, pick(), {pickOperand()});
        }
        continue;
      }
      static constexpr Opcode Arith[] = {Opcode::Add, Opcode::Sub,
                                         Opcode::Mul, Opcode::Div,
                                         Opcode::Mod};
      Opcode Op = Arith[Rng.nextBelow(std::size(Arith))];
      append(Op, pick(), {pickOperand(), pickOperand()});
    }
  }

  /// A sequence of Budget region items at the given loop depth.
  void region(unsigned Budget, unsigned LoopDepth) {
    while (Budget > 0) {
      unsigned Roll = static_cast<unsigned>(Rng.nextBelow(100));
      if (Roll < 40 || Budget < 2) {
        statements();
        Budget -= 1;
        continue;
      }
      if (Roll < 70 || LoopDepth >= Opts.MaxLoopDepth) {
        unsigned Inner = 1 + static_cast<unsigned>(Rng.nextBelow(Budget - 1));
        conditional(Inner, LoopDepth);
        Budget -= Inner + 1 > Budget ? Budget : Inner + 1;
        continue;
      }
      unsigned Inner = 1 + static_cast<unsigned>(Rng.nextBelow(Budget - 1));
      countedLoop(Inner, LoopDepth);
      Budget -= Inner + 1 > Budget ? Budget : Inner + 1;
    }
  }

  /// if (cmp) { then-region } [else { else-region }] — both arms optional
  /// statements so joins create phis for redefined pool variables.
  void conditional(unsigned Budget, unsigned LoopDepth) {
    Variable *Cond = F->makeVariable(fresh("c"));
    static constexpr Opcode Cmps[] = {Opcode::CmpLt, Opcode::CmpLe,
                                      Opcode::CmpEq, Opcode::CmpNe,
                                      Opcode::CmpGt, Opcode::CmpGe};
    append(Cmps[Rng.nextBelow(std::size(Cmps))], Cond,
           {Operand::var(pick()), pickOperand()});

    BasicBlock *Then = F->makeBlock(fresh("then"));
    BasicBlock *Join = F->makeBlock(fresh("join"));
    bool HasElse = Rng.chancePercent(60);
    BasicBlock *Else = HasElse ? F->makeBlock(fresh("else")) : Join;
    append(Opcode::CondBr, nullptr, {Operand::var(Cond)}, {Then, Else});

    Cur = Then;
    region(Budget / (HasElse ? 2 : 1) + 1, LoopDepth);
    append(Opcode::Br, nullptr, {}, {Join});

    if (HasElse) {
      Cur = Else;
      region(Budget / 2 + 1, LoopDepth);
      append(Opcode::Br, nullptr, {}, {Join});
    }
    Cur = Join;
  }

  /// for (lc = 0; lc < trip; ++lc) { body-region } with a dedicated counter
  /// so termination is structural.
  void countedLoop(unsigned Budget, unsigned LoopDepth) {
    Variable *Counter = F->makeVariable(fresh("lc"));
    emitConst(Counter, 0);
    int64_t Trip = Rng.nextInRange(1, Opts.LoopTripMax);

    BasicBlock *Header = F->makeBlock(fresh("head"));
    BasicBlock *Body = F->makeBlock(fresh("body"));
    BasicBlock *Exit = F->makeBlock(fresh("exit"));
    append(Opcode::Br, nullptr, {}, {Header});

    Cur = Header;
    Variable *Cond = F->makeVariable(fresh("hc"));
    append(Opcode::CmpLt, Cond,
           {Operand::var(Counter), Operand::imm(Trip)});
    append(Opcode::CondBr, nullptr, {Operand::var(Cond)}, {Body, Exit});

    Cur = Body;
    region(Budget, LoopDepth + 1);
    append(Opcode::Add, Counter,
           {Operand::var(Counter), Operand::imm(1)});
    append(Opcode::Br, nullptr, {}, {Header});

    Cur = Exit;
  }

  const GeneratorOptions &Opts;
  SplitMix64 Rng;
  Function *F;
  BasicBlock *Cur = nullptr;
  std::vector<Variable *> Pool;
  unsigned NameCounter = 0;
};

} // namespace

Function *fcc::generateProgram(Module &M, const std::string &Name,
                               const GeneratorOptions &Opts) {
  Builder B(M, Name, Opts);
  Function *F = B.run();
  std::string Error;
  if (checkCompileInput(*F, Error) != InputFault::None) {
    std::fprintf(stderr, "generated program is malformed: %s\n",
                 Error.c_str());
    std::abort();
  }
  return F;
}

GeneratorOptions fcc::fuzzerOptionsForRun(uint64_t MasterSeed,
                                          unsigned RunIndex) {
  // One private stream per run: the knobs (and the program seed itself)
  // depend only on (MasterSeed, RunIndex), never on scheduling.
  SplitMix64 Rng(MasterSeed ^ (0x9e3779b97f4a7c15ull * (RunIndex + 1)));
  GeneratorOptions Opts;
  Opts.Seed = Rng.next();
  Opts.SizeBudget = 4 + static_cast<unsigned>(Rng.nextBelow(33));  // 4..36
  Opts.NumParams = static_cast<unsigned>(Rng.nextBelow(5));        // 0..4
  Opts.NumVars =
      Opts.NumParams + 2 + static_cast<unsigned>(Rng.nextBelow(13));
  Opts.MaxLoopDepth = 1 + static_cast<unsigned>(Rng.nextBelow(4)); // 1..4
  Opts.LoopTripMax = 1 + static_cast<unsigned>(Rng.nextBelow(7));  // 1..7
  Opts.CopyPercent = 10 + static_cast<unsigned>(Rng.nextBelow(41)); // 10..50
  Opts.MemPercent = static_cast<unsigned>(Rng.nextBelow(31));       // 0..30
  Opts.RunLength = 2 + static_cast<unsigned>(Rng.nextBelow(5));     // 2..6
  return Opts;
}

std::vector<GeneratorOptions> fcc::shrinkLadder(const GeneratorOptions &Opts) {
  std::vector<GeneratorOptions> Ladder;
  GeneratorOptions Cur = Opts;
  while (Cur.SizeBudget > 2 || Cur.LoopTripMax > 1 || Cur.MaxLoopDepth > 1) {
    Cur.SizeBudget = Cur.SizeBudget > 2 ? Cur.SizeBudget / 2 : 2;
    Cur.LoopTripMax = Cur.LoopTripMax > 1 ? Cur.LoopTripMax / 2 : 1;
    if (Cur.MaxLoopDepth > 1)
      --Cur.MaxLoopDepth;
    if (Cur.NumVars > Cur.NumParams + 3)
      Cur.NumVars = (Cur.NumVars + Cur.NumParams + 3) / 2;
    Ladder.push_back(Cur);
  }
  return Ladder;
}
