//===- opt/SCCP.cpp -------------------------------------------------------===//

#include "opt/SCCP.h"

#include "opt/PassManager.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

using namespace fcc;

namespace {

/// The Wegman–Zadeck three-level lattice.
struct LatticeValue {
  enum Level : unsigned char { Top, Constant, Bottom };
  Level State = Top;
  int64_t Value = 0;
};

class SCCPSolver {
public:
  explicit SCCPSolver(Function &F)
      : F(F), Values(F.numVariables()),
        BlockExecutable(F.numBlocks(), false),
        EdgeExecutable(F.numBlocks(), 0), Users(F.numVariables()) {
    for (const Variable *P : F.params())
      Values[P->id()].State = LatticeValue::Bottom;
    for (const auto &B : F.blocks()) {
      for (const auto &Phi : B->phis())
        Phi->forEachUsedVar(
            [&](const Variable *V) { Users[V->id()].push_back(Phi); });
      for (const auto &I : B->insts())
        I->forEachUsedVar(
            [&](const Variable *V) { Users[V->id()].push_back(I); });
    }
  }

  void solve() {
    markBlockExecutable(F.entry());
    while (!CFGWork.empty() || !SSAWork.empty()) {
      while (!SSAWork.empty()) {
        Instruction *I = SSAWork.back();
        SSAWork.pop_back();
        if (BlockExecutable[I->getParent()->id()])
          visit(*I);
      }
      while (!CFGWork.empty()) {
        auto [From, To] = CFGWork.back();
        CFGWork.pop_back();
        markEdgeExecutable(From, To);
      }
    }
  }

  const LatticeValue &valueOf(const Variable *V) const {
    return Values[V->id()];
  }
  bool executable(const BasicBlock *B) const {
    return BlockExecutable[B->id()];
  }

private:
  LatticeValue eval(const Operand &O) const {
    if (O.isImm())
      return {LatticeValue::Constant, O.getImm()};
    return Values[O.getVar()->id()];
  }

  /// Lowers \p V's cell toward \p New; on change, queues every user.
  void lower(const Variable *V, LatticeValue New) {
    LatticeValue &Cell = Values[V->id()];
    if (Cell.State == LatticeValue::Bottom)
      return;
    bool Changed = false;
    if (New.State == LatticeValue::Bottom ||
        (New.State == LatticeValue::Constant &&
         Cell.State == LatticeValue::Constant && Cell.Value != New.Value)) {
      Cell.State = LatticeValue::Bottom;
      Changed = true;
    } else if (New.State == LatticeValue::Constant &&
               Cell.State == LatticeValue::Top) {
      Cell = New;
      Changed = true;
    }
    if (Changed)
      for (Instruction *U : Users[V->id()])
        SSAWork.push_back(U);
  }

  /// The successor slots of \p From's terminator that lead to \p To: one
  /// bit per slot, both for parallel edges.
  static unsigned char slotsTo(const BasicBlock *From, const BasicBlock *To) {
    const Instruction *Term = From->terminator();
    unsigned char Slots = 0;
    for (unsigned S = 0, E = Term->getNumSuccessors(); S != E; ++S)
      if (Term->getSuccessor(S) == To)
        Slots |= static_cast<unsigned char>(1u << S);
    return Slots;
  }

  void markEdgeExecutable(BasicBlock *From, BasicBlock *To) {
    unsigned char &Mask = EdgeExecutable[From->id()];
    unsigned char Slots = slotsTo(From, To);
    if (Mask & Slots)
      return;
    Mask |= Slots;
    if (!BlockExecutable[To->id()]) {
      markBlockExecutable(To);
    } else {
      // Known block, new incoming edge: only the phi meets can change.
      for (const auto &Phi : To->phis())
        visit(*Phi);
    }
  }

  void markBlockExecutable(BasicBlock *B) {
    BlockExecutable[B->id()] = true;
    for (const auto &Phi : B->phis())
      visit(*Phi);
    for (const auto &I : B->insts())
      visit(*I);
  }

  bool edgeExecutable(const BasicBlock *From, const BasicBlock *To) const {
    return EdgeExecutable[From->id()] & slotsTo(From, To);
  }

  void visit(Instruction &I) {
    if (I.isPhi()) {
      // Meet over the operands whose incoming edge can execute. Parallel
      // edges from one predecessor (cbr with equal successors) share one
      // mark, which only widens the meet — sound, never unsound.
      const BasicBlock *B = I.getParent();
      LatticeValue Acc; // Top
      for (unsigned S = 0, E = I.getNumOperands(); S != E; ++S) {
        if (!edgeExecutable(B->preds()[S], B))
          continue;
        LatticeValue In = eval(I.getOperand(S));
        if (In.State == LatticeValue::Top)
          continue;
        if (In.State == LatticeValue::Bottom ||
            (Acc.State == LatticeValue::Constant && Acc.Value != In.Value)) {
          Acc.State = LatticeValue::Bottom;
          break;
        }
        Acc = In;
      }
      lower(I.getDef(), Acc);
      return;
    }

    switch (I.opcode()) {
    case Opcode::Const:
      lower(I.getDef(), {LatticeValue::Constant, I.getOperand(0).getImm()});
      return;
    case Opcode::Copy:
      lower(I.getDef(), eval(I.getOperand(0)));
      return;
    case Opcode::Neg: {
      LatticeValue In = eval(I.getOperand(0));
      if (In.State == LatticeValue::Constant)
        In.Value = evalBinary(Opcode::Sub, 0, In.Value);
      lower(I.getDef(), In);
      return;
    }
    case Opcode::Load:
    case Opcode::Reload:
      lower(I.getDef(), {LatticeValue::Bottom, 0});
      return;
    case Opcode::Br:
      CFGWork.push_back({I.getParent(), I.getSuccessor(0)});
      return;
    case Opcode::CondBr: {
      LatticeValue Cond = eval(I.getOperand(0));
      if (Cond.State == LatticeValue::Constant) {
        CFGWork.push_back(
            {I.getParent(), I.getSuccessor(Cond.Value != 0 ? 0 : 1)});
      } else if (Cond.State == LatticeValue::Bottom) {
        CFGWork.push_back({I.getParent(), I.getSuccessor(0)});
        CFGWork.push_back({I.getParent(), I.getSuccessor(1)});
      }
      return;
    }
    case Opcode::Store:
    case Opcode::Ret:
    case Opcode::Spill:
      return;
    default: {
      // Binary arithmetic and comparisons, folded with the interpreter's
      // evaluator (ir/Opcode.h).
      LatticeValue A = eval(I.getOperand(0));
      LatticeValue B = eval(I.getOperand(1));
      if (A.State == LatticeValue::Bottom || B.State == LatticeValue::Bottom) {
        lower(I.getDef(), {LatticeValue::Bottom, 0});
        return;
      }
      if (A.State == LatticeValue::Top || B.State == LatticeValue::Top)
        return;
      lower(I.getDef(), {LatticeValue::Constant,
                         evalBinary(I.opcode(), A.Value, B.Value)});
      return;
    }
    }
  }

  Function &F;
  std::vector<LatticeValue> Values;                  // indexed by var id
  std::vector<bool> BlockExecutable;                 // indexed by block id
  std::vector<unsigned char> EdgeExecutable;         // slot bits by block id
  std::vector<std::vector<Instruction *>> Users;     // indexed by var id
  std::vector<std::pair<BasicBlock *, BasicBlock *>> CFGWork;
  std::vector<Instruction *> SSAWork;
};

} // namespace

SCCPStats fcc::runSCCP(Function &F) {
  SCCPStats Stats;
  SCCPSolver Solver(F);
  Solver.solve();

  // Rewrite 1: defs proven constant become `const` instructions in place
  // (phis included — a constant phi's def moves to the top of its block,
  // which dominates everything the phi dominated).
  auto IsConstant = [&](const Instruction &I) {
    return Solver.valueOf(I.getDef()).State == LatticeValue::Constant;
  };
  auto ConstFor = [&](Variable *Def) {
    return F.makeInstruction(Opcode::Const, Def,
                             {Operand::imm(Solver.valueOf(Def).Value)});
  };
  for (const auto &B : F.blocks()) {
    if (!Solver.executable(B.get()))
      continue;
    for (const auto &Phi : B->phis())
      if (IsConstant(*Phi))
        B->insertAt(0, ConstFor(Phi->getDef()));
    Stats.ConstantsFolded += B->erasePhisIf(IsConstant);
    for (unsigned Index = 0, E = B->size(); Index != E; ++Index) {
      Instruction *I = B->insts()[Index];
      if (!I->getDef() || I->opcode() == Opcode::Const || !IsConstant(*I))
        continue;
      Variable *Def = I->getDef();
      B->eraseInst(I);
      B->insertAt(Index, ConstFor(Def));
      ++Stats.ConstantsFolded;
    }
  }

  // Rewrite 2: copy forwarding. In SSA, `d = copy s` makes d equal to s at
  // every use (s's def dominates the copy, which dominates d's uses), so
  // every use of d is retargeted at the chain's root and the copy deleted.
  auto IsForwarded = [&](const Instruction &I) {
    return I.isCopy() && I.getOperand(0).isVar() && !IsConstant(I);
  };
  std::unordered_map<const Variable *, Variable *> Forward;
  for (const auto &B : F.blocks()) {
    if (!Solver.executable(B.get()))
      continue;
    for (const auto &I : B->insts())
      if (IsForwarded(*I))
        Forward[I->getDef()] = I->getOperand(0).getVar();
  }
  if (!Forward.empty()) {
    auto Resolve = [&](Variable *V) {
      auto It = Forward.find(V);
      while (It != Forward.end()) {
        V = It->second;
        It = Forward.find(V);
      }
      return V;
    };
    auto RewriteUses = [&](Instruction &I) {
      I.forEachUse([&](Operand &O) { O.setVar(Resolve(O.getVar())); });
    };
    for (const auto &B : F.blocks()) {
      for (const auto &Phi : B->phis())
        RewriteUses(*Phi);
      for (const auto &I : B->insts())
        RewriteUses(*I);
    }
    for (const auto &B : F.blocks())
      if (Solver.executable(B.get()))
        Stats.CopiesForwarded += B->eraseInstsIf(IsForwarded);
  }

  // Rewrite 3: fold conditional branches with a proven-constant condition,
  // detaching the dead edge (predecessor entry + phi slots). A cbr whose
  // two successors coincide is left alone — there is nothing to unlink.
  for (const auto &B : F.blocks()) {
    if (!Solver.executable(B.get()) || !B->hasTerminator())
      continue;
    Instruction *Term = B->terminator();
    if (Term->opcode() != Opcode::CondBr)
      continue;
    const Operand &Cond = Term->getOperand(0);
    int64_t Value;
    if (Cond.isImm())
      Value = Cond.getImm();
    else if (Solver.valueOf(Cond.getVar()).State == LatticeValue::Constant)
      Value = Solver.valueOf(Cond.getVar()).Value;
    else
      continue;
    BasicBlock *Taken = Term->getSuccessor(Value != 0 ? 0 : 1);
    BasicBlock *Dead = Term->getSuccessor(Value != 0 ? 1 : 0);
    if (Taken == Dead)
      continue;
    Dead->removePredEdge(B.get());
    B->eraseInst(Term);
    B->append(F.makeInstruction(Opcode::Br, nullptr, {}, {Taken}));
    ++Stats.BranchesFolded;
  }
  if (Stats.BranchesFolded) {
    Stats.BlocksRemoved = F.removeUnreachableBlocks();
    demoteSinglePredPhis(F);
  }
  return Stats;
}
