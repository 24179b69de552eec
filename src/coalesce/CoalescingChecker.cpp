//===- coalesce/CoalescingChecker.cpp -------------------------------------===//

#include "coalesce/CoalescingChecker.h"

#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "support/IndexSet.h"

using namespace fcc;

bool fcc::checkCoalescing(const Function &F, const Liveness &LV,
                          const LocationFn &Loc, std::string &Error) {
  bool Ok = true;
  auto Clash = [&](const Variable *A, const Variable *B,
                   const BasicBlock *Where) {
    if (!Ok)
      return;
    Error = "variables '" + A->name() + "' and '" + B->name() +
            "' share location '" + Loc(A)->name() +
            "' but are simultaneously live in block '" + Where->name() + "'";
    Ok = false;
  };

  for (const auto &B : F.blocks()) {
    if (!Ok)
      break;
    // Walk backward from the block-boundary live set. Note liveOut already
    // contains values read by successor phis along our out-edges.
    IndexSet Live(LV.liveOut(B.get()));

    for (auto It = B->insts().rbegin(), E = B->insts().rend(); It != E;
         ++It) {
      const Instruction &I = **It;
      if (const Variable *Def = I.getDef()) {
        Live.erase(Def->id());
        const Variable *CopySrc =
            I.isCopy() && I.getOperand(0).isVar() ? I.getOperand(0).getVar()
                                                  : nullptr;
        const Variable *DefLoc = Loc(Def);
        Live.forEach([&](unsigned Id) {
          const Variable *V = F.variable(Id);
          if (V != CopySrc && V != Def && Loc(V) == DefLoc)
            Clash(Def, V, B.get());
        });
      }
      I.forEachUsedVar([&](Variable *V) { Live.insert(V->id()); });
    }

    // Parameters are defined in parallel at the top of the entry block by
    // the calling convention; they clash with anything live there and with
    // each other (distinct incoming locations).
    if (B.get() == F.entry()) {
      const auto &Params = F.params();
      for (const Variable *P : Params)
        Live.erase(P->id());
      for (unsigned PI = 0; PI != Params.size(); ++PI) {
        const Variable *P = Params[PI];
        const Variable *PLoc = Loc(P);
        Live.forEach([&](unsigned Id) {
          const Variable *V = F.variable(Id);
          if (V != P && Loc(V) == PLoc)
            Clash(P, V, B.get());
        });
        for (unsigned PJ = PI + 1; PJ != Params.size(); ++PJ)
          if (Loc(Params[PJ]) == PLoc)
            Clash(P, Params[PJ], B.get());
      }
    }

    // Phi definitions all happen in parallel at the top of the block; each
    // interferes with whatever is live there and with every other phi def.
    const auto &Phis = B->phis();
    for (const auto &Phi : Phis)
      Live.erase(Phi->getDef()->id());
    for (unsigned PI = 0; PI != Phis.size(); ++PI) {
      const Variable *Def = Phis[PI]->getDef();
      const Variable *DefLoc = Loc(Def);
      Live.forEach([&](unsigned Id) {
        const Variable *V = F.variable(Id);
        if (V != Def && Loc(V) == DefLoc)
          Clash(Def, V, B.get());
      });
      for (unsigned PJ = PI + 1; PJ != Phis.size(); ++PJ)
        if (Loc(Phis[PJ]->getDef()) == DefLoc)
          Clash(Def, Phis[PJ]->getDef(), B.get());
    }
  }
  return Ok;
}

bool fcc::checkRegisterAssignment(const Function &F, const Liveness &LV,
                                  const std::vector<int> &RegisterOf,
                                  std::string &Error) {
  std::vector<const Variable *> Holder; // First holder, by register.
  std::vector<const Variable *> Loc(F.numVariables());
  for (unsigned Id = 0; Id != Loc.size(); ++Id) {
    Loc[Id] = F.variable(Id);
    int R = Id < RegisterOf.size() ? RegisterOf[Id] : -1;
    if (R < 0)
      continue;
    if (static_cast<unsigned>(R) >= Holder.size())
      Holder.resize(R + 1, nullptr);
    if (!Holder[R])
      Holder[R] = Loc[Id];
    Loc[Id] = Holder[R];
  }
  return checkCoalescing(
      F, LV, [&](const Variable *V) { return Loc[V->id()]; }, Error);
}
