//===- analysis/SparseLiveness.cpp ----------------------------------------===//
//
// Liveness::solveSparse — sparse SSA liveness. Instead of iterating dense
// bitset equations to a fixed point, walk each variable's live region
// directly. Under strict SSA every variable has exactly one definition, so
// "v is live at p" reduces to backward reachability from v's uses to its
// defining block:
//
//   - a direct (non-phi) use in block b makes v live-in at b (unless b is
//     the defining block) and live-out of every path back to the
//     definition;
//   - a phi operand in slot j makes v live-out of predecessor j — and only
//     that, never live-in of the phi's block — which is exactly the
//     Section 3.1 phi convention the dense solver implements;
//   - phi results are defined at the top of their block.
//
// The walk marks live-out bits as it climbs predecessors and stops at the
// defining block or at an already-marked block, so each (variable, block)
// pair is visited at most once: O(program size + sum of live-range sizes),
// versus the dense solver's O(iterations * blocks * variables / 64).
//
// One walk serves both layouts. While the block-major sets fit in
// Liveness::DenseLayoutMaxBytes it starts from every use in block order and
// marks straight into them, the live-out bit doubling as the visited
// marker. Above that it runs name by name, marks per-block stamps, and
// stores the bits over the reverse-postorder span of the blocks it reached.
//
// Preconditions are checked, not assumed: a second definition of any
// variable, a use before the definition inside the defining block, or a
// use of a never-defined variable throws std::invalid_argument. (The dense
// solver tolerates all three; anything non-SSA must keep using it.)
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

using namespace fcc;

namespace {

constexpr unsigned NoDef = ~0u;
constexpr unsigned ParamDef = ~0u - 1; // Defined above the entry block.

[[noreturn]] void violation(const Function &F, const Variable *V,
                            const char *What) {
  throw std::invalid_argument("sparse liveness(@" + F.name() + "): %" +
                              V->name() + " " + What +
                              "; sparse liveness requires strict "
                              "single-definition (SSA) input");
}

/// The unique defining block per variable. Parameters are defined *above*
/// entry, not at its top: no block kills them, so a use anywhere makes them
/// upward-exposed all the way into live-in(entry) — exactly how the dense
/// solver sees them (no defining instruction, hence in UEVar of every using
/// block). A second definition anywhere violates the SSA precondition the
/// walk's early stop depends on — hard error, because an unnoticed
/// violation would just produce silently-too-small live sets.
std::vector<unsigned> defBlocks(const Function &F) {
  std::vector<unsigned> DefBlock(F.numVariables(), NoDef);
  for (const Variable *P : F.params())
    DefBlock[P->id()] = ParamDef;
  for (const auto &B : F.blocks()) {
    auto NoteDef = [&](const Variable *V) {
      if (DefBlock[V->id()] != NoDef)
        violation(F, V, "has more than one definition");
      DefBlock[V->id()] = B->id();
    };
    for (const auto &Phi : B->phis())
      NoteDef(Phi->getDef());
    for (const auto &I : B->insts())
      if (const Variable *Def = I->getDef())
        NoteDef(Def);
  }
  return DefBlock;
}

/// Reports, in block order, where every walk starts: OnUse(Var, Block) for
/// a direct use outside the defining block, OnEdge(Var, Pred) for a phi
/// operand arriving from Pred. DefSeen stamps, per block scan, which
/// variables are already defined above the current instruction (phi
/// results count as defined at the block top): a same-block use stamped
/// otherwise is a use before its definition — strictness violation, same
/// hard error. Parameters never take that path (ParamDef matches no block).
template <typename UseFn, typename EdgeFn>
void scanUses(const Function &F, const std::vector<unsigned> &DefBlock,
              UseFn OnUse, EdgeFn OnEdge) {
  std::vector<unsigned> DefSeen(F.numVariables(), NoDef);
  for (const auto &B : F.blocks()) {
    unsigned Id = B->id();
    for (const auto &Phi : B->phis())
      DefSeen[Phi->getDef()->id()] = Id;

    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](const Variable *V) {
        unsigned VarId = V->id();
        if (DefBlock[VarId] == NoDef)
          violation(F, V, "is used but never defined");
        if (DefBlock[VarId] == Id) {
          if (DefSeen[VarId] != Id)
            violation(F, V, "is used above its definition");
          return; // Defined here: not upward-exposed, no walk.
        }
        OnUse(VarId, Id);
      });
      if (const Variable *Def = I->getDef())
        DefSeen[Def->id()] = Id;
    }

    // Phi operands are uses on the incoming edge: live out of the matching
    // predecessor, never live-in here (the Section 3.1 convention).
    for (const auto &Phi : B->phis())
      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = Phi->getOperand(Idx);
        if (!O.isVar())
          continue;
        if (DefBlock[O.getVar()->id()] == NoDef)
          violation(F, O.getVar(), "is used but never defined");
        OnEdge(O.getVar()->id(), B->preds()[Idx]->id());
      }
  }
}

/// The upward walk over one name's live range. Marks records it:
/// markIn(Block) / markOut(Block) set the name's bit there and return false
/// when it was already set, so each (name, block) pair expands once.
class RangeWalk {
public:
  RangeWalk(const Function &F, const std::vector<unsigned> &DefBlock)
      : F(F), DefBlock(DefBlock) {}

  /// A direct use in \p Block, which does not define the name: live-in
  /// there, live-out of every predecessor.
  template <typename MarksT>
  void fromUse(unsigned Block, unsigned VarId, MarksT &Marks) {
    if (!Marks.markIn(Block))
      return; // Already reached through a successor's walk.
    for (const BasicBlock *P : F.block(Block)->preds())
      Work.push_back(P->id());
    climb(VarId, Marks);
  }

  /// A phi operand on the edge leaving \p Block: live-out there.
  template <typename MarksT>
  void fromEdge(unsigned Block, unsigned VarId, MarksT &Marks) {
    Work.push_back(Block);
    climb(VarId, Marks);
  }

private:
  /// Marks the name live-out of each pending block and, unless that block
  /// defines it, live-in too, continuing through its predecessors.
  template <typename MarksT> void climb(unsigned VarId, MarksT &Marks) {
    while (!Work.empty()) {
      unsigned P = Work.back();
      Work.pop_back();
      if (!Marks.markOut(P) || DefBlock[VarId] == P)
        continue;
      Marks.markIn(P);
      for (const BasicBlock *Q : F.block(P)->preds())
        Work.push_back(Q->id());
    }
  }

  const Function &F;
  const std::vector<unsigned> &DefBlock;
  std::vector<unsigned> Work;
};

/// Marks into block-major sets: one name's bit in every block's words.
struct BlockMajorMarks {
  uint64_t *In;
  uint64_t *Out;
  size_t WordsPerSet;
  unsigned VarId = 0;

  static bool set(uint64_t *Set, unsigned Id) {
    uint64_t &W = Set[Id / 64];
    uint64_t Bit = uint64_t(1) << (Id % 64);
    if (W & Bit)
      return false;
    W |= Bit;
    return true;
  }
  bool markIn(unsigned Block) { return set(In + Block * WordsPerSet, VarId); }
  bool markOut(unsigned Block) {
    return set(Out + Block * WordsPerSet, VarId);
  }
};

/// Marks one name at a time: per-block stamps hold the id of the last name
/// that reached the block, and Reached lists what the current name reached
/// (block id * 2, plus 1 for live-out).
struct StampMarks {
  std::vector<unsigned> InStamp, OutStamp;
  std::vector<unsigned> Reached;
  unsigned VarId = 0;

  explicit StampMarks(unsigned NumBlocks)
      : InStamp(NumBlocks, ~0u), OutStamp(NumBlocks, ~0u) {}

  bool mark(std::vector<unsigned> &Stamp, unsigned Block, unsigned Side) {
    if (Stamp[Block] == VarId)
      return false;
    Stamp[Block] = VarId;
    Reached.push_back(2 * Block + Side);
    return true;
  }
  bool markIn(unsigned Block) { return mark(InStamp, Block, 0); }
  bool markOut(unsigned Block) { return mark(OutStamp, Block, 1); }
};

/// Every block's number in a reverse postorder of the CFG from the entry;
/// blocks the entry does not reach follow, in id order.
std::vector<uint32_t> reversePostorderNumbers(const Function &F) {
  unsigned NumBlocks = F.numBlocks();
  std::vector<uint32_t> Number(NumBlocks, 0);
  std::vector<bool> Seen(NumBlocks, false);
  std::vector<std::pair<const BasicBlock *, unsigned>> Stack;
  uint32_t Finished = 0;
  Seen[F.entry()->id()] = true;
  Stack.push_back({F.entry(), 0});
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    const auto &Succs = B->terminator()->successors();
    if (NextSucc == Succs.size()) {
      Number[B->id()] = Finished++; // Postorder for now.
      Stack.pop_back();
      continue;
    }
    const BasicBlock *S = Succs[NextSucc++];
    if (!Seen[S->id()]) {
      Seen[S->id()] = true;
      Stack.push_back({S, 0});
    }
  }
  uint32_t Unreached = Finished;
  for (unsigned Id = 0; Id != NumBlocks; ++Id)
    Number[Id] = Seen[Id] ? Finished - 1 - Number[Id] : Unreached++;
  return Number;
}

} // namespace

void Liveness::solveSparse(const Function &F) {
  std::vector<unsigned> DefBlock = defBlocks(F);
  if (2 * size_t(NumBlocks) * WordsPerSet * sizeof(uint64_t) >
      DenseLayoutMaxBytes) {
    solveSpans(F, DefBlock);
    return;
  }
  Words.assign(2 * size_t(NumBlocks) * WordsPerSet, 0);
  RangeWalk Walk(F, DefBlock);
  BlockMajorMarks Marks{inWords(0), outWords(0), WordsPerSet};
  scanUses(
      F, DefBlock,
      [&](unsigned VarId, unsigned Block) {
        Marks.VarId = VarId;
        Walk.fromUse(Block, VarId, Marks);
      },
      [&](unsigned VarId, unsigned Pred) {
        Marks.VarId = VarId;
        Walk.fromEdge(Pred, VarId, Marks);
      });
}

void Liveness::solveSpans(const Function &F,
                          const std::vector<unsigned> &DefBlock) {
  // Walk starts grouped by name: per-name lists threaded through one
  // vector of (block id * 2 + 1 for an edge start, next entry).
  constexpr unsigned End = ~0u;
  std::vector<unsigned> Head(NumVars, End);
  std::vector<std::pair<unsigned, unsigned>> Starts;
  auto Note = [&](unsigned VarId, unsigned Start) {
    Starts.push_back({Start, Head[VarId]});
    Head[VarId] = static_cast<unsigned>(Starts.size() - 1);
  };
  scanUses(
      F, DefBlock,
      [&](unsigned VarId, unsigned Block) { Note(VarId, 2 * Block); },
      [&](unsigned VarId, unsigned Pred) { Note(VarId, 2 * Pred + 1); });

  RpoNumber = reversePostorderNumbers(F);
  Spans.assign(NumVars, Span());
  RangeWalk Walk(F, DefBlock);
  StampMarks Marks(NumBlocks);
  for (unsigned VarId = 0; VarId != NumVars; ++VarId) {
    if (Head[VarId] == End)
      continue; // Never used: live nowhere.
    Marks.VarId = VarId;
    Marks.Reached.clear();
    for (unsigned S = Head[VarId]; S != End; S = Starts[S].second) {
      unsigned Block = Starts[S].first / 2;
      if (Starts[S].first & 1)
        Walk.fromEdge(Block, VarId, Marks);
      else
        Walk.fromUse(Block, VarId, Marks);
    }
    uint32_t First = ~0u, Last = 0;
    for (unsigned R : Marks.Reached) {
      First = std::min(First, RpoNumber[R / 2]);
      Last = std::max(Last, RpoNumber[R / 2]);
    }
    Span &Sp = Spans[VarId];
    Sp.First = First;
    Sp.Length = Last - First + 1;
    Sp.Offset = Words.size();
    Words.resize(Words.size() + 2 * ((size_t(Sp.Length) + 63) / 64), 0);
    for (unsigned R : Marks.Reached) {
      uint32_t Bit = RpoNumber[R / 2] - First;
      Words[Sp.Offset + 2 * (Bit / 64) + R % 2] |= uint64_t(1) << (Bit % 64);
    }
  }
  Words.shrink_to_fit();
}
