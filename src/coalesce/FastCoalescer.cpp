//===- coalesce/FastCoalescer.cpp -----------------------------------------===//

#include "coalesce/FastCoalescer.h"

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/DominanceForest.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "ssa/ParallelCopy.h"
#include "support/Stats.h"

#include <algorithm>
#include <span>

using namespace fcc;

FastCoalescer::FastCoalescer(Function &F, const DominatorTree &DT,
                             const Liveness &LV,
                             const FastCoalescerOptions &Opts)
    : F(F), DT(DT), LV(LV), Opts(Opts),
      Narrate(Opts.Instr ? Opts.Instr->Narrate : nullptr) {
  assert(!hasCriticalEdges(F) && "split critical edges before coalescing");
  unsigned NumVars = F.numVariables();
  Sets.grow(NumVars);
  Removed.assign(NumVars, false);
  PhiDegree.assign(NumVars, 0);
  DefBlock.assign(NumVars, nullptr);
  DefPos.assign(NumVars, 0);
  AcceptedStamp.assign(F.numBlocks(), 0);

  for (Variable *P : F.params()) {
    DefBlock[P->id()] = F.entry();
    DefPos[P->id()] = 0;
  }

  // Eviction costs (Figure 2): one pending copy per phi connection.
  for (const auto &B : F.blocks()) {
    assert((B->phis().empty() || B->getNumPreds() >= 2) &&
           "single-predecessor phis unsupported: edge copies placed at the "
           "end of the predecessor would execute on its other out-edges");
    for (const auto &Phi : B->phis()) {
      Variable *Def = Phi->getDef();
      assert(!DefBlock[Def->id()] && "multiple defs: not SSA");
      DefBlock[Def->id()] = B.get();
      DefPos[Def->id()] = 0;
      PhiDegree[Def->id()] += Phi->getNumOperands();
      Phi->forEachUsedVar([&](Variable *V) { ++PhiDegree[V->id()]; });
    }
    unsigned Pos = 1;
    for (const auto &I : B->insts()) {
      if (Variable *Def = I->getDef()) {
        assert(!DefBlock[Def->id()] && "multiple defs: not SSA");
        DefBlock[Def->id()] = B.get();
        DefPos[Def->id()] = Pos;
      }
      ++Pos;
    }
  }

  // Sorted-set keys so set merges and forest builds stay linear.
  SortKey.assign(NumVars, 0);
  for (unsigned Id = 0; Id != NumVars; ++Id)
    if (DefBlock[Id])
      SortKey[Id] =
          (static_cast<uint64_t>(DT.preorder(DefBlock[Id])) << 32) |
          DefPos[Id];
}

void FastCoalescer::computePartition() {
  if (PartitionDone)
    return;
  PartitionDone = true;
  unsigned NumVars = F.numVariables();
  Active.assign(NumVars, true);
  FinalRep.assign(NumVars, nullptr);

  while (true) {
    ++Stats.Rounds;
    Sets = UnionFind(NumVars);
    Removed.assign(NumVars, false);
    LocalPairs.clear();
    RoundArena.reset();

    {
      PhaseScope P(Opts.Instr, "fast.build-sets", "coalesce");
      buildInitialSets();
    }
    {
      PhaseScope P(Opts.Instr, "fast.forest-walk", "coalesce");
      walkForests();
    }
    {
      PhaseScope P(Opts.Instr, "fast.local-scan", "coalesce");
      resolveLocalInterference();
    }

    Stats.PeakBytes += Sets.bytes() + Removed.size() / 8 +
                       LocalPairs.capacity() * sizeof(LocalPair) +
                       ListOf.capacity() * sizeof(MemberBuffer *) +
                       NearestAbove.capacity() * sizeof(unsigned) +
                       PendingLinks.capacity() * sizeof(PendingLinks[0]) +
                       RoundArena.bytesUsed();

    // Freeze this round's survivors. Canonical member: a parameter when the
    // set contains one (the incoming value cannot be renamed away from it —
    // a correctness condition, not a heuristic), else the lowest id.
    std::vector<Variable *> RootRep(NumVars, nullptr);
    for (unsigned Id = 0; Id != NumVars; ++Id) {
      if (!Active[Id] || Removed[Id])
        continue;
      unsigned Root = Sets.find(Id);
      Variable *V = F.variable(Id);
      if (!RootRep[Root])
        RootRep[Root] = V;
      else if (F.isParam(V)) {
        assert(!F.isParam(RootRep[Root]) &&
               "two live parameters merged into one set");
        RootRep[Root] = V;
      }
    }
    unsigned EvictedCount = 0;
    for (unsigned Id = 0; Id != NumVars; ++Id) {
      if (!Active[Id])
        continue;
      if (Removed[Id]) {
        ++EvictedCount; // Stays active for the next round.
        continue;
      }
      FinalRep[Id] = RootRep[Sets.find(Id)];
      Active[Id] = false;
    }

    if (EvictedCount == 0)
      break;
    if (!Opts.RecoalesceEvicted) {
      // The paper's behavior: evicted members become singletons.
      for (unsigned Id = 0; Id != NumVars; ++Id)
        if (Active[Id]) {
          FinalRep[Id] = F.variable(Id);
          Active[Id] = false;
        }
      break;
    }
    if (Narrate)
      std::fprintf(Narrate,
                   "  round %u evicted %u members; re-coalescing them\n",
                   Stats.Rounds, EvictedCount);
  }

  Stats.PeakBytes += PhiDegree.capacity() * sizeof(uint64_t) +
                     DefBlock.capacity() * sizeof(BasicBlock *) +
                     DefPos.capacity() * sizeof(unsigned) +
                     FinalRep.capacity() * sizeof(Variable *) +
                     Active.size() / 8;
}

Variable *FastCoalescer::rep(const Variable *V) const {
  assert(PartitionDone && "computePartition() first");
  assert(V->id() < FinalRep.size() && "foreign variable");
  Variable *Canonical = FinalRep[V->id()];
  assert(Canonical && "variable was never frozen");
  return Canonical;
}

bool FastCoalescer::isMerged(unsigned A, unsigned B) {
  return !Removed[A] && !Removed[B] && Sets.find(A) == Sets.find(B);
}

void FastCoalescer::evict(unsigned VarId) {
  assert(!Removed[VarId] && "double eviction");
  Removed[VarId] = true;
}

unsigned FastCoalescer::lastUseIn(const BasicBlock *B, unsigned VarId) {
  if (LastUseCache.empty()) {
    LastUseCache.resize(F.numBlocks());
    LastUseReady.assign(F.numBlocks(), false);
    LastUseScratch.resizeUniverse(F.numVariables());
  }
  if (!LastUseReady[B->id()]) {
    LastUseReady[B->id()] = true;
    // One forward scan through the reusable sparse map, then freeze the
    // result as a sorted arena array the binary search below probes. The
    // code never changes during partitioning, so the cache is valid for
    // every round.
    LastUseScratch.clear();
    unsigned Pos = 1;
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) { LastUseScratch[V->id()] = Pos; });
      ++Pos;
    }
    unsigned Count = LastUseScratch.size();
    auto *Frozen = CacheArena.allocateArray<std::pair<unsigned, unsigned>>(
        Count);
    unsigned Out = 0;
    for (const auto &E : LastUseScratch.entries())
      Frozen[Out++] = {E.Key, E.Value};
    std::sort(Frozen, Frozen + Count,
              [](const auto &L, const auto &R) { return L.first < R.first; });
    LastUseCache[B->id()] = {Frozen, Count};
  }
  const LastUseList &List = LastUseCache[B->id()];
  const auto *It = std::lower_bound(
      List.Data, List.Data + List.Size, VarId,
      [](const std::pair<unsigned, unsigned> &E, unsigned Key) {
        return E.first < Key;
      });
  return It != List.Data + List.Size && It->first == VarId ? It->second : 0;
}

bool FastCoalescer::localOverlap(unsigned ParentId, unsigned ChildId) {
  BasicBlock *B = DefBlock[ChildId];
  if (LV.isLiveOut(B, F.variable(ParentId)))
    return true;
  unsigned LiveEnd = lastUseIn(B, ParentId);
  if (LiveEnd == 0)
    LiveEnd = DefBlock[ParentId] == B ? DefPos[ParentId] : 0;
  // Parallel definitions at the block top (two phis, or phi + parameter)
  // always clash; otherwise the parent must die before the child is born.
  return LiveEnd > DefPos[ChildId] ||
         (DefBlock[ParentId] == B && DefPos[ParentId] == DefPos[ChildId]);
}

bool FastCoalescer::ancestorInterferes(unsigned AncId, unsigned Id) {
  const BasicBlock *B = DefBlock[Id];
  const Variable *Anc = F.variable(AncId);
  return LV.isLiveOut(B, Anc) ||
         (LV.isLiveIn(B, Anc) && localOverlap(AncId, Id));
}

size_t FastCoalescer::seek(std::span<const unsigned> List, size_t From,
                           unsigned Pre) const {
  uint64_t Key = static_cast<uint64_t>(Pre) << 32;
  auto It =
      std::partition_point(List.begin() + From, List.end(),
                           [&](unsigned Id) { return SortKey[Id] < Key; });
  return static_cast<size_t>(It - List.begin());
}

bool FastCoalescer::crossPairsInterfere(unsigned RootA, unsigned RootB) {
  // Figure 1's stack scan over the merged list tests each member against
  // every earlier member of its block and against its nearest
  // different-block ancestor: interference between members with a dominance
  // relation is contiguous along the ancestor chain (the Lemma 3.1 region
  // argument), so those pairs are exhaustive. Its verdict is the OR of pure
  // pair tests, and each set passed it alone when it was formed, so only
  // the pairs with one member in each set can change it. They are reached
  // from the smaller set by searches over the larger one. A member's block
  // preorder is the high half of its SortKey.
  unsigned SingleA = RootA, SingleB = RootB;
  std::span<const unsigned> Small = membersOf(RootA, SingleA);
  std::span<const unsigned> Large = membersOf(RootB, SingleB);
  if (Small.size() > Large.size())
    std::swap(Small, Large);
  PendingLinks.clear();
  const auto PreOf = [&](unsigned Id) {
    return static_cast<unsigned>(SortKey[Id] >> 32);
  };
  size_t First = 0; // Small is sorted, so First never moves back.
  for (size_t I = 0; I != Small.size(); ++I) {
    unsigned Id = Small[I];
    unsigned Pre = PreOf(Id);
    First = seek(Large, First, Pre);

    // Same-block pairs, the earlier member in the ancestor's role.
    size_t Last = First;
    for (; Last != Large.size() && PreOf(Large[Last]) == Pre; ++Last) {
      unsigned Other = Large[Last];
      if (SortKey[Other] <= SortKey[Id] ? localOverlap(Other, Id)
                                        : localOverlap(Id, Other))
        return true;
    }

    // Id's nearest different-block ancestor, when the larger set holds a
    // nearer one than Id's own set: the larger set's last member before
    // Id's block in preorder, or the first member up its link chain whose
    // block dominates Id's.
    unsigned Own = NearestAbove[Id];
    const auto NearerThanOwn = [&](unsigned Anc) {
      return Own == NoMember || SortKey[Anc] > SortKey[Own];
    };
    unsigned Anc = First ? Large[First - 1] : NoMember;
    while (Anc != NoMember && NearerThanOwn(Anc) &&
           DT.maxPreorder(DefBlock[Anc]) < Pre)
      Anc = NearestAbove[Anc];
    if (Anc != NoMember && NearerThanOwn(Anc)) {
      if (ancestorInterferes(Anc, Id))
        return true;
      PendingLinks.push_back({Id, Anc});
    }

    // Larger-set members whose nearest different-block ancestor becomes Id:
    // Id must be the merged list's last member of its block, and they are
    // the larger set's topmost members below that block (subtrees that hold
    // a member of either set are skipped whole) plus their same-block
    // followers.
    if ((I + 1 != Small.size() && PreOf(Small[I + 1]) == Pre) ||
        (Last != First && SortKey[Large[Last - 1]] > SortKey[Id]))
      continue;
    unsigned MaxPre = DT.maxPreorder(DefBlock[Id]);
    size_t K = Last, J = I + 1;
    while (true) {
      bool InLarge = K != Large.size() && PreOf(Large[K]) <= MaxPre;
      bool InSmall = J != Small.size() && PreOf(Small[J]) <= MaxPre;
      if (!InLarge && !InSmall)
        break;
      unsigned Top =
          InLarge && (!InSmall || PreOf(Large[K]) <= PreOf(Small[J]))
              ? Large[K]
              : Small[J];
      unsigned TopPre = PreOf(Top);
      for (; K != Large.size() && PreOf(Large[K]) == TopPre; ++K) {
        if (ancestorInterferes(Id, Large[K]))
          return true;
        PendingLinks.push_back({Large[K], Id});
      }
      unsigned Past = DT.maxPreorder(DefBlock[Top]) + 1;
      K = seek(Large, K, Past);
      J = seek(Small, J, Past);
    }
  }
  return false;
}

void FastCoalescer::mergeMembers(unsigned Keep, unsigned Lose) {
  const auto Less = [&](unsigned L, unsigned R) {
    return SortKey[L] < SortKey[R];
  };
  unsigned KeepSingle = Keep, LoseSingle = Lose;
  std::span<const unsigned> Add = membersOf(Lose, LoseSingle);
  MemberBuffer *Into = ListOf[Keep];
  ListOf[Lose] = nullptr;
  unsigned K = static_cast<unsigned>(Add.size());
  unsigned N = Into ? Into->Size : 1;
  unsigned *Data = Into ? Into->data() : &KeepSingle;

  // Add lands among Data[Lo, Hi); equal keys keep Keep's members first, as
  // std::merge(Keep, Lose) would. Shift whichever side is shorter into its
  // slack and merge toward the side that stays put.
  unsigned Lo =
      static_cast<unsigned>(std::upper_bound(Data, Data + N, Add[0], Less) -
                            Data);
  unsigned Hi = static_cast<unsigned>(
      std::upper_bound(Data + Lo, Data + N, Add[K - 1], Less) - Data);
  bool Front = Hi <= N - Lo;
  if (Into && (Front ? Into->Begin >= K
                     : Into->Capacity - Into->Begin - N >= K)) {
    if (Front) {
      unsigned *Out = std::copy(Data, Data + Lo, Data - K);
      unsigned *A = Data + Lo, *AEnd = Data + Hi;
      for (unsigned Id : Add) {
        while (A != AEnd && !Less(Id, *A))
          *Out++ = *A++;
        *Out++ = Id;
      }
      Into->Begin -= K;
    } else {
      unsigned *Out = std::copy_backward(Data + Hi, Data + N, Data + N + K);
      unsigned *A = Data + Hi, *ABegin = Data + Lo;
      for (size_t B = K; B-- > 0;) {
        while (A != ABegin && Less(Add[B], A[-1]))
          *--Out = *--A;
        *--Out = Add[B];
      }
    }
    Into->Size = N + K;
    return;
  }

  // That side is full (or Keep is a singleton): move to a buffer twice the
  // merged size, centred so both ends get slack.
  unsigned Size = N + K, Capacity = 2 * Size;
  auto *Grown = static_cast<MemberBuffer *>(RoundArena.allocate(
      sizeof(MemberBuffer) + Capacity * sizeof(unsigned),
      alignof(MemberBuffer)));
  *Grown = {Capacity, (Capacity - Size) / 2, Size};
  std::merge(Data, Data + N, Add.begin(), Add.end(), Grown->data(), Less);
  ListOf[Keep] = Grown;
}

/// Phase 1 (Section 3.1): optimistic unions with five filtering tests (and,
/// in eager mode, the exhaustive set-versus-set forest check).
void FastCoalescer::buildInitialSets() {
  // A null list stands for the implicit singleton {root}, so this allocates
  // nothing until sets actually merge.
  ListOf.assign(F.numVariables(), nullptr);
  if (Opts.EagerSetChecks)
    NearestAbove.assign(F.numVariables(), NoMember);
  ClaimedBy.resizeUniverse(F.numVariables());

  // Deterministic dominator-tree preorder over blocks.
  for (BasicBlock *B : DT.preorderBlocks()) {
    // Filter 4 state: which phi of this block claimed which set. The sparse
    // map is only ever probed by key, so reusing it across blocks cannot
    // perturb any decision.
    ClaimedBy.clear();
    for (const auto &Phi : B->phis()) {
      Variable *P = Phi->getDef();
      if (!Active[P->id()])
        continue; // Frozen in an earlier round.
      // Filter 5 state: blocks stamped with this phi's stamp define one of
      // its accepted arguments.
      ++PhiStamp;

      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = Phi->getOperand(Idx);
        if (O.isImm())
          continue; // Materialized as a constant on the edge at rewrite.
        Variable *A = O.getVar();
        if (!Active[A->id()])
          continue; // Frozen: the copy materializes at rewrite.
        if (Sets.find(A->id()) == Sets.find(P->id()))
          continue; // Already joined (duplicate argument, earlier phi).

        BasicBlock *ADef = DefBlock[A->id()];
        assert(ADef && "phi argument without a definition");

        // Tests 1-5 of Section 3.1, first hit wins.
        int RejectedBy = 0;
        if (LV.isLiveIn(B, A))
          RejectedBy = 1; // The argument flows past the phi into b.
        else if (LV.isLiveOut(ADef, P))
          RejectedBy = 2; // The phi result is live beyond a's block.
        else if (ADef != B && !ADef->phis().empty() &&
                 DefPos[A->id()] == 0 && !F.isParam(A) &&
                 LV.isLiveIn(ADef, P))
          RejectedBy = 3; // a is a phi result whose block p enters live.
        else if (const Instruction *const *Claimant =
                     ClaimedBy.lookup(Sets.find(A->id()));
                 Claimant && *Claimant != Phi)
          RejectedBy = 4; // Another phi of this block claimed a's set.
        else if (AcceptedStamp[ADef->id()] == PhiStamp)
          RejectedBy = 5; // Two arguments of this phi share a block.

        if (RejectedBy != 0 && Opts.UseFilters) {
          ++Stats.FilterRejections;
          if (Narrate)
            std::fprintf(Narrate,
                         "  filter %d: keep %s out of %s's set (block %s)\n",
                         RejectedBy, A->name().c_str(), P->name().c_str(),
                         B->name().c_str());
          continue; // The copy materializes from the partition at rewrite.
        }

        unsigned RootP = Sets.find(P->id());
        unsigned RootA = Sets.find(A->id());
        if (Opts.EagerSetChecks && crossPairsInterfere(RootP, RootA)) {
          ++Stats.FilterRejections;
          if (Narrate)
            std::fprintf(Narrate,
                         "  eager: merging %s's and %s's sets would "
                         "interfere (block %s)\n",
                         A->name().c_str(), P->name().c_str(),
                         B->name().c_str());
          continue;
        }
        unsigned NewRoot = Sets.unite(RootP, RootA);
        mergeMembers(NewRoot, NewRoot == RootP ? RootA : RootP);
        if (Opts.EagerSetChecks)
          for (auto [Member, Link] : PendingLinks)
            NearestAbove[Member] = Link;
        AcceptedStamp[ADef->id()] = PhiStamp;
      }
      ClaimedBy[Sets.find(P->id())] = Phi;
    }
  }
}

/// Phases 2-3 (Sections 3.2, 3.3): dominance forests and the Figure 2 walk.
void FastCoalescer::walkForests() {
  if (Opts.EagerSetChecks) {
    // Every union was vetted by the same forest scan before it happened, so
    // the lazy re-walk cannot find anything; the interference-checker tests
    // cross-validate that invariant. Skipping it keeps the eager mode's
    // compile time linear in practice.
    return;
  }
  unsigned NumVars = F.numVariables();

  // The member lists are maintained by phase 1 (sorted, null = singleton);
  // only multi-member sets need a forest.
  for (unsigned Root = 0; Root != NumVars; ++Root) {
    MemberBuffer *Members = ListOf[Root];
    if (!Members)
      continue;
    assert(Sets.findConst(Root) == Root && "member list on a non-root");

    std::vector<ForestMember> FM;
    FM.reserve(Members->Size);
    for (unsigned I = 0; I != Members->Size; ++I) {
      unsigned Id = Members->data()[I];
      FM.push_back({F.variable(Id), DefBlock[Id], DefPos[Id]});
    }
    DominanceForest Forest(std::move(FM), DT, /*PreSorted=*/true);
    Stats.PeakBytes = std::max(Stats.PeakBytes, Forest.bytes());

    const auto &Nodes = Forest.nodes();

    // Does evicting the child actually help, or is the parent doomed by its
    // other children anyway? (Figure 2's "p can not interfere with any of
    // its other children".)
    auto ParentThreatensOthers = [&](unsigned ParentNode,
                                     unsigned ExceptNode) {
      const Variable *P = Nodes[ParentNode].Member.Var;
      for (int KidIdx = Nodes[ParentNode].FirstChild; KidIdx >= 0;
           KidIdx = Nodes[KidIdx].NextSibling) {
        unsigned Kid = static_cast<unsigned>(KidIdx);
        if (Kid == ExceptNode || Removed[Nodes[Kid].Member.Var->id()])
          continue;
        const auto &KM = Nodes[Kid].Member;
        if (LV.isLiveOut(KM.DefBlock, P) || LV.isLiveIn(KM.DefBlock, P) ||
            KM.DefBlock == Nodes[ParentNode].Member.DefBlock)
          return true;
      }
      return false;
    };

    // Preorder walk. Each node is checked against (a) every surviving
    // same-block ancestor on its chain and (b) the nearest surviving
    // ancestor from a different block. Lemma 3.1 makes (b) sufficient
    // across blocks; within a block Definition 3.1's premise fails, and the
    // local-interference pass resolves pairs only after all walks finish,
    // so every same-block ancestor must be queued explicitly or an eviction
    // in between would leave a pair unchecked.
    for (unsigned N = 0; N != Nodes.size(); ++N) {
      const ForestMember &CM = Nodes[N].Member;
      unsigned C = CM.Var->id();
      if (Removed[C])
        continue;

      auto CheckAgainst = [&](int AncIdx) {
        // Returns false when N was evicted (no further checks needed).
        const ForestMember &PM = Nodes[AncIdx].Member;
        unsigned P = PM.Var->id();
        if (LV.isLiveOut(CM.DefBlock, PM.Var)) {
          // Certain interference: the parent is live across the child's
          // whole defining block. Evict the endpoint costing fewer copies,
          // unless the parent is doomed by its other children anyway.
          bool EvictChild =
              !Opts.CostBasedVictims ||
              (cost(C) < cost(P) &&
               !ParentThreatensOthers(static_cast<unsigned>(AncIdx), N));
          if (Narrate)
            std::fprintf(Narrate,
                         "  forest: %s live out of %s's block %s -> evict "
                         "%s (cost %llu vs %llu)\n",
                         PM.Var->name().c_str(), CM.Var->name().c_str(),
                         CM.DefBlock->name().c_str(),
                         (EvictChild ? CM : PM).Var->name().c_str(),
                         static_cast<unsigned long long>(cost(C)),
                         static_cast<unsigned long long>(cost(P)));
          evict(EvictChild ? C : P);
          ++Stats.ForestEvictions;
          return !EvictChild;
        }
        if (LV.isLiveIn(CM.DefBlock, PM.Var) || CM.DefBlock == PM.DefBlock)
          LocalPairs.push_back({P, C});
        return true;
      };

      bool Alive = true;
      int Anc = Nodes[N].Parent;
      // Same-block ancestors are a contiguous chain directly above N.
      while (Alive && Anc >= 0 &&
             Nodes[Anc].Member.DefBlock == CM.DefBlock) {
        if (!Removed[Nodes[Anc].Member.Var->id()])
          Alive = CheckAgainst(Anc);
        Anc = Nodes[Anc].Parent;
      }
      // Nearest surviving different-block ancestor.
      while (Alive && Anc >= 0 && Removed[Nodes[Anc].Member.Var->id()])
        Anc = Nodes[Anc].Parent;
      if (Alive && Anc >= 0)
        CheckAgainst(Anc);
    }
  }
}

/// Phase 4 (Section 3.4): in-block tests for pairs the boundary information
/// could not decide.
void FastCoalescer::resolveLocalInterference() {
  // Decide the pairs block by block, each block's in the order the walk
  // queued them: the order of evictions decides which members survive.
  std::stable_sort(LocalPairs.begin(), LocalPairs.end(),
                   [&](const LocalPair &L, const LocalPair &R) {
                     return DefBlock[L.Child]->id() < DefBlock[R.Child]->id();
                   });
  for (const LocalPair &L : LocalPairs) {
    unsigned P = L.Parent, C = L.Child;
    if (!isMerged(P, C) || !localOverlap(P, C))
      continue; // Separated by an earlier eviction, or disjoint in the block.
    unsigned Victim = cost(C) <= cost(P) ? C : P;
    if (Narrate)
      std::fprintf(Narrate,
                   "  local: %s overlaps %s inside block %s -> evict %s\n",
                   F.variable(P)->name().c_str(), F.variable(C)->name().c_str(),
                   DefBlock[C]->name().c_str(),
                   F.variable(Victim)->name().c_str());
    evict(Victim);
    ++Stats.LocalEvictions;
  }
}

FastCoalesceStats FastCoalescer::rewrite() {
  computePartition();
  PhaseScope Phase(Opts.Instr, "fast.rewrite", "coalesce");

  // Count surviving multi-member sets before renaming.
  {
    std::vector<bool> RootSeen(F.numVariables(), false);
    for (unsigned Id = 0, E = F.numVariables(); Id != E; ++Id) {
      if (Removed[Id] || Sets.setSize(Id) < 2)
        continue;
      unsigned Root = Sets.find(Id);
      if (!RootSeen[Root]) {
        RootSeen[Root] = true;
        ++Stats.SetsRenamed;
      }
    }
  }

  // Rename defs and uses to representatives; drop copies that became
  // self-copies (that is the coalescing taking effect on explicit copies).
  for (const auto &B : F.blocks()) {
    for (const auto &I : B->insts()) {
      I->forEachUse([&](Operand &O) { O.setVar(rep(O.getVar())); });
      if (Variable *Def = I->getDef())
        I->setDef(rep(Def));
    }
    B->eraseInstsIf([](const Instruction &I) {
      return I.isCopy() && I.getDef() == I.getOperand(0).getVar();
    });
  }

  // Phis still carry SSA names: lower them to copies between the sets'
  // locations (the Waiting array of Section 3.6).
  DestructionStats Lowered = lowerPhis(F, [&](Variable *V) { return rep(V); });
  Stats.CopiesInserted += Lowered.CopiesInserted;
  Stats.TempsUsed += Lowered.TempsUsed;
  Stats.PeakBytes += Lowered.PeakBytes;

  if (RecordList *R = recordsOf(Opts.Instr)) {
    R->bump("fast.copies-inserted", Stats.CopiesInserted);
    R->bump("fast.temps-used", Stats.TempsUsed);
    R->bump("fast.filter-rejections", Stats.FilterRejections);
    R->bump("fast.forest-evictions", Stats.ForestEvictions);
    R->bump("fast.local-evictions", Stats.LocalEvictions);
    R->bump("fast.sets-renamed", Stats.SetsRenamed);
    R->bump("fast.rounds", Stats.Rounds);
  }
  return Stats;
}

FastCoalesceStats fcc::coalesceSSA(Function &F, const DominatorTree &DT,
                                   const Liveness &LV,
                                   const FastCoalescerOptions &Opts) {
  FastCoalescer Coalescer(F, DT, LV, Opts);
  Coalescer.computePartition();
  return Coalescer.rewrite();
}
