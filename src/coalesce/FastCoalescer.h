//===- coalesce/FastCoalescer.h - The paper's algorithm ---------*- C++ -*-===//
///
/// \file
/// The copy-coalescing SSA-to-CFG conversion of the paper (Section 3): an
/// optimistic algorithm that unions every name joined at a phi, then breaks
/// the sets apart wherever two members can be proven to interfere — using
/// only liveness and dominance, never an interference graph.
///
/// Phases:
///  1. Build initial live ranges: union phi results with their arguments,
///     filtering with the five quick interference tests of Section 3.1.
///  2. Map each set onto a dominance forest (Figure 1).
///  3. Walk each forest (Figure 2): a parent in the live-out set of a
///     child's defining block interferes for certain — evict the cheaper
///     endpoint; a parent merely live-in (or sharing the block) is queued
///     for the in-block scan of Section 3.4.
///  4. Resolve local interferences with the in-block test: does the parent's
///     last use in the block come after the child's definition?
///  5. Rename every surviving set to one name and materialize the pending
///     `Waiting[]` copies as parallel copies per edge (Section 3.6), which
///     makes the swap and virtual-swap orderings safe by construction.
///
/// The default (FastCoalescerOptions::EagerSetChecks) vets every union of
/// phase 1 against the two sets' merged forest instead, so phases 2-4 find
/// nothing to evict and are skipped; the lazy modes run them as above.
///
/// Complexity. The union-find is O(n alpha(n)) in the number of phi
/// operands. A union merges the smaller member list into the larger one in
/// place, moving the shorter side of the insertion range. An eager check
/// tests only the pairs that the union makes new, each reached by a
/// binary search (O(log n)) plus a climb over nearest-ancestor links:
/// O(s log n) for a smaller set of s members, plus the pairs it tests and
/// the links it climbs. It returns at the first interfering pair, and
/// every pair it tests is one the merged set's full Figure 1 scan tests
/// too.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_COALESCE_FASTCOALESCER_H
#define FCC_COALESCE_FASTCOALESCER_H

#include "support/Arena.h"
#include "support/SparseSet.h"
#include "support/UnionFind.h"
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

namespace fcc {

class BasicBlock;
class DominatorTree;
class Function;
class Instruction;
class Liveness;
class Variable;
struct Instrumentation;

/// Outcome counters for one coalescing run.
struct FastCoalesceStats {
  /// Copies materialized at rewrite (including cycle temps).
  unsigned CopiesInserted = 0;
  unsigned TempsUsed = 0;
  /// Phi-argument unions rejected by the Section 3.1 filters.
  unsigned FilterRejections = 0;
  /// Members evicted by the forest walk (certain interference).
  unsigned ForestEvictions = 0;
  /// Members evicted by the in-block scan (Section 3.4).
  unsigned LocalEvictions = 0;
  /// Non-singleton sets that survived to renaming.
  unsigned SetsRenamed = 0;
  /// Coalescing rounds run (1 without evictions or with the re-coalescing
  /// heuristic disabled).
  unsigned Rounds = 0;
  /// Peak bytes of the pass's data structures (union-find, forests,
  /// pending-copy lists). Liveness and dominance are accounted by callers,
  /// since they are shared analyses.
  size_t PeakBytes = 0;
};

/// Ablation knobs (DESIGN.md's design-choice study). The defaults add the
/// eager set checks to the paper's algorithm; EagerSetChecks = false with
/// RecoalesceEvicted = false is the paper's algorithm verbatim.
struct FastCoalescerOptions {
  /// Apply the five Section 3.1 filters while building initial sets. With
  /// filters off every phi argument is unioned optimistically and the
  /// forest walk / local scan must undo the damage — correct, but more
  /// evictions land in worse places.
  bool UseFilters = true;
  /// Lazy mode only: pick forest-walk eviction victims by copy cost, the
  /// plain count of phi connections (Figure 2's "fewer copies to insert").
  /// When off, the child is always evicted.
  bool CostBasedVictims = true;
  /// Lazy mode only: re-run set building over the members evicted by a
  /// round, so a chain evicted piecewise out of an entangled set (the swap
  /// shapes) regroups into its own location instead of shattering into
  /// singletons. Each round freezes at least one member per set, so the
  /// loop terminates; two rounds is the norm there. A Section 5 precision
  /// heuristic; off reproduces the paper's single pass with singleton
  /// evictions. Eager mode never evicts, so it always runs one round.
  bool RecoalesceEvicted = true;
  /// Decide interference *before* each union by walking the dominance
  /// forest of the two candidate sets, and reject the union (one copy on
  /// that phi edge) instead of discovering the clash later and evicting a
  /// member out of an already-merged set (copies on all of its edges).
  /// Same forests, same liveness tests, run eagerly; the paper's filters
  /// are the "simple cases" of this check ("These five are not exhaustive",
  /// Section 3.1). Both candidate sets passed the check when they were
  /// formed, so it tests only the pairs across them that the merged
  /// forest's scan would test, reached from the smaller set: a union costs
  /// those pairs plus a binary search and a link climb per smaller-set
  /// member, not a scan of both sets. The default's only active heuristic:
  /// with it on, the forest walk and the in-block scan find nothing to
  /// evict. Off reproduces the paper's lazy two-phase behavior.
  bool EagerSetChecks = true;
  /// Observability (support/Stats.h): sub-phase spans per round
  /// (fast.build-sets / fast.forest-walk / fast.local-scan / fast.rewrite,
  /// category "coalesce") plus the fast.* outcome counters recorded at
  /// rewrite, and the decision narration when Instr->Narrate is set.
  /// Null (the default) is the uninstrumented fast path.
  const Instrumentation *Instr = nullptr;
};

/// The coalescing SSA destructor. Use: construct, computePartition(), then
/// either query rep() (e.g. for validation) or rewrite().
class FastCoalescer {
public:
  /// \p F must be in SSA form with no critical edges; \p LV must be the
  /// liveness of \p F in its current (SSA) state.
  FastCoalescer(Function &F, const DominatorTree &DT, const Liveness &LV,
                const FastCoalescerOptions &Opts = FastCoalescerOptions());

  /// Phases 1-4: decides which SSA names share a location. Idempotent.
  void computePartition();

  /// The location (representative variable) \p V will be renamed to.
  Variable *rep(const Variable *V) const;

  /// Phase 5: renames sets, materializes pending copies, deletes phis.
  /// Returns the final statistics. The function leaves SSA form.
  FastCoalesceStats rewrite();

  const FastCoalesceStats &stats() const { return Stats; }

private:
  struct LocalPair {
    unsigned Parent; ///< Variable id.
    unsigned Child;  ///< Variable id, defined at or after Parent's block.
  };

  void buildInitialSets();
  void walkForests();
  void resolveLocalInterference();
  void evict(unsigned VarId);
  /// Copies this member's eviction would insert.
  uint64_t cost(unsigned VarId) const { return PhiDegree[VarId]; }
  bool isMerged(unsigned A, unsigned B);
  /// Eager mode: would merging the (interference-free) sets of \p RootA and
  /// \p RootB create a pair of simultaneously-live members? Tests the cross
  /// pairs of the merged Figure 1 scan and collects, in PendingLinks, the
  /// NearestAbove links the union would change.
  bool crossPairsInterfere(unsigned RootA, unsigned RootB);
  /// Binary search: the first index at or after \p From of the sorted \p List
  /// whose member's block has preorder \p Pre or later.
  size_t seek(std::span<const unsigned> List, size_t From,
              unsigned Pre) const;
  /// The merged scan's test of \p Id against its nearest different-block
  /// ancestor \p AncId.
  bool ancestorInterferes(unsigned AncId, unsigned Id);
  /// Merges \p Lose's member list into \p Keep's (the larger) in place.
  void mergeMembers(unsigned Keep, unsigned Lose);
  /// Position of \p VarId's last in-block use in \p B (0 when unused).
  unsigned lastUseIn(const BasicBlock *B, unsigned VarId);
  /// The Section 3.4 in-block test: does \p ParentId (live into or defined
  /// in \p ChildId's block) overlap \p ChildId there?
  bool localOverlap(unsigned ParentId, unsigned ChildId);

  Function &F;
  const DominatorTree &DT;
  const Liveness &LV;
  FastCoalescerOptions Opts;
  /// Opts.Instr's narration stream, or null.
  std::FILE *Narrate;
  FastCoalesceStats Stats;
  bool PartitionDone = false;

  /// A set's member ids in SortKey order (equal keys in merge order), in a
  /// RoundArena buffer with slack at both ends: the header is followed by
  /// Capacity slots, of which [Begin, Begin + Size) are used.
  struct MemberBuffer {
    unsigned Capacity;
    unsigned Begin;
    unsigned Size;
    unsigned *data() { return reinterpret_cast<unsigned *>(this + 1) + Begin; }
  };
  /// \p Root's members; \p Single holds the implicit singleton {root}.
  std::span<const unsigned> membersOf(unsigned Root, const unsigned &Single) {
    MemberBuffer *L = ListOf[Root];
    return L ? std::span<const unsigned>(L->data(), L->Size)
             : std::span<const unsigned>(&Single, 1);
  }
  /// A block's last-use positions as a (var id, position) array sorted by
  /// id, allocated in CacheArena and binary-searched by lastUseIn().
  struct LastUseList {
    const std::pair<unsigned, unsigned> *Data = nullptr;
    unsigned Size = 0;
  };

  // Per-round state (reset between rounds). Member buffers bump-allocate
  // out of RoundArena and grow by doubling; reset() reclaims them at once.
  UnionFind Sets;
  std::vector<bool> Removed; // evicted members, by variable id
  std::vector<LocalPair> LocalPairs;
  Arena RoundArena{4096};
  std::vector<MemberBuffer *> ListOf; // by root; null = implicit singleton
  static constexpr unsigned NoMember = ~0u;
  /// Eager mode: each member's nearest different-block ancestor in its own
  /// set's dominance forest (NoMember at a forest root), by variable id.
  std::vector<unsigned> NearestAbove;
  /// (member, new NearestAbove) pairs a check found; applied on union.
  std::vector<std::pair<unsigned, unsigned>> PendingLinks;
  SparseMap<const Instruction *> ClaimedBy;           // reused per block
  std::vector<unsigned> AcceptedStamp; // filter 5: PhiStamp, by block id
  unsigned PhiStamp = 0;              // bumped per phi visited
  SparseMap<unsigned> LastUseScratch;                 // reused per block
  Arena CacheArena{4096};            // valid across rounds (code is stable)
  std::vector<LastUseList> LastUseCache;              // lazily per block
  std::vector<bool> LastUseReady;                     // by block id
  // Whole-run state.
  std::vector<bool> Active;          // still seeking a set, by variable id
  std::vector<Variable *> FinalRep;  // frozen location, by variable id
  std::vector<uint64_t> PhiDegree;   // phi connections, by variable id
  std::vector<BasicBlock *> DefBlock; // by variable id
  std::vector<unsigned> DefPos;       // by variable id
  std::vector<uint64_t> SortKey;      // (preorder << 32 | pos), by var id
};

/// Convenience wrapper: computes the partition and rewrites in one call.
FastCoalesceStats
coalesceSSA(Function &F, const DominatorTree &DT, const Liveness &LV,
            const FastCoalescerOptions &Opts = FastCoalescerOptions());

} // namespace fcc

#endif // FCC_COALESCE_FASTCOALESCER_H
