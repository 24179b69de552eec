//===- tests/ir/AllocationCountTest.cpp -----------------------------------===//
//
// Pins the IR's allocation behavior: instructions, their operands and
// variables come from the function's pool, so parsing and SSA construction
// make a handful of heap allocations per function, not one or more per
// instruction or name, on one large function and across the paper suite.
// Also pins that setting up the coalescer allocates linearly on a deep
// loop nest, and SCCP on a diamond chain. This binary replaces the global
// operator new and delete to count calls and requested bytes, so it links
// no other test.
//
//===----------------------------------------------------------------------===//

#include "../common/ShapeSources.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/FastCoalescer.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "opt/SCCP.h"
#include "ssa/SSABuilder.h"
#include "workload/KernelSuite.h"

#include <atomic>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>

namespace {

std::atomic<unsigned long> Allocations{0};
std::atomic<unsigned long> AllocatedBytes{0};

// Out of line: inlined into the replaced operator new, the malloc here
// pairs with the replaced operator delete's free in GCC's view, and
// -Wmismatched-new-delete fires on every test's factory.
[[gnu::noinline]] void *countedAlloc(std::size_t Bytes) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  AllocatedBytes.fetch_add(Bytes, std::memory_order_relaxed);
  return std::malloc(Bytes ? Bytes : 1);
}

void *countedAlignedAlloc(std::size_t Bytes, std::align_val_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  AllocatedBytes.fetch_add(Bytes, std::memory_order_relaxed);
  std::size_t A = static_cast<std::size_t>(Align);
  std::size_t Rounded = (Bytes + A - 1) / A * A;
  return std::aligned_alloc(A, Rounded ? Rounded : A);
}

} // namespace

void *operator new(std::size_t Bytes) {
  if (void *P = countedAlloc(Bytes))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Bytes) { return operator new(Bytes); }
void *operator new(std::size_t Bytes, const std::nothrow_t &) noexcept {
  return countedAlloc(Bytes);
}
void *operator new[](std::size_t Bytes, const std::nothrow_t &) noexcept {
  return countedAlloc(Bytes);
}
void *operator new(std::size_t Bytes, std::align_val_t Align) {
  if (void *P = countedAlignedAlloc(Bytes, Align))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Bytes, std::align_val_t Align) {
  return operator new(Bytes, Align);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace fcc;

namespace {

/// Heap allocations \p Fn makes.
template <typename FnT> unsigned long allocationsOf(FnT Fn) {
  unsigned long Before = Allocations.load(std::memory_order_relaxed);
  Fn();
  return Allocations.load(std::memory_order_relaxed) - Before;
}

/// Heap bytes \p Fn requests.
template <typename FnT> unsigned long bytesAllocatedBy(FnT Fn) {
  unsigned long Before = AllocatedBytes.load(std::memory_order_relaxed);
  Fn();
  return AllocatedBytes.load(std::memory_order_relaxed) - Before;
}

TEST(AllocationCountTest, ParsingAllocatesLessThanOncePerFourInstructions) {
  const std::string Text = testprogs::fatBlockSource(2000, 5);
  std::string Error;
  std::unique_ptr<Module> M;
  unsigned long Allocs = allocationsOf([&] { M = parseModule(Text, Error); });
  ASSERT_TRUE(M) << Error;
  unsigned Insts = M->functions()[0]->instructionCount();
  ASSERT_GT(Insts, 2000u);
  EXPECT_LT(static_cast<double>(Allocs) / Insts, 0.25)
      << Allocs << " allocations for " << Insts << " instructions";
}

TEST(AllocationCountTest, SSAConstructionAllocatesLittlePerNameItCreates) {
  std::unique_ptr<Module> M =
      parseSingleFunctionOrDie(testprogs::fatBlockSource(2000, 5));
  Function &F = *M->functions()[0];
  DominatorTree DT(F);
  SSABuildOptions Opts;
  Opts.FoldCopies = true;
  unsigned Before = F.numVariables();
  unsigned long Allocs = allocationsOf([&] { buildSSA(F, DT, Opts); });
  unsigned Names = F.numVariables() - Before;
  ASSERT_GT(Names, 1000u);
  EXPECT_LE(static_cast<double>(Allocs) / Names, 0.4)
      << Allocs << " allocations for " << Names << " names";
}

TEST(AllocationCountTest, SSAConstructionOnThePaperSuiteAllocatesAboutOncePerName) {
  // Small functions, where fixed per-function costs weigh most; renaming
  // state kept per original name would cost more than one heap allocation
  // per name created.
  unsigned long Allocs = 0, Names = 0;
  for (const RoutineSpec &Spec : paperSuite()) {
    std::unique_ptr<Module> M =
        parseSingleFunctionOrDie(printModule(*Spec.materialize()));
    Function &F = *M->functions()[0];
    splitCriticalEdges(F);
    DominatorTree DT(F);
    SSABuildOptions Opts;
    Opts.FoldCopies = true;
    unsigned Before = F.numVariables();
    Allocs += allocationsOf([&] { buildSSA(F, DT, Opts); });
    Names += F.numVariables() - Before;
  }
  ASSERT_GT(Names, 10000u);
  EXPECT_LE(static_cast<double>(Allocs) / Names, 1.1)
      << Allocs << " allocations for " << Names << " names";
}

/// Bytes constructing a FastCoalescer requests on a \p Depth-deep loop nest
/// in SSA form.
unsigned long coalescerSetupBytes(unsigned Depth) {
  std::unique_ptr<Module> M =
      parseSingleFunctionOrDie(testprogs::loopNestSource(Depth));
  Function &F = *M->functions()[0];
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Opts;
  Opts.FoldCopies = true;
  buildSSA(F, DT, Opts);
  Liveness LV(F);
  return bytesAllocatedBy([&] { FastCoalescer Coalescer(F, DT, LV); });
}

TEST(AllocationCountTest, CoalescerSetupGrowsLinearlyWithLoopDepth) {
  unsigned long Small = coalescerSetupBytes(1000);
  unsigned long Large = coalescerSetupBytes(2000);
  ASSERT_GT(Small, 0u);
  EXPECT_LE(static_cast<double>(Large), 2.5 * static_cast<double>(Small))
      << Small << " -> " << Large << " bytes";
}

/// Bytes SCCP requests on a \p Blocks-block diamond chain in SSA form.
unsigned long sccpBytes(unsigned Blocks) {
  std::unique_ptr<Module> M =
      parseSingleFunctionOrDie(testprogs::diamondChainSource(Blocks));
  Function &F = *M->functions()[0];
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Opts;
  Opts.FoldCopies = true;
  buildSSA(F, DT, Opts);
  return bytesAllocatedBy([&] { runSCCP(F); });
}

TEST(AllocationCountTest, SCCPGrowsLinearlyWithTheChain) {
  unsigned long Small = sccpBytes(12500);
  unsigned long Large = sccpBytes(25000);
  ASSERT_GT(Small, 0u);
  EXPECT_LE(static_cast<double>(Large), 2.5 * static_cast<double>(Small))
      << Small << " -> " << Large << " bytes";
}

} // namespace
