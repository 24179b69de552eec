//===- ir/Function.h - IR functions -----------------------------*- C++ -*-===//
///
/// \file
/// A Function owns its variables and basic blocks. Blocks[0] is the unique
/// entry block b0 (Section 2 of the paper); parameters behave as variables
/// defined on entry, which is what makes parameter-using programs strict.
///
/// Every block, instruction and variable of the function lives in one
/// pool: a chunked arena that starts small and doubles its chunks. The
/// function makes every instruction (makeInstruction), blocks link them,
/// and an erased instruction stays in the pool until the function dies,
/// which drops the chunks instead of freeing objects one at a time.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_FUNCTION_H
#define FCC_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/Variable.h"
#include "support/Arena.h"
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace fcc {

/// One procedure: a CFG over BasicBlocks plus the variable universe.
class Function {
public:
  explicit Function(std::string Name)
      : Pool(PoolFirstChunkBytes, PoolMaxChunkBytes), Name(std::move(Name)) {}
  ~Function();

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &name() const { return Name; }

  /// Creates a fresh variable. \p Origin, when given, marks the new variable
  /// as an SSA version of an existing one.
  Variable *makeVariable(std::string VarName,
                         const Variable *Origin = nullptr);

  /// Creates a fresh basic block appended to the block list. The first block
  /// ever created is the entry block.
  BasicBlock *makeBlock(std::string BlockName);

  /// Creates an instruction in this function's pool, copying \p Ops and
  /// \p Succs behind it. The only way to make an instruction; it belongs
  /// to no block until one of the block's insertion methods links it.
  Instruction *makeInstruction(Opcode Op, Variable *Def,
                               std::span<const Operand> Ops,
                               std::span<BasicBlock *const> Succs = {});
  Instruction *makeInstruction(Opcode Op, Variable *Def,
                               std::initializer_list<Operand> Ops,
                               std::initializer_list<BasicBlock *> Succs = {}) {
    return makeInstruction(Op, Def, std::span(Ops.begin(), Ops.size()),
                           std::span(Succs.begin(), Succs.size()));
  }

  /// Declares \p V as a function parameter (defined on entry).
  void addParam(Variable *V) { Params.push_back(V); }
  const std::vector<Variable *> &params() const { return Params; }
  bool isParam(const Variable *V) const;

  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  /// Destroys a block in place; its bytes stay in the pool, poisoned
  /// under AddressSanitizer.
  struct DestroyInPool {
    void operator()(BasicBlock *B) const;
  };
  using BlockPtr = std::unique_ptr<BasicBlock, DestroyInPool>;

  const std::vector<BlockPtr> &blocks() const { return Blocks; }
  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }

  const std::vector<Variable *> &variables() const { return Vars; }
  unsigned numVariables() const { return static_cast<unsigned>(Vars.size()); }

  Variable *variable(unsigned Id) const {
    assert(Id < Vars.size() && "variable id out of range");
    return Vars[Id];
  }

  BasicBlock *block(unsigned Id) const {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id].get();
  }

  /// Finds a block by name; nullptr when absent.
  BasicBlock *findBlock(const std::string &BlockName) const;

  /// Finds a variable by name; nullptr when absent.
  Variable *findVariable(const std::string &VarName) const;

  /// Rebuilds every block's predecessor list from the terminators. Only
  /// legal while no phis exist (phi operand order is tied to pred order);
  /// asserts otherwise.
  void recomputePreds();

  /// Deletes every block unreachable from the entry, dropping the matching
  /// predecessor entries and phi operand slots of surviving blocks and
  /// renumbering block ids to stay index-dense. Safe with phis present
  /// (unlike recomputePreds). Variables defined only in deleted blocks stay
  /// in the variable universe as def-less names — strictness guarantees no
  /// surviving block can use them. Returns the number of blocks removed.
  unsigned removeUnreachableBlocks();

  /// Registers \p Pred as a new predecessor of \p Succ (appended last). Any
  /// phis in \p Succ must be extended by the caller.
  void addPredEdge(BasicBlock *Succ, BasicBlock *Pred) {
    BasicBlock::pushSmall(Succ->Preds, Pred);
  }

  /// Total instruction count (phis + bodies) across all blocks.
  unsigned instructionCount() const;

  /// Total number of phi instructions.
  unsigned phiCount() const;

  /// Number of Copy instructions (the paper's "static copies" metric).
  unsigned staticCopyCount() const;

private:
  friend class Instruction; // phis grow their operand arrays in the pool

  /// A paper-suite function's IR takes a few KB; big units double their
  /// way up to the cap.
  static constexpr size_t PoolFirstChunkBytes = size_t(2) << 10;
  static constexpr size_t PoolMaxChunkBytes = size_t(64) << 10;

  /// Blocks, instructions with their operands and successors, variables.
  Arena Pool;
  std::string Name;
  std::vector<Variable *> Params;
  std::vector<Variable *> Vars;
  std::vector<BlockPtr> Blocks;
};

} // namespace fcc

#endif // FCC_IR_FUNCTION_H
