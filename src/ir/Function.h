//===- ir/Function.h - IR functions -----------------------------*- C++ -*-===//
///
/// \file
/// A Function owns its variables and basic blocks. Blocks[0] is the unique
/// entry block b0 (Section 2 of the paper); parameters behave as variables
/// defined on entry, which is what makes parameter-using programs strict.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_FUNCTION_H
#define FCC_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/Variable.h"
#include <memory>
#include <string>
#include <vector>

namespace fcc {

/// One procedure: a CFG over BasicBlocks plus the variable universe.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

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

  /// Declares \p V as a function parameter (defined on entry).
  void addParam(Variable *V) { Params.push_back(V); }
  const std::vector<Variable *> &params() const { return Params; }
  bool isParam(const Variable *V) const;

  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }

  const std::vector<std::unique_ptr<Variable>> &variables() const {
    return Vars;
  }
  unsigned numVariables() const { return static_cast<unsigned>(Vars.size()); }

  Variable *variable(unsigned Id) const {
    assert(Id < Vars.size() && "variable id out of range");
    return Vars[Id].get();
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
    Succ->Preds.push_back(Pred);
  }

  /// Total instruction count (phis + bodies) across all blocks.
  unsigned instructionCount() const;

  /// Total number of phi instructions.
  unsigned phiCount() const;

  /// Number of Copy instructions (the paper's "static copies" metric).
  unsigned staticCopyCount() const;

private:
  std::string Name;
  std::vector<Variable *> Params;
  std::vector<std::unique_ptr<Variable>> Vars;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

} // namespace fcc

#endif // FCC_IR_FUNCTION_H
