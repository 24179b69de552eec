//===- ir/Module.h - Translation units --------------------------*- C++ -*-===//
///
/// \file
/// A Module is an ordered collection of Functions, matching one textual IR
/// file. The benchmark suite treats each routine as its own function, as the
/// paper's 169-routine test suite does.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_MODULE_H
#define FCC_IR_MODULE_H

#include "ir/Function.h"
#include <memory>
#include <string>
#include <vector>

namespace fcc {

/// Ordered list of functions.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  /// Creates an empty function named \p Name.
  Function *makeFunction(std::string Name);

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Funcs;
  }

  /// Finds a function by name; nullptr when absent.
  Function *findFunction(const std::string &Name) const;

  unsigned size() const { return static_cast<unsigned>(Funcs.size()); }

private:
  std::vector<std::unique_ptr<Function>> Funcs;
};

} // namespace fcc

#endif // FCC_IR_MODULE_H
