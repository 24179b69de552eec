//===- ir/Module.cpp ------------------------------------------------------===//

#include "ir/Module.h"

using namespace fcc;

Function *Module::makeFunction(std::string Name) {
  Funcs.push_back(std::make_unique<Function>(std::move(Name)));
  return Funcs.back().get();
}

Function *Module::findFunction(const std::string &Name) const {
  for (const auto &F : Funcs)
    if (F->name() == Name)
      return F.get();
  return nullptr;
}
