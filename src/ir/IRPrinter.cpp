//===- ir/IRPrinter.cpp ---------------------------------------------------===//
//
// Text is staged in a stack buffer and handed to the one output string a
// buffer at a time: no temporary string per instruction, no std::to_string
// per immediate, no std::string call per token.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Variable.h"

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string_view>

using namespace fcc;
using namespace std::literals;

namespace {

/// Appends to a string through a fixed buffer; flushes when full and when
/// destroyed.
class Appender {
public:
  explicit Appender(std::string &Out) : Out(Out) {}
  Appender(const Appender &) = delete;
  Appender &operator=(const Appender &) = delete;
  ~Appender() { flush(); }

  Appender &operator<<(char C) {
    if (Pos == std::end(Buf))
      flush();
    *Pos++ = C;
    return *this;
  }
  Appender &operator<<(std::string_view S) {
    if (S.size() > static_cast<size_t>(std::end(Buf) - Pos)) {
      flush();
      if (S.size() > sizeof(Buf)) {
        Out.append(S);
        return *this;
      }
    }
    std::memcpy(Pos, S.data(), S.size());
    Pos += S.size();
    return *this;
  }
  Appender &operator<<(int64_t V) {
    if (std::end(Buf) - Pos < 20) // digits and sign of any int64
      flush();
    Pos = std::to_chars(Pos, std::end(Buf), V).ptr;
    return *this;
  }

private:
  void flush() {
    Out.append(Buf, Pos);
    Pos = Buf;
  }

  std::string &Out;
  char Buf[4096];
  char *Pos = Buf;
};

/// opcodeName() as views, so no mnemonic is measured twice.
std::string_view mnemonic(Opcode Op) {
  static const auto Names = [] {
    std::array<std::string_view, static_cast<size_t>(Opcode::NumOpcodes)> N;
    for (size_t I = 0; I != N.size(); ++I)
      N[I] = opcodeName(static_cast<Opcode>(I));
    return N;
  }();
  return Names[static_cast<size_t>(Op)];
}

void writeOperand(Appender &Out, const Operand &O) {
  if (O.isVar())
    Out << '%' << O.getVar()->name();
  else
    Out << O.getImm();
}

void writeInstruction(Appender &Out, const Instruction &I) {
  if (Variable *Def = I.getDef())
    Out << '%' << Def->name() << " = ";
  Out << mnemonic(I.opcode());

  if (I.isPhi()) {
    const BasicBlock *B = I.getParent();
    for (unsigned Idx = 0, E = I.getNumOperands(); Idx != E; ++Idx) {
      Out << (Idx == 0 ? " ["sv : ", ["sv);
      writeOperand(Out, I.getOperand(Idx));
      assert(B && Idx < B->getNumPreds() && "phi/pred mismatch while printing");
      Out << ", " << B->preds()[Idx]->name() << ']';
    }
    return;
  }

  bool First = true;
  for (const Operand &O : I.operands()) {
    Out << (First ? " "sv : ", "sv);
    First = false;
    writeOperand(Out, O);
  }
  for (const BasicBlock *S : I.successors()) {
    Out << (First ? " "sv : ", "sv) << S->name();
    First = false;
  }
}

void writeFunction(Appender &Out, const Function &F) {
  Out << "func @" << F.name() << '(';
  bool First = true;
  for (const Variable *P : F.params()) {
    if (!First)
      Out << ", ";
    First = false;
    Out << '%' << P->name();
  }
  Out << ") {\n";
  for (const auto &B : F.blocks()) {
    Out << B->name() << ":\n";
    for (const auto *List : {&B->phis(), &B->insts()})
      for (const auto &I : *List) {
        Out << "  ";
        writeInstruction(Out, *I);
        Out << '\n';
      }
  }
  Out << "}\n";
}

} // namespace

std::string fcc::printInstruction(const Instruction &I) {
  std::string Out;
  {
    Appender A(Out);
    writeInstruction(A, I);
  }
  return Out;
}

std::string fcc::printFunction(const Function &F) {
  std::string Out;
  {
    Appender A(Out);
    writeFunction(A, F);
  }
  return Out;
}

std::string fcc::printModule(const Module &M) {
  std::string Out;
  {
    Appender A(Out);
    for (const auto &F : M.functions()) {
      writeFunction(A, *F);
      A << '\n';
    }
  }
  return Out;
}
