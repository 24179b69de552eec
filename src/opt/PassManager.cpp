//===- opt/PassManager.cpp ------------------------------------------------===//

#include "opt/PassManager.h"

#include "analysis/DominatorTree.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Verifier.h"
#include "opt/ADCE.h"
#include "opt/LosprePre.h"
#include "opt/SCCP.h"
#include "ssa/SSABuilder.h"

#include <stdexcept>

using namespace fcc;

const char *fcc::passName(PassKind Kind) {
  switch (Kind) {
  case PassKind::Sccp:
    return "sccp";
  case PassKind::Adce:
    return "adce";
  case PassKind::Pre:
    return "pre";
  }
  return "?";
}

const char *fcc::knownPassNames() { return "sccp, adce, pre"; }

std::string fcc::passSequenceName(const std::vector<PassKind> &Passes) {
  std::string Name;
  for (PassKind Kind : Passes) {
    if (!Name.empty())
      Name += ',';
    Name += passName(Kind);
  }
  return Name;
}

bool fcc::parsePassSequence(const std::string &Text,
                            std::vector<PassKind> &Out,
                            std::string *BadToken) {
  if (Text.empty() || Text == "none") {
    Out.clear();
    return true;
  }
  std::vector<PassKind> Parsed;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    std::string Token = Text.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Token == "sccp")
      Parsed.push_back(PassKind::Sccp);
    else if (Token == "adce")
      Parsed.push_back(PassKind::Adce);
    else if (Token == "pre")
      Parsed.push_back(PassKind::Pre);
    else {
      if (BadToken)
        *BadToken = Token;
      return false;
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  Out = std::move(Parsed);
  return true;
}

unsigned fcc::demoteSinglePredPhis(Function &F) {
  unsigned Demoted = 0;
  for (const auto &B : F.blocks()) {
    if (B->getNumPreds() != 1 || B->phis().empty())
      continue;
    // One predecessor, so every phi has exactly one operand: the value
    // live out of that predecessor. No phi here can name another phi of
    // this block (see the header comment), so sequential copies at the
    // top of the block preserve the parallel-merge semantics.
    unsigned At = 0;
    for (Instruction *Phi : B->phis()) {
      Operand Op = Phi->getOperand(0);
      B->insertAt(At++, F.makeInstruction(Op.isImm() ? Opcode::Const
                                                     : Opcode::Copy,
                                          Phi->getDef(), {Op}));
    }
    Demoted += B->erasePhisIf([](const Instruction &) { return true; });
  }
  return Demoted;
}

namespace {

/// Re-checks every structural and SSA invariant; throws naming the pass.
void verifyAfter(const Function &F, PassKind Kind) {
  std::string Error;
  if (!verifyFunction(F, Error))
    throw std::logic_error(std::string("after pass ") + passName(Kind) +
                           ": " + Error);
  DominatorTree DT(F);
  if (!verifySSAForm(F, DT, Error))
    throw std::logic_error(std::string("after pass ") + passName(Kind) +
                           ": " + Error);
  // The coalescers place their edge copies at the end of predecessors and
  // assert that phis appear only at real joins; branch folding must not
  // leak a degenerate single-pred phi past a pass boundary.
  for (const auto &B : F.blocks())
    if (!B->phis().empty() && B->getNumPreds() < 2)
      throw std::logic_error(std::string("after pass ") + passName(Kind) +
                             ": block " + B->name() +
                             " keeps phis with fewer than 2 predecessors");
}

} // namespace

PassStats fcc::runPassSequence(Function &F,
                               const std::vector<PassKind> &Passes,
                               const PassManagerOptions &Opts) {
  PassStats Total;
  RecordList *Records = recordsOf(Opts.Instr);
  for (PassKind Kind : Passes) {
    switch (Kind) {
    case PassKind::Sccp: {
      SCCPStats S;
      {
        PhaseScope Phase(Opts.Instr, "opt-sccp", "opt");
        S = runSCCP(F);
      }
      Total.SccpConstants += S.ConstantsFolded;
      Total.SccpCopies += S.CopiesForwarded;
      Total.BranchesFolded += S.BranchesFolded;
      Total.BlocksRemoved += S.BlocksRemoved;
      if (Records) {
        Records->bump("opt.sccp.constants", S.ConstantsFolded);
        Records->bump("opt.sccp.copies", S.CopiesForwarded);
        Records->bump("opt.sccp.branches", S.BranchesFolded);
      }
      break;
    }
    case PassKind::Adce: {
      ADCEStats S;
      {
        PhaseScope Phase(Opts.Instr, "opt-adce", "opt");
        S = runADCE(F);
      }
      Total.InstsRemoved += S.InstsRemoved;
      Total.PhisRemoved += S.PhisRemoved;
      Total.BranchesFolded += S.BranchesFolded;
      Total.BlocksRemoved += S.BlocksRemoved;
      if (Records) {
        Records->bump("opt.adce.insts", S.InstsRemoved);
        Records->bump("opt.adce.phis", S.PhisRemoved);
        Records->bump("opt.adce.branches", S.BranchesFolded);
      }
      break;
    }
    case PassKind::Pre: {
      LosprePreStats S;
      {
        PhaseScope Phase(Opts.Instr, "opt-pre", "opt");
        S = runLosprePre(F);
      }
      Total.PreHoisted += S.Hoisted;
      Total.PreEliminated += S.Eliminated;
      if (Records) {
        Records->bump("opt.pre.hoisted", S.Hoisted);
        Records->bump("opt.pre.eliminated", S.Eliminated);
      }
      break;
    }
    }
    if (Opts.Verify)
      verifyAfter(F, Kind);
  }
  return Total;
}
