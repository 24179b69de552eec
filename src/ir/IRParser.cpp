//===- ir/IRParser.cpp ----------------------------------------------------===//
//
// One pass over the source. The lexer hands out tokens on demand as views
// into the text (no token vector, no per-token strings); variables and
// labels resolve through flat hash tables keyed by those views; a branch to
// a label that is defined further down records a fixup that is patched when
// the function closes, so blocks are still created in label order.
//
// The diagnostics are those of a parser that lexes the whole file first and
// pre-scans every function's labels before its body: a lexical error
// anywhere wins, then a function's duplicate label or missing blocks, then
// the first unknown label in text order, then the error the parse stopped
// at. A failed parse restores that order in refineError(); a successful one
// never pays for it.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/BasicBlock.h"
#include "ir/Opcode.h"
#include "ir/Variable.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

using namespace fcc;

namespace {

enum class TokenKind : uint8_t {
  Ident,   // bare identifier (keywords, labels, mnemonics)
  VarRef,  // %name
  FuncRef, // @name
  Integer, // possibly negative integer literal
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Colon,
  Equals,
  EndOfFile,
  Error, // a lexical error; the lexer has filled the diagnostic
};

struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  unsigned Line = 0;
  std::string_view Text; // Ident/VarRef/FuncRef payload, without the sigil
  int64_t Value = 0;     // Integer payload
};

/// [A-Za-z0-9_.], the characters of identifiers and names.
constexpr std::array<bool, 256> IdentChars = [] {
  std::array<bool, 256> Table{};
  for (int C = 'a'; C <= 'z'; ++C)
    Table[C] = Table[C - 'a' + 'A'] = true;
  for (int C = '0'; C <= '9'; ++C)
    Table[C] = true;
  Table['_'] = Table['.'] = true;
  return Table;
}();

/// The spaces between tokens other than '\n': <cctype>'s isspace in the C
/// locale.
constexpr std::array<bool, 256> BlankChars = [] {
  std::array<bool, 256> Table{};
  for (char C : {' ', '\t', '\r', '\v', '\f'})
    Table[static_cast<unsigned char>(C)] = true;
  return Table;
}();

bool isIdentChar(char C) { return IdentChars[static_cast<unsigned char>(C)]; }
bool isBlank(char C) { return BlankChars[static_cast<unsigned char>(C)]; }
bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Hands out one token per call. Lexical errors produce an Error token and
/// the "line N: ..." diagnostic.
class Lexer {
public:
  explicit Lexer(std::string_view Text)
      : Pos(Text.data()), End(Text.data() + Text.size()) {}

  Token next(std::string &Error);

private:
  Token fail(std::string &Error, std::string_view Message) {
    Error = "line " + std::to_string(Line) + ": ";
    Error += Message;
    return {TokenKind::Error, Line, {}, 0};
  }
  std::string_view readIdent() {
    const char *Start = Pos;
    while (Pos != End && isIdentChar(*Pos))
      ++Pos;
    return {Start, static_cast<size_t>(Pos - Start)};
  }

  const char *Pos;
  const char *End;
  unsigned Line = 1;
};

Token Lexer::next(std::string &Error) {
  while (true) {
    if (Pos == End)
      return {TokenKind::EndOfFile, Line, {}, 0};
    char C = *Pos;
    if (isBlank(C)) {
      ++Pos;
    } else if (C == '\n') {
      ++Line;
      ++Pos;
    } else if (C == ';') { // Comment to end of line.
      const void *Eol = std::memchr(Pos, '\n', End - Pos);
      Pos = Eol ? static_cast<const char *>(Eol) : End;
    } else {
      break;
    }
  }

  auto Punct = [&](TokenKind K) {
    ++Pos;
    return Token{K, Line, {}, 0};
  };
  char C = *Pos;
  switch (C) {
  case '(':
    return Punct(TokenKind::LParen);
  case ')':
    return Punct(TokenKind::RParen);
  case '{':
    return Punct(TokenKind::LBrace);
  case '}':
    return Punct(TokenKind::RBrace);
  case '[':
    return Punct(TokenKind::LBracket);
  case ']':
    return Punct(TokenKind::RBracket);
  case ',':
    return Punct(TokenKind::Comma);
  case ':':
    return Punct(TokenKind::Colon);
  case '=':
    return Punct(TokenKind::Equals);
  case '%':
  case '@': {
    ++Pos;
    std::string_view Name = readIdent();
    if (Name.empty())
      return fail(Error, C == '%' ? "expected variable name after '%'"
                                  : "expected function name after '@'");
    return {C == '%' ? TokenKind::VarRef : TokenKind::FuncRef, Line, Name, 0};
  }
  default:
    break;
  }

  if (C == '-' || isDigit(C)) {
    const char *Start = Pos;
    if (C == '-')
      ++Pos;
    if (Pos == End || !isDigit(*Pos))
      return fail(Error, "expected digits in integer literal");
    while (Pos != End && isDigit(*Pos))
      ++Pos;
    Token T{TokenKind::Integer, Line, {}, 0};
    if (std::from_chars(Start, Pos, T.Value).ec != std::errc())
      return fail(Error, "integer literal out of range");
    return T;
  }

  if (isIdentChar(C))
    return {TokenKind::Ident, Line, readIdent(), 0};

  return fail(Error, std::string("unexpected character '") + C + '\'');
}

uint64_t hashName(std::string_view Name) {
  return std::hash<std::string_view>()(Name);
}

/// Open-addressing map from names (views into the source) to \p T.
template <typename T> class NameTable {
public:
  /// The value stored for \p Name, or a default T.
  T find(std::string_view Name, uint64_t Hash) const {
    if (Count == 0)
      return T();
    return Slots[slotFor(Name, Hash)].Value;
  }

  /// The value slot for \p Name, inserting a default T when absent.
  T &findOrInsert(std::string_view Name, uint64_t Hash) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    Slot &S = Slots[slotFor(Name, Hash)];
    if (S.Key.data() == nullptr) {
      S.Key = Name;
      S.Hash = Hash;
      ++Count;
    }
    return S.Value;
  }

  /// Empties the table at a cost proportional to what it held.
  void clear() {
    if (Slots.size() > 16 * Count)
      Slots = std::vector<Slot>();
    else
      Slots.assign(Slots.size(), Slot());
    Count = 0;
  }

private:
  struct Slot {
    std::string_view Key; // data() == nullptr marks an empty slot
    uint64_t Hash = 0;
    T Value = T();
  };

  /// The slot holding \p Name, or the empty slot where it belongs.
  size_t slotFor(std::string_view Name, uint64_t Hash) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Key.data() == nullptr || (S.Hash == Hash && S.Key == Name))
        return I;
    }
  }

  void grow() {
    std::vector<Slot> Old(std::max<size_t>(16, 2 * Slots.size()));
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Key.data() != nullptr)
        Slots[slotFor(S.Key, S.Hash)] = S;
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

/// Mnemonic to opcode in one hashed probe.
std::optional<Opcode> mnemonicToOpcode(std::string_view Name) {
  static const NameTable<int> Table = [] {
    NameTable<int> T;
    for (unsigned I = 0; I != static_cast<unsigned>(Opcode::NumOpcodes); ++I) {
      std::string_view Mnemonic = opcodeName(static_cast<Opcode>(I));
      T.findOrInsert(Mnemonic, hashName(Mnemonic)) = static_cast<int>(I) + 1;
    }
    return T;
  }();
  int Entry = Table.find(Name, hashName(Name));
  if (Entry == 0)
    return std::nullopt;
  return static_cast<Opcode>(Entry - 1);
}

/// Parses the text into a Module, pulling tokens from the lexer as it goes.
class Parser {
public:
  Parser(std::string_view Text, std::string &Error) : Lex(Text), Error(Error) {
    Cur = Lex.next(LexError);
  }

  std::unique_ptr<Module> run();

private:
  /// A branch to a label not defined yet, patched when the function
  /// closes.
  struct Fixup {
    Instruction *Inst; // null until the branch is built
    unsigned Successor;
    unsigned Line; // where an unknown label is reported
    std::string_view Name;
    uint64_t Hash;
  };
  struct PendingPhiArg {
    Operand Value;
    std::string_view PredName;
    unsigned Line;
  };
  struct PendingPhi {
    BasicBlock *Block;
    Variable *Def;
    unsigned FirstArg, NumArgs;
    unsigned Line;
  };

  bool check(TokenKind K) const { return Cur.Kind == K; }
  void advance() {
    if (HaveAhead) {
      Cur = Ahead;
      HaveAhead = false;
    } else if (Cur.Kind != TokenKind::EndOfFile &&
               Cur.Kind != TokenKind::Error) {
      Cur = Lex.next(LexError);
    }
  }
  /// The token after the current one.
  const Token &peekAhead() {
    if (!HaveAhead) {
      Ahead = Cur.Kind == TokenKind::EndOfFile || Cur.Kind == TokenKind::Error
                  ? Cur
                  : Lex.next(LexError);
      HaveAhead = true;
    }
    return Ahead;
  }
  bool atLabel() {
    return check(TokenKind::Ident) && peekAhead().Kind == TokenKind::Colon;
  }
  bool accept(TokenKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind K, const char *What) {
    if (accept(K))
      return true;
    return fail(std::string("expected ") + What);
  }
  bool fail(std::string_view Message) { return failAt(Cur.Line, Message); }
  bool failAt(unsigned Line, std::string_view Message);

  bool parseFunction(Module &M);
  bool parseBody(Function &F);
  bool parseStatement(Function &F, BasicBlock *B);
  bool parseOperand(Function &F, Operand &Out);
  bool parseLabel(unsigned Successor, BasicBlock *&Out,
                  std::string_view &Name);
  bool closeFunction(Function &F);
  bool resolvePhis();
  void refineError();

  Variable *getVariable(Function &F, std::string_view Name) {
    Variable *&V = Vars.findOrInsert(Name, hashName(Name));
    if (!V)
      V = F.makeVariable(std::string(Name));
    return V;
  }
  /// Points the fixups recorded since \p First at the branch \p I.
  void bindFixups(size_t First, Instruction *I) {
    for (size_t X = First; X != Fixups.size(); ++X)
      Fixups[X].Inst = I;
  }

  Lexer Lex;
  std::string &Error;
  std::string LexError; // the first lexical error, once the lexer met it
  Token Cur, Ahead;
  bool HaveAhead = false;

  // Per-function state.
  NameTable<Variable *> Vars;
  NameTable<BasicBlock *> Blocks;
  std::vector<Fixup> Fixups;
  std::vector<PendingPhi> Phis;
  std::vector<PendingPhiArg> PhiArgs;
  /// Where the current function's body starts, for refineError().
  std::optional<std::pair<Lexer, Token>> Body;
};

bool Parser::failAt(unsigned Line, std::string_view Message) {
  Error = "line " + std::to_string(Line) + ": ";
  Error += Message;
  return false;
}

std::unique_ptr<Module> Parser::run() {
  auto M = std::make_unique<Module>();
  while (!check(TokenKind::EndOfFile)) {
    if (!parseFunction(*M)) {
      refineError();
      return nullptr;
    }
  }
  return M;
}

bool Parser::parseFunction(Module &M) {
  Vars.clear();
  Blocks.clear();
  Fixups.clear();
  Phis.clear();
  PhiArgs.clear();
  Body.reset();

  if (!check(TokenKind::Ident) || Cur.Text != "func")
    return fail("expected 'func'");
  advance();
  if (!check(TokenKind::FuncRef))
    return fail("expected '@name' after 'func'");
  Function *F = M.makeFunction(std::string(Cur.Text));
  advance();

  if (!expect(TokenKind::LParen, "'('"))
    return false;
  if (!check(TokenKind::RParen)) {
    do {
      if (!check(TokenKind::VarRef))
        return fail("expected parameter '%name'");
      std::string_view Name = Cur.Text;
      advance();
      if (Vars.find(Name, hashName(Name)))
        return fail("duplicate parameter '%" + std::string(Name) + "'");
      F->addParam(getVariable(*F, Name));
    } while (accept(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "')'"))
    return false;
  if (!expect(TokenKind::LBrace, "'{'"))
    return false;
  assert(!HaveAhead && "the body snapshot must start at the current token");
  Body.emplace(Lex, Cur);
  return parseBody(*F) && closeFunction(*F);
}

bool Parser::parseBody(Function &F) {
  while (!accept(TokenKind::RBrace)) {
    if (check(TokenKind::EndOfFile))
      return fail("unexpected end of input inside function");
    if (!atLabel())
      return fail("expected block label");
    std::string_view Name = Cur.Text;
    BasicBlock *&B = Blocks.findOrInsert(Name, hashName(Name));
    if (B)
      return fail("duplicate label '" + std::string(Name) + "'");
    B = F.makeBlock(std::string(Name));
    BasicBlock *Block = B;
    advance(); // label
    advance(); // ':'
    // Statements continue until the next label, '}' or EOF.
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile) &&
           !atLabel())
      if (!parseStatement(F, Block))
        return false;
  }
  return true;
}

bool Parser::closeFunction(Function &F) {
  if (F.numBlocks() == 0)
    return failAt(Body->second.Line, "function has no blocks");
  for (const Fixup &X : Fixups) {
    BasicBlock *B = Blocks.find(X.Name, X.Hash);
    if (!B)
      return failAt(X.Line,
                    "unknown block label '" + std::string(X.Name) + "'");
    X.Inst->setSuccessor(X.Successor, B);
  }
  for (const auto &B : F.blocks()) {
    if (!B->hasTerminator()) {
      Error = "block '" + B->name() + "' in function '" + F.name() +
              "' lacks a terminator";
      return false;
    }
  }
  F.recomputePreds();
  return resolvePhis();
}

bool Parser::parseOperand(Function &F, Operand &Out) {
  if (check(TokenKind::VarRef)) {
    Out = Operand::var(getVariable(F, Cur.Text));
    advance();
    return true;
  }
  if (check(TokenKind::Integer)) {
    Out = Operand::imm(Cur.Value);
    advance();
    return true;
  }
  return fail("expected operand ('%name' or integer)");
}

bool Parser::parseLabel(unsigned Successor, BasicBlock *&Out,
                        std::string_view &Name) {
  if (!check(TokenKind::Ident))
    return fail("expected block label");
  Name = Cur.Text;
  uint64_t Hash = hashName(Name);
  Out = Blocks.find(Name, Hash);
  advance();
  if (!Out)
    Fixups.push_back({nullptr, Successor, Cur.Line, Name, Hash});
  return true;
}

bool Parser::parseStatement(Function &F, BasicBlock *B) {
  unsigned Line = Cur.Line;

  if (B->hasTerminator())
    return fail("statement after terminator in block '" + B->name() + "'");

  // Value-producing statement: %d = op ...
  if (check(TokenKind::VarRef)) {
    Variable *Def = getVariable(F, Cur.Text);
    advance();
    if (!expect(TokenKind::Equals, "'='"))
      return false;
    if (!check(TokenKind::Ident))
      return fail("expected opcode mnemonic");
    std::string_view Mnemonic = Cur.Text;
    std::optional<Opcode> Op = mnemonicToOpcode(Mnemonic);
    advance();
    if (!Op || !opcodeHasDef(*Op))
      return fail("unknown value opcode '" + std::string(Mnemonic) + "'");

    if (*Op == Opcode::Phi) {
      PendingPhi P{B, Def, static_cast<unsigned>(PhiArgs.size()), 0, Line};
      do {
        if (!expect(TokenKind::LBracket, "'['"))
          return false;
        PendingPhiArg Arg{Operand(), {}, Cur.Line};
        if (!parseOperand(F, Arg.Value) || !expect(TokenKind::Comma, "','"))
          return false;
        if (!check(TokenKind::Ident))
          return fail("expected predecessor label in phi");
        Arg.PredName = Cur.Text;
        advance();
        if (!expect(TokenKind::RBracket, "']'"))
          return false;
        PhiArgs.push_back(Arg);
        ++P.NumArgs;
      } while (accept(TokenKind::Comma));
      Phis.push_back(P);
      return true;
    }

    if (*Op == Opcode::Const || *Op == Opcode::Reload) {
      if (!check(TokenKind::Integer))
        return fail(*Op == Opcode::Const
                        ? "'const' requires an integer literal"
                        : "'reload' requires an integer slot literal");
      Operand Imm = Operand::imm(Cur.Value);
      advance();
      B->append(F.makeInstruction(*Op, Def, {Imm}));
      return true;
    }

    int NumOps = opcodeNumOperands(*Op);
    assert(NumOps >= 0 && NumOps <= 2 && "phi handled above");
    Operand Ops[2];
    for (int I = 0; I != NumOps; ++I) {
      if (I != 0 && !expect(TokenKind::Comma, "','"))
        return false;
      if (!parseOperand(F, Ops[I]))
        return false;
    }
    if (*Op == Opcode::Copy && !Ops[0].isVar())
      return fail(
          "'copy' source must be a variable (use 'const' for immediates)");
    B->append(F.makeInstruction(*Op, Def, std::span(Ops, NumOps)));
    return true;
  }

  // Effect / control statements.
  if (!check(TokenKind::Ident))
    return fail("expected statement");
  std::string_view Mnemonic = Cur.Text;
  std::optional<Opcode> Op = mnemonicToOpcode(Mnemonic);
  advance();
  if (!Op || opcodeHasDef(*Op))
    return fail("unknown statement '" + std::string(Mnemonic) + "'");

  switch (*Op) {
  case Opcode::Store: {
    Operand Ops[2];
    if (!parseOperand(F, Ops[0]) || !expect(TokenKind::Comma, "','") ||
        !parseOperand(F, Ops[1]))
      return false;
    B->append(F.makeInstruction(Opcode::Store, nullptr, Ops));
    return true;
  }
  case Opcode::Br: {
    size_t FirstFixup = Fixups.size();
    BasicBlock *Succs[1] = {};
    std::string_view Name;
    if (!parseLabel(0, Succs[0], Name))
      return false;
    bindFixups(FirstFixup,
               B->append(F.makeInstruction(Opcode::Br, nullptr, {}, Succs)));
    return true;
  }
  case Opcode::CondBr: {
    size_t FirstFixup = Fixups.size();
    Operand Ops[1];
    BasicBlock *Succs[2] = {};
    std::string_view Then, Else;
    if (!parseOperand(F, Ops[0]) || !expect(TokenKind::Comma, "','") ||
        !parseLabel(0, Succs[0], Then) || !expect(TokenKind::Comma, "','") ||
        !parseLabel(1, Succs[1], Else))
      return false;
    if (Then == Else)
      return failAt(Line, "'cbr' successors must be distinct (multi-edges "
                          "would break phi/predecessor alignment)");
    bindFixups(FirstFixup,
               B->append(F.makeInstruction(Opcode::CondBr, nullptr, Ops,
                                           Succs)));
    return true;
  }
  case Opcode::Ret: {
    Operand Ops[1];
    if (!parseOperand(F, Ops[0]))
      return false;
    B->append(F.makeInstruction(Opcode::Ret, nullptr, Ops));
    return true;
  }
  case Opcode::Spill: {
    Operand Ops[2];
    if (!parseOperand(F, Ops[0]) || !expect(TokenKind::Comma, "','"))
      return false;
    if (!Ops[0].isVar())
      return fail("'spill' value must be a variable");
    if (!check(TokenKind::Integer))
      return fail("'spill' requires an integer slot literal");
    Ops[1] = Operand::imm(Cur.Value);
    advance();
    B->append(F.makeInstruction(Opcode::Spill, nullptr, Ops));
    return true;
  }
  default:
    return fail("unknown statement '" + std::string(Mnemonic) + "'");
  }
}

bool Parser::resolvePhis() {
  std::vector<bool> Seen;
  std::vector<Operand> Ordered;
  for (const PendingPhi &P : Phis) {
    BasicBlock *B = P.Block;
    const std::vector<BasicBlock *> &Preds = B->preds();
    if (P.NumArgs != Preds.size())
      return failAt(P.Line, "phi in block '" + B->name() + "' has " +
                                std::to_string(P.NumArgs) +
                                " incoming values but the block has " +
                                std::to_string(Preds.size()) + " predecessors");
    Ordered.assign(Preds.size(), Operand());
    Seen.assign(Preds.size(), false);
    for (unsigned A = P.FirstArg, E = A + P.NumArgs; A != E; ++A) {
      const PendingPhiArg &Arg = PhiArgs[A];
      BasicBlock *Pred = Blocks.find(Arg.PredName, hashName(Arg.PredName));
      if (!Pred)
        return failAt(Arg.Line,
                      "unknown phi block '" + std::string(Arg.PredName) + "'");
      size_t Slot = std::find(Preds.begin(), Preds.end(), Pred) - Preds.begin();
      if (Slot == Preds.size())
        return failAt(Arg.Line, "block '" + std::string(Arg.PredName) +
                                    "' is not a predecessor of '" + B->name() +
                                    "'");
      if (Seen[Slot])
        return failAt(Arg.Line, "duplicate phi entry for block '" +
                                    std::string(Arg.PredName) + "'");
      Seen[Slot] = true;
      Ordered[Slot] = Arg.Value;
    }
    B->addPhi(B->getParent()->makeInstruction(Opcode::Phi, P.Def, Ordered));
  }
  return true;
}

/// Puts a failed parse's diagnostic in the order a lex-everything, then
/// pre-scan-each-function parser reports: the first lexical error in the
/// text; then, once the function's '{' was read, its first duplicate label
/// or its lack of labels; then the first branch to a label the function
/// never defines; then the error the parse stopped at.
void Parser::refineError() {
  // Everything before the lexer's position lexed cleanly; read on to the
  // first lexical error, if any.
  while (LexError.empty() && Lex.next(LexError).Kind != TokenKind::EndOfFile)
    ;
  if (!LexError.empty()) {
    Error = LexError;
    return;
  }
  if (!Body)
    return;

  // Pre-scan the body: every identifier followed by ':' until the braces
  // balance is a label.
  auto [Scan, T] = *Body;
  NameTable<bool> Labels;
  bool AnyLabel = false;
  std::string Unused;
  for (unsigned Depth = 1; Depth != 0 && T.Kind != TokenKind::EndOfFile;) {
    Token Next = Scan.next(Unused);
    if (T.Kind == TokenKind::LBrace)
      ++Depth;
    else if (T.Kind == TokenKind::RBrace)
      --Depth;
    else if (T.Kind == TokenKind::Ident && Next.Kind == TokenKind::Colon) {
      bool &Defined = Labels.findOrInsert(T.Text, hashName(T.Text));
      if (Defined) {
        failAt(T.Line, "duplicate label '" + std::string(T.Text) + "'");
        return;
      }
      Defined = AnyLabel = true;
    }
    T = Next;
  }
  if (!AnyLabel) {
    failAt(Body->second.Line, "function has no blocks");
    return;
  }
  for (const Fixup &X : Fixups)
    if (!Labels.find(X.Name, X.Hash)) {
      failAt(X.Line, "unknown block label '" + std::string(X.Name) + "'");
      return;
    }
}

} // namespace

std::unique_ptr<Module> fcc::parseModule(std::string_view Text,
                                         std::string &Error) {
  return Parser(Text, Error).run();
}

std::unique_ptr<Module> fcc::parseSingleFunctionOrDie(std::string_view Text) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(Text, Error);
  if (!M || M->size() != 1) {
    std::fprintf(stderr, "embedded IR is malformed: %s\n",
                 M ? "expected exactly one function" : Error.c_str());
    std::abort();
  }
  return M;
}
