//===- support/ArgParse.cpp -----------------------------------------------===//

#include "support/ArgParse.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace fcc;

bool fcc::parseInt64Arg(const std::string &Text, int64_t &Out) {
  if (Text.empty() || std::isspace(static_cast<unsigned char>(Text[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  long long Value = std::strtoll(Text.c_str(), &End, 10);
  if (errno == ERANGE || End == Text.c_str() || *End != '\0')
    return false;
  Out = static_cast<int64_t>(Value);
  return true;
}

bool fcc::parseUint64Arg(const std::string &Text, uint64_t &Out) {
  // strtoull accepts and wraps a leading '-'; an unsigned option must not.
  if (Text.empty() || !std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 10);
  if (errno == ERANGE || *End != '\0')
    return false;
  Out = static_cast<uint64_t>(Value);
  return true;
}

bool fcc::splitIntList(const std::string &Text, std::vector<int64_t> &Out,
                       std::string &BadToken) {
  size_t Pos = 0;
  while (true) {
    size_t Comma = Text.find(',', Pos);
    std::string Token = Text.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    int64_t Value = 0;
    if (!parseInt64Arg(Token, Value)) {
      BadToken = std::move(Token);
      return false;
    }
    Out.push_back(Value);
    if (Comma == std::string::npos)
      return true;
    Pos = Comma + 1;
  }
}

bool fcc::parseUnsignedFlag(const std::string &Arg, const char *Prefix,
                            uint64_t &Out, uint64_t Min, uint64_t Max) {
  size_t PrefixLen = std::strlen(Prefix);
  assert(Arg.compare(0, PrefixLen, Prefix) == 0 && "flag without its prefix");
  uint64_t Value = 0;
  if (!parseUint64Arg(Arg.substr(PrefixLen), Value) || Value < Min ||
      Value > Max) {
    // The flag's name is the prefix without its '='.
    std::fprintf(stderr, "bad %.*s value in '%s'\n",
                 static_cast<int>(PrefixLen - 1), Prefix, Arg.c_str());
    return false;
  }
  Out = Value;
  return true;
}

bool fcc::parseGenerateFlag(const std::string &Arg, unsigned &Count,
                            uint64_t &Seed) {
  static constexpr char Prefix[] = "--generate=";
  assert(Arg.rfind(Prefix, 0) == 0 && "not a --generate flag");
  std::string Spec = Arg.substr(sizeof(Prefix) - 1);
  size_t Colon = Spec.find(':');
  uint64_t NewSeed = Seed;
  if (Colon != std::string::npos &&
      !parseUint64Arg(Spec.substr(Colon + 1), NewSeed)) {
    std::fprintf(stderr, "bad --generate seed in '%s'\n", Arg.c_str());
    return false;
  }
  uint64_t Value = 0;
  if (!parseUint64Arg(Spec.substr(0, Colon), Value) ||
      Value > std::numeric_limits<unsigned>::max()) {
    std::fprintf(stderr, "bad --generate count in '%s'\n", Arg.c_str());
    return false;
  }
  Count = static_cast<unsigned>(Value);
  Seed = NewSeed;
  return true;
}

bool fcc::parseRunFlag(int Argc, char **Argv, int &I,
                       std::vector<int64_t> &Out) {
  if (I + 1 >= Argc)
    return true;
  const char *Next = Argv[I + 1];
  if (Next[0] == '-' && !std::isdigit(static_cast<unsigned char>(Next[1])))
    return true;
  ++I;
  std::string BadToken;
  if (!splitIntList(Next, Out, BadToken)) {
    std::fprintf(stderr, "bad --run argument '%s'\n", BadToken.c_str());
    return false;
  }
  return true;
}
