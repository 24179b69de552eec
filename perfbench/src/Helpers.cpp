//===- perfbench/src/Helpers.cpp ------------------------------------------===//

#include "Helpers.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

using namespace perfbench;

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  double Upper = Values[Mid];
  if (Values.size() % 2)
    return Upper;
  double Lower = *std::max_element(Values.begin(), Values.begin() + Mid);
  return (Lower + Upper) / 2;
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(P / 100 * Values.size()));
  Rank = std::clamp<size_t>(Rank, 1, Values.size());
  std::nth_element(Values.begin(), Values.begin() + (Rank - 1), Values.end());
  return Values[Rank - 1];
}

size_t perfbench::samplesBeyond(size_t N, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100 * N));
  return N - std::min(Rank, N);
}

std::vector<size_t> perfbench::quietPasses(const std::vector<double> &PassNs,
                                           size_t SamplesPerPass,
                                           size_t MinSamples) {
  std::vector<size_t> Order(PassNs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return PassNs[A] < PassNs[B]; });
  size_t Keep = std::max<size_t>(1, (PassNs.size() + 9) / 10);
  while (Keep < Order.size() && Keep * SamplesPerPass < MinSamples)
    ++Keep;
  Order.resize(std::min(Keep, Order.size()));
  return Order;
}

void SpanRecorder::begin(const char *Name, unsigned Unit) {
  Span S;
  S.Name = Name;
  S.Unit = Unit;
  S.Parent = Open.empty() ? -1 : Open.back();
  Open.push_back(static_cast<int>(Spans.size()));
  Spans.push_back(S);
  Spans.back().StartNs = nowNs();
}

void SpanRecorder::end() {
  uint64_t Now = nowNs();
  Spans[Open.back()].EndNs = Now;
  Open.pop_back();
}

std::map<std::string, uint64_t>
perfbench::selfTimeByName(const std::vector<Span> &Spans) {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, uint64_t> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    uint64_t Total = Spans[I].EndNs - Spans[I].StartNs;
    Self[Spans[I].Name] += Total > ChildNs[I] ? Total - ChildNs[I] : 0;
  }
  return Self;
}

std::string perfbench::spansToChromeTrace(const std::vector<Span> &Spans) {
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::string Out = "[\n";
  char Buf[256];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%u}}",
                  I ? ",\n" : "", S.Name, (S.StartNs - Origin) / 1e3,
                  (S.EndNs - S.StartNs) / 1e3, S.Unit);
    Out += Buf;
  }
  Out += "\n]\n";
  return Out;
}

std::string perfbench::alphaRename(const std::string &Text,
                                   const std::string &Prefix) {
  auto IsIdentChar = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.';
  };
  std::string Out;
  Out.reserve(Text.size() + Text.size() / 4);
  // The last significant token before the current position: ',' and the
  // word "br" precede block labels in branch targets and phi operands.
  std::string Prev;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    char C = Text[Pos];
    if (C == ';') {
      size_t End = Text.find('\n', Pos);
      End = End == std::string::npos ? Text.size() : End;
      Out.append(Text, Pos, End - Pos);
      Pos = End;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      Out += C;
      ++Pos;
      continue;
    }
    if (C == '%' || C == '@') {
      Out += C;
      Out += Prefix;
      ++Pos;
      Prev = C;
      continue;
    }
    if (!IsIdentChar(C)) {
      Out += C;
      Prev = C;
      ++Pos;
      continue;
    }
    size_t Start = Pos;
    while (Pos < Text.size() && IsIdentChar(Text[Pos]))
      ++Pos;
    std::string Word = Text.substr(Start, Pos - Start);
    bool Numeric = std::isdigit(static_cast<unsigned char>(Word[0])) ||
                   (Start > 0 && Text[Start - 1] == '-');
    size_t Next = Pos;
    while (Next < Text.size() && (Text[Next] == ' ' || Text[Next] == '\t'))
      ++Next;
    bool LabelDef = Next < Text.size() && Text[Next] == ':';
    bool LabelUse = Prev == "," || Prev == "br";
    bool IsName = Start > 0 && (Text[Start - 1] == '%' || Text[Start - 1] == '@');
    if (!Numeric && !IsName && (LabelDef || LabelUse))
      Out += Prefix;
    Out += Word;
    Prev = Word;
  }
  return Out;
}
