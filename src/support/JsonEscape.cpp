//===- support/JsonEscape.cpp ---------------------------------------------===//

#include "support/JsonEscape.h"

#include <cstdio>

using namespace fcc;

void fcc::appendJsonEscaped(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void fcc::appendJsonKey(std::string &Out, const char *Key) {
  Out += '"';
  Out += Key;
  Out += "\":";
}

void fcc::appendJsonNum(std::string &Out, const char *Key, uint64_t Value) {
  appendJsonKey(Out, Key);
  Out += std::to_string(Value);
}

void fcc::appendJsonStr(std::string &Out, const char *Key,
                        const std::string &Value) {
  appendJsonKey(Out, Key);
  appendJsonEscaped(Out, Value);
}
