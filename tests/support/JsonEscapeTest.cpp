//===- tests/support/JsonEscapeTest.cpp -----------------------------------===//

#include "support/JsonEscape.h"

#include <gtest/gtest.h>

using namespace fcc;

namespace {

std::string escaped(const std::string &S) {
  std::string Out = "prefix:";
  appendJsonEscaped(Out, S);
  return Out;
}

TEST(JsonEscapeTest, QuotesAndAppends) {
  EXPECT_EQ(escaped(""), "prefix:\"\"");
  EXPECT_EQ(escaped("plain text 123"), "prefix:\"plain text 123\"");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(escaped("say \"hi\""), "prefix:\"say \\\"hi\\\"\"");
  EXPECT_EQ(escaped("a\\b"), "prefix:\"a\\\\b\"");
  EXPECT_EQ(escaped("l1\nl2\tc\rx"), "prefix:\"l1\\nl2\\tc\\rx\"");
  EXPECT_EQ(escaped(std::string("\x01\x1f", 2)),
            "prefix:\"\\u0001\\u001f\"");
  EXPECT_EQ(escaped(std::string(1, '\0')), "prefix:\"\\u0000\"");
  // Bytes from 0x20 up, including UTF-8 sequences, pass through unchanged.
  EXPECT_EQ(escaped("\x7f caf\xc3\xa9"), "prefix:\"\x7f caf\xc3\xa9\"");
}

} // namespace
