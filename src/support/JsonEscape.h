//===- support/JsonEscape.h - JSON string and field writers -----*- C++ -*-===//
///
/// \file
/// The one JSON string and field writer every serializer in the repository
/// shares: batch reports, daemon responses, Chrome traces and fuzz
/// summaries.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_JSONESCAPE_H
#define FCC_SUPPORT_JSONESCAPE_H

#include <cstdint>
#include <string>

namespace fcc {

/// Appends \p S to \p Out as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
void appendJsonEscaped(std::string &Out, const std::string &S);

/// Appends `"Key":`; \p Key is a literal that needs no escaping.
void appendJsonKey(std::string &Out, const char *Key);

/// Appends the field `"Key":Value`.
void appendJsonNum(std::string &Out, const char *Key, uint64_t Value);

/// Appends the field `"Key":"Value"`, with \p Value escaped.
void appendJsonStr(std::string &Out, const char *Key, const std::string &Value);

} // namespace fcc

#endif // FCC_SUPPORT_JSONESCAPE_H
