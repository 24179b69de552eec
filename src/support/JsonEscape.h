//===- support/JsonEscape.h - JSON string writer ----------------*- C++ -*-===//
///
/// \file
/// The one JSON string writer every serializer in the repository shares:
/// batch reports, daemon responses, Chrome traces and fuzz summaries.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_JSONESCAPE_H
#define FCC_SUPPORT_JSONESCAPE_H

#include <string>

namespace fcc {

/// Appends \p S to \p Out as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
void appendJsonEscaped(std::string &Out, const std::string &S);

} // namespace fcc

#endif // FCC_SUPPORT_JSONESCAPE_H
