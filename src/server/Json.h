//===- server/Json.h - Minimal JSON for the wire protocol -------*- C++ -*-===//
///
/// \file
/// A small, strict JSON reader for the daemon's line-delimited protocol
/// (src/server/Server.h) and the client that speaks it. Scope is exactly
/// what the protocol needs: objects, arrays, strings (with the escapes our
/// own serializers emit plus \uXXXX), 64-bit integers, booleans and null.
/// Fractions and exponents are rejected — no protocol field is a float, and
/// refusing them is safer than silently truncating. There is deliberately
/// no writer here: responses are assembled with the escaping and unit
/// serialization service/BatchReport.h already exposes, so cached and
/// freshly compiled traffic share one proven serializer.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SERVER_JSON_H
#define FCC_SERVER_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fcc {
namespace json {

/// One parsed JSON value. Objects keep their members in a sorted map —
/// protocol readers look fields up by name and never care about order.
class Value {
public:
  enum class Kind { Null, Bool, Int, Str, Array, Object };

  Kind kind() const { return K; }

  bool boolean() const { return B; }
  int64_t integer() const { return I; }
  const std::string &str() const { return S; }
  const std::vector<Value> &array() const { return Arr; }

  /// Member lookup; nullptr when absent or when this is not an object.
  const Value *find(const std::string &Name) const;

  /// Typed accessors with defaults, for optional protocol fields.
  int64_t intOr(const std::string &Name, int64_t Default) const;
  bool boolOr(const std::string &Name, bool Default) const;
  std::string strOr(const std::string &Name,
                    const std::string &Default) const;

private:
  friend class Parser;
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  std::string S;
  std::vector<Value> Arr;
  std::map<std::string, Value> Obj;
};

/// Parses \p Text as one JSON document (surrounding whitespace allowed,
/// trailing garbage rejected). Returns false and fills \p Error with a
/// byte-offset diagnostic on malformed input.
bool parse(const std::string &Text, Value &Out, std::string &Error);

} // namespace json
} // namespace fcc

#endif // FCC_SERVER_JSON_H
