// Minimal JSON utilities shared by the diagnosis artifact layer and the
// telemetry exporters.
//
// Two halves:
//  * escape() — the one audited string-escaping routine every emitter in
//    the repo uses (exporters, chrome traces, artifact writers), so a span
//    name with a quote or control character cannot corrupt an artifact;
//  * Value/parse() — a small recursive-descent parser for the JSON the
//    repo itself emits (flight-recorder dumps, span JSONL, outcome
//    records). It supports the full value grammar with numbers held as
//    double; it is for tooling (msdiag) and artifacts, not a general
//    internet-facing parser.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ms::json {

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, \n\t\r, other control characters as \u00xx).
std::string escape(const std::string& s);

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::shared_ptr<std::vector<Value>> array;
  std::shared_ptr<std::map<std::string, Value>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool has(const std::string& key) const {
    return kind == Kind::kObject && object->count(key) > 0;
  }
  const Value& at(const std::string& key) const { return object->at(key); }
  const Value& operator[](std::size_t i) const { return (*array)[i]; }
  std::size_t size() const {
    if (kind == Kind::kArray) return array->size();
    if (kind == Kind::kObject) return object->size();
    return 0;
  }

  /// Typed lookups with defaults — artifact loaders stay short.
  double num(const std::string& key, double fallback = 0) const;
  std::string text(const std::string& key,
                   const std::string& fallback = "") const;
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so unbounded input would overflow the stack; the deepest
/// artifact the repo reads (a Kineto trace) nests 4 levels.
inline constexpr int kMaxDepth = 512;

/// Parses one JSON value. Returns false (and leaves `out` untouched) on
/// malformed input, including nesting deeper than kMaxDepth, instead of
/// throwing — artifact loaders report the line.
bool parse(const std::string& text, Value& out);

}  // namespace ms::json
