// Minimal JSON utilities: every artifact the repo writes or reads goes
// through this module.
//
//  * escape() and append_complete_event() — the string escaping every
//    emitter uses, and the one Chrome-trace event layout both trace
//    writers share;
//  * Value/parse() — a small recursive-descent parser for the JSON the
//    repo emits and for external Chrome/Kineto traces; it reports the
//    byte offset of a syntax error and keeps int64 literals exact;
//  * Fields/parse_lines() — the typed field reader, the one place a JSON
//    value becomes an int, TimeNs, uint64_t, double or string. A loader
//    names each field once, with its type and range; the first field that
//    is missing, mistyped or out of range becomes the load's one error:
//      line 2: field "node": got 1e+300, expects an integer in [0, 2147483647]
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/flags.h"

namespace ms::json {

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, \n\t\r, other control characters as \u00xx).
std::string escape(const std::string& s);

/// Appends one Chrome-trace complete ("X") event: ts/dur in µs with three
/// decimals (nanosecond resolution, so sub-µs spans keep a nonzero
/// duration in the viewer) and `args.detail` when non-empty.
void append_complete_event(std::string& out, const std::string& name,
                           const std::string& cat, long long pid,
                           long long tid, std::int64_t start_ns,
                           std::int64_t dur_ns,
                           const std::string& detail = "");

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  /// Set for an integer literal (no '.', no exponent) that fits int64;
  /// `integer` is then its exact value.
  bool integral = false;
  std::int64_t integer = 0;
  std::string str;
  std::shared_ptr<std::vector<Value>> array;
  std::shared_ptr<std::map<std::string, Value, std::less<>>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  /// The member `key` of an object, or nullptr.
  const Value* find(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }
  const Value& at(const std::string& key) const { return object->at(key); }
  const Value& operator[](std::size_t i) const { return (*array)[i]; }
  std::size_t size() const {
    if (kind == Kind::kArray) return array->size();
    if (kind == Kind::kObject) return object->size();
    return 0;
  }
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so unbounded input would overflow the stack; the deepest
/// artifact the repo reads (a Kineto trace) nests 4 levels.
inline constexpr int kMaxDepth = 512;

/// Parses one JSON value (plus a leading '+' and Kineto's NaN/Infinity).
/// Returns false (and leaves `out` untouched) on malformed input, including
/// nesting deeper than kMaxDepth, instead of throwing; `error_offset` then
/// gets the 0-based offset of the first byte the parser could not accept.
bool parse(std::string_view text, Value& out,
           std::size_t* error_offset = nullptr);

/// Reads the fields of one object into typed slots. A read fills its slot
/// or, on the first failure, records the one error and turns every later
/// read into a no-op, so a loader checks ok() once. Every field is
/// required; guard an optional one with find().
class Fields {
 public:
  explicit Fields(const Value& object) : Fields(&object, &own_error_, "") {}
  Fields(const Fields&) = delete;
  Fields& operator=(const Fields&) = delete;

  /// The member `key`, or nullptr when absent or after a failed read.
  const Value* find(std::string_view key) const;
  void text(std::string_view key, std::string& slot);
  /// An integer literal in [lo, hi].
  template <typename Int>
  void integer(std::string_view key, Int& slot, std::int64_t lo = 0,
               std::int64_t hi = kMax<Int>) {
    std::int64_t n = 0;
    if (read_int(key, n, lo, hi)) slot = static_cast<Int>(n);
  }
  void real(std::string_view key, double& slot,
            const flags::Interval& range = flags::kFinite);
  /// A "0x"-prefixed hex string (the writers' digests).
  void hex(std::string_view key, std::uint64_t& slot);
  /// A reader over the nested object `key` (it must not outlive this one);
  /// its errors name "key.member" and become this reader's error.
  Fields object(std::string_view key);
  /// Records `problem` unless a read already failed.
  void fail(std::string problem);
  bool ok() const { return error_->empty(); }
  const std::string& error() const { return *error_; }

 private:
  /// Int's maximum, capped at int64's: an exact integer is an int64.
  template <typename Int>
  static constexpr std::int64_t kMax =
      static_cast<std::uint64_t>(std::numeric_limits<Int>::max()) >
              static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max())
          ? std::numeric_limits<std::int64_t>::max()
          : static_cast<std::int64_t>(std::numeric_limits<Int>::max());

  Fields(const Value* object, std::string* error, std::string prefix);
  bool read_int(std::string_view key, std::int64_t& n, std::int64_t lo,
                std::int64_t hi);
  void reject(std::string_view key, const Value* got,
              const std::string& expects);

  const Value* object_;
  std::string own_error_;
  std::string* error_;
  std::string prefix_;  // "key." of a nested reader
};

/// Reads JSONL: calls `row` with a reader over each non-empty line, which
/// must be one JSON object. Stops at the first line that is malformed or
/// whose reader failed, with `*error` (when non-null) set to
/// "line N, byte M: malformed JSON" or "line N: " + the reader's error.
bool parse_lines(std::string_view text, const std::function<void(Fields&)>& row,
                 std::string* error);

/// Sets `*error` (when non-null) to `problem` and returns false: how a
/// loader reports a problem found outside parse_lines.
bool fail(std::string* error, std::string problem);

}  // namespace ms::json
