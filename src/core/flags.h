// Command-line flags and strict number parsing: the one module that turns
// argv tokens into values (artifact fields go through core/json's reader,
// which shares the number helpers and Interval below).
//
// A CLI declares each flag once on a Parser (name, slot and, for a value
// flag, what it accepts) and parses argv with it. The grammar: a value flag
// takes the next token verbatim; any other token starting with '-' must be
// a declared switch; the rest fill the positionals in order. There are no
// short flags, no `--k=v` and no abbreviations. A number must be the whole
// token, finite, free of overflow and in range. Every error names the argv
// position, the flag and what it accepts:
//
//   $ msplan --model 13b --gpus 256x
//   msplan: argument 3 (--gpus): got "256x", expects an integer in [1, 1048576]
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ms::flags {

/// True only when all of `text` is one number: no leading space, no
/// trailing characters, no overflow. parse_uint takes strtoull's base
/// (0 = decimal, 0x hex or 0-prefixed octal) but rejects a sign;
/// parse_double rejects nan and inf.
bool parse_int(const std::string& text, std::int64_t& out);
bool parse_uint(const std::string& text, std::uint64_t& out, int base = 10);
bool parse_double(const std::string& text, double& out);

/// Accepted range of a real flag; an infinite bound means unbounded.
struct Interval {
  double lo = 0;
  double hi = 0;
  bool lo_open = false;
  bool hi_open = false;
};
inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr Interval kFinite{-kInf, kInf, true, true};      // finite
inline constexpr Interval kPositive{0.0, kInf, true, true};      // (0, inf)
inline constexpr Interval kNonNegative{0.0, kInf, false, true};  // [0, inf)
inline constexpr Interval kFraction{0.0, 1.0, true, false};      // (0, 1]

/// Whether `x` is finite and inside `range`.
bool contains(const Interval& range, double x);
/// "a finite number in [lo, hi)", or "a finite number" when unbounded.
std::string describe(const Interval& range);

class Parser {
 public:
  /// `command` holds the argv words before the parsed ones ("msdiag
  /// fabric"): it prefixes every error, and its word count is the argv
  /// position of args[0]. `usage` is printed after every error.
  explicit Parser(std::string command, std::string usage = "");

  /// A switch: present sets `slot` to true.
  void flag(std::string name, bool& slot);
  /// Any single token (paths, names the caller resolves).
  void text(std::string name, std::string& slot);
  void choice(std::string name, std::string& slot,
              std::vector<std::string> choices);
  /// A decimal integer in [lo, hi].
  template <typename Int>
  void integer(std::string name, Int& slot, std::int64_t lo,
               std::int64_t hi = std::numeric_limits<int>::max()) {
    add(flags_, std::move(name),
        "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
            "]",
        [&slot, lo, hi](const std::string& v) {
          std::int64_t n = 0;
          if (!parse_int(v, n) || n < lo || n > hi) return false;
          slot = static_cast<Int>(n);
          return true;
        });
  }
  /// Any uint64, in parse_uint's base-0 syntax.
  void seed(std::string name, std::uint64_t& slot);
  /// A finite real in `range`. A non-empty `keyword` parses too and
  /// restores `slot` to its value at declaration (e.g. "auto").
  void real(std::string name, double& slot, Interval range,
            std::string keyword = "");
  /// The next positional argument; non-empty `choices` restrict it.
  void positional(std::string name, std::string& slot, bool required = true,
                  std::vector<std::string> choices = {});

  /// Fills the declared slots from `args`. On the first error writes one
  /// line and the usage text to `err` and returns false.
  bool parse(const std::vector<std::string>& args, std::ostream& err);
  /// Whether flag `name` appeared in the parsed arguments.
  bool seen(const std::string& name) const;

 private:
  using Store = std::function<bool(const std::string&)>;  // false rejects
  struct Entry {
    std::string name;
    std::string accepts;  // what a value must be; empty for a switch
    Store store;
    bool required = false;
    bool seen = false;
  };
  static void add(std::vector<Entry>& table, std::string name,
                  std::string accepts, Store store, bool required = false);
  static void add_choice(std::vector<Entry>& table, std::string name,
                         std::string& slot, std::vector<std::string> choices,
                         bool required);

  std::string command_;
  std::string usage_;
  std::size_t first_position_ = 1;
  std::vector<Entry> flags_;
  std::vector<Entry> positionals_;
};

}  // namespace ms::flags
