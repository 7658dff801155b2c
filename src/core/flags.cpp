#include "core/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace ms::flags {

namespace {

// strto* skip leading space, so check that the token starts with the
// number, then that the number ends the token.
bool whole(const std::string& text, const char* end) {
  return !text.empty() && !std::isspace(static_cast<unsigned char>(text[0])) &&
         end == text.c_str() + text.size();
}

}  // namespace

bool parse_int(const std::string& text, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || !whole(text, end)) return false;
  out = v;
  return true;
}

bool parse_uint(const std::string& text, std::uint64_t& out, int base) {
  // strtoull negates a leading '-' instead of rejecting it.
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, base);
  if (errno == ERANGE || !whole(text, end)) return false;
  out = v;
  return true;
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (!whole(text, end) || !std::isfinite(v)) return false;
  out = v;
  return true;
}

bool contains(const Interval& range, double x) {
  if (!std::isfinite(x)) return false;
  if (range.lo_open ? x <= range.lo : x < range.lo) return false;
  return range.hi_open ? x < range.hi : x <= range.hi;
}

std::string describe(const Interval& range) {
  if (std::isinf(range.lo) && std::isinf(range.hi)) return "a finite number";
  std::ostringstream out;  // inf prints as "inf"
  out << "a finite number in " << (range.lo_open ? "(" : "[") << range.lo
      << ", " << range.hi << (range.hi_open ? ")" : "]");
  return out.str();
}

Parser::Parser(std::string command, std::string usage)
    : command_(std::move(command)), usage_(std::move(usage)) {
  for (char c : command_) {
    if (c == ' ') ++first_position_;
  }
}

void Parser::add(std::vector<Entry>& table, std::string name,
                 std::string accepts, Store store, bool required) {
  table.push_back(
      {std::move(name), std::move(accepts), std::move(store), required});
}

void Parser::add_choice(std::vector<Entry>& table, std::string name,
                        std::string& slot, std::vector<std::string> choices,
                        bool required) {
  std::string accepts = choices.empty() ? "a value" : "one of ";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    accepts += (i ? "|" : "") + choices[i];
  }
  add(table, std::move(name), std::move(accepts),
      [&slot, choices = std::move(choices)](const std::string& v) {
        bool known = choices.empty();
        for (const auto& c : choices) known |= c == v;
        if (known) slot = v;
        return known;
      },
      required);
}

void Parser::flag(std::string name, bool& slot) {
  add(flags_, std::move(name), "", [&slot](const std::string&) {
    slot = true;
    return true;
  });
}

void Parser::text(std::string name, std::string& slot) {
  add_choice(flags_, std::move(name), slot, {}, false);
}

void Parser::choice(std::string name, std::string& slot,
                    std::vector<std::string> choices) {
  add_choice(flags_, std::move(name), slot, std::move(choices), false);
}

void Parser::seed(std::string name, std::uint64_t& slot) {
  add(flags_, std::move(name),
      "an unsigned 64-bit integer (decimal or 0x hex)",
      [&slot](const std::string& v) { return parse_uint(v, slot, 0); });
}

void Parser::real(std::string name, double& slot, Interval range,
                  std::string keyword) {
  add(flags_, std::move(name),
      describe(range) + (keyword.empty() ? "" : " or " + keyword),
      [&slot, range, keyword, fallback = slot](const std::string& v) {
        double x = fallback;
        if (keyword.empty() || v != keyword) {
          if (!parse_double(v, x) || !contains(range, x)) return false;
        }
        slot = x;
        return true;
      });
}

void Parser::positional(std::string name, std::string& slot, bool required,
                        std::vector<std::string> choices) {
  add_choice(positionals_, std::move(name), slot, std::move(choices),
             required);
}

bool Parser::parse(const std::vector<std::string>& args, std::ostream& err) {
  auto fail = [&](std::size_t i, const std::string& name,
                  const std::string& problem) {
    err << command_ << ": argument " << first_position_ + i << " (" << name
        << "): " << problem << "\n"
        << usage_;
    return false;
  };
  std::size_t next_positional = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      if (next_positional == positionals_.size()) {
        return fail(i, arg, "unexpected extra argument");
      }
      const Entry& pos = positionals_[next_positional++];
      if (!pos.store(arg)) {
        return fail(i, pos.name, "got \"" + arg + "\", expects " + pos.accepts);
      }
      continue;
    }
    Entry* flag = nullptr;
    for (Entry& e : flags_) {
      if (e.name == arg) flag = &e;
    }
    if (flag == nullptr) return fail(i, arg, "unknown flag");
    flag->seen = true;
    if (flag->accepts.empty()) {
      flag->store(arg);
    } else if (i + 1 == args.size()) {
      return fail(i, arg, "missing value, expects " + flag->accepts);
    } else if (!flag->store(args[i + 1])) {
      return fail(i, arg,
                  "got \"" + args[i + 1] + "\", expects " + flag->accepts);
    } else {
      ++i;
    }
  }
  for (std::size_t p = next_positional; p < positionals_.size(); ++p) {
    if (positionals_[p].required) {
      return fail(args.size(), positionals_[p].name, "missing");
    }
  }
  return true;
}

bool Parser::seen(const std::string& name) const {
  for (const Entry& e : flags_) {
    if (e.name == name) return e.seen;
  }
  return false;
}

}  // namespace ms::flags
