#include "core/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/time.h"

namespace ms::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_complete_event(std::string& out, const std::string& name,
                           const std::string& cat, long long pid,
                           long long tid, std::int64_t start_ns,
                           std::int64_t dur_ns, const std::string& detail) {
  char num[96];
  std::snprintf(num, sizeof(num),
                ",\"pid\":%lld,\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f", pid, tid,
                to_microseconds(start_ns), to_microseconds(dur_ns));
  out += "{\"name\":\"" + escape(name) + "\",\"cat\":\"" + escape(cat) +
         "\",\"ph\":\"X\"" + num;
  if (!detail.empty()) {
    out += ",\"args\":{\"detail\":\"" + escape(detail) + "\"}";
  }
  out += '}';
}

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object->find(key);
  return it == object->end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool parse(Value& out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }
  std::size_t pos() const { return pos_; }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(const char* word, Value& out, Value::Kind kind, bool b) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    out.kind = kind;
    out.boolean = b;
    return true;
  }
  bool string_body(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const std::string hex(s_.substr(pos_, 4));
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          // Our emitters only produce \u00xx control escapes; decode the
          // BMP code point as UTF-8 for anything else.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool word(const char* w) {
    for (const char* p = w; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  bool number_body(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    // Kineto/PyTorch profiler exports write bare NaN/Infinity tokens for
    // undefined counter values; tolerate them (JSON5-style) instead of
    // failing the whole artifact.
    if (pos_ < s_.size() && (s_[pos_] == 'N' || s_[pos_] == 'I')) {
      const bool neg = s_[start] == '-';
      const bool is_nan = s_[pos_] == 'N';
      if (!(is_nan ? word("NaN") : word("Infinity"))) return false;
      out.kind = Value::Kind::kNumber;
      out.number = is_nan ? std::numeric_limits<double>::quiet_NaN()
                          : (neg ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity());
      return true;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    bool integral = digits;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      eat_digits();
      integral = false;
    }
    if (!digits) return false;
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      digits = false;
      eat_digits();
      if (!digits) return false;
      integral = false;
    }
    out.kind = Value::Kind::kNumber;
    // An integer literal that fits int64 keeps its exact value and skips
    // strtod: the int64 converts to the same double strtod rounds it to.
    const bool neg = s_[start] == '-';
    const char* first = s_.data() + start + (s_[start] == '+' ? 1 : 0);
    out.integral = integral && std::from_chars(first, s_.data() + pos_,
                                               out.integer).ec == std::errc{};
    if (out.integral) {
      out.number = neg && out.integer == 0 ? -0.0
                                           : static_cast<double>(out.integer);
    } else {
      const std::string token(s_.substr(start, pos_ - start));
      out.number = std::strtod(token.c_str(), nullptr);
    }
    return true;
  }
  /// `depth` counts the arrays/objects enclosing this value.
  bool value(Value& out, int depth) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if ((c == '[' || c == '{') && depth == kMaxDepth) return false;
    if (c == 'n') return literal("null", out, Value::Kind::kNull, false);
    if (c == 't') return literal("true", out, Value::Kind::kBool, true);
    if (c == 'f') return literal("false", out, Value::Kind::kBool, false);
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return string_body(out.str);
    }
    if (c == '[') {
      ++pos_;
      out.kind = Value::Kind::kArray;
      out.array = std::make_shared<std::vector<Value>>();
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Value element;
        if (!value(element, depth + 1)) return false;
        out.array->push_back(std::move(element));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '{') {
      ++pos_;
      out.kind = Value::Kind::kObject;
      out.object = std::make_shared<decltype(out.object)::element_type>();
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string_body(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        Value element;
        if (!value(element, depth + 1)) return false;
        (*out.object)[key] = std::move(element);
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    return number_body(out);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// How an error message shows a value it rejected.
std::string describe(const Value& v) {
  char num[32];
  switch (v.kind) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return v.boolean ? "true" : "false";
    case Value::Kind::kNumber:
      if (v.integral) return std::to_string(v.integer);
      return {num, std::to_chars(num, num + sizeof(num), v.number).ptr};
    case Value::Kind::kString:
      return "\"" + escape(v.str.substr(0, 40)) +
             (v.str.size() > 40 ? "...\"" : "\"");
    case Value::Kind::kArray: return "an array";
    case Value::Kind::kObject: return "an object";
  }
  return "?";
}

}  // namespace

bool parse(std::string_view text, Value& out, std::size_t* error_offset) {
  Value v;
  Parser parser(text);
  if (!parser.parse(v)) {
    if (error_offset != nullptr) *error_offset = parser.pos();
    return false;
  }
  out = std::move(v);
  return true;
}

// ---------------------------------------------------------------- Fields

Fields::Fields(const Value* object, std::string* error, std::string prefix)
    : object_(object), error_(error), prefix_(std::move(prefix)) {}

const Value* Fields::find(std::string_view key) const {
  return ok() && object_ != nullptr ? object_->find(key) : nullptr;
}

void Fields::reject(std::string_view key, const Value* got,
                    const std::string& expects) {
  if (!ok()) return;
  *error_ = "field \"" + prefix_ + std::string(key) + "\": " +
            (got != nullptr ? "got " + describe(*got) : "missing") +
            ", expects " + expects;
}

void Fields::text(std::string_view key, std::string& slot) {
  const Value* v = find(key);
  if (v != nullptr && v->kind == Value::Kind::kString) {
    slot = v->str;
  } else {
    reject(key, v, "a string");
  }
}

bool Fields::read_int(std::string_view key, std::int64_t& n, std::int64_t lo,
                      std::int64_t hi) {
  const Value* v = find(key);
  if (v != nullptr && v->integral && v->integer >= lo && v->integer <= hi) {
    n = v->integer;
    return true;
  }
  reject(key, v, "an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  return false;
}

void Fields::real(std::string_view key, double& slot,
                  const flags::Interval& range) {
  const Value* v = find(key);
  if (v != nullptr && v->kind == Value::Kind::kNumber &&
      flags::contains(range, v->number)) {
    slot = v->number;
  } else {
    reject(key, v, flags::describe(range));
  }
}

void Fields::hex(std::string_view key, std::uint64_t& slot) {
  // parse_uint's base 16 takes the "0x" itself and rejects a second one.
  const Value* v = find(key);
  if (v == nullptr || v->kind != Value::Kind::kString ||
      v->str.rfind("0x", 0) != 0 || !flags::parse_uint(v->str, slot, 16)) {
    reject(key, v, "a \"0x\"-prefixed 64-bit hex string");
  }
}

Fields Fields::object(std::string_view key) {
  const Value* v = find(key);
  if (v == nullptr || !v->is_object()) reject(key, v, "an object");
  return Fields(ok() ? v : nullptr, error_, prefix_ + std::string(key) + ".");
}

void Fields::fail(std::string problem) {
  if (ok()) *error_ = std::move(problem);
}

bool fail(std::string* error, std::string problem) {
  if (error != nullptr) *error = std::move(problem);
  return false;
}

bool parse_lines(std::string_view text, const std::function<void(Fields&)>& row,
                 std::string* error) {
  Value v;
  for (std::size_t line_no = 1; !text.empty(); ++line_no) {
    const std::string_view line = text.substr(0, text.find('\n'));
    text.remove_prefix(std::min(line.size() + 1, text.size()));
    if (line.empty()) continue;
    const auto at = [line_no] { return "line " + std::to_string(line_no); };
    std::size_t offset = 0;
    if (!parse(line, v, &offset)) {
      return fail(error, at() + ", byte " + std::to_string(offset) +
                             ": malformed JSON");
    }
    if (!v.is_object()) {
      return fail(error, at() + ": got " + describe(v) + ", expects an object");
    }
    Fields f(v);
    row(f);
    if (!f.ok()) return fail(error, at() + ": " + f.error());
  }
  return true;
}

}  // namespace ms::json
