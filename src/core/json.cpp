#include "core/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

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

double Value::num(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  const Value& v = at(key);
  return v.kind == Kind::kNumber ? v.number : fallback;
}

std::string Value::text(const std::string& key,
                        const std::string& fallback) const {
  if (!has(key)) return fallback;
  const Value& v = at(key);
  return v.kind == Kind::kString ? v.str : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(Value& out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

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
          const std::string hex = s_.substr(pos_, 4);
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
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    if (!digits) return false;
    out.kind = Value::Kind::kNumber;
    out.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
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
      out.object = std::make_shared<std::map<std::string, Value>>();
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

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse(const std::string& text, Value& out) {
  Value v;
  if (!Parser(text).parse(v)) return false;
  out = std::move(v);
  return true;
}

}  // namespace ms::json
