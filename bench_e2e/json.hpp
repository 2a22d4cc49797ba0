// Minimal JSON reader for the benchmark's own files: BENCHMARK.json (metric
// names and bounds) and the one-line result objects bench_e2e prints. Covers
// the whole grammar (objects, arrays, strings with escapes, numbers, bools,
// null) with a nesting limit; anything malformed throws std::runtime_error.
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fca::bench_json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Member `key` of an object, or nullptr when absent / not an object.
  const Value* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  const Value& at(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr) {
      throw std::runtime_error("missing JSON key \"" + std::string(key) + "\"");
    }
    return *v;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    Value v;
    const char c = peek();
    if (c == '{') {
      v.kind = Value::Kind::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        if (peek() != '"') fail("expected object key");
        std::string key = parse_string();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value(depth + 1));
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.kind = Value::Kind::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(parse_value(depth + 1));
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Value::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    v.kind = Value::Kind::kNumber;
    v.number = parse_number();
    return v;
  }

  double parse_number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number " + token);
    return d;
  }

  unsigned hex4() {
    if (pos_ + 4 > s_.size()) fail("short \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad \\u escape");
    }
    return cp;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp < 0xDC00) {
            if (!consume_literal("\\u")) fail("lone high surrogate");
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo >= 0xE000) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp < 0xE000) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace detail

inline Value parse(std::string_view text) {
  return detail::Parser(text).parse_document();
}

}  // namespace fca::bench_json
