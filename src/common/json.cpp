#include "common/json.h"

#include <cctype>

namespace heterog::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError(why + " (at offset " + std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value parse_value() {
    // Depth cap: a crafted file of nothing but '[' must fail typed, not
    // overflow the stack.
    if (depth_ >= 256) fail("nesting too deep");
    ++depth_;
    Value v = parse_value_inner();
    --depth_;
    return v;
  }

  Value parse_value_inner() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return parse_number();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      Value v;
      v.type = Value::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      Value v;
      v.type = Value::Type::kBool;
      return v;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Value{};
    }
    fail("unexpected character");
  }

  Value parse_object() {
    Value v;
    v.type = Value::Type::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      Value key = parse_string();
      expect(':');
      v.object[key.str] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    Value v;
    v.type = Value::Type::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Value parse_string() {
    Value v;
    v.type = Value::Type::kString;
    expect('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            c = esc;
            break;
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          default:
            fail("unsupported escape sequence");
        }
      }
      v.str.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return v;
  }

  /// The token is every following character that can appear in a number;
  /// it must convert in full, so "1-2" is an error rather than 1.
  Value parse_number() {
    skip_ws();
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    Value v;
    v.type = Value::Type::kNumber;
    size_t used = 0;
    try {
      v.number = std::stod(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != token.size()) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace heterog::json
