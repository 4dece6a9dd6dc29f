#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace hublab {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

JsonWriter::JsonWriter(std::ostream& out, int indent) : out_(out), indent_(indent) {
  HUBLAB_ASSERT(indent >= 0);
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through unescaped
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::newline_indent() {
  if (indent_ == 0) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_); ++i) out_ << ' ';
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    HUBLAB_ASSERT_MSG(!root_written_, "JsonWriter: multiple top-level values");
    root_written_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.is_object) {
    HUBLAB_ASSERT_MSG(top.key_pending, "JsonWriter: value inside object requires key()");
    top.key_pending = false;
    return;  // key() already handled the comma and indent
  }
  if (top.has_members) out_ << ',';
  newline_indent();
  top.has_members = true;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  HUBLAB_ASSERT_MSG(!stack_.empty() && stack_.back().is_object,
                    "JsonWriter: key() outside an object");
  Frame& top = stack_.back();
  HUBLAB_ASSERT_MSG(!top.key_pending, "JsonWriter: two keys in a row");
  if (top.has_members) out_ << ',';
  newline_indent();
  top.has_members = true;
  top.key_pending = true;
  out_ << escape(k) << (indent_ == 0 ? ":" : ": ");
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  stack_.push_back(Frame{true, false, false});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  HUBLAB_ASSERT_MSG(!stack_.empty() && stack_.back().is_object && !stack_.back().key_pending,
                    "JsonWriter: unbalanced end_object()");
  const bool had = stack_.back().has_members;
  stack_.pop_back();
  if (had) newline_indent();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  stack_.push_back(Frame{false, false, false});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  HUBLAB_ASSERT_MSG(!stack_.empty() && !stack_.back().is_object,
                    "JsonWriter: unbalanced end_array()");
  const bool had = stack_.back().has_members;
  stack_.pop_back();
  if (had) newline_indent();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ << escape(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string_view(v)); }

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ << "null";  // JSON has no Inf/NaN
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value_null() {
  before_value();
  out_ << "null";
  return *this;
}

bool JsonWriter::done() const { return root_written_ && stack_.empty(); }

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view name) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_members) {
    if (k == name) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    JsonValue v;
    switch (peek()) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(); break;
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string_value = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.bool_value = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.bool_value = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v.kind = JsonValue::Kind::kNull;
        break;
      default: v = parse_number(); break;
    }
    --depth_;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string k = parse_string();
      skip_ws();
      expect(':');
      v.object_members.emplace_back(std::move(k), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode the code point as UTF-8 (BMP only; surrogate pairs are
          // not needed by any hublab emitter and are rejected).
          if (code >= 0xd800 && code <= 0xdfff) fail("surrogate pairs unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6U));
            out += static_cast<char>(0x80 | (code & 0x3fU));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12U));
            out += static_cast<char>(0x80 | ((code >> 6U) & 0x3fU));
            out += static_cast<char>(0x80 | (code & 0x3fU));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [this] {
      std::size_t n = 0;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number: missing fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("bad number: missing exponent digits");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    // The grammar above already matched, so from_chars consumes the whole
    // token; its only failure left is a value outside the double range
    // (overflow or underflow), e.g. 1e999 or 1e-400.
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(text_.data() + start, last, v.number_value);
    if (ec != std::errc{} || end != last) {
      throw ParseError("json: number out of double range at offset " + std::to_string(start));
    }
    return v;
  }

  static constexpr int kMaxDepth = 256;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace hublab
