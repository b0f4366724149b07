#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace rrf::json {

namespace {

void indent_to(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

/// Largest magnitude below which every integer is an exact double (2^53).
constexpr double kMaxExactInteger = 9007199254740992.0;

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // 64 bytes hold the longest shortest form of any double (24 chars) and
  // any integer below 2^53.
  char buf[64];
  char* end = nullptr;
  // Integral values within the exactly-representable range print as plain
  // integers: shortest form would render 1e15 as "1e+15", which neither
  // reads nor diffs like the integer counters and window counts these
  // usually are.  (-0.0 keeps the shortest path so the sign survives.)
  if (d == std::floor(d) && std::fabs(d) <= kMaxExactInteger &&
      !(d == 0.0 && std::signbit(d))) {  // determinism-lint: allow(float-eq)
    end = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d)).ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), d).ptr;
  }
  out.append(buf, end);
}

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
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
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xF]);
          out.push_back(kHex[c & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_value(const Value& v, std::string& out, int indent, int depth);

void dump_array(const Array& a, std::string& out, int indent, int depth) {
  if (a.empty()) {
    out += "[]";
    return;
  }
  out.push_back('[');
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) out.push_back(',');
    if (indent > 0) indent_to(out, indent, depth + 1);
    dump_value(a[i], out, indent, depth + 1);
  }
  if (indent > 0) indent_to(out, indent, depth);
  out.push_back(']');
}

void dump_object(const Object& o, std::string& out, int indent, int depth) {
  if (o.empty()) {
    out += "{}";
    return;
  }
  out.push_back('{');
  for (std::size_t i = 0; i < o.size(); ++i) {
    if (i > 0) out.push_back(',');
    if (indent > 0) indent_to(out, indent, depth + 1);
    append_escaped(out, o[i].first);
    out.push_back(':');
    if (indent > 0) out.push_back(' ');
    dump_value(o[i].second, out, indent, depth + 1);
  }
  if (indent > 0) indent_to(out, indent, depth);
  out.push_back('}');
}

void dump_value(const Value& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    append_number(out, v.as_number());
  } else if (v.is_string()) {
    append_escaped(out, v.as_string());
  } else if (v.is_array()) {
    dump_array(v.as_array(), out, indent, depth);
  } else {
    dump_object(v.as_object(), out, indent, depth);
  }
}

/// Strict recursive-descent parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw DomainError("json parse error at byte " + std::to_string(pos_) +
                      ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return Value(parse_number());
    }
  }

  Value parse_object() {
    expect('{');
    Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      for (const auto& [existing, value] : members) {
        (void)value;
        if (existing == key) fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return value;
  }

  /// UTF-8 encode a BMP codepoint (surrogate pairs are passed through as
  /// two 3-byte sequences; good enough for report tooling).
  static void append_codepoint(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0u | (cp >> 6)));
      out.push_back(static_cast<char>(0x80u | (cp & 0x3Fu)));
    } else {
      out.push_back(static_cast<char>(0xE0u | (cp >> 12)));
      out.push_back(static_cast<char>(0x80u | ((cp >> 6) & 0x3Fu)));
      out.push_back(static_cast<char>(0x80u | (cp & 0x3Fu)));
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t count = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++count;
      }
      return count;
    };
    const std::size_t int_start = pos_;
    if (digits() == 0) fail("bad number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("bad number exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    // The grammar above admits no "inf" spelling, so an infinite result
    // means strtod overflowed (underflow to 0 or a subnormal is kept).
    const double value = std::strtod(token.c_str(), nullptr);
    if (std::isinf(value)) fail("number out of range");
    return value;
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) throw DomainError("json value is not a bool");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  if (!is_number()) throw DomainError("json value is not a number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) throw DomainError("json value is not a string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) throw DomainError("json value is not an array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) throw DomainError("json value is not an object");
  return std::get<Object>(v_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string format_number(double d) {
  std::string out;
  append_number(out, d);
  return out;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

/// What a failed check names: an object member ("field 'key'") or an
/// array element (the caller's description).  Built only on failure.
struct Name {
  std::string_view text;
  bool field;
};

[[noreturn]] void wrong_type(const Reader& r, Name name,
                             std::string_view type) {
  std::string what = name.field ? "field '" + std::string(name.text) + "'"
                                : std::string(name.text);
  r.fail(what + " is not " + std::string(type));
}

double to_number(const Reader& r, const Value& v, Name name) {
  if (!v.is_number()) wrong_type(r, name, "a number");
  return v.as_number();
}

std::int64_t to_int64(const Reader& r, const Value& v, Name name) {
  const double d = to_number(r, v, name);
  if (d != std::floor(d) || std::fabs(d) > kMaxExactInteger) {
    wrong_type(r, name, "an integer");
  }
  return static_cast<std::int64_t>(d);
}

std::size_t to_size(const Reader& r, const Value& v, Name name) {
  const double d = to_number(r, v, name);
  if (d < 0.0 || d != std::floor(d) || d > kMaxExactInteger) {
    wrong_type(r, name, "a non-negative integer");
  }
  return static_cast<std::size_t>(d);
}

const std::string& to_string(const Reader& r, const Value& v, Name name) {
  if (!v.is_string()) wrong_type(r, name, "a string");
  return v.as_string();
}

}  // namespace

Reader::Reader(const Value& value, std::string_view prefix,
               std::string_view what)
    : value_(value), prefix_(prefix) {
  if (!value.is_object()) fail(std::string(what) + " is not an object");
}

void Reader::fail(std::string_view message) const {
  throw DomainError(std::string(prefix_) + ": " + std::string(message));
}

const Value& Reader::at(std::string_view key) const {
  const Value* v = value_.find(key);
  if (v == nullptr) fail("missing field '" + std::string(key) + "'");
  return *v;
}

double Reader::number(std::string_view key) const {
  return to_number(*this, at(key), {key, true});
}

std::int64_t Reader::int64(std::string_view key) const {
  return to_int64(*this, at(key), {key, true});
}

std::size_t Reader::size(std::string_view key) const {
  return to_size(*this, at(key), {key, true});
}

const std::string& Reader::string(std::string_view key) const {
  return to_string(*this, at(key), {key, true});
}

bool Reader::boolean(std::string_view key) const {
  const Value& v = at(key);
  if (!v.is_bool()) wrong_type(*this, {key, true}, "a bool");
  return v.as_bool();
}

const Array& Reader::array(std::string_view key) const {
  const Value& v = at(key);
  if (!v.is_array()) wrong_type(*this, {key, true}, "an array");
  return v.as_array();
}

Reader Reader::object(std::string_view key) const {
  const Value& v = at(key);
  if (!v.is_object()) wrong_type(*this, {key, true}, "an object");
  return Reader(v, prefix_);
}

double Reader::number_or(std::string_view key, double fallback) const {
  const Value* v = value_.find(key);
  return v == nullptr ? fallback : to_number(*this, *v, {key, true});
}

std::int64_t Reader::int64_or(std::string_view key,
                              std::int64_t fallback) const {
  const Value* v = value_.find(key);
  return v == nullptr ? fallback : to_int64(*this, *v, {key, true});
}

std::size_t Reader::size_or(std::string_view key,
                            std::size_t fallback) const {
  const Value* v = value_.find(key);
  return v == nullptr ? fallback : to_size(*this, *v, {key, true});
}

double Reader::number(const Value& element, std::string_view what) const {
  return to_number(*this, element, {what, false});
}

std::size_t Reader::size(const Value& element, std::string_view what) const {
  return to_size(*this, element, {what, false});
}

const std::string& Reader::string(const Value& element,
                                  std::string_view what) const {
  return to_string(*this, element, {what, false});
}

}  // namespace rrf::json
