// The JSON codec every obs record is written and read through: an
// ordered-object value tree, one writer (dump), a strict
// recursive-descent parser and checked member readers for decoding.
//
// Flight recordings, telemetry journals, ops-plane round summaries,
// event traces, profiles and metrics snapshots all serialize through
// Value::dump, so every machine-readable double is spelled by one
// formatter (format_number), and the recording/journal loaders reject
// malformed records through one Reader.  The macro-benchmark harness
// emits BENCH_rrf.json through it as well.  Object keys keep insertion
// order so emitted documents diff cleanly across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rrf::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered object (duplicate keys are rejected by the parser).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}  // NOLINT(runtime/explicit)
  Value(bool b) : v_(b) {}                // NOLINT(runtime/explicit)
  Value(double d) : v_(d) {}              // NOLINT(runtime/explicit)
  Value(int i) : v_(static_cast<double>(i)) {}  // NOLINT(runtime/explicit)
  Value(std::size_t u)                          // NOLINT(runtime/explicit)
      : v_(static_cast<double>(u)) {}
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}    // NOLINT(runtime/explicit)
  Value(Array a) : v_(std::move(a)) {}          // NOLINT(runtime/explicit)
  Value(Object o) : v_(std::move(o)) {}         // NOLINT(runtime/explicit)

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw DomainError on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;

  /// Serialize.  `indent > 0` pretty-prints with that many spaces per
  /// level; `indent == 0` emits the compact single-line form.  Non-finite
  /// numbers render as null (JSON has no NaN/Inf).
  std::string dump(int indent = 0) const;

  /// Strict parse of a complete document (trailing garbage is an error).
  /// Throws DomainError with a byte offset on malformed input.
  static Value parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// The codec's spelling of a number: integral values up to 2^53 as plain
/// integers ("30", "1000000000000000"), every other finite double in
/// std::to_chars shortest round-trip form ("0.1", "5.684341886080802e-14",
/// "1e+16"), and non-finite values as "null".
std::string format_number(double d);

/// Checked member access for decoding a record.  Every error is a
/// DomainError that starts with the caller's prefix and names the key or
/// element, e.g. "flightrec: field 'vcpus' is not a non-negative integer".
class Reader {
 public:
  /// Throws "<prefix>: <what> is not an object" unless `value` is one.
  /// `value` and `prefix` must outlive the reader.
  Reader(const Value& value, std::string_view prefix,
         std::string_view what = "record");

  const Value& value() const { return value_; }
  bool has(std::string_view key) const { return value_.find(key) != nullptr; }
  /// Required member of any type.
  const Value& at(std::string_view key) const;

  /// Required members of one type.  int64 takes an integral number within
  /// +-2^53; size a non-negative one.
  double number(std::string_view key) const;
  std::int64_t int64(std::string_view key) const;
  std::size_t size(std::string_view key) const;
  const std::string& string(std::string_view key) const;
  bool boolean(std::string_view key) const;
  const Array& array(std::string_view key) const;
  Reader object(std::string_view key) const;

  /// Optional members: `fallback` when the key is absent.  A member that
  /// is present but of the wrong type still throws.
  double number_or(std::string_view key, double fallback) const;
  std::int64_t int64_or(std::string_view key, std::int64_t fallback) const;
  std::size_t size_or(std::string_view key, std::size_t fallback) const;

  /// The same checks on an array element; `what` names it in the error.
  double number(const Value& element, std::string_view what) const;
  std::size_t size(const Value& element, std::string_view what) const;
  const std::string& string(const Value& element, std::string_view what) const;

  /// Throws DomainError("<prefix>: <message>").
  [[noreturn]] void fail(std::string_view message) const;

 private:
  const Value& value_;
  std::string_view prefix_;
};

}  // namespace rrf::json
