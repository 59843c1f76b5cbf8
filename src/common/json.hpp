// The library's one JSON value, parser, and writer. Every JSON document it
// emits (reports, verdicts, netlist exports, service frames, bench
// trajectories) is built as a Json and dumped, so each line parses by
// construction. The evaluation daemon also consumes JSON from untrusted
// sockets, so the parser is strict: it accepts exactly one RFC 8259 value
// per parse() call, rejects trailing garbage, caps nesting depth, and
// throws common::Error with a byte offset on any malformed input instead of
// guessing. Numbers keep an integer fast path (job ids, counters, budgets)
// next to the double representation so round-tripping a 64-bit budget
// through the wire is exact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sca::common {

/// One JSON value. Objects preserve insertion order (the writer emits keys
/// in the order they were set), which keeps emitted frames deterministic.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  // One constructor per fundamental integer type (rather than the fixed-
  // width aliases, which collide where size_t == uint64_t == unsigned long).
  Json(int v) : kind_(Kind::kInt), int_(v) {}                      // NOLINT
  Json(unsigned v) : kind_(Kind::kInt), int_(v) {}                 // NOLINT
  Json(long v) : kind_(Kind::kInt), int_(v) {}                     // NOLINT
  Json(unsigned long v)                                            // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(long long v) : kind_(Kind::kInt), int_(v) {}                // NOLINT
  Json(unsigned long long v)                                       // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}    // NOLINT
  Json(const char* s) : kind_(Kind::kString), string_(s) {}  // NOLINT
  Json(std::string s)                                        // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  Json(std::string_view s)                                   // NOLINT
      : kind_(Kind::kString), string_(s) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw common::Error on a kind mismatch (protocol
  /// handlers turn that into an error reply, never undefined behavior).
  bool as_bool() const;
  std::int64_t as_int() const;   ///< kInt, or kDouble with integral value
  std::uint64_t as_uint() const; ///< as_int, rejecting negatives
  double as_double() const;      ///< any number
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  ///< array elements

  /// Object field access. `get` returns nullptr when absent; `at` throws.
  const Json* get(const std::string& key) const;
  const Json& at(const std::string& key) const;
  bool has(const std::string& key) const { return get(key) != nullptr; }
  /// Convenience typed lookups with defaults for optional fields.
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Sets an object field (inserting or overwriting), keeping first-set
  /// key order. Throws on non-objects.
  Json& set(const std::string& key, Json value);
  /// Appends an array element. Throws on non-arrays.
  Json& push_back(Json value);

  const std::vector<std::pair<std::string, Json>>& fields() const;

  /// Serializes to a single line (no newline): stable field order, strings
  /// escaped, doubles at max_digits10 so verdict values round-trip exactly.
  std::string dump() const;

  /// Parses exactly one JSON value from `text` (surrounding whitespace
  /// allowed, trailing non-space rejected). Throws common::Error with a
  /// byte offset on malformed input or nesting deeper than `max_depth`.
  static Json parse(const std::string& text, std::size_t max_depth = 64);

 private:
  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> fields_;
};

/// Escapes a string for embedding in a JSON document.
std::string json_escape(const std::string& s);

}  // namespace sca::common
