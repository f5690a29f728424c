// json.hpp — minimal recursive-descent JSON reader.
//
// The repo's observability surfaces all *write* JSON (single-line
// documents CI checks with jq), but the post-run tooling — `ss_cli
// report` rendering a run document, the test that pins the committed
// BENCH_pifo.json — has to *read* them back without shelling out to jq.  This is the smallest parser that round-trips the
// documents we emit: the full JSON value grammar (null/bool/number/
// string/array/object), doubles for every number, no streaming, no
// document writer (producers keep their hand-rolled emitters so the
// export format stays exactly what docs/formats.md pins; the append
// helpers at the end are the pieces those emitters share).
//
// Objects preserve insertion order (vector of pairs, linear find) —
// report rendering walks documents in their written order, and the maps
// we read are small (dozens of keys).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ss::util {

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() = default;

  /// Parse one complete document (leading/trailing whitespace allowed).
  /// nullopt on any syntax error or trailing garbage.
  static std::optional<JsonValue> parse(std::string_view text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }

  /// Typed accessors with defaults — reading a field that is absent or of
  /// another type yields the default, so the report degrades gracefully
  /// on older documents missing newer fields.
  [[nodiscard]] double as_num(double dflt = 0.0) const noexcept {
    return type_ == Type::kNumber ? num_ : dflt;
  }
  [[nodiscard]] bool as_bool(bool dflt = false) const noexcept {
    return type_ == Type::kBool ? num_ != 0.0 : dflt;
  }
  [[nodiscard]] const std::string& as_str() const noexcept { return str_; }
  [[nodiscard]] const Array& as_array() const noexcept { return arr_; }
  [[nodiscard]] const Object& as_object() const noexcept { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Chained lookup helpers: `doc.num_at("sampling", 0)` style is what
  /// report assembly is made of.
  [[nodiscard]] double num_at(std::string_view key,
                              double dflt = 0.0) const noexcept {
    const JsonValue* v = find(key);
    return v != nullptr ? v->as_num(dflt) : dflt;
  }
  [[nodiscard]] std::string str_at(std::string_view key,
                                   std::string dflt = {}) const;
  [[nodiscard]] bool bool_at(std::string_view key,
                             bool dflt = false) const noexcept {
    const JsonValue* v = find(key);
    return v != nullptr ? v->as_bool(dflt) : dflt;
  }

 private:
  struct Parser;

  Type type_ = Type::kNull;
  double num_ = 0.0;  ///< number value; bools store 0/1 here
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Slurp `path` and parse it; nullopt on IO or syntax error.
std::optional<JsonValue> parse_json_file(const std::string& path);

/// Writer helpers: `v` in decimal, `v` as "%.6g", and `s` with '"' and
/// '\\' backslash-escaped (metric and stream names carry no control
/// characters).
void append_u64(std::string& out, std::uint64_t v);
void append_double(std::string& out, double v);
void json_escape_into(std::string& out, const std::string& s);

}  // namespace ss::util
