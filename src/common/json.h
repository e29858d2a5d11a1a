// mfbo — minimal ordered JSON value, built for the telemetry layer.
//
// The library emits machine-readable artifacts in two places: the JSONL
// iteration trace (bo::iterationJson, written by the bench `--trace`
// observers) and the bench `--out` aggregate files that CI archives as the
// perf trajectory. Both need deterministic serialization (stable key
// order, stable number formatting) so that two runs with the same seed
// produce byte-identical output — a property the telemetry tests assert.
// Third-party JSON libraries are out of scope for this repo (standard
// library only), hence this deliberately small value type: null / bool /
// number / string / array / object, insertion-ordered object keys, a
// dump() that round-trips through the bundled parse().
//
// Numbers are doubles; integral values print without a decimal point.
// Non-finite doubles serialize as null (JSON has no NaN/Inf).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mfbo {

/// Ordered JSON value. Construct with the static factories (the converting
/// constructors of typical JSON classes are ambiguity traps: a `const char*`
/// happily converts to `bool`), compose with set()/push(), serialize with
/// dump(), and read back with parse().
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Null value (also the default-constructed state).
  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool v);
  static Json number(double v);
  static Json str(std::string v);
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool isNull() const { return type_ == Type::kNull; }
  bool isBool() const { return type_ == Type::kBool; }
  bool isNumber() const { return type_ == Type::kNumber; }
  bool isString() const { return type_ == Type::kString; }
  bool isArray() const { return type_ == Type::kArray; }
  bool isObject() const { return type_ == Type::kObject; }

  /// Value accessors; each MFBO_CHECKs the type.
  bool asBool() const;
  double asNumber() const;
  const std::string& asString() const;

  /// Element count of an array or object (0 for scalars).
  std::size_t size() const;

  /// Append to an array (the value must be an array; first push on a null
  /// value promotes it to an array for convenience).
  Json& push(Json v);
  /// Array element access; MFBO_CHECKs the type and range.
  const Json& at(std::size_t i) const;

  /// Set an object member, preserving insertion order; replaces an existing
  /// key in place. A null value is promoted to an object on first set().
  Json& set(std::string key, Json v);
  Json& set(std::string key, double v) { return set(std::move(key), number(v)); }
  Json& set(std::string key, std::size_t v) {
    return set(std::move(key), number(static_cast<double>(v)));
  }
  Json& set(std::string key, int v) {
    return set(std::move(key), number(static_cast<double>(v)));
  }
  Json& set(std::string key, bool v) { return set(std::move(key), boolean(v)); }
  Json& set(std::string key, const char* v) {
    return set(std::move(key), str(v));
  }
  Json& set(std::string key, std::string v) {
    return set(std::move(key), str(std::move(v)));
  }

  bool contains(const std::string& key) const;
  /// Object member access; MFBO_CHECKs the type and key presence.
  const Json& at(const std::string& key) const;
  /// Ordered members of an object.
  const std::vector<std::pair<std::string, Json>>& members() const;
  /// Elements of an array.
  const std::vector<Json>& items() const;

  /// Compact single-line serialization (no trailing newline).
  std::string dump() const;

  /// Parse a complete JSON document. Throws std::runtime_error with an
  /// offset-annotated message on malformed input or trailing garbage.
  static Json parse(const std::string& text);

  /// Build a JSON array of numbers from any double range.
  template <typename Range>
  static Json numberArray(const Range& values) {
    Json a = array();
    for (double v : values) a.push(number(v));
    return a;
  }

 private:
  void appendTo(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace mfbo
