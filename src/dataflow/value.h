// Dynamically-typed scalar values held in table cells.
//
// HELIX's pre-processing data structure keeps features in human-readable
// form (paper Section 2.1); tables of Values are that form. A Value is one
// of {null, int64, double, bool, string}.
#ifndef HELIX_DATAFLOW_VALUE_H_
#define HELIX_DATAFLOW_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"

namespace helix {
namespace dataflow {

/// Runtime type tag of a Value.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kBool = 3,
  kString = 4,
};

const char* ValueTypeToString(ValueType t);

/// A null-able dynamically typed scalar.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(int64_t v) : v_(v) {}        // NOLINT(google-explicit-constructor)
  Value(int v) : v_(int64_t{v}) {}   // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}         // NOLINT(google-explicit-constructor)
  Value(bool v) : v_(v) {}           // NOLINT(google-explicit-constructor)
  Value(std::string v)               // NOLINT(google-explicit-constructor)
      : v_(std::move(v)) {}
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(v_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; require the matching type.
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  bool AsBool() const { return std::get<bool>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Numeric widening: int/double/bool as double; Status otherwise.
  Result<double> ToNumeric() const;

  /// Lossy display form ("<null>" for null).
  std::string ToDisplayString() const;

  /// Total ordering: first by type tag, then by value. Enables use as map
  /// keys (e.g. group-by).
  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator!=(const Value& other) const { return v_ != other.v_; }
  bool operator<(const Value& other) const;

  /// Stable 64-bit hash (used in operator output fingerprints).
  uint64_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, bool, std::string> v_;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_VALUE_H_
