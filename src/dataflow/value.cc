#include "dataflow/value.h"

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace dataflow {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kBool:
      return "bool";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    case ValueType::kNull:
    case ValueType::kString:
      break;
  }
  return Status::InvalidArgument(
      StrFormat("cannot convert %s value to numeric",
                ValueTypeToString(type())));
}

std::string Value::ToDisplayString() const {
  switch (type()) {
    case ValueType::kNull:
      return "<null>";
    case ValueType::kInt:
      return StrFormat("%lld", static_cast<long long>(AsInt()));
    case ValueType::kDouble:
      return StrFormat("%g", AsDouble());
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

bool Value::operator<(const Value& other) const {
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type());
  }
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return AsInt() < other.AsInt();
    case ValueType::kDouble:
      return AsDouble() < other.AsDouble();
    case ValueType::kBool:
      return AsBool() < other.AsBool();
    case ValueType::kString:
      return AsString() < other.AsString();
  }
  return false;
}

uint64_t Value::Hash() const {
  Hasher h;
  h.AddU64(static_cast<uint64_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      h.AddI64(AsInt());
      break;
    case ValueType::kDouble:
      h.AddDouble(AsDouble());
      break;
    case ValueType::kBool:
      h.AddBool(AsBool());
      break;
    case ValueType::kString:
      h.Add(AsString());
      break;
  }
  return h.Digest();
}

}  // namespace dataflow
}  // namespace helix
