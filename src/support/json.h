// The one JSON value type: the confccd wire protocol (src/service/
// protocol.h), every stats document (cache, scheduler, server, build graph,
// trace tier, fault injector) and every bench report are built as a `Json`
// and written with Dump(), so this module is the only one that knows JSON
// syntax.
//
// The dialect is deliberately small — objects, arrays, strings, bools,
// null, and 64-bit integers/doubles — parsed by a recursive-descent parser
// rather than an external dependency. Integers round-trip exactly up to the
// full uint64/int64 range (VM return values and cycle counts exceed 2^53,
// where doubles lose exactness); a double always dumps with a fraction or an
// exponent, so it parses back as a double.
#ifndef CONFLLVM_SRC_SUPPORT_JSON_H_
#define CONFLLVM_SRC_SUPPORT_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace confllvm {

// One JSON value. Tagged union over the dialect above; object member order
// is preserved (documents render deterministically, which the byte-identity
// tests rely on).
class Json {
 public:
  enum class Kind : uint8_t { kNull, kBool, kUInt, kInt, kDouble, kString, kArray, kObject };

  Json() = default;

  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json UInt(uint64_t v);   // non-negative integer (exact to 2^64-1)
  static Json Int(int64_t v);     // negative integer (exact to -2^63)
  static Json Double(double v);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_number() const {
    return kind_ == Kind::kUInt || kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  // Loose accessors: return the requested view of the value, with a default
  // when the kind doesn't match (missing-field handling stays one-liners in
  // the server).
  bool AsBool(bool def = false) const;
  uint64_t AsUInt(uint64_t def = 0) const;
  int64_t AsInt(int64_t def = 0) const;
  double AsDouble(double def = 0) const;
  const std::string& AsString() const;  // empty string when not a string

  // Arrays.
  const std::vector<Json>& items() const { return arr_; }
  void Append(Json v) { arr_.push_back(std::move(v)); }

  // Objects.
  const std::vector<std::pair<std::string, Json>>& members() const { return obj_; }
  // Null when absent. The returned pointer is invalidated by Set.
  const Json* Find(const std::string& key) const;
  void Set(const std::string& key, Json v);
  // Typed conveniences over Find.
  std::string GetString(const std::string& key, const std::string& def = "") const;
  uint64_t GetUInt(const std::string& key, uint64_t def = 0) const;
  bool GetBool(const std::string& key, bool def = false) const;

  // Serializes compactly (no whitespace). Deterministic: member order is
  // insertion order.
  std::string Dump() const;

  // Strict parse of exactly one JSON value spanning all of `text` (trailing
  // whitespace allowed). Returns false with a message in `err`.
  static bool Parse(const std::string& text, Json* out, std::string* err);

 private:
  class Parser;  // json.cc; fills obj_ directly, see ParseObject

  Kind kind_ = Kind::kNull;
  bool b_ = false;
  uint64_t u_ = 0;
  int64_t i_ = 0;
  double d_ = 0;
  std::string s_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SUPPORT_JSON_H_
