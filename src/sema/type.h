// Semantic types for MiniC.
//
// A semantic type separates *shape* (int/char/float/void/struct/ptr/array/
// fnptr — interned in a TypeContext) from *qualifiers*. A qualified type
// (QType) pairs a shape with one qualifier term per level of its pointer
// spine:
//   level 0            taint of the value itself
//   level 1..N         taint of successive pointees
// Arrays share their element's level (an object lives wholly in one region,
// paper §5.1); struct/fnptr shapes terminate the spine (fields inherit their
// outermost qualifier from the enclosing object on access).
#ifndef CONFLLVM_SRC_SEMA_TYPE_H_
#define CONFLLVM_SRC_SEMA_TYPE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace confllvm {

// The two-point information-flow lattice: kPublic ⊑ kPrivate.
enum class Qual : uint8_t { kPublic = 0, kPrivate = 1 };

inline Qual JoinQual(Qual a, Qual b) {
  return (a == Qual::kPrivate || b == Qual::kPrivate) ? Qual::kPrivate : Qual::kPublic;
}
inline bool QualLe(Qual a, Qual b) {  // a ⊑ b
  return a == Qual::kPublic || b == Qual::kPrivate;
}
inline const char* QualName(Qual q) {
  return q == Qual::kPrivate ? "private" : "public";
}

// A qualifier term: either a constant or an inference variable to be solved
// (paper §5.1 runs type-qualifier inference over the IR; we run it in sema).
struct QualTerm {
  bool is_var = false;
  Qual value = Qual::kPublic;
  uint32_t var = 0;

  static QualTerm Const(Qual q) { return QualTerm{false, q, 0}; }
  static QualTerm Var(uint32_t v) { return QualTerm{true, Qual::kPublic, v}; }
};

enum class TypeKind : uint8_t {
  kVoid,
  kInt,    // 64-bit signed
  kChar,   // 8-bit
  kFloat,  // 64-bit IEEE double
  kStruct,
  kPointer,
  kArray,
  kFnPtr,
};

struct StructInfo;
struct Type;

// A qualified type: shape + per-level qualifier terms.
struct QType {
  const Type* shape = nullptr;
  std::vector<QualTerm> quals;

  bool IsValid() const { return shape != nullptr; }
};

// Signature of a function / function pointer. Qualifiers in signatures are
// always concrete (top-level annotations are required, paper §2).
struct FnSig {
  QType ret;
  std::vector<QType> params;
};

struct Type {
  TypeKind kind = TypeKind::kVoid;
  const Type* elem = nullptr;   // kPointer / kArray
  uint64_t array_len = 0;       // kArray
  const StructInfo* struct_info = nullptr;  // kStruct
  std::shared_ptr<FnSig> fn_sig;            // kFnPtr

  bool IsInteger() const { return kind == TypeKind::kInt || kind == TypeKind::kChar; }
  bool IsNumeric() const { return IsInteger() || kind == TypeKind::kFloat; }
  bool IsPointer() const { return kind == TypeKind::kPointer; }
  bool IsArray() const { return kind == TypeKind::kArray; }
};

struct StructField {
  std::string name;
  QType type;        // concrete quals; level 0 inherited on access
  uint64_t offset = 0;
};

struct StructInfo {
  std::string name;
  std::vector<StructField> fields;
  uint64_t size = 0;
  uint64_t align = 1;
  bool defined = false;

  const StructField* FindField(const std::string& n) const {
    for (const auto& f : fields) {
      if (f.name == n) {
        return &f;
      }
    }
    return nullptr;
  }
};

// Owns and interns type shapes. One per compilation.
class TypeContext {
 public:
  TypeContext();

  const Type* VoidType() const { return void_; }
  const Type* IntType() const { return int_; }
  const Type* CharType() const { return char_; }
  const Type* FloatType() const { return float_; }
  const Type* PointerTo(const Type* elem);
  const Type* ArrayOf(const Type* elem, uint64_t len);
  const Type* StructType(const std::string& name);  // creates fwd decl on demand
  const Type* FnPtrType(std::shared_ptr<FnSig> sig);

  // Defines (or redefines — caller checks) a struct's fields and layout.
  StructInfo* GetOrCreateStruct(const std::string& name);

  // Object size / alignment; arrays multiply, structs use computed layout.
  uint64_t SizeOf(const Type* t) const;
  uint64_t AlignOf(const Type* t) const;

  // Number of qualifier levels along the pointer spine.
  static size_t NumLevels(const Type* t);

  // Builds a QType over `shape` with all levels set to `q`.
  QType MakeQType(const Type* shape, Qual q) const;

  std::string ToString(const Type* t) const;
  std::string ToString(const QType& t) const;

 private:
  std::vector<std::unique_ptr<Type>> types_;
  std::vector<std::unique_ptr<StructInfo>> structs_;
  std::map<std::string, StructInfo*> struct_by_name_;
  std::map<std::pair<const Type*, uint64_t>, const Type*> array_cache_;
  std::map<const Type*, const Type*> pointer_cache_;
  const Type* void_;
  const Type* int_;
  const Type* char_;
  const Type* float_;
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SEMA_TYPE_H_
