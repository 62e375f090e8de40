#include "src/sema/type.h"

#include <cassert>
#include <sstream>

namespace confllvm {

TypeContext::TypeContext() {
  auto mk = [&](TypeKind k) {
    types_.push_back(std::make_unique<Type>());
    types_.back()->kind = k;
    return types_.back().get();
  };
  void_ = mk(TypeKind::kVoid);
  int_ = mk(TypeKind::kInt);
  char_ = mk(TypeKind::kChar);
  float_ = mk(TypeKind::kFloat);
}

const Type* TypeContext::PointerTo(const Type* elem) {
  auto it = pointer_cache_.find(elem);
  if (it != pointer_cache_.end()) {
    return it->second;
  }
  types_.push_back(std::make_unique<Type>());
  Type* t = types_.back().get();
  t->kind = TypeKind::kPointer;
  t->elem = elem;
  pointer_cache_[elem] = t;
  return t;
}

const Type* TypeContext::ArrayOf(const Type* elem, uint64_t len) {
  auto key = std::make_pair(elem, len);
  auto it = array_cache_.find(key);
  if (it != array_cache_.end()) {
    return it->second;
  }
  types_.push_back(std::make_unique<Type>());
  Type* t = types_.back().get();
  t->kind = TypeKind::kArray;
  t->elem = elem;
  t->array_len = len;
  array_cache_[key] = t;
  return t;
}

StructInfo* TypeContext::GetOrCreateStruct(const std::string& name) {
  auto it = struct_by_name_.find(name);
  if (it != struct_by_name_.end()) {
    return it->second;
  }
  structs_.push_back(std::make_unique<StructInfo>());
  StructInfo* si = structs_.back().get();
  si->name = name;
  struct_by_name_[name] = si;
  return si;
}

const Type* TypeContext::StructType(const std::string& name) {
  StructInfo* si = GetOrCreateStruct(name);
  for (const auto& t : types_) {
    if (t->kind == TypeKind::kStruct && t->struct_info == si) {
      return t.get();
    }
  }
  types_.push_back(std::make_unique<Type>());
  Type* t = types_.back().get();
  t->kind = TypeKind::kStruct;
  t->struct_info = si;
  return t;
}

const Type* TypeContext::FnPtrType(std::shared_ptr<FnSig> sig) {
  types_.push_back(std::make_unique<Type>());
  Type* t = types_.back().get();
  t->kind = TypeKind::kFnPtr;
  t->fn_sig = std::move(sig);
  return t;
}

uint64_t TypeContext::SizeOf(const Type* t) const {
  switch (t->kind) {
    case TypeKind::kVoid:
      return 1;  // like GNU C: sizeof(void) == 1, enables void* arithmetic
    case TypeKind::kChar:
      return 1;
    case TypeKind::kInt:
    case TypeKind::kFloat:
    case TypeKind::kPointer:
    case TypeKind::kFnPtr:
      return 8;
    case TypeKind::kArray:
      return SizeOf(t->elem) * t->array_len;
    case TypeKind::kStruct:
      return t->struct_info->size;
  }
  return 0;
}

uint64_t TypeContext::AlignOf(const Type* t) const {
  switch (t->kind) {
    case TypeKind::kVoid:
    case TypeKind::kChar:
      return 1;
    case TypeKind::kInt:
    case TypeKind::kFloat:
    case TypeKind::kPointer:
    case TypeKind::kFnPtr:
      return 8;
    case TypeKind::kArray:
      return AlignOf(t->elem);
    case TypeKind::kStruct:
      return t->struct_info->align;
  }
  return 1;
}

size_t TypeContext::NumLevels(const Type* t) {
  switch (t->kind) {
    case TypeKind::kPointer:
      return 1 + NumLevels(t->elem);
    case TypeKind::kArray:
      return NumLevels(t->elem);
    default:
      return 1;
  }
}

QType TypeContext::MakeQType(const Type* shape, Qual q) const {
  QType qt;
  qt.shape = shape;
  qt.quals.assign(NumLevels(shape), QualTerm::Const(q));
  return qt;
}

std::string TypeContext::ToString(const Type* t) const {
  std::ostringstream os;
  switch (t->kind) {
    case TypeKind::kVoid: return "void";
    case TypeKind::kInt: return "int";
    case TypeKind::kChar: return "char";
    case TypeKind::kFloat: return "float";
    case TypeKind::kStruct: return "struct " + t->struct_info->name;
    case TypeKind::kPointer:
      os << ToString(t->elem) << "*";
      return os.str();
    case TypeKind::kArray:
      os << ToString(t->elem) << "[" << t->array_len << "]";
      return os.str();
    case TypeKind::kFnPtr: {
      os << ToString(t->fn_sig->ret.shape) << "(*)(";
      for (size_t i = 0; i < t->fn_sig->params.size(); ++i) {
        if (i != 0) {
          os << ",";
        }
        os << ToString(t->fn_sig->params[i].shape);
      }
      os << ")";
      return os.str();
    }
  }
  return "?";
}

std::string TypeContext::ToString(const QType& t) const {
  std::ostringstream os;
  os << ToString(t.shape) << " {";
  for (size_t i = 0; i < t.quals.size(); ++i) {
    if (i != 0) {
      os << ",";
    }
    const QualTerm& q = t.quals[i];
    if (q.is_var) {
      os << "q" << q.var;
    } else {
      os << (q.value == Qual::kPrivate ? "H" : "L");
    }
  }
  os << "}";
  return os.str();
}

}  // namespace confllvm
