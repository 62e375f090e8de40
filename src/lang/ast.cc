#include "src/lang/ast.h"

#include <sstream>

namespace confllvm {

std::string TypeSyntaxToString(const TypeSyntax& t) {
  std::ostringstream os;
  if (t.base == TypeSyntax::Base::kFnPtr) {
    os << TypeSyntaxToString(*t.fn_ret) << "(*)(";
    for (size_t i = 0; i < t.fn_params.size(); ++i) {
      if (i != 0) {
        os << ",";
      }
      os << TypeSyntaxToString(*t.fn_params[i]);
    }
    os << ")";
    return os.str();
  }
  if (t.base_private) {
    os << "private ";
  }
  switch (t.base) {
    case TypeSyntax::Base::kInt: os << "int"; break;
    case TypeSyntax::Base::kChar: os << "char"; break;
    case TypeSyntax::Base::kFloat: os << "float"; break;
    case TypeSyntax::Base::kVoid: os << "void"; break;
    case TypeSyntax::Base::kStruct: os << "struct " << t.struct_name; break;
    case TypeSyntax::Base::kFnPtr: break;
  }
  for (const auto& p : t.pointers) {
    os << "*";
    if (p.is_private) {
      os << " private";
    }
  }
  for (int64_t d : t.array_dims) {
    os << "[" << d << "]";
  }
  return os.str();
}

std::string ExprToString(const Expr& e) {
  std::ostringstream os;
  switch (e.kind) {
    case ExprKind::kIntLit:
      os << e.int_value;
      break;
    case ExprKind::kFloatLit:
      os << e.float_value;
      break;
    case ExprKind::kStringLit:
      os << '"' << e.str_value << '"';
      break;
    case ExprKind::kNullLit:
      os << "NULL";
      break;
    case ExprKind::kVarRef:
      os << e.name;
      break;
    case ExprKind::kUnary:
      os << "(" << TokName(e.op1) << ExprToString(*e.lhs) << ")";
      break;
    case ExprKind::kBinary:
      os << "(" << ExprToString(*e.lhs) << TokName(e.op1) << ExprToString(*e.rhs) << ")";
      break;
    case ExprKind::kAssign:
      os << "(" << ExprToString(*e.lhs) << "=" << ExprToString(*e.rhs) << ")";
      break;
    case ExprKind::kCall: {
      os << ExprToString(*e.lhs) << "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i != 0) {
          os << ",";
        }
        os << ExprToString(*e.args[i]);
      }
      os << ")";
      break;
    }
    case ExprKind::kIndex:
      os << ExprToString(*e.lhs) << "[" << ExprToString(*e.rhs) << "]";
      break;
    case ExprKind::kMember:
      os << ExprToString(*e.lhs) << (e.is_arrow ? "->" : ".") << e.name;
      break;
    case ExprKind::kDeref:
      os << "(*" << ExprToString(*e.lhs) << ")";
      break;
    case ExprKind::kAddrOf:
      os << "(&" << ExprToString(*e.lhs) << ")";
      break;
    case ExprKind::kCast:
      os << "((" << TypeSyntaxToString(*e.type_syntax) << ")" << ExprToString(*e.lhs) << ")";
      break;
    case ExprKind::kSizeof:
      os << "sizeof(" << TypeSyntaxToString(*e.type_syntax) << ")";
      break;
  }
  return os.str();
}

}  // namespace confllvm
