// MiniC abstract syntax tree.
//
// The AST is purely syntactic: types appear as written (TypeSyntax) and all
// semantic information (resolved types, qualifier inference results) lives in
// sema side tables keyed by node pointer, keeping lang <- sema layering
// one-directional.
#ifndef CONFLLVM_SRC_LANG_AST_H_
#define CONFLLVM_SRC_LANG_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/token.h"

namespace confllvm {

// A type as written in source. `private` may appear before the base type
// (qualifying the base / innermost level) and after any `*` (qualifying that
// pointer level), exactly as in the paper:
//   private int *p;   // public pointer to private int
//   int * private p;  // private pointer to public int
struct TypeSyntax {
  enum class Base : uint8_t { kInt, kChar, kFloat, kVoid, kStruct, kFnPtr };

  Base base = Base::kInt;
  bool base_private = false;
  std::string struct_name;  // Base::kStruct

  struct PtrLevel {
    bool is_private = false;  // `* private`
  };
  // Innermost (closest to the base type) first.
  std::vector<PtrLevel> pointers;

  // Array dimensions, outermost first: int a[2][3] -> {2, 3}.
  std::vector<int64_t> array_dims;

  // Base::kFnPtr: `ret (*name)(params)`.
  std::unique_ptr<TypeSyntax> fn_ret;
  std::vector<std::unique_ptr<TypeSyntax>> fn_params;

  SourceLoc loc;
};

enum class ExprKind : uint8_t {
  kIntLit,
  kFloatLit,
  kStringLit,
  kNullLit,
  kVarRef,
  kUnary,    // op in `op1`: - ! ~
  kBinary,   // op in `op1`: arithmetic / comparison / logical
  kAssign,   // lhs = rhs
  kCall,     // callee expr + args (direct if callee is kVarRef naming a func)
  kIndex,    // lhs[rhs]
  kMember,   // lhs.name or lhs->name (is_arrow)
  kDeref,    // *lhs
  kAddrOf,   // &lhs
  kCast,     // (type) lhs
  kSizeof,   // sizeof(type)
};

struct Expr {
  ExprKind kind;
  SourceLoc loc;

  int64_t int_value = 0;
  double float_value = 0;
  std::string str_value;  // kStringLit bytes
  std::string name;       // kVarRef / kMember field name

  Tok op1 = Tok::kEof;  // operator for kUnary / kBinary
  bool is_arrow = false;

  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;
  std::vector<std::unique_ptr<Expr>> args;   // kCall
  std::unique_ptr<TypeSyntax> type_syntax;   // kCast / kSizeof
};

enum class StmtKind : uint8_t {
  kExpr,
  kDecl,
  kIf,
  kWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kBlock,
};

struct Stmt {
  StmtKind kind;
  SourceLoc loc;

  std::unique_ptr<Expr> expr;  // kExpr / kReturn value (may be null)

  // kDecl
  std::unique_ptr<TypeSyntax> decl_type;
  std::string decl_name;
  std::unique_ptr<Expr> decl_init;  // may be null

  // kIf / kWhile / kFor
  std::unique_ptr<Stmt> for_init;  // kFor (kDecl or kExpr stmt), may be null
  std::unique_ptr<Expr> cond;      // may be null for kFor
  std::unique_ptr<Expr> step;      // kFor, may be null
  std::unique_ptr<Stmt> then_stmt;
  std::unique_ptr<Stmt> else_stmt;  // may be null
  std::unique_ptr<Stmt> body;

  std::vector<std::unique_ptr<Stmt>> stmts;  // kBlock
};

struct ParamDecl {
  std::unique_ptr<TypeSyntax> type;
  std::string name;
  SourceLoc loc;
};

struct FuncDecl {
  std::string name;
  std::unique_ptr<TypeSyntax> ret_type;
  std::vector<ParamDecl> params;
  std::unique_ptr<Stmt> body;  // null => extern declaration (import from T)
  SourceLoc loc;
};

struct FieldDecl {
  std::unique_ptr<TypeSyntax> type;
  std::string name;
  SourceLoc loc;
};

struct StructDecl {
  std::string name;
  std::vector<FieldDecl> fields;
  SourceLoc loc;
};

struct GlobalDecl {
  std::unique_ptr<TypeSyntax> type;
  std::string name;
  std::unique_ptr<Expr> init;  // constant initializer or null
  SourceLoc loc;
};

// `import "name";` — makes the exported function signatures of module `name`
// callable from this translation unit (separate compilation; the defining
// module's body is never seen, only its interface).
struct ImportDecl {
  std::string module;
  SourceLoc loc;
};

struct Program {
  std::vector<ImportDecl> imports;
  std::vector<StructDecl> structs;
  std::vector<GlobalDecl> globals;
  std::vector<FuncDecl> functions;
};

// Renders an expression back to compact source-ish text (test helper).
std::string ExprToString(const Expr& e);
std::string TypeSyntaxToString(const TypeSyntax& t);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_LANG_AST_H_
