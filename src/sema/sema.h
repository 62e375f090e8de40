// MiniC semantic analysis: name resolution, type checking, and qualifier
// inference (paper §5.1).
//
// Outputs a TypedProgram in which every expression and symbol carries a
// fully *concrete* qualified type: inference variables introduced for local
// declarations are solved by QualSolver and substituted before the result is
// handed to IR generation.
#ifndef CONFLLVM_SRC_SEMA_SEMA_H_
#define CONFLLVM_SRC_SEMA_SEMA_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lang/ast.h"
#include "src/sema/module_interface.h"
#include "src/sema/qual_solver.h"
#include "src/sema/type.h"
#include "src/support/diag.h"

namespace confllvm {

struct Symbol {
  enum class Kind : uint8_t { kLocal, kParam, kGlobal, kFunc };
  enum class InitKind : uint8_t { kNone, kInt, kFloat, kString };

  Kind kind = Kind::kLocal;
  std::string name;
  QType type;  // concrete after sema; kFunc: unused (see sig)
  std::shared_ptr<FnSig> sig;  // kFunc
  bool is_trusted_import = false;  // kFunc with no body anywhere => import from T
  // kFunc imported via `import "module"` from another U module: call sites
  // type-check against the interface signature; the body lives in the other
  // module's binary and the call edge is resolved by the linker.
  bool is_module_import = false;
  std::string module;  // defining module (is_module_import only)
  uint32_t index = 0;  // param position / local ordinal / global ordinal / import slot
  SourceLoc loc;

  // Global initializer (constant), if any.
  InitKind init_kind = InitKind::kNone;
  int64_t init_int = 0;
  double init_float = 0;
  std::string init_str;
};

struct ExprInfo {
  QType type;  // concrete after sema
  bool is_lvalue = false;
  bool is_direct_call = false;    // kCall to a named function symbol
  Symbol* sym = nullptr;          // kVarRef binding (var or function)
  Symbol* callee = nullptr;       // direct call target
  uint64_t sizeof_bytes = 0;      // kSizeof: size of the operand type
};

struct FunctionSema {
  const FuncDecl* decl = nullptr;
  Symbol* sym = nullptr;
  std::vector<Symbol*> params;
  std::vector<Symbol*> locals;  // flattened across blocks, unique per decl site
};

// How to treat branches on private data (paper §2: experiments run in the
// stricter mode that disallows them).
enum class ImplicitFlowMode : uint8_t {
  kWarn,    // default ConfLLVM behaviour: warn on private branch
  kStrict,  // reject private branches (no implicit flows possible)
};

struct SemaOptions {
  ImplicitFlowMode implicit_flows = ImplicitFlowMode::kStrict;
  // §5.1 all-private mode: every unannotated qualifier defaults to private
  // and private branches are permitted (implicit flows are vacuous).
  bool all_private = false;
  // Constant-time preset: branches on private data are *allowed* (the Opt
  // pipeline linearizes them into selects), but everything the
  // linearization cannot make oblivious is rejected here: private loop
  // conditions, private array indexes / pointer dereferences, private
  // divisors, and — under a secret branch — calls, returns, loops, float
  // operations, and divisions. Assignments under a secret branch pick up a
  // flow from the branch condition, so their targets are forced private
  // (explicit implicit-flow tracking).
  bool ct = false;
};

// The checked program. Once RunSema returns it is immutable: the artifact
// cache hands one TypedProgram to every invocation that restores it, and IR
// generation on several threads reads it concurrently.
struct TypedProgram {
  std::shared_ptr<const Program> ast;  // shared with the Parse artifact
  std::unique_ptr<TypeContext> types;
  SemaOptions options;

  std::vector<std::unique_ptr<Symbol>> owned_symbols;
  std::unordered_map<const Expr*, ExprInfo> expr_info;
  std::unordered_map<const Stmt*, Symbol*> decl_sym;  // kDecl stmt -> local
  std::vector<Symbol*> globals;                       // declaration order
  std::vector<FunctionSema> functions;                // defined (U) functions
  std::vector<Symbol*> trusted_imports;               // externals table order
  std::vector<Symbol*> module_imports;                // cross-module call slots

  // Inference statistics (reported by tooling and the pipeline's per-stage
  // stats).
  size_t num_qual_vars = 0;
  size_t num_constraints = 0;
  QualSolverStats solver_stats;

  const ExprInfo& Info(const Expr* e) const { return expr_info.at(e); }
  const FunctionSema* FindFunction(const std::string& name) const {
    for (const auto& f : functions) {
      if (f.decl->name == name) {
        return &f;
      }
    }
    return nullptr;
  }
};

// Runs semantic analysis. Returns nullptr if `diags` holds errors. Sema
// only reads `ast` — the result keys its side tables by the shared AST's
// nodes, so the Parse artifact and every TypedProgram built from it hold
// the same tree. `interfaces` (nullable) resolves the program's
// `import "m"` declarations: each imported module's exported signatures are
// declared as callable symbols, and call sites are qualifier-checked
// against them without the callee bodies ever being visible (separate
// compilation). A program with import declarations but no matching
// interface is an error.
std::unique_ptr<TypedProgram> RunSema(std::shared_ptr<const Program> ast,
                                      const SemaOptions& options, DiagEngine* diags,
                                      const ModuleInterfaceSet* interfaces = nullptr);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SEMA_SEMA_H_
