#include "src/sema/sema.h"

#include <cassert>
#include <unordered_set>

#include "src/sema/qual_solver.h"
#include "src/support/strings.h"

namespace confllvm {

namespace {

class Checker {
 public:
  Checker(std::shared_ptr<const Program> ast, const SemaOptions& options,
          DiagEngine* diags, const ModuleInterfaceSet* interfaces)
      : diags_(diags), interfaces_(interfaces) {
    tp_ = std::make_unique<TypedProgram>();
    tp_->ast = std::move(ast);
    tp_->types = std::make_unique<TypeContext>();
    tp_->options = options;
    default_qual_ = options.all_private ? Qual::kPrivate : Qual::kPublic;
  }

  std::unique_ptr<TypedProgram> Run() {
    CollectStructs();
    CollectGlobals();
    ResolveModuleImports();
    CollectFunctions();
    if (diags_->HasErrors()) {
      return nullptr;
    }
    for (FunctionSema& fs : tp_->functions) {
      CheckFunctionBody(&fs);
    }
    if (diags_->HasErrors()) {
      return nullptr;
    }
    if (!solver_.Solve(diags_)) {
      return nullptr;
    }
    CheckConditions();
    CheckCt();
    Substitute();
    tp_->num_qual_vars = solver_.num_vars();
    tp_->num_constraints = solver_.num_constraints();
    tp_->solver_stats = solver_.stats();
    if (diags_->HasErrors()) {
      return nullptr;
    }
    return std::move(tp_);
  }

 private:
  TypeContext& Types() { return *tp_->types; }

  // ---- Symbols & scopes ----

  Symbol* NewSymbol(Symbol::Kind kind, const std::string& name, SourceLoc loc) {
    tp_->owned_symbols.push_back(std::make_unique<Symbol>());
    Symbol* s = tp_->owned_symbols.back().get();
    s->kind = kind;
    s->name = name;
    s->loc = loc;
    return s;
  }

  Symbol* Lookup(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->find(name);
      if (f != it->end()) {
        return f->second;
      }
    }
    auto g = file_scope_.find(name);
    return g != file_scope_.end() ? g->second : nullptr;
  }

  bool DeclareLocal(Symbol* s) {
    auto& scope = scopes_.back();
    if (scope.count(s->name) != 0) {
      diags_->Error(s->loc, StrFormat("redeclaration of '%s'", s->name.c_str()));
      return false;
    }
    scope[s->name] = s;
    return true;
  }

  // ---- Type resolution ----

  QualTerm DefaultTerm(bool fresh_vars) {
    if (fresh_vars) {
      return solver_.NewVar();
    }
    return QualTerm::Const(default_qual_);
  }

  // Resolves written type syntax to a qualified semantic type. `fresh_vars`
  // makes unannotated levels inference variables (locals); otherwise they
  // default to public (private in all-private mode) — top-level annotations
  // are authoritative per the paper.
  QType ResolveType(const TypeSyntax& ts, bool fresh_vars) {
    QType qt;
    if (ts.base == TypeSyntax::Base::kFnPtr) {
      auto sig = std::make_shared<FnSig>();
      sig->ret = ResolveType(*ts.fn_ret, /*fresh_vars=*/false);
      for (const auto& p : ts.fn_params) {
        sig->params.push_back(ResolveType(*p, /*fresh_vars=*/false));
      }
      qt.shape = Types().FnPtrType(std::move(sig));
      qt.quals.assign(1, DefaultTerm(fresh_vars));
      return qt;
    }
    const Type* base = nullptr;
    switch (ts.base) {
      case TypeSyntax::Base::kInt: base = Types().IntType(); break;
      case TypeSyntax::Base::kChar: base = Types().CharType(); break;
      case TypeSyntax::Base::kFloat: base = Types().FloatType(); break;
      case TypeSyntax::Base::kVoid: base = Types().VoidType(); break;
      case TypeSyntax::Base::kStruct:
        base = Types().StructType(ts.struct_name);
        break;
      case TypeSyntax::Base::kFnPtr: break;
    }
    const Type* shape = base;
    for (size_t i = 0; i < ts.pointers.size(); ++i) {
      shape = Types().PointerTo(shape);
    }
    for (auto it = ts.array_dims.rbegin(); it != ts.array_dims.rend(); ++it) {
      if (*it <= 0) {
        diags_->Error(ts.loc, "array dimension must be positive");
        break;
      }
      shape = Types().ArrayOf(shape, static_cast<uint64_t>(*it));
    }
    const size_t levels = TypeContext::NumLevels(shape);
    qt.shape = shape;
    qt.quals.assign(levels, QualTerm{});
    // Level (levels-1) is the base; pointer level i (innermost-first) is
    // levels-2-i. Explicit `private` wins; unannotated uses DefaultTerm.
    qt.quals[levels - 1] =
        ts.base_private ? QualTerm::Const(Qual::kPrivate) : DefaultTerm(fresh_vars);
    for (size_t i = 0; i < ts.pointers.size(); ++i) {
      const size_t level = levels - 2 - i;
      qt.quals[level] = ts.pointers[i].is_private ? QualTerm::Const(Qual::kPrivate)
                                                  : DefaultTerm(fresh_vars);
    }
    return qt;
  }

  // True if level 0 of the written type carries an explicit `private`.
  static bool HasOutermostAnnotation(const TypeSyntax& ts) {
    if (ts.base == TypeSyntax::Base::kFnPtr) {
      return false;
    }
    if (!ts.pointers.empty()) {
      return ts.pointers.back().is_private;
    }
    return ts.base_private;
  }

  bool RequireComplete(const QType& qt, SourceLoc loc, const char* what) {
    const Type* s = qt.shape;
    while (s->kind == TypeKind::kArray) {
      s = s->elem;
    }
    if (s->kind == TypeKind::kStruct && !s->struct_info->defined) {
      diags_->Error(loc, StrFormat("%s has incomplete type 'struct %s'", what,
                                   s->struct_info->name.c_str()));
      return false;
    }
    if (s->kind == TypeKind::kVoid && qt.shape->kind != TypeKind::kPointer &&
        TypeContext::NumLevels(qt.shape) == 1 && qt.shape->kind == TypeKind::kVoid) {
      diags_->Error(loc, StrFormat("%s has type void", what));
      return false;
    }
    return true;
  }

  // ---- Top-level collection ----

  void CollectStructs() {
    for (const StructDecl& sd : tp_->ast->structs) {
      StructInfo* si = Types().GetOrCreateStruct(sd.name);
      if (si->defined) {
        diags_->Error(sd.loc, StrFormat("redefinition of struct '%s'", sd.name.c_str()));
        continue;
      }
      si->defined = true;  // set first so self-pointers work
    }
    for (const StructDecl& sd : tp_->ast->structs) {
      StructInfo* si = Types().GetOrCreateStruct(sd.name);
      uint64_t offset = 0;
      uint64_t align = 1;
      std::unordered_set<std::string> names;
      for (const FieldDecl& fd : sd.fields) {
        if (!names.insert(fd.name).second) {
          diags_->Error(fd.loc, StrFormat("duplicate field '%s'", fd.name.c_str()));
          continue;
        }
        if (HasOutermostAnnotation(*fd.type)) {
          // Paper §5.1: fields inherit their outermost annotation from the
          // enclosing object; mixed outermost taints would split the object
          // across regions.
          diags_->Error(fd.loc,
                        StrFormat("field '%s': outermost qualifier is inherited from the "
                                  "enclosing object; annotate inner levels only",
                                  fd.name.c_str()));
        }
        QType ft = ResolveType(*fd.type, /*fresh_vars=*/false);
        if (ft.shape->kind == TypeKind::kStruct && !ft.shape->struct_info->defined) {
          diags_->Error(fd.loc, "field has incomplete struct type");
          continue;
        }
        if (ft.shape->kind == TypeKind::kVoid) {
          diags_->Error(fd.loc, "field cannot have type void");
          continue;
        }
        const uint64_t fa = Types().AlignOf(ft.shape);
        offset = (offset + fa - 1) / fa * fa;
        StructField f;
        f.name = fd.name;
        f.type = std::move(ft);
        f.offset = offset;
        offset += Types().SizeOf(f.type.shape);
        align = std::max(align, fa);
        si->fields.push_back(std::move(f));
      }
      si->align = align;
      si->size = (offset + align - 1) / align * align;
      if (si->size == 0) {
        si->size = align;
      }
    }
  }

  void CollectGlobals() {
    for (const GlobalDecl& gd : tp_->ast->globals) {
      if (file_scope_.count(gd.name) != 0) {
        diags_->Error(gd.loc, StrFormat("redeclaration of '%s'", gd.name.c_str()));
        continue;
      }
      Symbol* s = NewSymbol(Symbol::Kind::kGlobal, gd.name, gd.loc);
      s->type = ResolveType(*gd.type, /*fresh_vars=*/false);
      RequireComplete(s->type, gd.loc, "global");
      s->index = static_cast<uint32_t>(tp_->globals.size());
      if (gd.init != nullptr) {
        CheckGlobalInit(s, gd.init.get());
      }
      file_scope_[gd.name] = s;
      tp_->globals.push_back(s);
    }
  }

  void CheckGlobalInit(Symbol* s, const Expr* init) {
    switch (init->kind) {
      case ExprKind::kIntLit:
        s->init_kind = Symbol::InitKind::kInt;
        s->init_int = init->int_value;
        return;
      case ExprKind::kFloatLit:
        s->init_kind = Symbol::InitKind::kFloat;
        s->init_float = init->float_value;
        return;
      case ExprKind::kNullLit:
        s->init_kind = Symbol::InitKind::kInt;
        s->init_int = 0;
        return;
      case ExprKind::kUnary:
        if (init->op1 == Tok::kMinus && init->lhs->kind == ExprKind::kIntLit) {
          s->init_kind = Symbol::InitKind::kInt;
          s->init_int = -init->lhs->int_value;
          return;
        }
        if (init->op1 == Tok::kMinus && init->lhs->kind == ExprKind::kFloatLit) {
          s->init_kind = Symbol::InitKind::kFloat;
          s->init_float = -init->lhs->float_value;
          return;
        }
        break;
      case ExprKind::kStringLit: {
        const Type* sh = s->type.shape;
        const bool char_array =
            sh->kind == TypeKind::kArray && sh->elem->kind == TypeKind::kChar;
        const bool char_ptr =
            sh->kind == TypeKind::kPointer && sh->elem->kind == TypeKind::kChar;
        if (!char_array && !char_ptr) {
          diags_->Error(init->loc, "string initializer requires char array or char*");
          return;
        }
        if (char_array && init->str_value.size() + 1 > sh->array_len) {
          diags_->Error(init->loc, "string initializer too long");
          return;
        }
        s->init_kind = Symbol::InitKind::kString;
        s->init_str = init->str_value;
        return;
      }
      default:
        break;
    }
    diags_->Error(init->loc, "global initializer must be a constant");
  }

  // ---- Module imports (separate compilation) ----

  // Builds a concrete QType in this compilation's TypeContext from a
  // context-free interface type: interface qualifiers are authoritative and
  // always constant — imported signatures never introduce inference vars.
  QType InterfaceToQType(const InterfaceType& it) {
    const Type* shape = nullptr;
    switch (it.base) {
      case InterfaceType::Base::kInt: shape = Types().IntType(); break;
      case InterfaceType::Base::kChar: shape = Types().CharType(); break;
      case InterfaceType::Base::kFloat: shape = Types().FloatType(); break;
      case InterfaceType::Base::kVoid: shape = Types().VoidType(); break;
    }
    for (uint32_t i = 0; i < it.ptr_levels; ++i) {
      shape = Types().PointerTo(shape);
    }
    QType qt;
    qt.shape = shape;
    qt.quals.reserve(it.quals.size());
    for (const Qual q : it.quals) {
      qt.quals.push_back(QualTerm::Const(q));
    }
    return qt;
  }

  // Declares every exported function of every `import "m"` module as a
  // callable symbol. The callee body is never seen: the interface signature
  // (with its confidentiality qualifiers) IS the contract, checked at every
  // call site exactly like a local signature — so passing private data to a
  // public parameter of another module is a module-boundary error here, and
  // the same contract is re-checked by the linker and by link-time
  // ConfVerify on the merged binary (src/isa/link.h).
  void ResolveModuleImports() {
    std::unordered_set<std::string> seen_modules;
    for (const ImportDecl& id : tp_->ast->imports) {
      if (!seen_modules.insert(id.module).second) {
        diags_->Error(id.loc,
                      StrFormat("duplicate import of module '%s'", id.module.c_str()));
        continue;
      }
      const ModuleInterface* iface =
          interfaces_ == nullptr ? nullptr : interfaces_->Find(id.module);
      if (iface == nullptr) {
        diags_->Error(id.loc, StrFormat("unknown module '%s' (no interface available)",
                                        id.module.c_str()));
        continue;
      }
      for (const InterfaceFn& f : iface->functions) {
        if (file_scope_.count(f.name) != 0) {
          Symbol* prev = file_scope_[f.name];
          const std::string what = prev->is_module_import
                                       ? "import from module '" + prev->module + "'"
                                       : std::string("a declaration in this module");
          diags_->Error(id.loc,
                        StrFormat("import of '%s' from module '%s' collides with %s",
                                  f.name.c_str(), id.module.c_str(), what.c_str()));
          continue;
        }
        Symbol* s = NewSymbol(Symbol::Kind::kFunc, f.name, id.loc);
        auto sig = std::make_shared<FnSig>();
        sig->ret = InterfaceToQType(f.ret);
        for (const InterfaceType& p : f.params) {
          sig->params.push_back(InterfaceToQType(p));
        }
        s->sig = std::move(sig);
        s->is_module_import = true;
        s->module = id.module;
        s->index = static_cast<uint32_t>(tp_->module_imports.size());
        tp_->module_imports.push_back(s);
        file_scope_[f.name] = s;
      }
    }
  }

  void CollectFunctions() {
    // Pass 1: register symbols, merge redeclarations, find definitions.
    std::unordered_set<std::string> defined;
    for (const FuncDecl& fd : tp_->ast->functions) {
      auto sig = std::make_shared<FnSig>();
      sig->ret = ResolveType(*fd.ret_type, /*fresh_vars=*/false);
      for (const ParamDecl& p : fd.params) {
        QType pt = ResolveType(*p.type, /*fresh_vars=*/false);
        // Array parameters decay to pointers (C semantics).
        pt = DecayType(pt);
        sig->params.push_back(std::move(pt));
      }
      if (fd.params.size() > 4) {
        // The taint-aware CFI encodes taints of exactly 4 argument registers
        // (paper §4, Windows x64 convention).
        diags_->Error(fd.loc,
                      StrFormat("function '%s' has %zu parameters; ConfLLVM supports at "
                                "most 4 register arguments",
                                fd.name.c_str(), fd.params.size()));
      }
      // The CFI taint bits cover the integer argument/return registers only;
      // floats travel through memory.
      if (sig->ret.shape->kind == TypeKind::kFloat) {
        diags_->Error(fd.loc, StrFormat("function '%s': float return values are not "
                                        "supported; return through memory",
                                        fd.name.c_str()));
      }
      for (const QType& pt : sig->params) {
        if (pt.shape->kind == TypeKind::kFloat) {
          diags_->Error(fd.loc, StrFormat("function '%s': float parameters are not "
                                          "supported; pass through memory",
                                          fd.name.c_str()));
          break;
        }
      }
      Symbol* s = nullptr;
      auto it = file_scope_.find(fd.name);
      if (it != file_scope_.end()) {
        s = it->second;
        if (s->kind != Symbol::Kind::kFunc) {
          diags_->Error(fd.loc, StrFormat("'%s' redeclared as function", fd.name.c_str()));
          continue;
        }
        if (s->is_module_import) {
          diags_->Error(fd.loc,
                        StrFormat("'%s' conflicts with a function imported from module '%s'",
                                  fd.name.c_str(), s->module.c_str()));
          continue;
        }
        if (!SigEqual(*s->sig, *sig)) {
          diags_->Error(fd.loc,
                        StrFormat("conflicting signature for '%s'", fd.name.c_str()));
          continue;
        }
      } else {
        s = NewSymbol(Symbol::Kind::kFunc, fd.name, fd.loc);
        s->sig = sig;
        file_scope_[fd.name] = s;
      }
      if (fd.body != nullptr) {
        if (!defined.insert(fd.name).second) {
          diags_->Error(fd.loc, StrFormat("redefinition of '%s'", fd.name.c_str()));
          continue;
        }
        FunctionSema fs;
        fs.decl = &fd;
        fs.sym = s;
        tp_->functions.push_back(std::move(fs));
      }
    }
    // Pass 2: any function symbol never defined is an import from T
    // (paper §6: externals table).
    for (const FuncDecl& fd : tp_->ast->functions) {
      auto it = file_scope_.find(fd.name);
      if (it == file_scope_.end() || it->second->kind != Symbol::Kind::kFunc) {
        continue;
      }
      Symbol* s = it->second;
      if (defined.count(fd.name) == 0 && !s->is_trusted_import) {
        s->is_trusted_import = true;
        s->index = static_cast<uint32_t>(tp_->trusted_imports.size());
        tp_->trusted_imports.push_back(s);
      }
    }
  }

  // ---- Shape compatibility ----

  static bool TypeEqual(const Type* a, const Type* b) {
    if (a == b) {
      return true;
    }
    if (a->kind != b->kind) {
      return false;
    }
    switch (a->kind) {
      case TypeKind::kPointer:
        return TypeEqual(a->elem, b->elem);
      case TypeKind::kArray:
        return a->array_len == b->array_len && TypeEqual(a->elem, b->elem);
      case TypeKind::kFnPtr:
        return SigShapeEqual(*a->fn_sig, *b->fn_sig);
      default:
        return false;  // scalars/structs are interned, a == b covers them
    }
  }

  static bool SigShapeEqual(const FnSig& a, const FnSig& b) {
    if (a.params.size() != b.params.size() || !TypeEqual(a.ret.shape, b.ret.shape)) {
      return false;
    }
    for (size_t i = 0; i < a.params.size(); ++i) {
      if (!TypeEqual(a.params[i].shape, b.params[i].shape)) {
        return false;
      }
    }
    return true;
  }

  static bool QualsEqual(const QType& a, const QType& b) {
    if (a.quals.size() != b.quals.size()) {
      return false;
    }
    for (size_t i = 0; i < a.quals.size(); ++i) {
      const QualTerm& x = a.quals[i];
      const QualTerm& y = b.quals[i];
      if (x.is_var || y.is_var) {
        if (!(x.is_var && y.is_var && x.var == y.var)) {
          return false;
        }
      } else if (x.value != y.value) {
        return false;
      }
    }
    return true;
  }

  static bool SigEqual(const FnSig& a, const FnSig& b) {
    if (!SigShapeEqual(a, b)) {
      return false;
    }
    if (!QualsEqual(a.ret, b.ret)) {
      return false;
    }
    for (size_t i = 0; i < a.params.size(); ++i) {
      if (!QualsEqual(a.params[i], b.params[i])) {
        return false;
      }
    }
    return true;
  }

  bool ShapeCompatible(const Type* dst, const Type* src) {
    if (TypeEqual(dst, src)) {
      return true;
    }
    if (dst->IsNumeric() && src->IsNumeric()) {
      return true;
    }
    if (dst->IsPointer() && src->IsPointer()) {
      if (dst->elem->kind == TypeKind::kVoid || src->elem->kind == TypeKind::kVoid) {
        return true;
      }
      return TypeEqual(dst->elem, src->elem);
    }
    return false;
  }

  // Array-to-pointer decay. The decayed pointer value is a fresh address
  // (default taint); deeper levels keep the array's element taints.
  QType DecayType(const QType& t) {
    if (t.shape->kind != TypeKind::kArray) {
      return t;
    }
    const Type* elem = t.shape->elem;
    while (elem->kind == TypeKind::kArray) {
      elem = elem->elem;  // multi-dim arrays decay to pointer-to-innermost row
    }
    QType out;
    out.shape = Types().PointerTo(t.shape->elem);
    out.quals.reserve(1 + t.quals.size());
    out.quals.push_back(QualTerm::Const(default_qual_));
    for (const QualTerm& q : t.quals) {
      out.quals.push_back(q);
    }
    return out;
  }

  // ---- Expression checking ----

  ExprInfo& Info(const Expr* e) { return tp_->expr_info[e]; }

  QualTerm JoinTerms(QualTerm a, QualTerm b, SourceLoc loc) {
    if (!a.is_var && !b.is_var) {
      return QualTerm::Const(JoinQual(a.value, b.value));
    }
    QualTerm v = solver_.NewVar();
    solver_.AddFlow(a, v, loc, "join");
    solver_.AddFlow(b, v, loc, "join");
    return v;
  }

  // Checks `dst = src_expr`, generating flow constraints. `what` names the
  // sink for error messages.
  void CheckAssignTo(const QType& dst, const Expr* src_e, SourceLoc loc,
                     const std::string& what) {
    const ExprInfo& si = CheckExpr(src_e);
    if (!si.type.IsValid() || !dst.IsValid()) {
      return;
    }
    if (src_e->kind == ExprKind::kNullLit) {
      if (!dst.shape->IsPointer() && dst.shape->kind != TypeKind::kFnPtr &&
          !dst.shape->IsInteger()) {
        diags_->Error(loc, "NULL requires pointer or integer destination");
      }
      return;
    }
    QType src = DecayType(si.type);
    if (!ShapeCompatible(dst.shape, src.shape)) {
      diags_->Error(loc, StrFormat("incompatible types in %s: cannot convert '%s' to '%s'",
                                   what.c_str(), Types().ToString(src.shape).c_str(),
                                   Types().ToString(dst.shape).c_str()));
      return;
    }
    solver_.AddFlow(src.quals[0], dst.quals[0], loc, what);
    if (dst.shape->IsPointer() && src.shape->IsPointer()) {
      const size_t n = std::min(dst.quals.size(), src.quals.size());
      for (size_t i = 1; i < n; ++i) {
        solver_.AddEq(src.quals[i], dst.quals[i], loc, "pointee of " + what);
      }
    }
    if (dst.shape->kind == TypeKind::kFnPtr && src.shape->kind == TypeKind::kFnPtr) {
      // Signatures are concrete; shape compat already verified structure.
      if (!SigEqual(*dst.shape->fn_sig, *src.shape->fn_sig)) {
        diags_->Error(loc, "function pointer qualifier signature mismatch in " + what);
      }
    }
  }

  const ExprInfo& CheckExpr(const Expr* e) {
    auto it = tp_->expr_info.find(e);
    if (it != tp_->expr_info.end()) {
      return it->second;
    }
    ExprInfo info = CheckExprImpl(e);
    return tp_->expr_info.emplace(e, std::move(info)).first->second;
  }

  ExprInfo CheckExprImpl(const Expr* e) {
    ExprInfo info;
    switch (e->kind) {
      case ExprKind::kIntLit:
        info.type.shape = Types().IntType();
        info.type.quals = {QualTerm::Const(Qual::kPublic)};
        return info;
      case ExprKind::kFloatLit:
        info.type.shape = Types().FloatType();
        info.type.quals = {QualTerm::Const(Qual::kPublic)};
        return info;
      case ExprKind::kStringLit:
        info.type.shape = Types().PointerTo(Types().CharType());
        info.type.quals = {QualTerm::Const(default_qual_), QualTerm::Const(default_qual_)};
        return info;
      case ExprKind::kNullLit:
        info.type.shape = Types().PointerTo(Types().VoidType());
        info.type.quals = {QualTerm::Const(Qual::kPublic), QualTerm::Const(Qual::kPublic)};
        return info;
      case ExprKind::kVarRef: {
        Symbol* s = Lookup(e->name);
        if (s == nullptr) {
          diags_->Error(e->loc, StrFormat("undeclared identifier '%s'", e->name.c_str()));
          return info;
        }
        info.sym = s;
        if (s->kind == Symbol::Kind::kFunc) {
          info.type.shape = Types().FnPtrType(s->sig);
          info.type.quals = {QualTerm::Const(Qual::kPublic)};
          info.is_lvalue = false;
        } else {
          info.type = s->type;
          info.is_lvalue = true;
        }
        return info;
      }
      case ExprKind::kUnary:
        return CheckUnary(e);
      case ExprKind::kBinary:
        return CheckBinary(e);
      case ExprKind::kAssign: {
        const ExprInfo& li = CheckExpr(e->lhs.get());
        if (!li.type.IsValid()) {
          return info;
        }
        if (!li.is_lvalue) {
          diags_->Error(e->loc, "assignment target is not an lvalue");
          return info;
        }
        if (li.type.shape->kind == TypeKind::kArray) {
          diags_->Error(e->loc, "cannot assign to an array");
          return info;
        }
        if (li.type.shape->kind == TypeKind::kStruct) {
          diags_->Error(e->loc, "whole-struct assignment is not supported; copy fields");
          return info;
        }
        CtFlowGuardsInto(li.type.quals[0], e->loc);
        if (CtMode() && li.type.shape->kind == TypeKind::kFloat) {
          CtViolationIfGuarded(e->loc, "floating-point assignment");
        }
        CheckAssignTo(li.type, e->rhs.get(), e->loc, "assignment");
        info.type = li.type;
        info.is_lvalue = false;
        return info;
      }
      case ExprKind::kCall:
        return CheckCall(e);
      case ExprKind::kIndex: {
        const ExprInfo& bi = CheckExpr(e->lhs.get());
        const ExprInfo& xi = CheckExpr(e->rhs.get());
        if (!bi.type.IsValid() || !xi.type.IsValid()) {
          return info;
        }
        if (!xi.type.shape->IsInteger()) {
          diags_->Error(e->loc, "array index must be an integer");
          return info;
        }
        CtRequirePublic(xi.type.quals[0], e->rhs->loc, "array index");
        QType base = bi.type;
        if (base.shape->kind == TypeKind::kArray) {
          info.type.shape = base.shape->elem;
          info.type.quals = base.quals;  // arrays share their element level
          info.is_lvalue = true;
          return info;
        }
        base = DecayType(base);
        if (!base.shape->IsPointer()) {
          diags_->Error(e->loc, "subscripted value is not an array or pointer");
          return info;
        }
        CtRequirePublic(base.quals[0], e->loc, "subscripted pointer");
        info.type.shape = base.shape->elem;
        info.type.quals.assign(base.quals.begin() + 1, base.quals.end());
        info.is_lvalue = true;
        return info;
      }
      case ExprKind::kMember: {
        const ExprInfo& bi = CheckExpr(e->lhs.get());
        if (!bi.type.IsValid()) {
          return info;
        }
        const Type* agg = bi.type.shape;
        QualTerm obj_qual = bi.type.quals[0];
        if (e->is_arrow) {
          if (!agg->IsPointer() || agg->elem->kind != TypeKind::kStruct) {
            diags_->Error(e->loc, "'->' requires a pointer to struct");
            return info;
          }
          CtRequirePublic(bi.type.quals[0], e->loc, "dereferenced pointer");
          agg = agg->elem;
          obj_qual = bi.type.quals[1];
        } else {
          if (agg->kind != TypeKind::kStruct) {
            diags_->Error(e->loc, "'.' requires a struct value");
            return info;
          }
          if (!bi.is_lvalue) {
            diags_->Error(e->loc, "member access requires an lvalue struct");
            return info;
          }
        }
        if (!agg->struct_info->defined) {
          diags_->Error(e->loc, "member access on incomplete struct");
          return info;
        }
        const StructField* f = agg->struct_info->FindField(e->name);
        if (f == nullptr) {
          diags_->Error(e->loc, StrFormat("no field '%s' in struct '%s'", e->name.c_str(),
                                          agg->struct_info->name.c_str()));
          return info;
        }
        // Paper §5.1: the field inherits its *outermost* qualifier from the
        // enclosing object; deeper levels come from the field declaration.
        info.type = f->type;
        info.type.quals[0] = obj_qual;
        info.is_lvalue = true;
        return info;
      }
      case ExprKind::kDeref: {
        const ExprInfo& bi = CheckExpr(e->lhs.get());
        if (!bi.type.IsValid()) {
          return info;
        }
        QType base = DecayType(bi.type);
        if (!base.shape->IsPointer()) {
          diags_->Error(e->loc, "cannot dereference a non-pointer");
          return info;
        }
        if (base.shape->elem->kind == TypeKind::kVoid) {
          diags_->Error(e->loc, "cannot dereference void*");
          return info;
        }
        CtRequirePublic(base.quals[0], e->loc, "dereferenced pointer");
        info.type.shape = base.shape->elem;
        info.type.quals.assign(base.quals.begin() + 1, base.quals.end());
        info.is_lvalue = true;
        return info;
      }
      case ExprKind::kAddrOf: {
        const ExprInfo& bi = CheckExpr(e->lhs.get());
        if (!bi.type.IsValid()) {
          return info;
        }
        if (!bi.is_lvalue) {
          diags_->Error(e->loc, "cannot take address of an rvalue");
          return info;
        }
        info.type.shape = Types().PointerTo(bi.type.shape);
        info.type.quals.reserve(bi.type.quals.size() + 1);
        info.type.quals.push_back(QualTerm::Const(default_qual_));
        for (const QualTerm& q : bi.type.quals) {
          info.type.quals.push_back(q);
        }
        if (bi.type.shape->kind == TypeKind::kArray) {
          // &array has the same level structure as the array's decay.
          info.type.shape = Types().PointerTo(bi.type.shape->elem);
        }
        return info;
      }
      case ExprKind::kCast: {
        const ExprInfo& si = CheckExpr(e->lhs.get());
        if (!si.type.IsValid()) {
          return info;
        }
        QType dst = ResolveType(*e->type_syntax, /*fresh_vars=*/false);
        QType src = DecayType(si.type);
        const bool dst_fn = dst.shape->kind == TypeKind::kFnPtr;
        const bool src_fn = src.shape->kind == TypeKind::kFnPtr;
        const bool ok =
            (dst.shape->IsNumeric() && src.shape->IsNumeric()) ||
            (dst.shape->IsPointer() && src.shape->IsPointer()) ||
            (dst.shape->IsPointer() && src.shape->IsInteger()) ||
            (dst.shape->IsInteger() && src.shape->IsPointer()) ||
            // Function pointers can be forged from integers/pointers — the
            // taint-aware CFI, not the type system, is what stops hijacks.
            (dst_fn && (src.shape->IsInteger() || src.shape->IsPointer())) ||
            ((dst.shape->IsInteger() || dst.shape->IsPointer()) && src_fn) ||
            TypeEqual(dst.shape, src.shape);
        if (!ok) {
          diags_->Error(e->loc, StrFormat("invalid cast from '%s' to '%s'",
                                          Types().ToString(src.shape).c_str(),
                                          Types().ToString(dst.shape).c_str()));
          return info;
        }
        // Casts may re-declare pointee taints (runtime checks catch lies,
        // paper §7.6 Minizip) but cannot declassify the value itself.
        solver_.AddFlow(src.quals[0], dst.quals[0], e->loc,
                        "cast (a cast cannot declassify its operand)");
        info.type = std::move(dst);
        return info;
      }
      case ExprKind::kSizeof: {
        QType t = ResolveType(*e->type_syntax, /*fresh_vars=*/false);
        RequireComplete(t, e->loc, "sizeof operand");
        info.sizeof_bytes = Types().SizeOf(t.shape);
        info.type.shape = Types().IntType();
        info.type.quals = {QualTerm::Const(Qual::kPublic)};
        return info;
      }
    }
    return info;
  }

  ExprInfo CheckUnary(const Expr* e) {
    ExprInfo info;
    const ExprInfo& oi = CheckExpr(e->lhs.get());
    if (!oi.type.IsValid()) {
      return info;
    }
    QType t = DecayType(oi.type);
    switch (e->op1) {
      case Tok::kMinus:
        if (!t.shape->IsNumeric()) {
          diags_->Error(e->loc, "unary '-' requires a numeric operand");
          return info;
        }
        info.type.shape = t.shape->kind == TypeKind::kFloat ? Types().FloatType()
                                                            : Types().IntType();
        info.type.quals = {t.quals[0]};
        return info;
      case Tok::kTilde:
        if (!t.shape->IsInteger()) {
          diags_->Error(e->loc, "'~' requires an integer operand");
          return info;
        }
        info.type.shape = Types().IntType();
        info.type.quals = {t.quals[0]};
        return info;
      case Tok::kBang:
        if (!t.shape->IsNumeric() && !t.shape->IsPointer()) {
          diags_->Error(e->loc, "'!' requires a scalar operand");
          return info;
        }
        info.type.shape = Types().IntType();
        info.type.quals = {t.quals[0]};
        return info;
      default:
        diags_->Error(e->loc, "unsupported unary operator");
        return info;
    }
  }

  ExprInfo CheckBinary(const Expr* e) {
    ExprInfo info;
    const ExprInfo& li = CheckExpr(e->lhs.get());
    // ct: the right operand of a short-circuit operator only evaluates on
    // one side of a branch on the left operand — same guard as an if arm.
    const bool sc_guard = CtMode() &&
                          (e->op1 == Tok::kAndAnd || e->op1 == Tok::kOrOr) &&
                          li.type.IsValid();
    if (sc_guard) {
      ct_guards_.push_back(li.type.quals[0]);
    }
    const ExprInfo& ri = CheckExpr(e->rhs.get());
    if (sc_guard) {
      ct_guards_.pop_back();
    }
    if (!li.type.IsValid() || !ri.type.IsValid()) {
      return info;
    }
    QType l = DecayType(li.type);
    QType r = DecayType(ri.type);
    const Tok op = e->op1;

    auto int_result = [&](QualTerm q) {
      info.type.shape = Types().IntType();
      info.type.quals = {q};
    };

    switch (op) {
      case Tok::kAndAnd:
      case Tok::kOrOr:
        // Short-circuit evaluation branches on both operands.
        RecordCondition(e->lhs.get());
        RecordCondition(e->rhs.get());
        if ((!l.shape->IsNumeric() && !l.shape->IsPointer()) ||
            (!r.shape->IsNumeric() && !r.shape->IsPointer())) {
          diags_->Error(e->loc, "logical operator requires scalar operands");
          return info;
        }
        int_result(JoinTerms(l.quals[0], r.quals[0], e->loc));
        return info;
      case Tok::kEq:
      case Tok::kNe:
      case Tok::kLt:
      case Tok::kGt:
      case Tok::kLe:
      case Tok::kGe: {
        const bool numeric = l.shape->IsNumeric() && r.shape->IsNumeric();
        const bool pointers = (l.shape->IsPointer() || e->lhs->kind == ExprKind::kNullLit) &&
                              (r.shape->IsPointer() || e->rhs->kind == ExprKind::kNullLit);
        const bool fnptr = l.shape->kind == TypeKind::kFnPtr &&
                           (r.shape->kind == TypeKind::kFnPtr ||
                            e->rhs->kind == ExprKind::kNullLit);
        if (!numeric && !pointers && !fnptr) {
          diags_->Error(e->loc, "invalid operands to comparison");
          return info;
        }
        int_result(JoinTerms(l.quals[0], r.quals[0], e->loc));
        return info;
      }
      case Tok::kPlus:
      case Tok::kMinus: {
        if (l.shape->IsPointer() && r.shape->IsInteger()) {
          info.type = l;
          return info;
        }
        if (op == Tok::kPlus && l.shape->IsInteger() && r.shape->IsPointer()) {
          info.type = r;
          return info;
        }
        if (op == Tok::kMinus && l.shape->IsPointer() && r.shape->IsPointer()) {
          if (!TypeEqual(l.shape, r.shape)) {
            diags_->Error(e->loc, "pointer difference requires matching pointer types");
            return info;
          }
          int_result(JoinTerms(l.quals[0], r.quals[0], e->loc));
          return info;
        }
        [[fallthrough]];
      }
      case Tok::kStar:
      case Tok::kSlash: {
        if (!l.shape->IsNumeric() || !r.shape->IsNumeric()) {
          diags_->Error(e->loc, "arithmetic requires numeric operands");
          return info;
        }
        const bool is_float =
            l.shape->kind == TypeKind::kFloat || r.shape->kind == TypeKind::kFloat;
        if (is_float) {
          CtViolationIfGuarded(e->loc, "floating-point operation");
        } else if (op == Tok::kSlash) {
          // Integer division faults on a zero divisor, so the divisor's
          // value is observable through the fault channel, and the
          // linearizer cannot hoist a division out of a secret branch.
          CtRequirePublic(r.quals[0], e->rhs->loc, "divisor");
          CtViolationIfGuarded(e->loc, "division");
        }
        info.type.shape = is_float ? Types().FloatType() : Types().IntType();
        info.type.quals = {JoinTerms(l.quals[0], r.quals[0], e->loc)};
        return info;
      }
      case Tok::kPercent:
      case Tok::kAmp:
      case Tok::kPipe:
      case Tok::kCaret:
      case Tok::kShl:
      case Tok::kShr:
        if (!l.shape->IsInteger() || !r.shape->IsInteger()) {
          diags_->Error(e->loc, "bitwise/modulo operators require integer operands");
          return info;
        }
        if (op == Tok::kPercent) {
          CtRequirePublic(r.quals[0], e->rhs->loc, "divisor");
          CtViolationIfGuarded(e->loc, "division");
        }
        int_result(JoinTerms(l.quals[0], r.quals[0], e->loc));
        return info;
      default:
        diags_->Error(e->loc, "unsupported binary operator");
        return info;
    }
  }

  ExprInfo CheckCall(const Expr* e) {
    ExprInfo info;
    CtViolationIfGuarded(e->loc, "call");
    const FnSig* sig = nullptr;
    if (e->lhs->kind == ExprKind::kVarRef) {
      Symbol* s = Lookup(e->lhs->name);
      if (s != nullptr && s->kind == Symbol::Kind::kFunc) {
        info.is_direct_call = true;
        info.callee = s;
        sig = s->sig.get();
        // Record binding for the callee expression too.
        ExprInfo callee_info;
        callee_info.sym = s;
        callee_info.type.shape = Types().FnPtrType(s->sig);
        callee_info.type.quals = {QualTerm::Const(Qual::kPublic)};
        tp_->expr_info.emplace(e->lhs.get(), std::move(callee_info));
      }
    }
    if (sig == nullptr) {
      const ExprInfo& ci = CheckExpr(e->lhs.get());
      if (!ci.type.IsValid()) {
        return info;
      }
      if (ci.type.shape->kind != TypeKind::kFnPtr) {
        diags_->Error(e->loc, "called object is not a function");
        return info;
      }
      // Indirect-call targets must be public (formal model: icall requires
      // the function pointer's taint ⊑ L).
      solver_.AddFlow(ci.type.quals[0], QualTerm::Const(Qual::kPublic), e->loc,
                      "indirect call target (function pointers must be public)");
      sig = ci.type.shape->fn_sig.get();
    }
    if (e->args.size() != sig->params.size()) {
      diags_->Error(e->loc, StrFormat("call expects %zu arguments, got %zu",
                                      sig->params.size(), e->args.size()));
      return info;
    }
    for (size_t i = 0; i < e->args.size(); ++i) {
      std::string what = StrFormat("argument %zu", i + 1);
      if (info.callee != nullptr) {
        what += " of '" + info.callee->name + "'";
      }
      CheckAssignTo(sig->params[i], e->args[i].get(), e->args[i]->loc, what);
    }
    info.type = sig->ret;
    return info;
  }

  // ---- Statements ----

  void CheckFunctionBody(FunctionSema* fs) {
    current_fn_ = fs;
    scopes_.clear();
    scopes_.emplace_back();
    for (size_t i = 0; i < fs->decl->params.size(); ++i) {
      const ParamDecl& p = fs->decl->params[i];
      Symbol* s = NewSymbol(Symbol::Kind::kParam, p.name, p.loc);
      s->type = fs->sym->sig->params[i];
      s->index = static_cast<uint32_t>(i);
      DeclareLocal(s);
      fs->params.push_back(s);
    }
    CheckStmt(fs->decl->body.get());
    scopes_.clear();
    current_fn_ = nullptr;
  }

  void RecordCondition(const Expr* e) { conditions_.push_back(e); }

  // ---- ct-mode helpers ----

  bool CtMode() const { return tp_->options.ct; }

  // Records that `what` at `loc` is illegal if any enclosing branch turns
  // out to be secret (checked after qualifier inference).
  void CtViolationIfGuarded(SourceLoc loc, const std::string& what) {
    if (CtMode() && !ct_guards_.empty()) {
      ct_obligations_.push_back({ct_guards_, loc, what});
    }
  }

  void CtRequirePublic(const QualTerm& term, SourceLoc loc,
                       const std::string& what) {
    if (CtMode()) {
      ct_public_reqs_.push_back({term, loc, what});
    }
  }

  // Assignments under a (possibly) secret branch: the branch condition flows
  // into the target, so inferred targets become private and declared-public
  // targets conflict with a solver diagnostic. This is exactly the implicit
  // flow the select-based linearization realizes: the merged value depends
  // on the condition.
  void CtFlowGuardsInto(const QualTerm& target, SourceLoc loc) {
    if (!CtMode()) {
      return;
    }
    for (const QualTerm& g : ct_guards_) {
      solver_.AddFlow(g, target, loc,
                      "assignment under a secret branch (implicit flow)");
    }
  }

  void CheckCondExpr(const Expr* e) {
    const ExprInfo& ci = CheckExpr(e);
    if (ci.type.IsValid() && !ci.type.shape->IsNumeric() && !ci.type.shape->IsPointer()) {
      diags_->Error(e->loc, "condition must be scalar");
    }
    RecordCondition(e);
  }

  void CheckStmt(const Stmt* s) {
    switch (s->kind) {
      case StmtKind::kExpr:
        CheckExpr(s->expr.get());
        return;
      case StmtKind::kDecl: {
        Symbol* sym = NewSymbol(Symbol::Kind::kLocal, s->decl_name, s->loc);
        sym->type = ResolveType(*s->decl_type, /*fresh_vars=*/true);
        RequireComplete(sym->type, s->loc, "local variable");
        if (sym->type.shape->kind == TypeKind::kVoid) {
          diags_->Error(s->loc, "variable cannot have type void");
        }
        sym->index = static_cast<uint32_t>(current_fn_->locals.size());
        current_fn_->locals.push_back(sym);
        if (CtMode() && sym->type.IsValid() &&
            sym->type.shape->kind == TypeKind::kFloat) {
          CtViolationIfGuarded(s->loc, "floating-point operation");
        }
        if (s->decl_init != nullptr) {
          if (sym->type.IsValid()) {
            CtFlowGuardsInto(sym->type.quals[0], s->loc);
          }
          CheckAssignTo(sym->type, s->decl_init.get(), s->loc,
                        StrFormat("initialization of '%s'", s->decl_name.c_str()));
        }
        DeclareLocal(sym);
        tp_->decl_sym[s] = sym;
        return;
      }
      case StmtKind::kIf: {
        CheckCondExpr(s->cond.get());
        // ct: the branch may be secret (and get linearized); everything in
        // the arms is checked under its guard.
        bool guarded = false;
        if (CtMode()) {
          const ExprInfo& ci = CheckExpr(s->cond.get());
          if (ci.type.IsValid()) {
            ct_guards_.push_back(ci.type.quals[0]);
            guarded = true;
          }
        }
        CheckStmt(s->then_stmt.get());
        if (s->else_stmt != nullptr) {
          CheckStmt(s->else_stmt.get());
        }
        if (guarded) {
          ct_guards_.pop_back();
        }
        return;
      }
      case StmtKind::kWhile: {
        CheckCondExpr(s->cond.get());
        CtViolationIfGuarded(s->loc, "loop");
        const ExprInfo& ci = CheckExpr(s->cond.get());
        if (ci.type.IsValid()) {
          CtRequirePublic(ci.type.quals[0], s->cond->loc, "loop condition");
        }
        ++loop_depth_;
        CheckStmt(s->body.get());
        --loop_depth_;
        return;
      }
      case StmtKind::kFor:
        scopes_.emplace_back();
        if (s->for_init != nullptr) {
          CheckStmt(s->for_init.get());
        }
        CtViolationIfGuarded(s->loc, "loop");
        if (s->cond != nullptr) {
          CheckCondExpr(s->cond.get());
          const ExprInfo& ci = CheckExpr(s->cond.get());
          if (ci.type.IsValid()) {
            CtRequirePublic(ci.type.quals[0], s->cond->loc, "loop condition");
          }
        }
        if (s->step != nullptr) {
          CheckExpr(s->step.get());
        }
        ++loop_depth_;
        CheckStmt(s->body.get());
        --loop_depth_;
        scopes_.pop_back();
        return;
      case StmtKind::kReturn: {
        CtViolationIfGuarded(s->loc, "return");
        const QType& ret = current_fn_->sym->sig->ret;
        if (ret.shape->kind == TypeKind::kVoid) {
          if (s->expr != nullptr) {
            diags_->Error(s->loc, "void function cannot return a value");
          }
          return;
        }
        if (s->expr == nullptr) {
          diags_->Error(s->loc, "non-void function must return a value");
          return;
        }
        CheckAssignTo(ret, s->expr.get(), s->loc,
                      StrFormat("return value of '%s'", current_fn_->decl->name.c_str()));
        return;
      }
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        if (loop_depth_ == 0) {
          diags_->Error(s->loc, "break/continue outside a loop");
        }
        CtViolationIfGuarded(s->loc, "break/continue");
        return;
      case StmtKind::kBlock:
        scopes_.emplace_back();
        for (const auto& child : s->stmts) {
          CheckStmt(child.get());
        }
        scopes_.pop_back();
        return;
    }
  }

  // ---- Post-solve passes ----

  void CheckConditions() {
    if (tp_->options.all_private) {
      return;  // §5.1: implicit flows are vacuous in all-private mode
    }
    if (tp_->options.ct) {
      return;  // ct: secret branches are linearized; CheckCt() guards the rest
    }
    for (const Expr* e : conditions_) {
      auto it = tp_->expr_info.find(e);
      if (it == tp_->expr_info.end() || !it->second.type.IsValid()) {
        continue;
      }
      if (solver_.Resolve(it->second.type.quals[0]) == Qual::kPrivate) {
        if (tp_->options.implicit_flows == ImplicitFlowMode::kStrict) {
          diags_->Error(e->loc, "branching on private data (potential implicit flow)");
        } else {
          diags_->Warning(e->loc, "branching on private data (potential implicit flow)");
        }
      }
    }
  }

  // Post-solve ct diagnostics: everything the linearizer cannot make
  // oblivious must be provably secret-independent.
  void CheckCt() {
    if (!tp_->options.ct) {
      return;
    }
    for (const CtPublicReq& r : ct_public_reqs_) {
      if (solver_.Resolve(r.term) == Qual::kPrivate) {
        diags_->Error(r.loc, r.what + " must be public in a constant-time build");
      }
    }
    for (const CtObligation& o : ct_obligations_) {
      for (const QualTerm& g : o.guards) {
        if (solver_.Resolve(g) == Qual::kPrivate) {
          diags_->Error(o.loc, o.what +
                                   " under a secret branch cannot be made "
                                   "constant-time");
          break;
        }
      }
    }
  }

  void SubstituteQType(QType* t) {
    for (QualTerm& q : t->quals) {
      if (q.is_var) {
        q = QualTerm::Const(solver_.Resolve(q));
      }
    }
  }

  void Substitute() {
    for (auto& s : tp_->owned_symbols) {
      if (s->type.IsValid()) {
        SubstituteQType(&s->type);
      }
    }
    for (auto& [expr, info] : tp_->expr_info) {
      if (info.type.IsValid()) {
        SubstituteQType(&info.type);
      }
    }
  }

  std::unique_ptr<TypedProgram> tp_;
  DiagEngine* diags_;
  const ModuleInterfaceSet* interfaces_;
  QualSolver solver_;
  Qual default_qual_ = Qual::kPublic;

  std::map<std::string, Symbol*> file_scope_;
  std::vector<std::map<std::string, Symbol*>> scopes_;
  FunctionSema* current_fn_ = nullptr;
  int loop_depth_ = 0;
  std::vector<const Expr*> conditions_;

  // ---- Constant-time mode bookkeeping (SemaOptions::ct) ----
  // Qualifier terms of the enclosing secret-linearizable branches (if
  // conditions, short-circuit left operands) during the walk. Constructs the
  // linearizer cannot predicate record an obligation against a snapshot of
  // this stack; after Solve, an obligation whose guards include a private
  // term is an error.
  std::vector<QualTerm> ct_guards_;
  struct CtObligation {
    std::vector<QualTerm> guards;
    SourceLoc loc;
    std::string what;
  };
  std::vector<CtObligation> ct_obligations_;
  // Terms that must resolve public in ct mode regardless of context
  // (addresses, indexes, loop conditions, divisors).
  struct CtPublicReq {
    QualTerm term;
    SourceLoc loc;
    std::string what;
  };
  std::vector<CtPublicReq> ct_public_reqs_;
};

}  // namespace

std::unique_ptr<TypedProgram> RunSema(std::shared_ptr<const Program> ast,
                                      const SemaOptions& options, DiagEngine* diags,
                                      const ModuleInterfaceSet* interfaces) {
  if (diags->HasErrors()) {
    return nullptr;
  }
  return Checker(std::move(ast), options, diags, interfaces).Run();
}

}  // namespace confllvm
