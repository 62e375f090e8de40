#include "src/ir/irgen.h"

#include <cassert>
#include <cstring>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/support/strings.h"

namespace confllvm {

namespace {

// Where a variable lives.
struct VarLoc {
  enum class Kind : uint8_t { kVReg, kSlot } kind = Kind::kVReg;
  uint32_t index = 0;  // vreg id or slot id
};

// A resolved lvalue: either a frame slot, a global, or a computed address,
// plus a constant displacement.
struct LVal {
  enum class Kind : uint8_t { kSlot, kGlobal, kAddr, kVReg } kind = Kind::kAddr;
  uint32_t slot = 0;
  uint32_t global = 0;
  uint32_t base = kNoReg;  // kAddr
  uint32_t vreg = kNoReg;  // kVReg (register-backed local; no address)
  int64_t disp = 0;
  Qual region = Qual::kPublic;
  const Type* shape = nullptr;
};

class IrGen {
 public:
  IrGen(const TypedProgram& tp, DiagEngine* diags) : tp_(tp), diags_(diags) {}

  std::unique_ptr<IrModule> Run() {
    mod_ = std::make_unique<IrModule>();
    EmitImports();
    EmitGlobals();
    for (const FunctionSema& fs : tp_.functions) {
      EmitFunction(fs);
    }
    if (diags_->HasErrors()) {
      return nullptr;
    }
    return std::move(mod_);
  }

 private:
  const TypeContext& Types() const { return *tp_.types; }
  const ExprInfo& Info(const Expr* e) const { return tp_.expr_info.at(e); }
  Qual Q0(const Expr* e) const { return Info(e).type.quals[0].value; }

  static TaintBits SigTaints(const FnSig& sig) {
    TaintBits t;  // unused argument registers default to private (paper §4)
    for (size_t i = 0; i < sig.params.size() && i < 4; ++i) {
      t.args[i] = sig.params[i].quals[0].value;
    }
    t.ret = sig.ret.shape->kind == TypeKind::kVoid ? Qual::kPrivate
                                                   : sig.ret.quals[0].value;
    return t;
  }

  void EmitImports() {
    for (const Symbol* s : tp_.trusted_imports) {
      IrImport imp;
      imp.name = s->name;
      imp.taints = SigTaints(*s->sig);
      imp.num_params = static_cast<uint32_t>(s->sig->params.size());
      imp.returns_value = s->sig->ret.shape->kind != TypeKind::kVoid;
      for (const QType& p : s->sig->params) {
        IrImport::ParamInfo pi;
        if (p.shape->IsPointer()) {
          pi.is_pointer = true;
          pi.pointee = p.quals.size() > 1 ? p.quals[1].value : Qual::kPublic;
        }
        imp.params.push_back(pi);
      }
      mod_->imports.push_back(std::move(imp));
    }
    for (const Symbol* s : tp_.module_imports) {
      IrModImport imp;
      imp.name = s->name;
      imp.taints = SigTaints(*s->sig);
      imp.num_params = static_cast<uint32_t>(s->sig->params.size());
      imp.returns_value = s->sig->ret.shape->kind != TypeKind::kVoid;
      mod_->module_imports.push_back(std::move(imp));
    }
  }

  void EmitGlobals() {
    for (const Symbol* s : tp_.globals) {
      IrGlobal g;
      g.name = s->name;
      g.size = Types().SizeOf(s->type.shape);
      g.align = std::max<uint64_t>(Types().AlignOf(s->type.shape), 1);
      g.region = s->type.quals[0].value;
      switch (s->init_kind) {
        case Symbol::InitKind::kNone:
          break;
        case Symbol::InitKind::kInt: {
          g.init.assign(g.size, 0);
          const uint64_t v = static_cast<uint64_t>(s->init_int);
          memcpy(g.init.data(), &v, std::min<uint64_t>(g.size, 8));
          break;
        }
        case Symbol::InitKind::kFloat: {
          g.init.assign(g.size, 0);
          memcpy(g.init.data(), &s->init_float, 8);
          break;
        }
        case Symbol::InitKind::kString: {
          if (s->type.shape->kind == TypeKind::kArray) {
            g.init.assign(g.size, 0);
            memcpy(g.init.data(), s->init_str.data(), s->init_str.size());
          } else {
            // char* global: emit the literal as its own global and relocate.
            const uint32_t lit = InternString(s->init_str, g.region);
            g.init.assign(8, 0);
            g.relocs.push_back({0, lit});
          }
          break;
        }
      }
      global_index_[s] = static_cast<uint32_t>(mod_->globals.size());
      mod_->globals.push_back(std::move(g));
    }
  }

  uint32_t InternString(const std::string& text, Qual region) {
    auto key = std::make_pair(text, region);
    auto it = string_pool_.find(key);
    if (it != string_pool_.end()) {
      return it->second;
    }
    IrGlobal g;
    g.name = StrFormat(".str%zu", string_pool_.size());
    g.size = text.size() + 1;
    g.align = 1;
    g.region = region;
    g.init.assign(g.size, 0);
    memcpy(g.init.data(), text.data(), text.size());
    const uint32_t idx = static_cast<uint32_t>(mod_->globals.size());
    mod_->globals.push_back(std::move(g));
    string_pool_[key] = idx;
    return idx;
  }

  // ---- Function lowering ----

  void EmitFunction(const FunctionSema& fs) {
    func_ = &mod_->functions.emplace_back();
    func_->name = fs.decl->name;
    func_->taints = SigTaints(*fs.sym->sig);
    func_->returns_value = fs.sym->sig->ret.shape->kind != TypeKind::kVoid;
    func_->num_params = static_cast<uint32_t>(fs.params.size());
    var_loc_.clear();
    break_stack_.clear();
    continue_stack_.clear();

    // Address-taken analysis decides which scalars stay in vregs.
    address_taken_.clear();
    MarkAddressTaken(fs.decl->body.get());

    cur_bb_ = func_->NewBlock();

    for (Symbol* p : fs.params) {
      const RegClass cls = ClassOf(p->type.shape);
      const uint32_t in = func_->NewVReg(cls, p->type.quals[0].value);
      func_->param_vregs.push_back(in);
      if (NeedsSlot(p)) {
        const uint32_t slot = NewSlot(p);
        Instr st{};
        st.op = IrOp::kStore;
        st.mem_is_slot = true;
        st.slot = slot;
        st.b = in;
        st.size = AccessSize(p->type.shape);
        st.region = func_->slots[slot].region;
        Append(st);
        var_loc_[p] = {VarLoc::Kind::kSlot, slot};
      } else {
        var_loc_[p] = {VarLoc::Kind::kVReg, in};
      }
    }

    EmitStmt(fs.decl->body.get());

    // Implicit return for void functions / fall-off-the-end.
    if (!Terminated()) {
      Instr ret{};
      ret.op = IrOp::kRet;
      if (fs.sym->sig->ret.shape->kind != TypeKind::kVoid) {
        // Fall-off with a value-returning signature: return 0.
        Instr c{};
        c.op = IrOp::kConstInt;
        c.imm = 0;
        c.dst = func_->NewVReg(RegClass::kInt, Qual::kPublic);
        Append(c);
        ret.a = c.dst;
      }
      Append(ret);
    }
  }

  void MarkAddressTaken(const Stmt* s) {
    if (s == nullptr) {
      return;
    }
    auto walk_expr = [this](const Expr* e, auto&& self) -> void {
      if (e == nullptr) {
        return;
      }
      if (e->kind == ExprKind::kAddrOf && e->lhs->kind == ExprKind::kVarRef) {
        const ExprInfo& info = Info(e->lhs.get());
        if (info.sym != nullptr) {
          address_taken_.insert(info.sym);
        }
      }
      self(e->lhs.get(), self);
      self(e->rhs.get(), self);
      for (const auto& a : e->args) {
        self(a.get(), self);
      }
    };
    auto we = [&](const Expr* e) { walk_expr(e, walk_expr); };
    we(s->expr.get());
    we(s->decl_init.get());
    we(s->cond.get());
    we(s->step.get());
    MarkAddressTaken(s->for_init.get());
    MarkAddressTaken(s->then_stmt.get());
    MarkAddressTaken(s->else_stmt.get());
    MarkAddressTaken(s->body.get());
    for (const auto& child : s->stmts) {
      MarkAddressTaken(child.get());
    }
  }

  bool NeedsSlot(const Symbol* s) const {
    const TypeKind k = s->type.shape->kind;
    if (k == TypeKind::kArray || k == TypeKind::kStruct) {
      return true;
    }
    return address_taken_.count(s) != 0;
  }

  uint32_t NewSlot(const Symbol* s) {
    FrameSlot slot;
    slot.name = s->name;
    slot.size = Types().SizeOf(s->type.shape);
    slot.align = std::max<uint64_t>(Types().AlignOf(s->type.shape), 1);
    slot.region = s->type.quals[0].value;
    func_->slots.push_back(slot);
    return static_cast<uint32_t>(func_->slots.size() - 1);
  }

  static RegClass ClassOf(const Type* t) {
    return t->kind == TypeKind::kFloat ? RegClass::kFloat : RegClass::kInt;
  }
  uint8_t AccessSize(const Type* t) const {
    return Types().SizeOf(t) == 1 ? 1 : 8;
  }

  // ---- Instruction helpers ----

  BasicBlock& BB() { return func_->blocks[cur_bb_]; }
  void Append(Instr in) { BB().instrs.push_back(std::move(in)); }
  bool Terminated() {
    return !BB().instrs.empty() && BB().instrs.back().IsTerminator();
  }
  void JumpTo(uint32_t bb) {
    if (!Terminated()) {
      Instr j{};
      j.op = IrOp::kJmp;
      j.bb_t = bb;
      Append(j);
    }
    cur_bb_ = bb;
  }

  uint32_t EmitConstInt(int64_t v, Qual q = Qual::kPublic) {
    Instr c{};
    c.op = IrOp::kConstInt;
    c.imm = v;
    c.dst = func_->NewVReg(RegClass::kInt, q);
    Append(c);
    return c.dst;
  }

  uint32_t EmitBin(BinOp op, uint32_t a, uint32_t b, Qual q, RegClass cls) {
    Instr in{};
    in.op = IrOp::kBin;
    in.bin = op;
    in.a = a;
    in.b = b;
    in.dst = func_->NewVReg(cls, q);
    Append(in);
    return in.dst;
  }

  uint32_t EmitMovTo(uint32_t dst, uint32_t src) {
    Instr m{};
    m.op = IrOp::kMov;
    m.dst = dst;
    m.a = src;
    Append(m);
    return dst;
  }

  // Materializes the address denoted by an LVal into a vreg (+0 disp).
  uint32_t EmitAddr(const LVal& lv) {
    Instr in{};
    switch (lv.kind) {
      case LVal::Kind::kSlot:
        in.op = IrOp::kAddrSlot;
        in.slot = lv.slot;
        in.disp = lv.disp;
        break;
      case LVal::Kind::kGlobal:
        in.op = IrOp::kAddrGlobal;
        in.global_idx = lv.global;
        in.disp = lv.disp;
        break;
      case LVal::Kind::kAddr:
        if (lv.disp == 0) {
          return lv.base;
        }
        return EmitBin(BinOp::kAdd, lv.base, EmitConstInt(lv.disp), Qual::kPublic,
                       RegClass::kInt);
      case LVal::Kind::kVReg:
        diags_->Error(SourceLoc{}, "internal: address of register-backed variable");
        return EmitConstInt(0);
    }
    in.dst = func_->NewVReg(RegClass::kInt, Qual::kPublic);
    Append(in);
    return in.dst;
  }

  uint32_t EmitLoad(const LVal& lv, Qual value_taint) {
    Instr in{};
    in.op = IrOp::kLoad;
    in.size = AccessSize(lv.shape);
    in.region = lv.region;
    in.disp = lv.disp;
    if (lv.kind == LVal::Kind::kSlot) {
      in.mem_is_slot = true;
      in.slot = lv.slot;
    } else if (lv.kind == LVal::Kind::kGlobal) {
      in.a = EmitAddrGlobalBase(lv.global);
    } else {
      in.a = lv.base;
    }
    in.dst = func_->NewVReg(ClassOf(lv.shape), value_taint);
    Append(in);
    return in.dst;
  }

  void EmitStore(const LVal& lv, uint32_t value) {
    Instr in{};
    in.op = IrOp::kStore;
    in.size = AccessSize(lv.shape);
    in.region = lv.region;
    in.disp = lv.disp;
    in.b = value;
    if (lv.kind == LVal::Kind::kSlot) {
      in.mem_is_slot = true;
      in.slot = lv.slot;
    } else if (lv.kind == LVal::Kind::kGlobal) {
      in.a = EmitAddrGlobalBase(lv.global);
    } else {
      in.a = lv.base;
    }
    Append(in);
  }

  uint32_t EmitAddrGlobalBase(uint32_t global_idx) {
    Instr in{};
    in.op = IrOp::kAddrGlobal;
    in.global_idx = global_idx;
    in.disp = 0;
    in.dst = func_->NewVReg(RegClass::kInt, Qual::kPublic);
    Append(in);
    return in.dst;
  }

  // Numeric conversion of `v` from `from` to `to` shape.
  uint32_t Convert(uint32_t v, const Type* from, const Type* to) {
    if (from == to) {
      return v;
    }
    const bool ff = from->kind == TypeKind::kFloat;
    const bool tf = to->kind == TypeKind::kFloat;
    const Qual q = func_->vregs[v].taint;
    if (ff && !tf) {
      Instr in{};
      in.op = IrOp::kFloatToInt;
      in.a = v;
      in.dst = func_->NewVReg(RegClass::kInt, q);
      Append(in);
      v = in.dst;
    } else if (!ff && tf) {
      Instr in{};
      in.op = IrOp::kIntToFloat;
      in.a = v;
      in.dst = func_->NewVReg(RegClass::kFloat, q);
      Append(in);
      return in.dst;
    }
    if (to->kind == TypeKind::kChar && from->kind != TypeKind::kChar) {
      return EmitBin(BinOp::kAnd, v, EmitConstInt(0xff), q, RegClass::kInt);
    }
    return v;
  }

  // ---- LValues ----

  LVal EmitLValue(const Expr* e) {
    LVal lv;
    const ExprInfo& info = Info(e);
    lv.shape = info.type.shape;
    lv.region = info.type.quals[0].value;
    switch (e->kind) {
      case ExprKind::kVarRef: {
        const Symbol* s = info.sym;
        if (s->kind == Symbol::Kind::kGlobal) {
          lv.kind = LVal::Kind::kGlobal;
          lv.global = global_index_.at(s);
          return lv;
        }
        const VarLoc& loc = var_loc_.at(s);
        if (loc.kind == VarLoc::Kind::kSlot) {
          lv.kind = LVal::Kind::kSlot;
          lv.slot = loc.index;
        } else {
          lv.kind = LVal::Kind::kVReg;
          lv.vreg = loc.index;
        }
        return lv;
      }
      case ExprKind::kDeref: {
        lv.kind = LVal::Kind::kAddr;
        lv.base = EmitRValue(e->lhs.get());
        return lv;
      }
      case ExprKind::kIndex: {
        const ExprInfo& base_info = Info(e->lhs.get());
        const uint64_t stride = Types().SizeOf(info.type.shape);
        LVal base;
        if (base_info.type.shape->kind == TypeKind::kArray && base_info.is_lvalue) {
          base = EmitLValue(e->lhs.get());
        } else {
          base.kind = LVal::Kind::kAddr;
          base.base = EmitRValue(e->lhs.get());
          base.shape = base_info.type.shape;
        }
        lv.kind = base.kind;
        lv.slot = base.slot;
        lv.global = base.global;
        lv.base = base.base;
        lv.disp = base.disp;
        if (e->rhs->kind == ExprKind::kIntLit) {
          lv.disp += e->rhs->int_value * static_cast<int64_t>(stride);
          return lv;
        }
        uint32_t idx = EmitRValue(e->rhs.get());
        if (stride != 1) {
          idx = EmitBin(BinOp::kMul, idx, EmitConstInt(static_cast<int64_t>(stride)),
                        func_->vregs[idx].taint, RegClass::kInt);
        }
        // Fold the base into a single address vreg.
        LVal tmp = lv;
        tmp.shape = info.type.shape;
        const uint32_t addr = EmitAddr(tmp);
        lv.kind = LVal::Kind::kAddr;
        lv.base = EmitBin(BinOp::kAdd, addr, idx,
                          JoinQual(func_->vregs[addr].taint, func_->vregs[idx].taint),
                          RegClass::kInt);
        lv.disp = 0;
        return lv;
      }
      case ExprKind::kMember: {
        const Type* agg;
        LVal base;
        if (e->is_arrow) {
          base.kind = LVal::Kind::kAddr;
          base.base = EmitRValue(e->lhs.get());
          agg = Info(e->lhs.get()).type.shape->elem;
        } else {
          base = EmitLValue(e->lhs.get());
          agg = Info(e->lhs.get()).type.shape;
          if (base.kind == LVal::Kind::kVReg) {
            diags_->Error(e->loc, "internal: struct in register");
            return lv;
          }
        }
        const StructField* f = agg->struct_info->FindField(e->name);
        lv.kind = base.kind;
        lv.slot = base.slot;
        lv.global = base.global;
        lv.base = base.base;
        lv.disp = base.disp + static_cast<int64_t>(f->offset);
        return lv;
      }
      default:
        diags_->Error(e->loc, "internal: expression is not an lvalue");
        return lv;
    }
  }

  // ---- RValues ----

  uint32_t EmitRValue(const Expr* e) {
    const ExprInfo& info = Info(e);
    switch (e->kind) {
      case ExprKind::kIntLit:
        return EmitConstInt(e->int_value);
      case ExprKind::kNullLit:
        return EmitConstInt(0);
      case ExprKind::kFloatLit: {
        Instr c{};
        c.op = IrOp::kConstFloat;
        c.fimm = e->float_value;
        c.dst = func_->NewVReg(RegClass::kFloat, Qual::kPublic);
        Append(c);
        return c.dst;
      }
      case ExprKind::kStringLit: {
        const Qual region = info.type.quals[1].value;
        const uint32_t g = InternString(e->str_value, region);
        Instr in{};
        in.op = IrOp::kAddrGlobal;
        in.global_idx = g;
        in.dst = func_->NewVReg(RegClass::kInt, info.type.quals[0].value);
        Append(in);
        return in.dst;
      }
      case ExprKind::kVarRef: {
        const Symbol* s = info.sym;
        if (s->kind == Symbol::Kind::kFunc) {
          Instr in{};
          in.op = IrOp::kAddrFunc;
          in.func_idx = FuncIndexOf(s, e->loc);
          in.dst = func_->NewVReg(RegClass::kInt, Qual::kPublic);
          Append(in);
          return in.dst;
        }
        LVal lv = EmitLValue(e);
        if (lv.shape->kind == TypeKind::kArray) {
          return EmitAddr(lv);  // decay
        }
        if (lv.kind == LVal::Kind::kVReg) {
          Instr m{};
          m.op = IrOp::kMov;
          m.a = lv.vreg;
          m.dst = func_->NewVReg(func_->vregs[lv.vreg].cls, func_->vregs[lv.vreg].taint);
          Append(m);
          return m.dst;
        }
        return EmitLoad(lv, info.type.quals[0].value);
      }
      case ExprKind::kUnary:
        return EmitUnary(e);
      case ExprKind::kBinary:
        return EmitBinary(e);
      case ExprKind::kAssign:
        return EmitAssign(e);
      case ExprKind::kCall:
        return EmitCall(e);
      case ExprKind::kIndex:
      case ExprKind::kMember:
      case ExprKind::kDeref: {
        LVal lv = EmitLValue(e);
        if (lv.shape->kind == TypeKind::kArray) {
          return EmitAddr(lv);  // decay
        }
        return EmitLoad(lv, info.type.quals[0].value);
      }
      case ExprKind::kAddrOf: {
        LVal lv = EmitLValue(e->lhs.get());
        return EmitAddr(lv);
      }
      case ExprKind::kCast: {
        const uint32_t v = EmitRValue(e->lhs.get());
        const Type* from = Info(e->lhs.get()).type.shape;
        const Type* to = info.type.shape;
        if (from->IsNumeric() && to->IsNumeric()) {
          return Convert(v, from, to);
        }
        return v;  // pointer/int reinterpretation
      }
      case ExprKind::kSizeof:
        return EmitConstInt(static_cast<int64_t>(info.sizeof_bytes));
    }
    return EmitConstInt(0);
  }

  uint32_t FuncIndexOf(const Symbol* s, SourceLoc loc) {
    const int idx = mod_->FunctionIndex(s->name);
    if (idx < 0) {
      // Functions are emitted in order; forward references resolve by name
      // against the sema function list.
      for (size_t i = 0; i < tp_.functions.size(); ++i) {
        if (tp_.functions[i].sym == s) {
          return static_cast<uint32_t>(i);
        }
      }
      diags_->Error(loc, StrFormat("cannot take address of %s '%s'",
                                   s->is_module_import ? "module-imported function"
                                                       : "trusted import",
                                   s->name.c_str()));
      return 0;
    }
    return static_cast<uint32_t>(idx);
  }

  uint32_t EmitUnary(const Expr* e) {
    const ExprInfo& info = Info(e);
    const Qual q = info.type.quals[0].value;
    const uint32_t v = EmitRValue(e->lhs.get());
    switch (e->op1) {
      case Tok::kMinus: {
        Instr in{};
        in.op = IrOp::kNeg;
        in.a = v;
        in.dst = func_->NewVReg(ClassOf(info.type.shape), q);
        Append(in);
        return in.dst;
      }
      case Tok::kTilde: {
        Instr in{};
        in.op = IrOp::kNot;
        in.a = v;
        in.dst = func_->NewVReg(RegClass::kInt, q);
        Append(in);
        return in.dst;
      }
      case Tok::kBang: {
        Instr in{};
        in.op = IrOp::kCmp;
        in.cc = CmpCc::kEq;
        in.a = v;
        in.b = EmitConstInt(0);
        if (func_->vregs[v].cls == RegClass::kFloat) {
          Instr z{};
          z.op = IrOp::kConstFloat;
          z.fimm = 0;
          z.dst = func_->NewVReg(RegClass::kFloat, Qual::kPublic);
          Append(z);
          in.b = z.dst;
        }
        in.dst = func_->NewVReg(RegClass::kInt, q);
        Append(in);
        return in.dst;
      }
      default:
        return v;
    }
  }

  uint32_t EmitBinary(const Expr* e) {
    const ExprInfo& info = Info(e);
    const Qual q = info.type.quals[0].value;
    const Tok op = e->op1;

    if (op == Tok::kAndAnd || op == Tok::kOrOr) {
      return EmitShortCircuit(e, q);
    }

    const Type* lsh = Info(e->lhs.get()).type.shape;
    const Type* rsh = Info(e->rhs.get()).type.shape;

    uint32_t a = EmitRValue(e->lhs.get());
    uint32_t b = EmitRValue(e->rhs.get());

    // Comparisons.
    switch (op) {
      case Tok::kEq:
      case Tok::kNe:
      case Tok::kLt:
      case Tok::kGt:
      case Tok::kLe:
      case Tok::kGe: {
        const bool is_float =
            lsh->kind == TypeKind::kFloat || rsh->kind == TypeKind::kFloat;
        if (is_float) {
          a = Convert(a, lsh, Types().FloatType());
          b = Convert(b, rsh, Types().FloatType());
        }
        Instr in{};
        in.op = IrOp::kCmp;
        switch (op) {
          case Tok::kEq: in.cc = CmpCc::kEq; break;
          case Tok::kNe: in.cc = CmpCc::kNe; break;
          case Tok::kLt: in.cc = CmpCc::kLt; break;
          case Tok::kGt: in.cc = CmpCc::kGt; break;
          case Tok::kLe: in.cc = CmpCc::kLe; break;
          default: in.cc = CmpCc::kGe; break;
        }
        in.a = a;
        in.b = b;
        in.dst = func_->NewVReg(RegClass::kInt, q);
        Append(in);
        return in.dst;
      }
      default:
        break;
    }

    // Pointer arithmetic scales by the pointee size.
    const bool lptr = lsh->IsPointer() || lsh->IsArray();
    const bool rptr = rsh->IsPointer() || rsh->IsArray();
    if ((op == Tok::kPlus || op == Tok::kMinus) && (lptr || rptr)) {
      if (lptr && rptr) {  // pointer difference
        const int64_t stride = static_cast<int64_t>(Types().SizeOf(lsh->elem));
        uint32_t diff = EmitBin(BinOp::kSub, a, b, q, RegClass::kInt);
        if (stride != 1) {
          diff = EmitBin(BinOp::kSDiv, diff, EmitConstInt(stride), q, RegClass::kInt);
        }
        return diff;
      }
      const Type* pt = lptr ? lsh : rsh;
      uint32_t ptr = lptr ? a : b;
      uint32_t idx = lptr ? b : a;
      const int64_t stride = static_cast<int64_t>(Types().SizeOf(pt->elem));
      if (stride != 1) {
        idx = EmitBin(BinOp::kMul, idx, EmitConstInt(stride),
                      func_->vregs[idx].taint, RegClass::kInt);
      }
      return EmitBin(op == Tok::kPlus ? BinOp::kAdd : BinOp::kSub, ptr, idx, q,
                     RegClass::kInt);
    }

    const bool is_float = info.type.shape->kind == TypeKind::kFloat;
    if (is_float) {
      a = Convert(a, lsh, Types().FloatType());
      b = Convert(b, rsh, Types().FloatType());
    }
    BinOp bop;
    switch (op) {
      case Tok::kPlus: bop = is_float ? BinOp::kFAdd : BinOp::kAdd; break;
      case Tok::kMinus: bop = is_float ? BinOp::kFSub : BinOp::kSub; break;
      case Tok::kStar: bop = is_float ? BinOp::kFMul : BinOp::kMul; break;
      case Tok::kSlash: bop = is_float ? BinOp::kFDiv : BinOp::kSDiv; break;
      case Tok::kPercent: bop = BinOp::kSRem; break;
      case Tok::kAmp: bop = BinOp::kAnd; break;
      case Tok::kPipe: bop = BinOp::kOr; break;
      case Tok::kCaret: bop = BinOp::kXor; break;
      case Tok::kShl: bop = BinOp::kShl; break;
      case Tok::kShr: bop = BinOp::kShr; break;
      default:
        diags_->Error(e->loc, "internal: unhandled binary operator");
        return a;
    }
    return EmitBin(bop, a, b, q, is_float ? RegClass::kFloat : RegClass::kInt);
  }

  uint32_t EmitShortCircuit(const Expr* e, Qual q) {
    // a && b:  r = (a != 0); if (r) r = (b != 0);
    // a || b:  r = (a != 0); if (!r) r = (b != 0);
    const uint32_t result = func_->NewVReg(RegClass::kInt, q);
    const uint32_t a = EmitRValue(e->lhs.get());
    Instr cmp{};
    cmp.op = IrOp::kCmp;
    cmp.cc = CmpCc::kNe;
    cmp.a = a;
    cmp.b = EmitConstInt(0);
    cmp.dst = func_->NewVReg(RegClass::kInt, func_->vregs[a].taint);
    Append(cmp);
    EmitMovTo(result, cmp.dst);

    const uint32_t rhs_bb = func_->NewBlock();
    const uint32_t done_bb = func_->NewBlock();
    Instr br{};
    br.op = IrOp::kBr;
    br.a = cmp.dst;
    if (e->op1 == Tok::kAndAnd) {
      br.bb_t = rhs_bb;
      br.bb_f = done_bb;
    } else {
      br.bb_t = done_bb;
      br.bb_f = rhs_bb;
    }
    Append(br);

    cur_bb_ = rhs_bb;
    const uint32_t b = EmitRValue(e->rhs.get());
    Instr cmp2{};
    cmp2.op = IrOp::kCmp;
    cmp2.cc = CmpCc::kNe;
    cmp2.a = b;
    cmp2.b = EmitConstInt(0);
    cmp2.dst = func_->NewVReg(RegClass::kInt, func_->vregs[b].taint);
    Append(cmp2);
    EmitMovTo(result, cmp2.dst);
    JumpTo(done_bb);
    return result;
  }

  uint32_t EmitAssign(const Expr* e) {
    const ExprInfo& li = Info(e->lhs.get());
    uint32_t v = EmitRValue(e->rhs.get());
    v = Convert(v, Info(e->rhs.get()).type.shape, li.type.shape);
    LVal lv = EmitLValue(e->lhs.get());
    if (lv.kind == LVal::Kind::kVReg) {
      EmitMovTo(lv.vreg, v);
    } else {
      EmitStore(lv, v);
    }
    return v;
  }

  uint32_t EmitCall(const Expr* e) {
    const ExprInfo& info = Info(e);
    Instr call{};
    const FnSig* sig = nullptr;
    if (info.is_direct_call) {
      const Symbol* callee = info.callee;
      sig = callee->sig.get();
      if (callee->is_trusted_import) {
        call.op = IrOp::kCallExt;
        call.ext_idx = callee->index;
      } else if (callee->is_module_import) {
        call.op = IrOp::kCallMod;
        call.ext_idx = callee->index;
      } else {
        call.op = IrOp::kCall;
        call.func_idx = FuncIndexOf(callee, e->loc);
      }
    } else {
      call.op = IrOp::kICall;
      call.a = EmitRValue(e->lhs.get());
      sig = Info(e->lhs.get()).type.shape->fn_sig.get();
      call.taint_bits = SigTaints(*sig).Encode();
    }
    for (size_t i = 0; i < e->args.size(); ++i) {
      uint32_t v = EmitRValue(e->args[i].get());
      const Type* from = Info(e->args[i].get()).type.shape;
      const Type* to = sig->params[i].shape;
      if (from->IsNumeric() && to->IsNumeric()) {
        v = Convert(v, from, to);
      }
      call.args.push_back(v);
    }
    if (sig->ret.shape->kind != TypeKind::kVoid) {
      call.dst = func_->NewVReg(ClassOf(sig->ret.shape), sig->ret.quals[0].value);
    }
    Append(call);
    return call.dst;
  }

  // ---- Statements ----

  void EmitStmt(const Stmt* s) {
    if (Terminated() && s->kind != StmtKind::kBlock) {
      // Unreachable code: give it its own block so the IR stays well-formed.
      cur_bb_ = func_->NewBlock();
    }
    switch (s->kind) {
      case StmtKind::kExpr:
        EmitRValue(s->expr.get());
        return;
      case StmtKind::kDecl: {
        Symbol* sym = tp_.decl_sym.at(s);
        if (NeedsSlot(sym)) {
          const uint32_t slot = NewSlot(sym);
          var_loc_[sym] = {VarLoc::Kind::kSlot, slot};
          if (s->decl_init != nullptr) {
            uint32_t v = EmitRValue(s->decl_init.get());
            v = Convert(v, Info(s->decl_init.get()).type.shape, sym->type.shape);
            LVal lv;
            lv.kind = LVal::Kind::kSlot;
            lv.slot = slot;
            lv.region = sym->type.quals[0].value;
            lv.shape = sym->type.shape;
            EmitStore(lv, v);
          }
        } else {
          const uint32_t vr =
              func_->NewVReg(ClassOf(sym->type.shape), sym->type.quals[0].value);
          var_loc_[sym] = {VarLoc::Kind::kVReg, vr};
          if (s->decl_init != nullptr) {
            uint32_t v = EmitRValue(s->decl_init.get());
            v = Convert(v, Info(s->decl_init.get()).type.shape, sym->type.shape);
            EmitMovTo(vr, v);
          } else {
            // Deterministic zero-init keeps the VM reproducible.
            EmitMovTo(vr, EmitConstInt(0));
          }
        }
        return;
      }
      case StmtKind::kIf: {
        const uint32_t cond = EmitCond(s->cond.get());
        const uint32_t then_bb = func_->NewBlock();
        const uint32_t else_bb = s->else_stmt != nullptr ? func_->NewBlock() : kNoBlock;
        const uint32_t done_bb = func_->NewBlock();
        Instr br{};
        br.op = IrOp::kBr;
        br.a = cond;
        br.bb_t = then_bb;
        br.bb_f = else_bb != kNoBlock ? else_bb : done_bb;
        Append(br);
        cur_bb_ = then_bb;
        EmitStmt(s->then_stmt.get());
        JumpTo(done_bb);
        if (else_bb != kNoBlock) {
          cur_bb_ = else_bb;
          EmitStmt(s->else_stmt.get());
          JumpTo(done_bb);
        }
        cur_bb_ = done_bb;
        return;
      }
      case StmtKind::kWhile: {
        const uint32_t head = func_->NewBlock();
        const uint32_t body = func_->NewBlock();
        const uint32_t done = func_->NewBlock();
        JumpTo(head);
        const uint32_t cond = EmitCond(s->cond.get());
        Instr br{};
        br.op = IrOp::kBr;
        br.a = cond;
        br.bb_t = body;
        br.bb_f = done;
        Append(br);
        cur_bb_ = body;
        break_stack_.push_back(done);
        continue_stack_.push_back(head);
        EmitStmt(s->body.get());
        break_stack_.pop_back();
        continue_stack_.pop_back();
        JumpTo(head);
        cur_bb_ = done;
        return;
      }
      case StmtKind::kFor: {
        if (s->for_init != nullptr) {
          EmitStmt(s->for_init.get());
        }
        const uint32_t head = func_->NewBlock();
        const uint32_t body = func_->NewBlock();
        const uint32_t step = func_->NewBlock();
        const uint32_t done = func_->NewBlock();
        JumpTo(head);
        if (s->cond != nullptr) {
          const uint32_t cond = EmitCond(s->cond.get());
          Instr br{};
          br.op = IrOp::kBr;
          br.a = cond;
          br.bb_t = body;
          br.bb_f = done;
          Append(br);
        } else {
          JumpTo(body);
        }
        cur_bb_ = body;
        break_stack_.push_back(done);
        continue_stack_.push_back(step);
        EmitStmt(s->body.get());
        break_stack_.pop_back();
        continue_stack_.pop_back();
        JumpTo(step);
        if (s->step != nullptr) {
          EmitRValue(s->step.get());
        }
        JumpTo(head);
        cur_bb_ = done;
        return;
      }
      case StmtKind::kReturn: {
        Instr ret{};
        ret.op = IrOp::kRet;
        if (s->expr != nullptr) {
          uint32_t v = EmitRValue(s->expr.get());
          const Type* from = Info(s->expr.get()).type.shape;
          // Current function's return shape: find via function name.
          const FunctionSema* fs = nullptr;
          for (const auto& f : tp_.functions) {
            if (f.decl->name == func_->name) {
              fs = &f;
            }
          }
          if (fs != nullptr && from->IsNumeric() &&
              fs->sym->sig->ret.shape->IsNumeric()) {
            v = Convert(v, from, fs->sym->sig->ret.shape);
          }
          ret.a = v;
        }
        Append(ret);
        return;
      }
      case StmtKind::kBreak:
        if (!break_stack_.empty()) {
          Instr j{};
          j.op = IrOp::kJmp;
          j.bb_t = break_stack_.back();
          Append(j);
        }
        return;
      case StmtKind::kContinue:
        if (!continue_stack_.empty()) {
          Instr j{};
          j.op = IrOp::kJmp;
          j.bb_t = continue_stack_.back();
          Append(j);
        }
        return;
      case StmtKind::kBlock:
        for (const auto& child : s->stmts) {
          EmitStmt(child.get());
        }
        return;
    }
  }

  // Lowers a condition expression to an int vreg (non-zero = true).
  uint32_t EmitCond(const Expr* e) {
    const uint32_t v = EmitRValue(e);
    if (func_->vregs[v].cls == RegClass::kFloat) {
      Instr z{};
      z.op = IrOp::kConstFloat;
      z.fimm = 0;
      z.dst = func_->NewVReg(RegClass::kFloat, Qual::kPublic);
      Append(z);
      Instr cmp{};
      cmp.op = IrOp::kCmp;
      cmp.cc = CmpCc::kNe;
      cmp.a = v;
      cmp.b = z.dst;
      cmp.dst = func_->NewVReg(RegClass::kInt, func_->vregs[v].taint);
      Append(cmp);
      return cmp.dst;
    }
    return v;
  }

  const TypedProgram& tp_;
  DiagEngine* diags_;
  std::unique_ptr<IrModule> mod_;
  IrFunction* func_ = nullptr;
  uint32_t cur_bb_ = 0;

  std::unordered_map<const Symbol*, uint32_t> global_index_;
  std::map<std::pair<std::string, Qual>, uint32_t> string_pool_;
  std::unordered_map<const Symbol*, VarLoc> var_loc_;
  std::unordered_set<const Symbol*> address_taken_;
  std::vector<uint32_t> break_stack_;
  std::vector<uint32_t> continue_stack_;
};

}  // namespace

std::unique_ptr<IrModule> GenerateIr(const TypedProgram& tp, DiagEngine* diags) {
  return IrGen(tp, diags).Run();
}

}  // namespace confllvm
