#include "src/codegen/codegen.h"

#include <cassert>
#include <cstring>
#include <map>
#include <set>

#include "src/analysis/liveness.h"
#include "src/codegen/regalloc.h"
#include "src/isa/layout.h"
#include "src/support/parallel.h"
#include "src/support/strings.h"

namespace confllvm {

namespace {

constexpr uint8_t kScrA = kRegScratch0;  // r13
constexpr uint8_t kScrB = kRegScratch1;  // r14
constexpr uint8_t kFScratch = 7;         // f7

// A to-be-encoded instruction plus any link-time fixup.
struct Pending {
  enum class Fix : uint8_t {
    kNone,
    kBlock,      // imm <- word index of IR block fix_id
    kTrap,       // imm <- word index of the function's trap
    kFuncEntry,  // imm <- entry word of function fix_id (direct call)
    kFuncAddr,   // imm64 <- CodeAddr(entry of function fix_id)
    kModEntry,   // imm <- link-time entry of module_imports[fix_id] (ModCallSite)
    kGlobalAddr, // payload word becomes a GlobalRef (global fix_id + addend)
    kMagicImm,   // payload word becomes an inverted MagicSite
    kCodeOfs,    // imm64 <- CodeAddr of a function-local word; fix_id is the
                 // pending index until ResolveLocalFixups turns it into the
                 // local word offset. The payload is recorded as a CodeRef
                 // for link-time rebasing (jump-table base addresses).
  };
  MInstr mi;
  Fix fix = Fix::kNone;
  uint32_t fix_id = 0;
  int64_t addend = 0;
  // Raw magic placeholder word (is_magic set): not an instruction.
  bool is_magic = false;
  bool magic_is_ret = false;
  uint8_t magic_taints = 0;

  uint32_t start_word = 0;  // filled during layout

  uint32_t NumWords() const { return is_magic ? 1 : mi.NumWords(); }
};

class FuncEmitter {
 public:
  FuncEmitter(const IrModule& mod, const IrFunction& f, const CodegenOptions& opts,
              DiagEngine* diags, CodegenStats* stats)
      : mod_(mod), f_(f), opts_(opts), diags_(diags), stats_(stats) {}

  std::vector<Pending> Run() {
    live_ = ComputeLiveness(f_);
    ra_ = AllocateRegisters(f_, live_, opts_.ConfMode());
    if (stats_ != nullptr) {
      stats_->private_spills += ra_.num_spilled_private;
    }
    ComputeFrame();
    EmitPrologue();
    for (const BasicBlock& bb : f_.blocks) {
      block_start_[bb.id] = static_cast<uint32_t>(out_.size());
      ResetCoalescing();
      for (const Instr& in : bb.instrs) {
        Select(in);
      }
    }
    // Shared CFI-failure trap (paper: jne fail; fail: call __debugbreak).
    trap_index_ = static_cast<uint32_t>(out_.size());
    if (opts_.cfi) {
      MInstr t{};
      t.op = Op::kTrap;
      t.imm = 1;
      Push(t);
    }
    ResolveLocalFixups();
    return std::move(out_);
  }

 private:
  // ---- frame ----

  void ComputeFrame() {
    // Unified offset numbering across both stacks (Figure 4: x@rsp+4+OFFSET,
    // y@rsp+8 share one numbering); a slot's region only changes addressing.
    uint64_t off = 0;
    slot_off_.resize(f_.slots.size());
    for (size_t i = 0; i < f_.slots.size(); ++i) {
      const FrameSlot& s = f_.slots[i];
      off = (off + s.align - 1) / s.align * s.align;
      slot_off_[i] = off;
      off += s.size;
    }
    spill_off_.resize(ra_.num_spills);
    for (uint32_t i = 0; i < ra_.num_spills; ++i) {
      off = (off + 7) / 8 * 8;
      spill_off_[i] = off;
      off += 8;
    }
    frame_size_ = (off + 15) / 16 * 16;
  }

  Qual SlotRegion(uint32_t slot) const { return f_.slots[slot].region; }

  // Builds the operand for a stack location (IR slot or spill slot).
  MemOperand StackMem(uint64_t off, Qual region) const {
    MemOperand m;
    m.base = kRegSp;
    int64_t disp = static_cast<int64_t>(off);
    if (opts_.scheme == Scheme::kSeg) {
      m.seg = region == Qual::kPrivate ? Seg::kGs : Seg::kFs;
    } else if (opts_.scheme == Scheme::kMpx && opts_.separate_stacks &&
               region == Qual::kPrivate) {
      disp += static_cast<int64_t>(kMpxStackOffset);
    }
    m.disp = static_cast<int32_t>(disp);
    return m;
  }

  // ---- emission primitives ----

  void Push(MInstr mi, Pending::Fix fix = Pending::Fix::kNone, uint32_t fix_id = 0,
            int64_t addend = 0) {
    Pending p;
    p.mi = mi;
    p.fix = fix;
    p.fix_id = fix_id;
    p.addend = addend;
    out_.push_back(p);
    InvalidateCoalescingFor(mi);
  }

  void PushMagic(bool is_ret, uint8_t taints) {
    Pending p;
    p.is_magic = true;
    p.magic_is_ret = is_ret;
    p.magic_taints = taints;
    out_.push_back(p);
    if (stats_ != nullptr) {
      ++stats_->magic_words;
    }
  }

  void EmitMovImm(uint8_t rd, int64_t v) {
    MInstr mi{};
    if (v >= INT32_MIN && v <= INT32_MAX) {
      mi.op = Op::kMovImm;
      mi.rd = rd;
      mi.imm = static_cast<int32_t>(v);
    } else {
      mi.op = Op::kMovImm64;
      mi.rd = rd;
      mi.imm64 = v;
    }
    Push(mi);
  }

  void EmitAddImm(uint8_t rd, uint8_t rs, int64_t v) {
    if (v >= INT32_MIN && v <= INT32_MAX) {
      MInstr mi{};
      mi.op = Op::kAddImm;
      mi.rd = rd;
      mi.rs1 = rs;
      mi.imm = static_cast<int32_t>(v);
      Push(mi);
    } else {
      EmitMovImm(kScrB, v);
      MInstr mi{};
      mi.op = Op::kAdd;
      mi.rd = rd;
      mi.rs1 = rs;
      mi.rs2 = kScrB;
      Push(mi);
    }
  }

  void EmitMov(uint8_t rd, uint8_t rs) {
    if (rd == rs) {
      return;
    }
    MInstr mi{};
    mi.op = Op::kMov;
    mi.rd = rd;
    mi.rs1 = rs;
    Push(mi);
  }

  // ---- vreg access ----

  bool InReg(uint32_t v) const { return ra_.loc[v].kind == VRegAssignment::Kind::kReg; }

  // Returns a physical int register holding vreg v (loading spills into
  // `scratch`).
  uint8_t UseInt(uint32_t v, uint8_t scratch) {
    const VRegAssignment& a = ra_.loc[v];
    if (a.kind == VRegAssignment::Kind::kReg) {
      return a.reg;
    }
    MInstr ld{};
    ld.op = Op::kLoad;
    ld.rd = scratch;
    ld.mem = StackMem(spill_off_[a.spill], ra_.spill_region[a.spill]);
    EmitStackAccessChecks(ld.mem, ra_.spill_region[a.spill]);
    Push(ld);
    return scratch;
  }

  uint8_t UseFloat(uint32_t v) {
    const VRegAssignment& a = ra_.loc[v];
    if (a.kind == VRegAssignment::Kind::kReg) {
      return a.reg;
    }
    MInstr ld{};
    ld.op = Op::kFLoad;
    ld.rd = kFScratch;
    ld.mem = StackMem(spill_off_[a.spill], ra_.spill_region[a.spill]);
    EmitStackAccessChecks(ld.mem, ra_.spill_region[a.spill]);
    Push(ld);
    return kFScratch;
  }

  // Destination register for defining vreg v; call SpillDef(v, reg) after.
  uint8_t DefIntReg(uint32_t v) {
    const VRegAssignment& a = ra_.loc[v];
    return a.kind == VRegAssignment::Kind::kReg ? a.reg : kScrA;
  }
  uint8_t DefFloatReg(uint32_t v) {
    const VRegAssignment& a = ra_.loc[v];
    return a.kind == VRegAssignment::Kind::kReg ? a.reg : kFScratch;
  }
  void SpillDef(uint32_t v, uint8_t reg, bool is_float = false) {
    const VRegAssignment& a = ra_.loc[v];
    if (a.kind != VRegAssignment::Kind::kSpill) {
      return;
    }
    MInstr st{};
    st.op = is_float ? Op::kFStore : Op::kStore;
    st.rd = reg;
    st.mem = StackMem(spill_off_[a.spill], ra_.spill_region[a.spill]);
    EmitStackAccessChecks(st.mem, ra_.spill_region[a.spill]);
    Push(st);
  }

  // ---- MPX checks ----

  void ResetCoalescing() { checked_.clear(); }

  void InvalidateCoalescingFor(const MInstr& mi) {
    if (checked_.empty()) {
      return;
    }
    // Calls invalidate everything (paper: "no intervening call
    // instructions"); a write to a base register invalidates its entries.
    if (mi.op == Op::kCall || mi.op == Op::kICall || mi.op == Op::kCallExt) {
      checked_.clear();
      return;
    }
    uint8_t written = kNoMReg;
    switch (mi.op) {
      case Op::kStore:
      case Op::kFStore:
      case Op::kPush:
      case Op::kJnz:
      case Op::kJz:
      case Op::kBndclR:
      case Op::kBndcuR:
      case Op::kBndclM:
      case Op::kBndcuM:
      case Op::kJmp:
      case Op::kTrap:
      case Op::kChkstk:
      case Op::kNop:
        break;
      case Op::kFAdd:
      case Op::kFSub:
      case Op::kFMul:
      case Op::kFDiv:
      case Op::kFNeg:
      case Op::kFMov:
      case Op::kFLoad:
      case Op::kCvtIF:
      case Op::kMovIF:
        break;  // float destinations are never check bases
      default:
        written = mi.rd;
        break;
    }
    if (written != kNoMReg) {
      for (auto it = checked_.begin(); it != checked_.end();) {
        if (it->first == written) {
          it = checked_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void EmitStackAccessChecks(const MemOperand& m, Qual region) {
    if (opts_.scheme != Scheme::kMpx) {
      return;
    }
    if (opts_.mpx_elide_stack_checks && opts_.emit_chkstk) {
      // rsp is bounded by _chkstk, so rsp-based operands stay within the
      // guard bands (paper §5.1).
      if (stats_ != nullptr) {
        ++stats_->bnd_checks_elided_stack;
      }
      return;
    }
    EmitMpxCheckOperand(m, region);
  }

  void EmitMpxChecks(const MemOperand& m, Qual region) {
    if (opts_.scheme != Scheme::kMpx) {
      return;
    }
    if (m.base == kRegSp && opts_.mpx_elide_stack_checks && opts_.emit_chkstk) {
      if (stats_ != nullptr) {
        ++stats_->bnd_checks_elided_stack;
      }
      return;
    }
    EmitMpxCheckOperand(m, region);
  }

  void EmitMpxCheckOperand(const MemOperand& m, Qual region) {
    const uint8_t bnd = region == Qual::kPrivate ? 1 : 0;
    const bool small_disp =
        static_cast<uint64_t>(m.disp >= 0 ? m.disp : -static_cast<int64_t>(m.disp)) <
        kMpxGuardDispLimit;
    if (opts_.mpx_guard_disp_opt && small_disp && m.index == kNoMReg &&
        m.base != kNoMReg) {
      // Register-form check (cheaper; paper §5.1), displacement elided
      // because it stays inside the 1 MiB guard bands.
      const auto key = std::make_pair(m.base, bnd);
      if (opts_.mpx_coalesce && checked_.count(key) != 0) {
        if (stats_ != nullptr) {
          ++stats_->bnd_checks_coalesced;
        }
        return;
      }
      MInstr lo{};
      lo.op = Op::kBndclR;
      lo.rs1 = m.base;
      lo.bnd = bnd;
      Push(lo);
      MInstr hi{};
      hi.op = Op::kBndcuR;
      hi.rs1 = m.base;
      hi.bnd = bnd;
      Push(hi);
      checked_.insert(key);
    } else {
      MInstr lo{};
      lo.op = Op::kBndclM;
      lo.mem = m;
      lo.bnd = bnd;
      Push(lo);
      MInstr hi{};
      hi.op = Op::kBndcuM;
      hi.mem = m;
      hi.bnd = bnd;
      Push(hi);
    }
    if (stats_ != nullptr) {
      stats_->bnd_checks_emitted += 2;
    }
  }

  // Applies the segment prefix for pointer-based operands under the
  // segmentation scheme.
  MemOperand DataMem(uint8_t base, int64_t disp, Qual region) const {
    MemOperand m;
    m.base = base;
    m.disp = static_cast<int32_t>(disp);
    if (opts_.scheme == Scheme::kSeg) {
      m.seg = region == Qual::kPrivate ? Seg::kGs : Seg::kFs;
    }
    return m;
  }

  // ---- prologue / epilogue ----

  void EmitPrologue() {
    for (uint8_t r : ra_.used_callee_saved) {
      MInstr p{};
      p.op = Op::kPush;
      p.rd = r;
      Push(p);
    }
    if (frame_size_ != 0) {
      EmitAddImm(kRegSp, kRegSp, -static_cast<int64_t>(frame_size_));
    }
    if (opts_.ConfMode() && opts_.emit_chkstk) {
      MInstr c{};
      c.op = Op::kChkstk;
      Push(c);
    }
    // Move incoming arguments to their allocated homes.
    for (uint32_t i = 0; i < f_.num_params; ++i) {
      const uint32_t pv = f_.param_vregs[i];
      if (!live_.intervals[pv].used) {
        continue;
      }
      const VRegAssignment& a = ra_.loc[pv];
      if (a.kind == VRegAssignment::Kind::kReg) {
        EmitMov(a.reg, static_cast<uint8_t>(kRegArg0 + i));
      } else if (a.kind == VRegAssignment::Kind::kSpill) {
        MInstr st{};
        st.op = Op::kStore;
        st.rd = static_cast<uint8_t>(kRegArg0 + i);
        st.mem = StackMem(spill_off_[a.spill], ra_.spill_region[a.spill]);
        EmitStackAccessChecks(st.mem, ra_.spill_region[a.spill]);
        Push(st);
      }
    }
  }

  void EmitEpilogueAndRet() {
    if (frame_size_ != 0) {
      EmitAddImm(kRegSp, kRegSp, static_cast<int64_t>(frame_size_));
    }
    for (auto it = ra_.used_callee_saved.rbegin(); it != ra_.used_callee_saved.rend();
         ++it) {
      MInstr p{};
      p.op = Op::kPop;
      p.rd = *it;
      Push(p);
    }
    if (!opts_.cfi) {
      MInstr r{};
      r.op = Op::kRet;
      Push(r);
      return;
    }
    // Taint-aware CFI return (paper §4): fetch the return address, confirm
    // the MRet magic with the function's return taint, skip it, jump.
    const uint8_t ret_bit = f_.taints.ret == Qual::kPrivate ? 1 : 0;
    MInstr pop{};
    pop.op = Op::kPop;
    pop.rd = 1;
    Push(pop);
    MInstr inv{};
    inv.op = Op::kMovImm64;
    inv.rd = 2;
    Push(inv, Pending::Fix::kMagicImm, /*fix_id=*/1 /*is_ret*/, /*addend=*/ret_bit);
    MInstr nt{};
    nt.op = Op::kNot;
    nt.rd = 2;
    nt.rs1 = 2;
    Push(nt);
    MInstr lc{};
    lc.op = Op::kLoadCode;
    lc.rd = 3;
    lc.rs1 = 1;
    Push(lc);
    MInstr cmp{};
    cmp.op = Op::kCmp;
    cmp.cc = Cond::kNe;
    cmp.rd = 3;
    cmp.rs1 = 3;
    cmp.rs2 = 2;
    Push(cmp);
    MInstr jnz{};
    jnz.op = Op::kJnz;
    jnz.rd = 3;
    Push(jnz, Pending::Fix::kTrap);
    MInstr skip{};
    skip.op = Op::kAddImm;
    skip.rd = 1;
    skip.rs1 = 1;
    skip.imm = 8;
    Push(skip);
    MInstr jr{};
    jr.op = Op::kJmpReg;
    jr.rs1 = 1;
    Push(jr);
  }

  // ---- instruction selection ----

  void Select(const Instr& in) {
    switch (in.op) {
      case IrOp::kConstInt: {
        const uint8_t rd = DefIntReg(in.dst);
        EmitMovImm(rd, in.imm);
        SpillDef(in.dst, rd);
        return;
      }
      case IrOp::kConstFloat: {
        int64_t bits;
        memcpy(&bits, &in.fimm, 8);
        EmitMovImm(kScrB, bits);
        const uint8_t fd = DefFloatReg(in.dst);
        MInstr mi{};
        mi.op = Op::kMovIF;
        mi.rd = fd;
        mi.rs1 = kScrB;
        Push(mi);
        SpillDef(in.dst, fd, /*is_float=*/true);
        return;
      }
      case IrOp::kMov: {
        if (f_.vregs[in.dst].cls == RegClass::kFloat) {
          const uint8_t fs = UseFloat(in.a);
          const uint8_t fd = DefFloatReg(in.dst);
          MInstr mi{};
          mi.op = Op::kFMov;
          mi.rd = fd;
          mi.rs1 = fs;
          Push(mi);
          SpillDef(in.dst, fd, true);
        } else {
          const uint8_t rs = UseInt(in.a, kScrA);
          const uint8_t rd = DefIntReg(in.dst);
          EmitMov(rd, rs);
          SpillDef(in.dst, rd);
        }
        return;
      }
      case IrOp::kBin:
        SelectBin(in);
        return;
      case IrOp::kNeg: {
        if (f_.vregs[in.dst].cls == RegClass::kFloat) {
          const uint8_t fs = UseFloat(in.a);
          const uint8_t fd = DefFloatReg(in.dst);
          MInstr mi{};
          mi.op = Op::kFNeg;
          mi.rd = fd;
          mi.rs1 = fs;
          Push(mi);
          SpillDef(in.dst, fd, true);
        } else {
          const uint8_t rs = UseInt(in.a, kScrA);
          const uint8_t rd = DefIntReg(in.dst);
          MInstr mi{};
          mi.op = Op::kNeg;
          mi.rd = rd;
          mi.rs1 = rs;
          Push(mi);
          SpillDef(in.dst, rd);
        }
        return;
      }
      case IrOp::kNot: {
        const uint8_t rs = UseInt(in.a, kScrA);
        const uint8_t rd = DefIntReg(in.dst);
        MInstr mi{};
        mi.op = Op::kNot;
        mi.rd = rd;
        mi.rs1 = rs;
        Push(mi);
        SpillDef(in.dst, rd);
        return;
      }
      case IrOp::kCmp: {
        const bool is_float = f_.vregs[in.a].cls == RegClass::kFloat;
        MInstr mi{};
        if (is_float) {
          const uint8_t a = UseFloat(in.a);
          // Second float operand may need the scratch too; reload sequence:
          // UseFloat(b) would clobber f7 if both spilled. Handle via kScrB
          // staging: load b's bits? Keep it simple: if both spilled, reload
          // a after b.
          uint8_t b;
          if (!InReg(in.a) && !InReg(in.b)) {
            // stage a into f6's shadow via stack: store a to a scratch spill
            // is overkill; instead compare via two loads: load b into f7
            // clobbers a. Use integer scratch path: load raw bits and
            // compare as floats after MovIF.
            const VRegAssignment& av = ra_.loc[in.a];
            MInstr ld{};
            ld.op = Op::kLoad;
            ld.rd = kScrB;
            ld.mem = StackMem(spill_off_[av.spill], ra_.spill_region[av.spill]);
            EmitStackAccessChecks(ld.mem, ra_.spill_region[av.spill]);
            Push(ld);
            MInstr mf{};
            mf.op = Op::kMovIF;
            mf.rd = 6;  // f6 as secondary scratch for this rare case
            mf.rs1 = kScrB;
            Push(mf);
            b = UseFloat(in.b);
            mi.op = Op::kFCmp;
            mi.cc = static_cast<Cond>(in.cc);
            mi.rd = DefIntReg(in.dst);
            mi.rs1 = 6;
            mi.rs2 = b;
            Push(mi);
            SpillDef(in.dst, mi.rd);
            return;
          }
          b = UseFloat(in.b);
          mi.op = Op::kFCmp;
          mi.cc = static_cast<Cond>(in.cc);
          mi.rd = DefIntReg(in.dst);
          mi.rs1 = a;
          mi.rs2 = b;
          Push(mi);
          SpillDef(in.dst, mi.rd);
        } else {
          const uint8_t a = UseInt(in.a, kScrA);
          const uint8_t b = UseInt(in.b, kScrB);
          mi.op = Op::kCmp;
          mi.cc = static_cast<Cond>(in.cc);
          mi.rd = DefIntReg(in.dst);
          mi.rs1 = a;
          mi.rs2 = b;
          Push(mi);
          SpillDef(in.dst, mi.rd);
        }
        return;
      }
      case IrOp::kLoad:
      case IrOp::kStore:
        SelectMem(in);
        return;
      case IrOp::kAddrGlobal: {
        const uint8_t rd = DefIntReg(in.dst);
        MInstr mi{};
        mi.op = Op::kMovImm64;
        mi.rd = rd;
        Push(mi, Pending::Fix::kGlobalAddr, in.global_idx, in.disp);
        SpillDef(in.dst, rd);
        return;
      }
      case IrOp::kAddrSlot: {
        const uint8_t rd = DefIntReg(in.dst);
        EmitSlotAddress(rd, in.slot, in.disp);
        SpillDef(in.dst, rd);
        return;
      }
      case IrOp::kAddrFunc: {
        const uint8_t rd = DefIntReg(in.dst);
        MInstr mi{};
        mi.op = Op::kMovImm64;
        mi.rd = rd;
        Push(mi, Pending::Fix::kFuncAddr, in.func_idx);
        SpillDef(in.dst, rd);
        return;
      }
      case IrOp::kCall:
      case IrOp::kCallExt:
      case IrOp::kCallMod:
      case IrOp::kICall:
        SelectCall(in);
        return;
      case IrOp::kIntToFloat: {
        const uint8_t rs = UseInt(in.a, kScrA);
        const uint8_t fd = DefFloatReg(in.dst);
        MInstr mi{};
        mi.op = Op::kCvtIF;
        mi.rd = fd;
        mi.rs1 = rs;
        Push(mi);
        SpillDef(in.dst, fd, true);
        return;
      }
      case IrOp::kFloatToInt: {
        const uint8_t fs = UseFloat(in.a);
        const uint8_t rd = DefIntReg(in.dst);
        MInstr mi{};
        mi.op = Op::kCvtFI;
        mi.rd = rd;
        mi.rs1 = fs;
        Push(mi);
        SpillDef(in.dst, rd);
        return;
      }
      case IrOp::kJmp: {
        MInstr mi{};
        mi.op = Op::kJmp;
        Push(mi, Pending::Fix::kBlock, in.bb_t);
        return;
      }
      case IrOp::kBr: {
        const uint8_t c = UseInt(in.a, kScrA);
        MInstr jnz{};
        jnz.op = Op::kJnz;
        jnz.rd = c;
        Push(jnz, Pending::Fix::kBlock, in.bb_t);
        MInstr jmp{};
        jmp.op = Op::kJmp;
        Push(jmp, Pending::Fix::kBlock, in.bb_f);
        return;
      }
      case IrOp::kSelect: {
        // dst = (a != 0) ? b : dst(old) — destructive machine select. When
        // dst is spilled we stage the old value through r0 (the return
        // register, never allocated and dead between calls) because both
        // scratch registers may already hold a and b. The whole sequence is
        // straight-line: no branch regardless of a's value.
        const uint8_t ra = UseInt(in.a, kScrA);
        const uint8_t rb = UseInt(in.b, kScrB);
        const VRegAssignment& d = ra_.loc[in.dst];
        if (d.kind == VRegAssignment::Kind::kReg) {
          MInstr sel{};
          sel.op = Op::kSelect;
          sel.rd = d.reg;
          sel.rs1 = ra;
          sel.rs2 = rb;
          Push(sel);
          return;
        }
        MInstr ld{};
        ld.op = Op::kLoad;
        ld.rd = kRegRet;
        ld.mem = StackMem(spill_off_[d.spill], ra_.spill_region[d.spill]);
        EmitStackAccessChecks(ld.mem, ra_.spill_region[d.spill]);
        Push(ld);
        MInstr sel{};
        sel.op = Op::kSelect;
        sel.rd = kRegRet;
        sel.rs1 = ra;
        sel.rs2 = rb;
        Push(sel);
        SpillDef(in.dst, kRegRet);
        return;
      }
      case IrOp::kBrTable: {
        // Jump ladder: bounds-check the dense index against [0, N), fall to
        // bb_f when out of range, otherwise jump through a table of
        // one-word kJmp instructions placed right after the kJmpReg. The
        // table base is materialized as an absolute code address via
        // Fix::kCodeOfs so the linker can rebase it (Binary::code_refs).
        const uint8_t rx = UseInt(in.a, kScrA);
        const uint32_t n = static_cast<uint32_t>(in.args.size());
        EmitMovImm(kScrB, 0);
        MInstr lt{};
        lt.op = Op::kCmp;
        lt.cc = Cond::kLt;
        lt.rd = kScrB;
        lt.rs1 = rx;
        lt.rs2 = kScrB;
        Push(lt);
        MInstr jneg{};
        jneg.op = Op::kJnz;
        jneg.rd = kScrB;
        Push(jneg, Pending::Fix::kBlock, in.bb_f);
        EmitMovImm(kScrB, n);
        MInstr ge{};
        ge.op = Op::kCmp;
        ge.cc = Cond::kGe;
        ge.rd = kScrB;
        ge.rs1 = rx;
        ge.rs2 = kScrB;
        Push(ge);
        MInstr jhi{};
        jhi.op = Op::kJnz;
        jhi.rd = kScrB;
        Push(jhi, Pending::Fix::kBlock, in.bb_f);
        // Table base. The fix_id is the *pending index* of the first table
        // entry: base movimm64 + lea + jmpreg precede it.
        const uint32_t table_pending = static_cast<uint32_t>(out_.size()) + 3;
        MInstr base{};
        base.op = Op::kMovImm64;
        base.rd = kScrB;
        Push(base, Pending::Fix::kCodeOfs, table_pending);
        MInstr lea{};
        lea.op = Op::kLea;
        lea.rd = kScrA;
        lea.mem.base = kScrB;
        lea.mem.index = rx;
        lea.mem.scale_log2 = 3;  // one word per table entry
        Push(lea);
        MInstr jr{};
        jr.op = Op::kJmpReg;
        jr.rs1 = kScrA;
        Push(jr);
        for (uint32_t k = 0; k < n; ++k) {
          MInstr e{};
          e.op = Op::kJmp;
          Push(e, Pending::Fix::kBlock, in.args[k]);
        }
        return;
      }
      case IrOp::kRet: {
        if (in.a != kNoReg) {
          const uint8_t rs = UseInt(in.a, kScrA);
          EmitMov(kRegRet, rs);
        }
        EmitEpilogueAndRet();
        return;
      }
    }
  }

  void SelectBin(const Instr& in) {
    const bool is_float = in.bin >= BinOp::kFAdd;
    if (is_float) {
      uint8_t a;
      uint8_t b;
      if (!InReg(in.a) && !InReg(in.b)) {
        const VRegAssignment& av = ra_.loc[in.a];
        MInstr ld{};
        ld.op = Op::kLoad;
        ld.rd = kScrB;
        ld.mem = StackMem(spill_off_[av.spill], ra_.spill_region[av.spill]);
        EmitStackAccessChecks(ld.mem, ra_.spill_region[av.spill]);
        Push(ld);
        MInstr mf{};
        mf.op = Op::kMovIF;
        mf.rd = 6;
        mf.rs1 = kScrB;
        Push(mf);
        a = 6;
        b = UseFloat(in.b);
      } else {
        a = UseFloat(in.a);
        b = InReg(in.b) ? ra_.loc[in.b].reg : UseFloat(in.b);
      }
      MInstr mi{};
      switch (in.bin) {
        case BinOp::kFAdd: mi.op = Op::kFAdd; break;
        case BinOp::kFSub: mi.op = Op::kFSub; break;
        case BinOp::kFMul: mi.op = Op::kFMul; break;
        default: mi.op = Op::kFDiv; break;
      }
      mi.rd = DefFloatReg(in.dst);
      mi.rs1 = a;
      mi.rs2 = b;
      Push(mi);
      SpillDef(in.dst, mi.rd, true);
      return;
    }
    const uint8_t a = UseInt(in.a, kScrA);
    const uint8_t b = UseInt(in.b, kScrB);
    MInstr mi{};
    switch (in.bin) {
      case BinOp::kAdd: mi.op = Op::kAdd; break;
      case BinOp::kSub: mi.op = Op::kSub; break;
      case BinOp::kMul: mi.op = Op::kMul; break;
      case BinOp::kSDiv: mi.op = Op::kDiv; break;
      case BinOp::kSRem: mi.op = Op::kRem; break;
      case BinOp::kAnd: mi.op = Op::kAnd; break;
      case BinOp::kOr: mi.op = Op::kOr; break;
      case BinOp::kXor: mi.op = Op::kXor; break;
      case BinOp::kShl: mi.op = Op::kShl; break;
      case BinOp::kShr: mi.op = Op::kShr; break;
      default: mi.op = Op::kAdd; break;
    }
    mi.rd = DefIntReg(in.dst);
    mi.rs1 = a;
    mi.rs2 = b;
    Push(mi);
    SpillDef(in.dst, mi.rd);
  }

  void EmitSlotAddress(uint8_t rd, uint32_t slot, int64_t disp) {
    const uint64_t off = slot_off_[slot] + static_cast<uint64_t>(disp);
    const Qual region = SlotRegion(slot);
    if (region == Qual::kPrivate && opts_.separate_stacks) {
      if (opts_.scheme == Scheme::kSeg) {
        // Absolute private address = rsp + (gs-fs) + off (paper §3: "the
        // address of x is rsp+4+size").
        MInstr lea{};
        lea.op = Op::kLea;
        lea.rd = rd;
        lea.mem.base = kRegSp;
        lea.mem.disp = static_cast<int32_t>(off);
        Push(lea);
        EmitMovImm(kScrB, static_cast<int64_t>(kSegPrivateStackOffset));
        MInstr add{};
        add.op = Op::kAdd;
        add.rd = rd;
        add.rs1 = rd;
        add.rs2 = kScrB;
        Push(add);
        return;
      }
      if (opts_.scheme == Scheme::kMpx) {
        MInstr lea{};
        lea.op = Op::kLea;
        lea.rd = rd;
        lea.mem.base = kRegSp;
        lea.mem.disp = static_cast<int32_t>(off + kMpxStackOffset);
        Push(lea);
        return;
      }
    }
    MInstr lea{};
    lea.op = Op::kLea;
    lea.rd = rd;
    lea.mem.base = kRegSp;
    lea.mem.disp = static_cast<int32_t>(off);
    Push(lea);
  }

  void SelectMem(const Instr& in) {
    const bool is_load = in.op == IrOp::kLoad;
    const bool is_float =
        is_load ? f_.vregs[in.dst].cls == RegClass::kFloat
                : f_.vregs[in.b].cls == RegClass::kFloat;
    MemOperand m;
    bool stack_access = false;
    if (in.mem_is_slot) {
      m = StackMem(slot_off_[in.slot] + static_cast<uint64_t>(in.disp), in.region);
      stack_access = true;
    } else {
      const uint8_t base = UseInt(in.a, kScrA);
      m = DataMem(base, in.disp, in.region);
    }
    if (stack_access) {
      EmitStackAccessChecks(m, in.region);
    } else {
      EmitMpxChecks(m, in.region);
    }
    if (is_load) {
      MInstr mi{};
      mi.op = is_float ? Op::kFLoad : Op::kLoad;
      mi.mem = m;
      mi.size1 = in.size == 1;
      mi.rd = is_float ? DefFloatReg(in.dst) : DefIntReg(in.dst);
      Push(mi);
      SpillDef(in.dst, mi.rd, is_float);
    } else {
      // Store: the value register. Base may already occupy kScrA, so stage
      // the value through kScrB.
      MInstr mi{};
      mi.op = is_float ? Op::kFStore : Op::kStore;
      mi.mem = m;
      mi.size1 = in.size == 1;
      mi.rd = is_float ? UseFloat(in.b) : UseInt(in.b, kScrB);
      Push(mi);
    }
  }

  void SelectCall(const Instr& in) {
    // Stage arguments into r1..r4. Sources are allocated registers (never
    // r0..r4) or spill slots, so there is no shuffle hazard.
    for (size_t i = 0; i < in.args.size(); ++i) {
      const uint8_t src = UseInt(in.args[i], kScrA);
      EmitMov(static_cast<uint8_t>(kRegArg0 + i), src);
    }

    uint8_t ret_taint_bit = 0;
    if (in.op == IrOp::kCall) {
      ret_taint_bit = mod_.functions[in.func_idx].taints.ret == Qual::kPrivate ? 1 : 0;
      MInstr call{};
      call.op = Op::kCall;
      Push(call, Pending::Fix::kFuncEntry, in.func_idx);
    } else if (in.op == IrOp::kCallMod) {
      // Cross-module direct call: the target entry is unknown until link
      // time, so emit kCall with a zero target and record a ModCallSite.
      // CFI-wise the site is identical to a local direct call — the MRet
      // magic below uses the *declared* return taint, and the callee's own
      // MCall magic is what link-time ConfVerify checks the edge against.
      ret_taint_bit =
          mod_.module_imports[in.ext_idx].taints.ret == Qual::kPrivate ? 1 : 0;
      MInstr call{};
      call.op = Op::kCall;
      Push(call, Pending::Fix::kModEntry, in.ext_idx);
    } else if (in.op == IrOp::kCallExt) {
      const IrImport& imp = mod_.imports[in.ext_idx];
      ret_taint_bit = imp.taints.ret == Qual::kPrivate ? 1 : 0;
      MInstr call{};
      call.op = Op::kCallExt;
      call.imm = static_cast<int32_t>(in.ext_idx);
      Push(call);
    } else {
      ret_taint_bit = TaintBits::Decode(in.taint_bits).ret == Qual::kPrivate ? 1 : 0;
      EmitICall(in);
    }

    // Valid return site: the MRet magic word right after the call; the
    // callee's CFI return sequence checks it and jumps past it (paper §4).
    // Trusted imports return natively (their wrappers embed the equivalent
    // check), so no site is needed after kCallExt.
    if (opts_.cfi && in.op != IrOp::kCallExt) {
      PushMagic(/*is_ret=*/true, ret_taint_bit);
    }

    if (in.HasDst()) {
      const uint8_t rd = DefIntReg(in.dst);
      EmitMov(rd, kRegRet);
      SpillDef(in.dst, rd);
    }
  }

  void EmitICall(const Instr& in) {
    const bool spilled = !InReg(in.a);
    if (!opts_.cfi) {
      const uint8_t rt = UseInt(in.a, kScrA);
      MInstr call{};
      call.op = Op::kICall;
      call.rs1 = rt;
      Push(call);
      return;
    }
    // CFI check (paper §4): the 64-bit word before the target's entry must
    // be MCall with taint bits matching the register taints at this site.
    const uint8_t rt = UseInt(in.a, kScrA);
    if (spilled) {
      // Target sits in kScrA; park it on the stack while the check uses
      // both scratch registers, then restore.
      MInstr push{};
      push.op = Op::kPush;
      push.rd = rt;
      Push(push);
    }
    MInstr addr{};
    addr.op = Op::kAddImm;
    addr.rd = kScrB;
    addr.rs1 = rt;
    addr.imm = -8;
    Push(addr);
    MInstr lc{};
    lc.op = Op::kLoadCode;
    lc.rd = kScrB;
    lc.rs1 = kScrB;
    Push(lc);
    MInstr inv{};
    inv.op = Op::kMovImm64;
    inv.rd = kScrA;
    Push(inv, Pending::Fix::kMagicImm, /*fix_id=*/0 /*MCall*/, /*addend=*/in.taint_bits);
    MInstr nt{};
    nt.op = Op::kNot;
    nt.rd = kScrA;
    nt.rs1 = kScrA;
    Push(nt);
    MInstr cmp{};
    cmp.op = Op::kCmp;
    cmp.cc = Cond::kNe;
    cmp.rd = kScrB;
    cmp.rs1 = kScrB;
    cmp.rs2 = kScrA;
    Push(cmp);
    MInstr jnz{};
    jnz.op = Op::kJnz;
    jnz.rd = kScrB;
    Push(jnz, Pending::Fix::kTrap);
    if (spilled) {
      MInstr pop{};
      pop.op = Op::kPop;
      pop.rd = kScrA;
      Push(pop);
    }
    MInstr call{};
    call.op = Op::kICall;
    call.rs1 = spilled ? kScrA : rt;
    Push(call);
  }

  // ---- fixups ----

  void ResolveLocalFixups() {
    // Word offsets within the function.
    uint32_t w = 0;
    std::vector<uint32_t> word_of(out_.size());
    for (size_t i = 0; i < out_.size(); ++i) {
      word_of[i] = w;
      w += out_[i].NumWords();
    }
    trap_word_ = out_.empty() ? 0 : word_of[trap_index_ < out_.size() ? trap_index_
                                                                      : out_.size() - 1];
    for (Pending& p : out_) {
      if (p.fix == Pending::Fix::kBlock) {
        p.mi.imm = static_cast<int32_t>(word_of[block_start_.at(p.fix_id)]);
        p.fix = Pending::Fix::kNone;
        p.addend = 1;  // mark: local target, needs function base added
      } else if (p.fix == Pending::Fix::kTrap) {
        p.mi.imm = static_cast<int32_t>(trap_word_);
        p.fix = Pending::Fix::kNone;
        p.addend = 1;
      } else if (p.fix == Pending::Fix::kCodeOfs) {
        // fix_id was a pending index; turn it into the function-local word
        // offset. The absolute address is materialized at layout time.
        p.fix_id = word_of[p.fix_id];
      }
    }
  }

  const IrModule& mod_;
  const IrFunction& f_;
  const CodegenOptions& opts_;
  DiagEngine* diags_;
  CodegenStats* stats_;

  LivenessInfo live_;
  AllocResult ra_;
  std::vector<uint64_t> slot_off_;
  std::vector<uint64_t> spill_off_;
  uint64_t frame_size_ = 0;
  std::vector<Pending> out_;
  std::map<uint32_t, uint32_t> block_start_;  // IR block id -> pending index
  uint32_t trap_index_ = 0;
  uint32_t trap_word_ = 0;
  std::set<std::pair<uint8_t, uint8_t>> checked_;  // (base reg, bnd)
};

}  // namespace

Binary GenerateCode(const IrModule& mod, const CodegenOptions& opts, DiagEngine* diags,
                    CodegenStats* stats, unsigned jobs) {
  Binary bin;
  bin.scheme = opts.scheme;
  bin.cfi = opts.cfi;
  bin.separate_stacks = opts.separate_stacks;
  bin.ct = opts.ct;

  for (const IrGlobal& g : mod.globals) {
    BinGlobal bg;
    bg.name = g.name;
    bg.size = g.size;
    bg.align = g.align;
    bg.is_private = g.region == Qual::kPrivate;
    bg.init = g.init;
    bg.relocs = g.relocs;
    bin.globals.push_back(std::move(bg));
  }
  for (const IrImport& imp : mod.imports) {
    BinImport bi;
    bi.name = imp.name;
    bi.taint_bits = imp.taints.Encode();
    bi.num_params = imp.num_params;
    bi.returns_value = imp.returns_value;
    for (const auto& p : imp.params) {
      bi.params.push_back({p.is_pointer, p.pointee == Qual::kPrivate});
    }
    bin.imports.push_back(std::move(bi));
  }
  for (const IrModImport& imp : mod.module_imports) {
    BinModImport bm;
    bm.name = imp.name;
    bm.taint_bits = imp.taints.Encode();
    bm.num_params = imp.num_params;
    bm.returns_value = imp.returns_value;
    bin.mod_imports.push_back(std::move(bm));
  }

  // Emit every function, then lay them out and resolve cross-function
  // fixups. Emission is per-function pure (liveness, regalloc, and selection
  // read only the module and their own function), so it shards across
  // worker threads; each shard accumulates into its own CodegenStats and a
  // per-function DiagEngine, merged in function order below so the result —
  // pendings, stats, and diagnostics — is identical for any worker count.
  struct FuncBlob {
    std::vector<Pending> pendings;
    CodegenStats stats;
    DiagEngine diags;
  };
  std::vector<FuncBlob> blobs(mod.functions.size());
  ParallelFor(mod.functions.size(), jobs, [&](size_t i) {
    FuncBlob& blob = blobs[i];
    FuncEmitter emitter(mod, mod.functions[i], opts, &blob.diags, &blob.stats);
    blob.pendings = emitter.Run();
  });
  for (size_t i = 0; i < mod.functions.size(); ++i) {
    const IrFunction& f = mod.functions[i];
    if (stats != nullptr) {
      stats->Accumulate(blobs[i].stats);
    }
    if (diags != nullptr) {
      diags->Append(blobs[i].diags);
    }
    BinFunction bf;
    bf.name = f.name;
    bf.taint_bits = f.taints.Encode();
    bf.returns_value = f.returns_value;
    bf.num_params = f.num_params;
    bin.functions.push_back(std::move(bf));
  }

  // Layout.
  uint32_t word = 0;
  std::vector<uint32_t> func_base(blobs.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    if (opts.cfi) {
      ++word;  // MCall magic word precedes the entry
    }
    func_base[i] = word;
    bin.functions[i].entry_word = word;
    for (Pending& p : blobs[i].pendings) {
      p.start_word = word;
      word += p.NumWords();
    }
  }

  // Resolve + encode.
  for (size_t i = 0; i < blobs.size(); ++i) {
    if (opts.cfi) {
      bin.magic_sites.push_back({static_cast<uint32_t>(bin.code.size()),
                                 /*is_ret=*/false, bin.functions[i].taint_bits,
                                 /*inverted=*/false});
      bin.code.push_back(0);  // patched post-link
    }
    for (Pending& p : blobs[i].pendings) {
      if (p.is_magic) {
        bin.magic_sites.push_back({static_cast<uint32_t>(bin.code.size()),
                                   p.magic_is_ret, p.magic_taints, false});
        bin.code.push_back(0);
        continue;
      }
      // Local jump targets were resolved function-relative (addend flag).
      if ((p.mi.op == Op::kJmp || p.mi.op == Op::kJnz || p.mi.op == Op::kJz) &&
          p.addend == 1) {
        p.mi.imm += static_cast<int32_t>(func_base[i]);
      }
      switch (p.fix) {
        case Pending::Fix::kFuncEntry:
          p.mi.imm = static_cast<int32_t>(bin.functions[p.fix_id].entry_word);
          break;
        case Pending::Fix::kFuncAddr:
          p.mi.imm64 =
              static_cast<int64_t>(CodeAddr(bin.functions[p.fix_id].entry_word));
          // Payload words are indistinguishable from constants, so record
          // the site for link-time rebasing (the payload is word +1).
          bin.func_refs.push_back(
              {static_cast<uint32_t>(bin.code.size()) + 1, p.fix_id});
          break;
        case Pending::Fix::kModEntry:
          // Cross-module call: target is link-time; leave imm 0 and record
          // the site against the module-import slot.
          bin.mod_call_sites.push_back(
              {static_cast<uint32_t>(bin.code.size()), p.fix_id});
          break;
        case Pending::Fix::kGlobalAddr:
          bin.global_refs.push_back({static_cast<uint32_t>(bin.code.size()) + 1,
                                     p.fix_id, p.addend});
          break;
        case Pending::Fix::kMagicImm:
          bin.magic_sites.push_back({static_cast<uint32_t>(bin.code.size()) + 1,
                                     /*is_ret=*/p.fix_id == 1,
                                     static_cast<uint8_t>(p.addend),
                                     /*inverted=*/true});
          break;
        case Pending::Fix::kCodeOfs: {
          // Jump-table base: absolute address of a function-local word. The
          // payload (word +1) is a code address baked into a constant, so
          // record a CodeRef for link-time rebasing.
          const uint32_t target = func_base[i] + p.fix_id;
          p.mi.imm64 = static_cast<int64_t>(CodeAddr(target));
          bin.code_refs.push_back(
              {static_cast<uint32_t>(bin.code.size()) + 1, target});
          break;
        }
        default:
          break;
      }
      Encode(p.mi, &bin.code);
    }
  }
  if (stats != nullptr) {
    stats->functions_emitted += bin.functions.size();
    stats->code_words += bin.code.size();
  }
  return bin;
}

}  // namespace confllvm
