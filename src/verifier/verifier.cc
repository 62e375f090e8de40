#include "src/verifier/verifier.h"

#include <algorithm>
#include <optional>

#include "src/isa/layout.h"
#include "src/support/strings.h"

namespace confllvm {

namespace {

enum class T : uint8_t { kL = 0, kH = 1 };  // public / private

T Join(T a, T b) { return a == T::kH || b == T::kH ? T::kH : T::kL; }
bool Le(T a, T b) { return a == T::kL || b == T::kH; }

struct RegState {
  T r[kNumIntRegs];
  T f[kNumFloatRegs];

  static RegState Entry(uint8_t magic_taints) {
    RegState s;
    for (int i = 0; i < kNumIntRegs; ++i) {
      s.r[i] = T::kH;  // dead registers conservatively private (paper §4)
    }
    for (T& ft : s.f) {
      ft = T::kH;
    }
    for (int i = 0; i < 4; ++i) {
      s.r[kRegArg0 + i] = ((magic_taints >> i) & 1) != 0 ? T::kH : T::kL;
    }
    for (uint8_t cs : kCalleeSavedRegs) {
      s.r[cs] = T::kL;  // callee-saved forced public (paper §4)
    }
    s.r[kRegSp] = T::kL;
    return s;
  }

  bool MergeFrom(const RegState& o) {
    bool changed = false;
    for (int i = 0; i < kNumIntRegs; ++i) {
      const T j = Join(r[i], o.r[i]);
      if (j != r[i]) {
        r[i] = j;
        changed = true;
      }
    }
    for (int i = 0; i < kNumFloatRegs; ++i) {
      const T j = Join(f[i], o.f[i]);
      if (j != f[i]) {
        f[i] = j;
        changed = true;
      }
    }
    return changed;
  }
};

// Stands in for the instruction of an MRet return-site word: op kInvalid
// matches none of the opcode tests in the pattern scans.
const MInstr kReturnSite{};

// One instruction of a procedure in layout order: the loader's decoded slot
// at `word` (what every VM engine executes), or an MRet return-site word.
struct ProcInstr {
  uint32_t word = 0;   // absolute code word index
  const MInstr* mi = &kReturnSite;  // points into LoadedProgram::decoded
  bool is_ret_site_magic = false;  // the MRet word after a call
  uint8_t site_taints = 0;
};

struct Proc {
  uint32_t entry_word = 0;
  uint8_t magic_taints = 0;
  std::vector<ProcInstr> instrs;  // in layout order
  bool has_chkstk = false;
  uint32_t end_word = 0;  // one past the last word
};

// Marks a word that starts no procedure instruction.
constexpr uint32_t kNoInstr = ~0u;

class VerifierImpl {
 public:
  explicit VerifierImpl(const LoadedProgram& prog) : prog_(prog), bin_(prog.binary) {}

  VerifyResult Run() {
    if (!bin_.cfi || bin_.scheme == Scheme::kNone) {
      Err(0, "binary lacks full ConfLLVM instrumentation (CFI + bounds scheme)");
      return Finish();
    }
    // The walk below checks the decoded slots the VM executes; a slot table
    // that does not cover the code image word for word cannot be trusted.
    if (prog_.decoded.size() != bin_.code.size()) {
      Err(0, StrFormat("decoded image has %zu slots for %zu code words",
                       prog_.decoded.size(), bin_.code.size()));
      return Finish();
    }
    DiscoverProcedures();
    if (!result_.errors.empty()) {
      return Finish();
    }
    CheckMagicUniqueness();
    for (const Proc& p : procs_) {
      CheckProcedure(&p);
    }
    return Finish();
  }

 private:
  VerifyResult Finish() {
    result_.ok = result_.errors.empty();
    result_.procedures = procs_.size();
    return result_;
  }

  void Err(uint32_t word, const std::string& msg) {
    result_.errors.push_back(StrFormat("word %u: %s", word, msg.c_str()));
  }

  bool IsCallMagic(uint64_t w) const {
    return HasMagicShape(w) && MagicPrefixOf(w) == bin_.magic_call_prefix;
  }
  bool IsRetMagic(uint64_t w) const {
    return HasMagicShape(w) && MagicPrefixOf(w) == bin_.magic_ret_prefix;
  }

  // ---- stage 1: discovery & disassembly ----

  void DiscoverProcedures() {
    // Procedure entries are the words following MCall magic values. The
    // exit stubs appended by the loader live after all procedures; we stop
    // each procedure at the next MCall magic or at an exit stub. Magic words
    // are read raw (kLoadCode compares raw words at run time); instructions
    // come from the loader's decoded slots, which are what the VM runs.
    index_of_word_.assign(bin_.code.size(), kNoInstr);
    std::vector<uint32_t> entries;
    for (uint32_t w = 0; w < bin_.code.size(); ++w) {
      if (IsCallMagic(bin_.code[w])) {
        entries.push_back(w + 1);
      }
    }
    if (entries.empty()) {
      Err(0, "no procedures found (no MCall magic)");
      return;
    }
    const uint32_t code_end = std::min<uint32_t>(
        static_cast<uint32_t>(bin_.code.size()),
        std::min(prog_.exit_stub_word[0], prog_.exit_stub_word[1]));
    for (size_t i = 0; i < entries.size(); ++i) {
      Proc p;
      p.entry_word = entries[i];
      p.magic_taints = MagicTaintsOf(bin_.code[entries[i] - 1]);
      const uint32_t end =
          i + 1 < entries.size() ? entries[i + 1] - 1 : code_end;
      p.end_word = end;
      uint32_t w = p.entry_word;
      while (w < end) {
        if (IsRetMagic(bin_.code[w])) {
          // Valid return site (must immediately follow a call; checked in
          // the dataflow stage).
          index_of_word_[w] = static_cast<uint32_t>(p.instrs.size());
          p.instrs.push_back({w, &kReturnSite, true, MagicTaintsOf(bin_.code[w])});
          ++w;
          continue;
        }
        const DecodedSlot& slot = prog_.decoded[w];
        if (!slot.instr.has_value() || slot.words != slot.instr->NumWords()) {
          Err(w, "disassembly failed inside procedure");
          return;
        }
        index_of_word_[w] = static_cast<uint32_t>(p.instrs.size());
        p.instrs.push_back({w, &*slot.instr});
        if (slot.instr->op == Op::kChkstk) {
          p.has_chkstk = true;
        }
        w += slot.words;
      }
      procs_.push_back(std::move(p));
    }
  }

  void CheckMagicUniqueness() {
    // Every magic-prefixed word must be a procedure-entry MCall, a decoded
    // MRet return site, or a loader exit stub. Anything else means the
    // prefix also appears as data — the assumption of §4 is violated. Every
    // MCall word opens a procedure, and an MRet word is a return site
    // exactly when the procedure walk started an instruction there.
    for (uint32_t w = 0; w < bin_.code.size(); ++w) {
      const uint64_t v = bin_.code[w];
      const bool legit = IsCallMagic(v) || index_of_word_[w] != kNoInstr ||
                         w == prog_.exit_stub_word[0] ||
                         w == prog_.exit_stub_word[1];
      if (IsRetMagic(v) && !legit) {
        Err(w, "magic prefix appears outside a legitimate site");
      }
    }
  }

  // ---- stage 2: per-procedure dataflow & checks ----

  // Bounds-checks an untrusted jump immediate before it indexes the table.
  bool InProc(const Proc& p, uint32_t word) const {
    return word >= p.entry_word && word < p.end_word &&
           index_of_word_[word] != kNoInstr;
  }

  void CheckProcedure(const Proc* p) {
    // Block leaders: entry + jump targets + instruction after any branch,
    // call return-site, or terminator. Per-instruction tables carry one
    // extra slot so an empty procedure still has its entry leader.
    const size_t n = p->instrs.size();
    std::vector<uint8_t> leaders(n + 1, 0);
    leaders[0] = 1;
    for (size_t i = 0; i < n; ++i) {
      const ProcInstr& pi = p->instrs[i];
      if (pi.is_ret_site_magic) {
        continue;
      }
      const Op op = pi.mi->op;
      if (op == Op::kJmp || op == Op::kJnz || op == Op::kJz) {
        const uint32_t target = static_cast<uint32_t>(pi.mi->imm);
        if (!InProc(*p, target)) {
          Err(pi.word, "jump target outside the procedure");
          return;
        }
        leaders[index_of_word_[target]] = 1;
        if (i + 1 < n) {
          leaders[i + 1] = 1;
        }
      }
      if (op == Op::kRet) {
        Err(pi.word, "plain ret in U (must use the CFI return sequence)");
        return;
      }
    }

    // Worklist dataflow across blocks (LIFO; a leader is re-pushed each
    // time its in-state grows).
    in_state_.assign(n + 1, std::nullopt);
    in_state_[0] = RegState::Entry(p->magic_taints);
    work_.assign(1, 0);
    while (!work_.empty()) {
      const size_t leader = work_.back();
      work_.pop_back();
      RegState s = *in_state_[leader];
      size_t i = leader;
      bool fell_off = true;
      while (i < n) {
        if (i != leader && leaders[i] != 0) {
          // Fall into the next block.
          Propagate(i, s);
          fell_off = false;
          break;
        }
        int next_delta = 1;
        const bool cont = Transfer(p, i, &s, &next_delta);
        if (!cont) {
          fell_off = false;
          break;
        }
        i += next_delta;
      }
      if (fell_off && i >= n) {
        Err(p->entry_word, "control can fall off the end of the procedure");
        return;
      }
      // Revisit logic handled inside Propagate (monotone merge).
      if (!result_.errors.empty() && result_.errors.size() > 64) {
        return;  // avoid error floods
      }
    }
    result_.instructions += n;
  }

  void Propagate(size_t leader, const RegState& s) {
    std::optional<RegState>& in = in_state_[leader];
    if (!in.has_value()) {
      in = s;
      work_.push_back(leader);
    } else if (in->MergeFrom(s)) {
      work_.push_back(leader);
    }
  }

  // Returns the taint/region of a memory operand if the access is properly
  // guarded at instruction index i, or nullopt with an error.
  std::optional<T> GuardedRegion(const Proc* p, size_t i, const MInstr& mi) {
    const MemOperand& m = mi.mem;
    if (bin_.scheme == Scheme::kSeg) {
      if (m.seg == Seg::kNone) {
        Err(p->instrs[i].word, "segment-scheme access without fs/gs prefix");
        return std::nullopt;
      }
      return m.seg == Seg::kGs ? T::kH : T::kL;
    }
    // MPX scheme.
    if (m.seg != Seg::kNone) {
      Err(p->instrs[i].word, "unexpected segment prefix under MPX scheme");
      return std::nullopt;
    }
    if (m.base == kRegSp) {
      // Stack access: sound only under chkstk, with the displacement inside
      // a guard band of the public frame or the OFFSET-shifted private one.
      if (!p->has_chkstk) {
        Err(p->instrs[i].word, "unchecked stack access without chkstk");
        return std::nullopt;
      }
      const int64_t d = m.disp;
      if (d >= 0 && d < static_cast<int64_t>(kMpxGuardDispLimit)) {
        return T::kL;
      }
      if (!bin_.separate_stacks &&
          d >= -static_cast<int64_t>(kMpxGuardDispLimit) &&
          d < static_cast<int64_t>(kMpxGuardDispLimit)) {
        return T::kL;
      }
      if (d >= static_cast<int64_t>(kMpxStackOffset) &&
          d < static_cast<int64_t>(kMpxStackOffset + kMpxGuardDispLimit)) {
        return T::kH;
      }
      Err(p->instrs[i].word, "stack displacement outside guard bands");
      return std::nullopt;
    }
    // Pointer access: find a dominating bndcl/bndcu pair in this block with
    // no intervening call and no redefinition of base/index.
    int bnd = -1;
    bool saw_lower = false;
    bool saw_upper = false;
    for (size_t k = i; k-- > 0;) {
      const ProcInstr& prev = p->instrs[k];
      if (prev.is_ret_site_magic) {
        break;  // a call site ends the window
      }
      const Op op = prev.mi->op;
      if (op == Op::kCall || op == Op::kICall || op == Op::kCallExt) {
        break;
      }
      // A redefinition of the base (or index) register kills prior checks.
      if (WritesReg(*prev.mi, m.base) ||
          (m.index != kNoMReg && WritesReg(*prev.mi, m.index))) {
        break;
      }
      const bool reg_form = (op == Op::kBndclR || op == Op::kBndcuR) &&
                            prev.mi->rs1 == m.base && m.index == kNoMReg &&
                            std::llabs(m.disp) <
                                static_cast<long long>(kMpxGuardDispLimit);
      const bool mem_form = (op == Op::kBndclM || op == Op::kBndcuM) &&
                            prev.mi->mem.base == m.base &&
                            prev.mi->mem.index == m.index &&
                            prev.mi->mem.disp == m.disp &&
                            prev.mi->mem.scale_log2 == m.scale_log2;
      if (reg_form || mem_form) {
        if (bnd == -1) {
          bnd = prev.mi->bnd;
        }
        if (prev.mi->bnd == bnd) {
          saw_lower = saw_lower || op == Op::kBndclR || op == Op::kBndclM;
          saw_upper = saw_upper || op == Op::kBndcuR || op == Op::kBndcuM;
        }
        if (saw_lower && saw_upper) {
          return bnd == 1 ? T::kH : T::kL;
        }
      }
      // Block boundary: stop at leaders (conservatively only scan linearly
      // backwards; the emitter always keeps check and access in one block).
      if (op == Op::kJmp || op == Op::kJnz || op == Op::kJz || op == Op::kJmpReg ||
          op == Op::kTrap || op == Op::kHalt) {
        break;
      }
    }
    Err(p->instrs[i].word, "memory access without a dominating bounds check");
    return std::nullopt;
  }

  // ct binaries: a memory access whose effective address involves a private
  // register leaks the secret through the cache side channel, independently
  // of what is loaded/stored. (rsp is forced public at every entry, so
  // stack traffic always passes.)
  bool CtAddrPublic(const ProcInstr& pi, const MInstr& mi, const RegState& s) {
    if (!bin_.ct) {
      return true;
    }
    if (mi.mem.base != kNoMReg && !Le(s.r[mi.mem.base], T::kL)) {
      Err(pi.word, "ct: memory address depends on a private value");
      return false;
    }
    if (mi.mem.index != kNoMReg && !Le(s.r[mi.mem.index], T::kL)) {
      Err(pi.word, "ct: memory address depends on a private value");
      return false;
    }
    return true;
  }

  static bool WritesReg(const MInstr& mi, uint8_t reg) {
    switch (mi.op) {
      case Op::kStore:
      case Op::kFStore:
      case Op::kPush:
      case Op::kJnz:
      case Op::kJz:
      case Op::kJmp:
      case Op::kJmpReg:
      case Op::kCall:
      case Op::kICall:
      case Op::kCallExt:
      case Op::kBndclR:
      case Op::kBndcuR:
      case Op::kBndclM:
      case Op::kBndcuM:
      case Op::kTrap:
      case Op::kChkstk:
      case Op::kHalt:
      case Op::kNop:
      case Op::kRet:
        return false;
      case Op::kFAdd:
      case Op::kFSub:
      case Op::kFMul:
      case Op::kFDiv:
      case Op::kFNeg:
      case Op::kFMov:
      case Op::kFLoad:
      case Op::kCvtIF:
      case Op::kMovIF:
        return false;  // float destination
      default:
        return mi.rd == reg;
    }
  }

  // Transfer function for one instruction; updates s, pushes successor
  // blocks. Returns false if control does not continue to i+delta.
  bool Transfer(const Proc* p, size_t i, RegState* s, int* next_delta) {
    const ProcInstr& pi = p->instrs[i];
    if (pi.is_ret_site_magic) {
      Err(pi.word, "return-site magic not immediately after a call");
      return false;
    }
    const MInstr& mi = *pi.mi;
    auto& r = s->r;
    switch (mi.op) {
      case Op::kMovImm:
      case Op::kMovImm64:
        r[mi.rd] = T::kL;
        return true;
      case Op::kMov:
      case Op::kNeg:
      case Op::kNot:
        r[mi.rd] = r[mi.rs1];
        return true;
      case Op::kDiv:
      case Op::kRem:
        // ct: a private divisor leaks through the divide-by-zero fault (and,
        // on real hardware, through data-dependent latency).
        if (bin_.ct && !Le(r[mi.rs2], T::kL)) {
          Err(pi.word, "ct: division by a private divisor");
          return false;
        }
        r[mi.rd] = Join(r[mi.rs1], r[mi.rs2]);
        return true;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kShr:
      case Op::kCmp:
        r[mi.rd] = Join(r[mi.rs1], r[mi.rs2]);
        return true;
      case Op::kSelect:
        // Destructive select reads rd, rs1 (mask), and rs2; the result may
        // reveal any of them. A private mask is the whole point in ct mode —
        // the select itself is data flow, not control flow.
        r[mi.rd] = Join(r[mi.rd], Join(r[mi.rs1], r[mi.rs2]));
        return true;
      case Op::kAddImm:
        r[mi.rd] = r[mi.rs1];
        return true;
      case Op::kLea: {
        T t = T::kL;
        if (mi.mem.base != kNoMReg) {
          t = Join(t, r[mi.mem.base]);
        }
        if (mi.mem.index != kNoMReg) {
          t = Join(t, r[mi.mem.index]);
        }
        r[mi.rd] = t;
        return true;
      }
      case Op::kLoad: {
        if (!CtAddrPublic(pi, mi, *s)) {
          return false;
        }
        auto region = GuardedRegion(p, i, mi);
        if (!region.has_value()) {
          return false;
        }
        r[mi.rd] = *region;
        return true;
      }
      case Op::kStore: {
        if (!CtAddrPublic(pi, mi, *s)) {
          return false;
        }
        auto region = GuardedRegion(p, i, mi);
        if (!region.has_value()) {
          return false;
        }
        if (!Le(r[mi.rd], *region)) {
          Err(pi.word, "private value stored to public memory");
          return false;
        }
        return true;
      }
      case Op::kFLoad: {
        if (!CtAddrPublic(pi, mi, *s)) {
          return false;
        }
        auto region = GuardedRegion(p, i, mi);
        if (!region.has_value()) {
          return false;
        }
        s->f[mi.rd] = *region;
        return true;
      }
      case Op::kFStore: {
        if (!CtAddrPublic(pi, mi, *s)) {
          return false;
        }
        auto region = GuardedRegion(p, i, mi);
        if (!region.has_value()) {
          return false;
        }
        if (!Le(s->f[mi.rd], *region)) {
          Err(pi.word, "private float stored to public memory");
          return false;
        }
        return true;
      }
      case Op::kFAdd:
      case Op::kFSub:
      case Op::kFMul:
      case Op::kFDiv:
        s->f[mi.rd] = Join(s->f[mi.rs1], s->f[mi.rs2]);
        return true;
      case Op::kFNeg:
      case Op::kFMov:
        s->f[mi.rd] = s->f[mi.rs1];
        return true;
      case Op::kMovIF:
        s->f[mi.rd] = r[mi.rs1];
        return true;
      case Op::kFCmp:
        r[mi.rd] = Join(s->f[mi.rs1], s->f[mi.rs2]);
        return true;
      case Op::kCvtIF:
        s->f[mi.rd] = r[mi.rs1];
        return true;
      case Op::kCvtFI:
        r[mi.rd] = s->f[mi.rs1];
        return true;
      case Op::kPush:
        if (!Le(r[mi.rd], T::kL)) {
          Err(pi.word, "push of a private value onto the public stack");
          return false;
        }
        return true;
      case Op::kPop:
        r[mi.rd] = T::kL;
        return true;
      case Op::kJmp:
        // The leader pass bounds-checked every jump target of this procedure.
        Propagate(index_of_word_[static_cast<uint32_t>(mi.imm)], *s);
        return false;
      case Op::kJnz:
      case Op::kJz: {
        if (!Le(r[mi.rd], T::kL)) {
          Err(pi.word, "branch on a private value (implicit flow)");
          return false;
        }
        Propagate(index_of_word_[static_cast<uint32_t>(mi.imm)], *s);
        *next_delta = 1;
        return true;  // fall-through continues
      }
      case Op::kCall:
        return CheckDirectCall(p, i, s, next_delta);
      case Op::kICall:
        return CheckIndirectCall(p, i, s, next_delta);
      case Op::kCallExt:
        return CheckTrustedCall(p, i, s);
      case Op::kJmpReg:
        return CheckCfiReturn(p, i, s);
      case Op::kLoadCode:
        r[mi.rd] = T::kL;
        return true;
      case Op::kBndclR:
      case Op::kBndcuR:
      case Op::kBndclM:
      case Op::kBndcuM:
        return true;  // checks themselves; consumed by GuardedRegion scans
      case Op::kChkstk:
      case Op::kNop:
        return true;
      case Op::kTrap:
        return false;  // terminal
      case Op::kHalt:
        Err(pi.word, "halt instruction inside U");
        return false;
      case Op::kRet:
        Err(pi.word, "plain ret in U");
        return false;
      default:
        Err(pi.word, StrFormat("unsupported instruction '%s' in U", OpName(mi.op)));
        return false;
    }
  }

  bool CheckCallTaints(const Proc* p, size_t i, const RegState& s, uint8_t callee_bits) {
    for (int a = 0; a < 4; ++a) {
      const T expected = ((callee_bits >> a) & 1) != 0 ? T::kH : T::kL;
      if (!Le(s.r[kRegArg0 + a], expected)) {
        Err(p->instrs[i].word,
            StrFormat("argument register r%d taint exceeds callee's expectation", a + 1));
        return false;
      }
    }
    return true;
  }

  void AfterCall(RegState* s, uint8_t ret_bit) {
    for (uint8_t reg = 0; reg <= 9; ++reg) {
      s->r[reg] = T::kH;  // caller-saved conservatively private (paper §5.2)
    }
    for (T& ft : s->f) {
      ft = T::kH;  // all float registers are caller-saved
    }
    s->r[kRegScratch0] = T::kH;
    s->r[kRegScratch1] = T::kH;
    for (uint8_t cs : kCalleeSavedRegs) {
      s->r[cs] = T::kL;  // callee-saved public by convention
    }
    s->r[kRegRet] = ret_bit != 0 ? T::kH : T::kL;
  }

  bool CheckDirectCall(const Proc* p, size_t i, RegState* s, int* next_delta) {
    const MInstr& mi = *p->instrs[i].mi;
    const uint32_t target = static_cast<uint32_t>(mi.imm);
    if (target == 0 || target > bin_.code.size() ||
        !IsCallMagic(bin_.code[target - 1])) {
      Err(p->instrs[i].word, "direct call target is not a procedure entry");
      return false;
    }
    const uint8_t callee_bits = MagicTaintsOf(bin_.code[target - 1]);
    if (!CheckCallTaints(p, i, *s, callee_bits)) {
      return false;
    }
    // The word after the call must be a valid MRet site whose bit matches
    // the callee's return taint.
    if (i + 1 >= p->instrs.size() || !p->instrs[i + 1].is_ret_site_magic) {
      Err(p->instrs[i].word, "call not followed by a return-site magic");
      return false;
    }
    const uint8_t site_bit = p->instrs[i + 1].site_taints & 1;
    const uint8_t callee_ret = (callee_bits >> 4) & 1;
    if (site_bit != callee_ret) {
      Err(p->instrs[i].word, "return-site taint does not match callee return taint");
      return false;
    }
    AfterCall(s, site_bit);
    *next_delta = 2;  // skip the magic word
    return true;
  }

  bool CheckTrustedCall(const Proc* p, size_t i, RegState* s) {
    const MInstr& mi = *p->instrs[i].mi;
    const uint32_t idx = static_cast<uint32_t>(mi.imm);
    if (idx >= bin_.imports.size()) {
      Err(p->instrs[i].word, "trusted call to unknown import slot");
      return false;
    }
    const uint8_t bits = bin_.imports[idx].taint_bits;
    if (!CheckCallTaints(p, i, *s, bits)) {
      return false;
    }
    AfterCall(s, (bits >> 4) & 1);
    return true;
  }

  // Pattern (emitted before every icall, paper §4):
  //   [push rt]
  //   addimm scr2, rt, -8 ; loadcode scr2, scr2 ; movimm64 scr1, ~magic ;
  //   not scr1 ; cmp.ne scr2, scr2, scr1 ; jnz scr2, trap ; [pop rt] ;
  //   icall rt
  bool CheckIndirectCall(const Proc* p, size_t i, RegState* s, int* next_delta) {
    const MInstr& icall = *p->instrs[i].mi;
    const uint8_t rt = icall.rs1;
    if (!Le(s->r[rt], T::kL)) {
      Err(p->instrs[i].word, "indirect call through a private register");
      return false;
    }
    // Find the expected-magic immediate and the guarding compare/branch in
    // the preceding window.
    uint64_t expected = 0;
    bool found_imm = false;
    bool found_cmp = false;
    bool found_jnz = false;
    bool found_loadcode = false;
    const size_t lo = i >= 10 ? i - 10 : 0;
    for (size_t k = i; k-- > lo;) {
      const ProcInstr& prev = p->instrs[k];
      if (prev.is_ret_site_magic) {
        break;
      }
      const Op op = prev.mi->op;
      if (op == Op::kMovImm64 && !found_imm) {
        expected = ~static_cast<uint64_t>(prev.mi->imm64);
        found_imm = true;
      } else if (op == Op::kCmp && prev.mi->cc == Cond::kNe) {
        found_cmp = true;
      } else if (op == Op::kJnz && !found_jnz) {
        const uint32_t t = static_cast<uint32_t>(prev.mi->imm);
        found_jnz = InProc(*p, t) && p->instrs[index_of_word_[t]].mi->op == Op::kTrap;
      } else if (op == Op::kLoadCode) {
        found_loadcode = true;
      } else if (op == Op::kCall || op == Op::kICall || op == Op::kCallExt) {
        break;
      }
      if (found_imm && found_cmp && found_jnz && found_loadcode) {
        break;
      }
    }
    if (!found_imm || !found_cmp || !found_jnz || !found_loadcode) {
      Err(p->instrs[i].word, "indirect call without a magic-sequence check");
      return false;
    }
    if (!IsCallMagic(expected)) {
      Err(p->instrs[i].word, "indirect-call check does not test an MCall magic");
      return false;
    }
    const uint8_t bits = MagicTaintsOf(expected);
    if (!CheckCallTaints(p, i, *s, bits)) {
      return false;
    }
    if (i + 1 >= p->instrs.size() || !p->instrs[i + 1].is_ret_site_magic) {
      Err(p->instrs[i].word, "indirect call not followed by a return-site magic");
      return false;
    }
    const uint8_t site_bit = p->instrs[i + 1].site_taints & 1;
    if (site_bit != ((bits >> 4) & 1)) {
      Err(p->instrs[i].word, "return-site taint mismatch at indirect call");
      return false;
    }
    AfterCall(s, site_bit);
    *next_delta = 2;
    return true;
  }

  // Pattern: pop r1 ; movimm64 r2, ~(MRet|bit) ; not r2 ; loadcode r3, r1 ;
  //          cmp.ne r3, r3, r2 ; jnz r3, trap ; addimm r1, r1, 8 ; jmpreg r1
  bool CheckCfiReturn(const Proc* p, size_t i, RegState* s) {
    uint64_t expected = 0;
    bool found_imm = false;
    bool found_cmp = false;
    bool found_jnz = false;
    bool found_loadcode = false;
    bool found_pop = false;
    const size_t lo = i >= 10 ? i - 10 : 0;
    for (size_t k = i; k-- > lo;) {
      const Op op = p->instrs[k].mi->op;
      if (op == Op::kMovImm64 && !found_imm) {
        expected = ~static_cast<uint64_t>(p->instrs[k].mi->imm64);
        found_imm = true;
      } else if (op == Op::kCmp && p->instrs[k].mi->cc == Cond::kNe) {
        found_cmp = true;
      } else if (op == Op::kJnz && !found_jnz) {
        const uint32_t t = static_cast<uint32_t>(p->instrs[k].mi->imm);
        found_jnz = InProc(*p, t) && p->instrs[index_of_word_[t]].mi->op == Op::kTrap;
      } else if (op == Op::kLoadCode) {
        found_loadcode = true;
      } else if (op == Op::kPop) {
        found_pop = true;
      }
      if (found_imm && found_cmp && found_jnz && found_loadcode && found_pop) {
        break;
      }
    }
    if (!found_imm || !found_cmp || !found_jnz || !found_loadcode || !found_pop) {
      Err(p->instrs[i].word, "indirect jump outside the CFI return pattern");
      return false;
    }
    if (!IsRetMagic(expected)) {
      Err(p->instrs[i].word, "return check does not test an MRet magic");
      return false;
    }
    const uint8_t bit = MagicTaintsOf(expected) & 1;
    const T declared = bit != 0 ? T::kH : T::kL;
    if (!Le(s->r[kRegRet], declared)) {
      Err(p->instrs[i].word, "return value taint exceeds the declared return taint");
      return false;
    }
    const uint8_t fn_ret = (p->magic_taints >> 4) & 1;
    if (bit != fn_ret) {
      Err(p->instrs[i].word, "return magic taint differs from the procedure's");
      return false;
    }
    return false;  // terminal
  }

  const LoadedProgram& prog_;
  const Binary& bin_;
  VerifyResult result_;
  std::vector<Proc> procs_;
  // Binary-wide word -> index of the instruction starting there within its
  // procedure (procedures cover disjoint word ranges), or kNoInstr.
  std::vector<uint32_t> index_of_word_;
  // Per-procedure dataflow state, indexed by instruction; reused across
  // procedures.
  std::vector<std::optional<RegState>> in_state_;
  std::vector<size_t> work_;
};

}  // namespace

VerifyResult Verify(const LoadedProgram& prog) { return VerifierImpl(prog).Run(); }

}  // namespace confllvm
