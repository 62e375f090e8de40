#include "src/vm/vm.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>

#include "src/isa/layout.h"
#include "src/support/strings.h"
#include "src/vm/exec_image.h"
#include "src/vm/trace_tier.h"

namespace confllvm {

namespace {
constexpr uint64_t kClobber = 0xDEADDEADDEADDEADull;
}  // namespace

const char* EngineName(VmEngine e) {
  switch (e) {
    case VmEngine::kRef: return "ref";
    case VmEngine::kFast: return "fast";
    case VmEngine::kTrace: return "trace";
  }
  return "?";
}

const char* FaultName(VmFault f) {
  switch (f) {
    case VmFault::kNone: return "none";
    case VmFault::kUnmapped: return "unmapped-access";
    case VmFault::kBndViolation: return "bounds-violation";
    case VmFault::kCfiTrap: return "cfi-trap";
    case VmFault::kExecData: return "exec-data";
    case VmFault::kDivZero: return "div-zero";
    case VmFault::kChkstk: return "chkstk";
    case VmFault::kBadJump: return "bad-jump";
    case VmFault::kTrustedCheck: return "trusted-check";
    case VmFault::kInstrLimit: return "instr-limit";
    case VmFault::kDeadline: return "deadline";
  }
  return "?";
}

Vm::Vm(LoadedProgram* prog, TrustedCallout* trusted, VmOptions opts)
    : prog_(prog), trusted_(trusted), opts_(opts) {
  // Materialize the loader's region map: each usable region — fixed for the
  // Vm's lifetime — gets one contiguous buffer (guards stay unmapped), and
  // global initializers are written through it. Every engine and the
  // trusted natives read and write the same bytes.
  const RegionMap& m = prog_->map;
  mem_.Map(m.pub_base, m.pub_size);
  if (m.prv_base != m.pub_base) {
    mem_.Map(m.prv_base, m.prv_size);
  }
  mem_.Map(m.t_base, m.t_size);
  if (opts_.engine != VmEngine::kRef || opts_.block_profile != nullptr) {
    // Guarded: Vms may be constructed concurrently on one shared program.
    static std::mutex image_mu;
    std::lock_guard<std::mutex> lock(image_mu);
    if (prog_->exec_image == nullptr) {
      prog_->exec_image = BuildExecImage(*prog_);
    }
    image_ = prog_->exec_image.get();
  }
  if (opts_.engine == VmEngine::kTrace) {
    trace_ = std::make_unique<TraceTier>(prog_, image_, opts_.trace_threshold);
  }
  if (opts_.pair_histogram != nullptr && opts_.pair_histogram->size() < 256 * 256) {
    opts_.pair_histogram->assign(256 * 256, 0);
  }
  if (opts_.block_profile != nullptr &&
      opts_.block_profile->size() < image_->blocks.size()) {
    opts_.block_profile->assign(image_->blocks.size(), 0);
  }
  for (size_t g = 0; g < prog_->binary.globals.size(); ++g) {
    const BinGlobal& bg = prog_->binary.globals[g];
    const uint64_t addr = prog_->global_addr[g];
    if (!bg.init.empty()) {
      mem_.WriteBytes(addr, bg.init.data(), bg.init.size());
    }
    for (const auto& [off, target] : bg.relocs) {
      const uint64_t v = prog_->global_addr[target];
      mem_.WriteBytes(addr + off, &v, 8);
    }
  }
}

Vm::~Vm() = default;

bool Vm::RangeInRegion(uint64_t addr, uint64_t len, bool private_region) const {
  const RegionMap& m = prog_->map;
  // Region discipline is only meaningful for instrumented binaries; under
  // Base/OurBare/OurCFI (no bounds scheme, single stack) the wrappers behave
  // like plain libc and only require the range to lie inside U's memory.
  if (prog_->binary.scheme == Scheme::kNone || prog_->unified_bounds) {
    const uint64_t lo = std::min(m.pub_base, m.prv_base);
    const uint64_t hi = std::max(m.pub_base + m.pub_size, m.prv_base + m.prv_size);
    return addr >= lo && addr < hi && len <= hi - addr;
  }
  const uint64_t base = private_region ? m.prv_base : m.pub_base;
  const uint64_t size = private_region ? m.prv_size : m.pub_size;
  return addr >= base && addr < base + size && len <= base + size - addr;
}

uint64_t Vm::Ea(const ThreadCtx& t, const MemOperand& m) const {
  if (m.seg == Seg::kNone) {
    return EaNoSeg(t, m);
  }
  // Segmentation scheme: only the low 32 bits of base and index are used
  // (paper §3), so the operand cannot escape its segment + guard space.
  const uint64_t seg_base = m.seg == Seg::kFs ? prog_->map.fs : prog_->map.gs;
  uint64_t ea = seg_base;
  if (m.base != kNoMReg) {
    ea += t.regs[m.base] & 0xffffffffull;
  }
  if (m.index != kNoMReg) {
    ea += (t.regs[m.index] & 0xffffffffull) << m.scale_log2;
  }
  return ea + static_cast<int64_t>(m.disp);
}

uint64_t Vm::EaNoSeg(const ThreadCtx& t, const MemOperand& m) const {
  uint64_t ea = 0;
  if (m.base != kNoMReg) {
    ea += t.regs[m.base];
  }
  if (m.index != kNoMReg) {
    ea += t.regs[m.index] << m.scale_log2;
  }
  return ea + static_cast<int64_t>(m.disp);
}

void Vm::Fault(ThreadCtx* t, VmFault f, const std::string& msg) {
  t->fault = f;
  t->fault_msg = msg;
  t->fault_pc = t->pc;
}

void Vm::SetupThread(ThreadCtx* t, uint32_t tid, const std::string& fn,
                     const std::vector<uint64_t>& args, bool* ok) {
  *ok = false;
  const int fi = prog_->binary.FunctionIndex(fn);
  if (fi < 0) {
    Fault(t, VmFault::kBadJump, "no such function: " + fn);
    return;
  }
  const BinFunction& bf = prog_->binary.functions[fi];
  t->id = tid;
  const uint64_t stack_base = prog_->map.pub_stack_area + tid * kThreadStackSize;
  t->stack_lo = stack_base + kTlsSize;
  t->stack_hi = stack_base + kThreadStackSize;
  t->regs[kRegSp] = t->stack_hi - 64;
  for (size_t i = 0; i < args.size() && i < 4; ++i) {
    t->regs[kRegArg0 + i] = args[i];
  }
  // Push the exit-stub return address.
  const uint8_t ret_bit = (bf.taint_bits >> 4) & 1;
  const uint64_t ret_addr = CodeAddr(prog_->exit_stub_word[ret_bit]);
  t->regs[kRegSp] -= 8;
  mem_.Write(t->regs[kRegSp], 8, ret_addr);
  t->pc = bf.entry_word;
  *ok = true;
}

Vm::CallResult Vm::Finish(const ThreadCtx& t) const {
  CallResult r;
  r.ok = t.halted && t.fault == VmFault::kNone;
  r.fault = t.fault;
  r.fault_msg = t.fault_msg;
  r.fault_pc = t.fault_pc;
  r.ret = t.regs[kRegRet];
  r.cycles = t.cycles;
  r.instrs = t.instrs;
  return r;
}

void Vm::RunSlice(ThreadCtx* t, uint64_t budget) {
  if (opts_.engine != VmEngine::kRef) {
    RunSliceFast(t, budget);
  } else {
    RunSliceRef(t, budget);
  }
}

void Vm::RunSliceRef(ThreadCtx* t, uint64_t budget) {
  const uint64_t start = t->cycles;
  while (!t->halted && t->fault == VmFault::kNone && t->cycles - start < budget) {
    // `>=` so max_instrs is exact: instruction max_instrs+1 never runs.
    if (t->instrs >= opts_.max_instrs) {
      Fault(t, VmFault::kInstrLimit, "instruction limit exceeded");
      break;
    }
    Step(t);
  }
}

Vm::CallResult Vm::Call(const std::string& fn, const std::vector<uint64_t>& args) {
  ThreadCtx t;
  bool ok = false;
  SetupThread(&t, 0, fn, args, &ok);
  if (ok) {
    if (opts_.deadline_ms == 0) {
      RunSlice(&t, kNoBudget);
    } else {
      // Wall-clock watchdog: run in bounded slices and consult the clock
      // only between them. Every engine stops a bounded slice at exactly
      // the same instruction, so the guest-visible stop point is
      // engine-independent; only the wall-clock moment varies. The quantum
      // is large enough that the clock read is noise, small enough that a
      // tight guest loop cannot overshoot the deadline by more than one
      // slice.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(opts_.deadline_ms);
      constexpr uint64_t kWatchdogQuantum = 1ull << 20;  // cycles per slice
      while (!t.halted && t.fault == VmFault::kNone) {
        RunSlice(&t, kWatchdogQuantum);
        if (!t.halted && t.fault == VmFault::kNone &&
            std::chrono::steady_clock::now() >= deadline) {
          Fault(&t, VmFault::kDeadline, "wall-clock deadline exceeded");
        }
      }
    }
  }
  return Finish(t);
}

Vm::ParallelResult Vm::RunParallel(const std::vector<ThreadSpec>& specs) {
  ParallelResult out;
  std::vector<ThreadCtx> threads(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    bool ok = false;
    SetupThread(&threads[i], static_cast<uint32_t>(i), specs[i].fn, specs[i].args, &ok);
  }
  auto runnable = [&](const ThreadCtx& t) {
    return !t.halted && t.fault == VmFault::kNone;
  };
  // Optional wall-clock watchdog, checked between waves (the parallel
  // analogue of Call's between-slice check): expiry faults every still-
  // runnable thread with kDeadline, identically across engines.
  const bool has_deadline = opts_.deadline_ms != 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.deadline_ms);
  // Waves: up to num_cores threads run one quantum "in parallel"; the wave's
  // wall time is the largest slice actually consumed.
  bool any = true;
  while (any) {
    any = false;
    uint32_t in_wave = 0;
    uint64_t wave_wall = 0;
    for (ThreadCtx& t : threads) {
      if (!runnable(t)) {
        continue;
      }
      if (in_wave == opts_.num_cores) {
        break;  // next wave picks the rest up (round-robin resumes below)
      }
      ++in_wave;
      const uint64_t start = t.cycles;
      RunSlice(&t, opts_.quantum);
      wave_wall = std::max(wave_wall, t.cycles - start);
      any = true;
    }
    out.wall_cycles += wave_wall;
    if (has_deadline && any && std::chrono::steady_clock::now() >= deadline) {
      for (ThreadCtx& t : threads) {
        if (runnable(t)) {
          Fault(&t, VmFault::kDeadline, "wall-clock deadline exceeded");
        }
      }
      break;
    }
    // Rotate so waves beyond num_cores make progress fairly.
    if (threads.size() > opts_.num_cores && any) {
      std::rotate(threads.begin(), threads.begin() + 1, threads.end());
    }
  }
  // Restore thread order by id for reporting.
  std::sort(threads.begin(), threads.end(),
            [](const ThreadCtx& a, const ThreadCtx& b) { return a.id < b.id; });
  out.ok = true;
  for (const ThreadCtx& t : threads) {
    out.per_thread.push_back(Finish(t));
    out.ok = out.ok && t.halted && t.fault == VmFault::kNone;
  }
  return out;
}

void Vm::InvokeTrusted(ThreadCtx* t, uint32_t idx) {
  if (idx >= prog_->binary.imports.size()) {
    Fault(t, VmFault::kBadJump, "bad import index");
    return;
  }
  const BinImport& imp = prog_->binary.imports[idx];
  ++stats_.trusted_calls;
  // Wrapper (paper §6): argument checks + stack/gs switch cost.
  uint64_t cost = 6;
  if (prog_->separate_t_memory) {
    cost += 30;  // save rsp, switch gs, switch to T's stack, and back
  }
  for (uint32_t i = 0; i < imp.num_params && i < 4; ++i) {
    if (!imp.params[i].is_pointer) {
      continue;
    }
    cost += 2;
    const uint64_t p = t->regs[kRegArg0 + i];
    if (p == 0) {
      continue;  // NULL is allowed; natives must handle it
    }
    if (!RangeInRegion(p, 1, imp.params[i].pointee_private)) {
      Fault(t, VmFault::kTrustedCheck,
            StrFormat("wrapper check failed: arg %u of %s not in %s region", i + 1,
                      imp.name.c_str(),
                      imp.params[i].pointee_private ? "private" : "public"));
      return;
    }
  }
  ChargeTrusted(t, cost);
  trusted_->Invoke(idx, this, t);
  if (t->fault != VmFault::kNone) {
    return;
  }
  // T is compiled by a vanilla compiler: caller-saved state does not survive.
  for (uint8_t r = 1; r <= 9; ++r) {
    t->regs[r] = kClobber;
  }
  if (imp.returns_value) {
    // r0 set by the native.
  } else {
    t->regs[kRegRet] = kClobber;
  }
  t->regs[kRegScratch0] = kClobber;
  t->regs[kRegScratch1] = kClobber;
  for (double& f : t->fregs) {
    f = 0;
  }
}

bool Vm::Step(ThreadCtx* t) {
  if (t->pc >= prog_->decoded.size()) {
    Fault(t, VmFault::kBadJump, "pc out of code");
    return false;
  }
  const DecodedSlot& slot = prog_->decoded[t->pc];
  if (!slot.instr.has_value()) {
    Fault(t, VmFault::kExecData, "executed data word");
    return false;
  }
  const MInstr& mi = *slot.instr;
  const uint64_t next = t->pc + slot.words;
  ++t->instrs;
  ++stats_.instrs;

  if (opts_.pair_histogram != nullptr) {
    if (t->hist_prev_op != 0x100) {
      ++(*opts_.pair_histogram)[(t->hist_prev_op << 8) |
                                static_cast<uint8_t>(mi.op)];
    }
    t->hist_prev_op = static_cast<uint8_t>(mi.op);
  }

  if (opts_.block_profile != nullptr && image_ != nullptr &&
      t->pc < image_->block_of.size()) {
    const uint32_t bid = image_->block_of[t->pc];
    if (bid != ExecImage::kNoBlock &&
        image_->blocks[bid].leader == t->pc &&
        bid < opts_.block_profile->size()) {
      ++(*opts_.block_profile)[bid];
    }
  }

  auto r = [&](uint8_t i) -> uint64_t& { return t->regs[i]; };
  auto fr = [&](uint8_t i) -> double& { return t->fregs[i]; };
  uint64_t cost = 1;
  bool is_check = false;
  uint64_t new_pc = next;

  switch (mi.op) {
    case Op::kMovImm:
      r(mi.rd) = static_cast<int64_t>(mi.imm);
      break;
    case Op::kMovImm64:
      r(mi.rd) = static_cast<uint64_t>(mi.imm64);
      break;
    case Op::kMov:
      r(mi.rd) = r(mi.rs1);
      break;
    case Op::kAdd:
      r(mi.rd) = r(mi.rs1) + r(mi.rs2);
      break;
    case Op::kSub:
      r(mi.rd) = r(mi.rs1) - r(mi.rs2);
      break;
    case Op::kMul:
      r(mi.rd) = r(mi.rs1) * r(mi.rs2);
      cost = 3;
      break;
    case Op::kDiv:
    case Op::kRem: {
      const int64_t a = static_cast<int64_t>(r(mi.rs1));
      const int64_t b = static_cast<int64_t>(r(mi.rs2));
      if (b == 0) {
        Fault(t, VmFault::kDivZero, "division by zero");
        return false;
      }
      if (a == INT64_MIN && b == -1) {
        r(mi.rd) = mi.op == Op::kDiv ? static_cast<uint64_t>(INT64_MIN) : 0;
      } else {
        r(mi.rd) = static_cast<uint64_t>(mi.op == Op::kDiv ? a / b : a % b);
      }
      cost = 20;
      break;
    }
    case Op::kAnd:
      r(mi.rd) = r(mi.rs1) & r(mi.rs2);
      break;
    case Op::kOr:
      r(mi.rd) = r(mi.rs1) | r(mi.rs2);
      break;
    case Op::kXor:
      r(mi.rd) = r(mi.rs1) ^ r(mi.rs2);
      break;
    case Op::kShl:
      r(mi.rd) = r(mi.rs1) << (r(mi.rs2) & 63);
      break;
    case Op::kShr:
      r(mi.rd) = static_cast<uint64_t>(static_cast<int64_t>(r(mi.rs1)) >>
                                       (r(mi.rs2) & 63));
      break;
    case Op::kAddImm:
      r(mi.rd) = r(mi.rs1) + static_cast<int64_t>(mi.imm);
      break;
    case Op::kNeg:
      r(mi.rd) = ~r(mi.rs1) + 1;
      break;
    case Op::kNot:
      r(mi.rd) = ~r(mi.rs1);
      break;
    case Op::kCmp: {
      const int64_t a = static_cast<int64_t>(r(mi.rs1));
      const int64_t b = static_cast<int64_t>(r(mi.rs2));
      bool v = false;
      switch (mi.cc) {
        case Cond::kEq: v = a == b; break;
        case Cond::kNe: v = a != b; break;
        case Cond::kLt: v = a < b; break;
        case Cond::kLe: v = a <= b; break;
        case Cond::kGt: v = a > b; break;
        case Cond::kGe: v = a >= b; break;
      }
      r(mi.rd) = v ? 1 : 0;
      break;
    }
    case Op::kSelect: {
      // rd = (rs1 != 0) ? rs2 : rd. Read both sources before writing rd:
      // rs1 or rs2 may alias rd (destructive form).
      const uint64_t cond = r(mi.rs1);
      const uint64_t taken = r(mi.rs2);
      if (cond != 0) {
        r(mi.rd) = taken;
      }
      break;
    }
    case Op::kLoad: {
      const uint64_t ea = Ea(*t, mi.mem);
      uint64_t v = 0;
      if (!mem_.Read(ea, mi.size1 ? 1 : 8, &v)) {
        Fault(t, VmFault::kUnmapped, StrFormat("load from %s", Hex(ea).c_str()));
        return false;
      }
      r(mi.rd) = v;
      cost = SegAccessCost(mi.mem) + cache_.Access(ea);
      stats_.cache_miss_cycles += cost - 2;
      ++stats_.loads;
      break;
    }
    case Op::kStore: {
      const uint64_t ea = Ea(*t, mi.mem);
      if (!mem_.Write(ea, mi.size1 ? 1 : 8, r(mi.rd))) {
        Fault(t, VmFault::kUnmapped, StrFormat("store to %s", Hex(ea).c_str()));
        return false;
      }
      cost = SegAccessCost(mi.mem) + cache_.Access(ea);
      stats_.cache_miss_cycles += cost - 2;
      ++stats_.stores;
      break;
    }
    case Op::kFLoad: {
      const uint64_t ea = Ea(*t, mi.mem);
      uint64_t v = 0;
      if (!mem_.Read(ea, 8, &v)) {
        Fault(t, VmFault::kUnmapped, StrFormat("fload from %s", Hex(ea).c_str()));
        return false;
      }
      memcpy(&fr(mi.rd), &v, 8);
      cost = SegAccessCost(mi.mem) + cache_.Access(ea);
      stats_.cache_miss_cycles += cost - 2;
      ++stats_.loads;
      break;
    }
    case Op::kFStore: {
      const uint64_t ea = Ea(*t, mi.mem);
      uint64_t v;
      memcpy(&v, &fr(mi.rd), 8);
      if (!mem_.Write(ea, 8, v)) {
        Fault(t, VmFault::kUnmapped, StrFormat("fstore to %s", Hex(ea).c_str()));
        return false;
      }
      cost = SegAccessCost(mi.mem) + cache_.Access(ea);
      stats_.cache_miss_cycles += cost - 2;
      ++stats_.stores;
      break;
    }
    case Op::kLea:
      r(mi.rd) = EaNoSeg(*t, mi.mem);  // lea ignores segment prefixes (x64)
      break;
    case Op::kPush: {
      r(kRegSp) -= 8;
      if (!mem_.Write(r(kRegSp), 8, r(mi.rd))) {
        Fault(t, VmFault::kUnmapped, "push to unmapped stack");
        return false;
      }
      cost = 2 + cache_.Access(r(kRegSp));
      break;
    }
    case Op::kPop: {
      uint64_t v = 0;
      if (!mem_.Read(r(kRegSp), 8, &v)) {
        Fault(t, VmFault::kUnmapped, "pop from unmapped stack");
        return false;
      }
      r(mi.rd) = v;
      cost = 2 + cache_.Access(r(kRegSp));
      r(kRegSp) += 8;
      break;
    }
    case Op::kJmp:
      new_pc = static_cast<uint32_t>(mi.imm);
      break;
    case Op::kJnz:
      if (r(mi.rd) != 0) {
        new_pc = static_cast<uint32_t>(mi.imm);
      }
      break;
    case Op::kJz:
      if (r(mi.rd) == 0) {
        new_pc = static_cast<uint32_t>(mi.imm);
      }
      break;
    case Op::kCall: {
      r(kRegSp) -= 8;
      if (!mem_.Write(r(kRegSp), 8, CodeAddr(next))) {
        Fault(t, VmFault::kUnmapped, "call: stack unmapped");
        return false;
      }
      new_pc = static_cast<uint32_t>(mi.imm);
      cost = 2 + cache_.Access(r(kRegSp));
      break;
    }
    case Op::kICall: {
      const uint64_t target = r(mi.rs1);
      if (!IsCodeAddr(target) || target % 8 != 0 ||
          CodeIndex(target) >= prog_->decoded.size()) {
        Fault(t, VmFault::kBadJump, "icall to non-code address");
        return false;
      }
      r(kRegSp) -= 8;
      if (!mem_.Write(r(kRegSp), 8, CodeAddr(next))) {
        Fault(t, VmFault::kUnmapped, "icall: stack unmapped");
        return false;
      }
      new_pc = CodeIndex(target);
      cost = 2 + cache_.Access(r(kRegSp));
      break;
    }
    case Op::kRet: {
      uint64_t ra = 0;
      if (!mem_.Read(r(kRegSp), 8, &ra)) {
        Fault(t, VmFault::kUnmapped, "ret: stack unmapped");
        return false;
      }
      r(kRegSp) += 8;
      if (!IsCodeAddr(ra) || ra % 8 != 0 || CodeIndex(ra) >= prog_->decoded.size()) {
        Fault(t, VmFault::kBadJump, "ret to non-code address");
        return false;
      }
      new_pc = CodeIndex(ra);
      cost = 2;
      break;
    }
    case Op::kJmpReg: {
      const uint64_t target = r(mi.rs1);
      if (!IsCodeAddr(target) || target % 8 != 0 ||
          CodeIndex(target) >= prog_->decoded.size()) {
        Fault(t, VmFault::kBadJump, "jmpreg to non-code address");
        return false;
      }
      new_pc = CodeIndex(target);
      cost = 2;
      break;
    }
    case Op::kLoadCode: {
      const uint64_t a = r(mi.rs1);
      if (!IsCodeAddr(a) || a % 8 != 0 || CodeIndex(a) >= prog_->binary.code.size()) {
        Fault(t, VmFault::kBadJump, "loadcode outside code");
        return false;
      }
      r(mi.rd) = prog_->binary.code[CodeIndex(a)];
      cost = 2;
      ++stats_.cfi_instrs;
      break;
    }
    case Op::kBndclR:
    case Op::kBndcuR: {
      const uint64_t v = r(mi.rs1);
      const bool lo = mi.op == Op::kBndclR;
      if (lo ? v < prog_->map.bnd_lo[mi.bnd] : v > prog_->map.bnd_hi[mi.bnd]) {
        Fault(t, VmFault::kBndViolation,
              StrFormat("bnd%d %s check failed for %s", mi.bnd, lo ? "lower" : "upper",
                        Hex(v).c_str()));
        return false;
      }
      is_check = true;
      cost = t->fp_credit > 0 ? 0 : 1;
      break;
    }
    case Op::kBndclM:
    case Op::kBndcuM: {
      const uint64_t v = EaNoSeg(*t, mi.mem);
      const bool lo = mi.op == Op::kBndclM;
      if (lo ? v < prog_->map.bnd_lo[mi.bnd] : v > prog_->map.bnd_hi[mi.bnd]) {
        Fault(t, VmFault::kBndViolation,
              StrFormat("bnd%d %s check failed for %s", mi.bnd, lo ? "lower" : "upper",
                        Hex(v).c_str()));
        return false;
      }
      is_check = true;
      cost = t->fp_credit > 0 ? 0 : 2;
      break;
    }
    case Op::kChkstk:
      if (r(kRegSp) < t->stack_lo || r(kRegSp) >= t->stack_hi) {
        Fault(t, VmFault::kChkstk, "rsp escaped the thread stack");
        return false;
      }
      cost = 2;
      break;
    case Op::kTrap:
      Fault(t, VmFault::kCfiTrap, StrFormat("trap %d", mi.imm));
      return false;
    case Op::kCallExt:
      InvokeTrusted(t, static_cast<uint32_t>(mi.imm));
      if (t->fault != VmFault::kNone) {
        return false;
      }
      cost = 2;
      break;
    case Op::kHalt:
      t->halted = true;
      return false;
    case Op::kFAdd:
      fr(mi.rd) = fr(mi.rs1) + fr(mi.rs2);
      cost = 3;
      break;
    case Op::kFSub:
      fr(mi.rd) = fr(mi.rs1) - fr(mi.rs2);
      cost = 3;
      break;
    case Op::kFMul:
      fr(mi.rd) = fr(mi.rs1) * fr(mi.rs2);
      cost = 3;
      break;
    case Op::kFDiv:
      fr(mi.rd) = fr(mi.rs1) / fr(mi.rs2);
      cost = 15;
      break;
    case Op::kFNeg:
      fr(mi.rd) = -fr(mi.rs1);
      break;
    case Op::kFCmp: {
      const double a = fr(mi.rs1);
      const double b = fr(mi.rs2);
      bool v = false;
      switch (mi.cc) {
        case Cond::kEq: v = a == b; break;
        case Cond::kNe: v = a != b; break;
        case Cond::kLt: v = a < b; break;
        case Cond::kLe: v = a <= b; break;
        case Cond::kGt: v = a > b; break;
        case Cond::kGe: v = a >= b; break;
      }
      r(mi.rd) = v ? 1 : 0;
      cost = 2;
      break;
    }
    case Op::kCvtIF:
      fr(mi.rd) = static_cast<double>(static_cast<int64_t>(r(mi.rs1)));
      cost = 3;
      break;
    case Op::kCvtFI: {
      const double v = fr(mi.rs1);
      if (std::isnan(v) || v >= 9.2233720368547758e18 || v <= -9.2233720368547758e18) {
        r(mi.rd) = static_cast<uint64_t>(INT64_MIN);
      } else {
        r(mi.rd) = static_cast<uint64_t>(static_cast<int64_t>(v));
      }
      cost = 3;
      break;
    }
    case Op::kMovIF: {
      double d;
      const uint64_t bits = r(mi.rs1);
      memcpy(&d, &bits, 8);
      fr(mi.rd) = d;
      break;
    }
    case Op::kFMov:
      fr(mi.rd) = fr(mi.rs1);
      break;
    case Op::kNop:
      break;
    case Op::kInvalid:
      Fault(t, VmFault::kExecData, "invalid instruction");
      return false;
  }

  // FP/MPX dual-issue window (paper §7.4): an FP arithmetic op leaves two
  // free check-issue slots.
  if (mi.op == Op::kFAdd || mi.op == Op::kFSub || mi.op == Op::kFMul ||
      mi.op == Op::kFDiv) {
    t->fp_credit = 1;
  } else if (is_check) {
    if (t->fp_credit > 0) {
      --t->fp_credit;
    }
  } else {
    t->fp_credit = 0;
  }

  if (is_check) {
    ++stats_.check_instrs;
    stats_.check_cycles += cost;
  }
  t->cycles += cost;
  stats_.cycles += cost;
  t->pc = new_pc;
  return true;
}

}  // namespace confllvm
