// The fast execution engine: token-threaded dispatch over an ExecImage.
//
// Bit-identical in observable behaviour to the reference stepper in vm.cc
// (Step): same CallResult, VmStats, fault kind/pc/message, memory effects
// and cycle accounting, for any cycle budget — tests/vm_engine_test.cc
// enforces this differentially. What changes is only where the work happens:
//
//  * validity/decoding is paid once at ExecImage build time — data words are
//    explicit trap records, so the hot loop never touches
//    `optional<MInstr>`;
//  * dispatch is computed-goto (GCC/Clang; a switch loop elsewhere) over
//    pre-resolved handler ids, with condition codes specialized per handler;
//  * thread state (pc, registers, counters) lives in locals; VmStats deltas
//    accumulate in locals and flush at slice exit and around trusted calls,
//    so the loop performs no shared-state writes;
//  * guest loads/stores translate through Memory::FlatPtr — one range check
//    against the regions backing U's partitions — and fall back to the
//    generic Memory accessors only for an access that does not fit inside
//    one region, which fault there exactly like the reference engine does
//    (bytes before a region end included);
//  * the slice budget / instruction-limit checks stay per dispatch (they
//    must, to stop at exactly the instruction the reference engine stops
//    at, preserving RunParallel's wave accounting), but they are two
//    register compares against hoisted locals.
//
// Integer registers live in a 32-entry array whose upper half is zero so
// that kNoMReg (31) memory-operand fields read as 0 without a branch.
#include <cassert>
#include <cmath>
#include <cstring>

#include "src/isa/layout.h"
#include "src/support/strings.h"
#include "src/vm/exec_image.h"
#include "src/vm/trace_tier.h"
#include "src/vm/vm.h"

namespace confllvm {

#if defined(__GNUC__) || defined(__clang__)
#define CONFLLVM_COMPUTED_GOTO 1
#else
#define CONFLLVM_COMPUTED_GOTO 0
#define __builtin_expect(x, expected) (x)
#endif

#if CONFLLVM_COMPUTED_GOTO
#define CASE(h) h##_lbl:
#define DISPATCH_TARGET() goto* kLabels[rec->handler]
// Pins the next pc in a register for the dispatch chain below. `pc` is live
// in every handler, and whether GCC's allocator gives it a register or a
// stack slot flips with the number of handlers; in a stack slot, every
// dispatch would pay a store-to-load round trip on its critical path.
#define PIN_IN_REG(x) __asm__("" : "+r"(x))
// Re-dispatch the CURRENT record through a handler other than the one in its
// handler field (trace-tier paths: a block leader's record was patched to a
// counting/run slot, but this entry must execute its ORIGINAL — possibly
// fused — handler).
#define DISPATCH_AS(h) goto* kLabels[(h)]
#else
#define CASE(h) case h: h##_lbl:
#define DISPATCH_TARGET() goto dispatch_sw
#define PIN_IN_REG(x) (void)(x)
#define DISPATCH_AS(h)     \
  do {                     \
    sw_h = (h);            \
    goto dispatch_sw_as;   \
  } while (0)
#endif

// One fault: record it with the current instruction's pc and leave the loop.
#define FAULT(f, msg)        \
  do {                       \
    t->fault = (f);          \
    t->fault_msg = (msg);    \
    t->fault_pc = pc;        \
    goto done;               \
  } while (0)

// Check order mirrors the reference slice loop exactly: budget first (the
// while-condition), then the instruction limit, then the pc bounds check
// that opens Step.
#define DISPATCH()                                                     \
  do {                                                                 \
    uint64_t next_ = pc;                                               \
    PIN_IN_REG(next_);                                                 \
    if (kBounded && cycles - start_cycles >= budget) goto done;        \
    if (__builtin_expect((instrs >= max_instrs) | (next_ >= nrecs),  \
                         0)) {                                         \
      if (instrs >= max_instrs)                                        \
        FAULT(VmFault::kInstrLimit, "instruction limit exceeded");     \
      FAULT(VmFault::kBadJump, "pc out of code");                      \
    }                                                                  \
    rec = recs + next_;                                                \
    ++instrs;                                                          \
    DISPATCH_TARGET();                                                 \
  } while (0)

// Epilogues: every successfully executed instruction charges its cost and
// updates the FP/MPX dual-issue credit exactly like the reference postlude.
#define END_OP(c)                    \
  do {                               \
    fp_credit = 0;                   \
    cycles += (c);                   \
    pc = rec->next;                  \
    DISPATCH();                      \
  } while (0)
#define END_FPARITH(c)               \
  do {                               \
    fp_credit = 1;                   \
    cycles += (c);                   \
    pc = rec->next;                  \
    DISPATCH();                      \
  } while (0)
#define END_JUMP(c, np)              \
  do {                               \
    fp_credit = 0;                   \
    cycles += (c);                   \
    pc = (np);                       \
    DISPATCH();                      \
  } while (0)
#define END_CHECK(base_cost)                         \
  do {                                               \
    const uint64_t c_ = fp_credit > 0 ? 0 : (base_cost); \
    ++s_checks;                                      \
    s_check_cyc += c_;                               \
    if (fp_credit > 0) --fp_credit;                  \
    cycles += c_;                                    \
    pc = rec->next;                                  \
    DISPATCH();                                      \
  } while (0)

// Effective address of the current record's memory operand (segment form:
// low 32 bits of base and index only, paper §3).
#define EA_SEG()                                                          \
  (rec->seg ? rec->seg_base + (R[rec->base] & 0xffffffffull) +            \
                  ((R[rec->index] & 0xffffffffull) << rec->scale) +       \
                  static_cast<int64_t>(rec->disp)                         \
            : R[rec->base] + (R[rec->index] << rec->scale) +              \
                  static_cast<int64_t>(rec->disp))
// lea / bndc.m ignore segment prefixes (x64 semantics).
#define EA_NOSEG()                                   \
  (R[rec->base] + (R[rec->index] << rec->scale) +    \
   static_cast<int64_t>(rec->disp))

// ---- fused-pair building blocks ----
//
// Element bodies for the "simple" (registers-only, fixed-cost, non-faulting)
// ops that participate in fusion. The FIRST element reads its own record
// fields (EBODY_*); the SECOND element's operands were packed into the same
// record's unused memory-operand fields at ExecImage build time (PBODY_*),
// so the whole pair costs one record fetch. A pair handler first proves the
// reference engine's between-instruction checks cannot trigger (instruction
// limit, cycle budget); if they could, it bails to the first element's base
// handler, which performs them per instruction, exactly.
#define EBODY_MovImm(r) R[(r)->rd] = static_cast<uint64_t>((r)->imm)
#define EBODY_Mov(r) R[(r)->rd] = R[(r)->rs1]
#define EBODY_Add(r) R[(r)->rd] = R[(r)->rs1] + R[(r)->rs2]
#define EBODY_Sub(r) R[(r)->rd] = R[(r)->rs1] - R[(r)->rs2]
#define EBODY_Mul(r) R[(r)->rd] = R[(r)->rs1] * R[(r)->rs2]
#define EBODY_AddImm(r) \
  R[(r)->rd] = R[(r)->rs1] + static_cast<uint64_t>((r)->imm)
#define EBODY_And(r) R[(r)->rd] = R[(r)->rs1] & R[(r)->rs2]
#define EBODY_Or(r) R[(r)->rd] = R[(r)->rs1] | R[(r)->rs2]
#define EBODY_Xor(r) R[(r)->rd] = R[(r)->rs1] ^ R[(r)->rs2]
#define EBODY_Shl(r) R[(r)->rd] = R[(r)->rs1] << (R[(r)->rs2] & 63)
#define EBODY_Shr(r)                                                     \
  R[(r)->rd] = static_cast<uint64_t>(static_cast<int64_t>(R[(r)->rs1]) >> \
                                     (R[(r)->rs2] & 63))
#define EBODY_Not(r) R[(r)->rd] = ~R[(r)->rs1]
#define EBODY_CmpEq(r) R[(r)->rd] = R[(r)->rs1] == R[(r)->rs2] ? 1 : 0
#define EBODY_CmpNe(r) R[(r)->rd] = R[(r)->rs1] != R[(r)->rs2] ? 1 : 0
#define EBODY_CmpLt(r)                                             \
  R[(r)->rd] = static_cast<int64_t>(R[(r)->rs1]) <                 \
                       static_cast<int64_t>(R[(r)->rs2])           \
                   ? 1                                             \
                   : 0
#define EBODY_CmpLe(r)                                             \
  R[(r)->rd] = static_cast<int64_t>(R[(r)->rs1]) <=                \
                       static_cast<int64_t>(R[(r)->rs2])           \
                   ? 1                                             \
                   : 0
#define EBODY_CmpGt(r)                                             \
  R[(r)->rd] = static_cast<int64_t>(R[(r)->rs1]) >                 \
                       static_cast<int64_t>(R[(r)->rs2])           \
                   ? 1                                             \
                   : 0
#define EBODY_CmpGe(r)                                             \
  R[(r)->rd] = static_cast<int64_t>(R[(r)->rs1]) >=                \
                       static_cast<int64_t>(R[(r)->rs2])           \
                   ? 1                                             \
                   : 0

// Packed second-element accessors: rd/rs1/rs2 live in base/index/scale,
// imm in seg_base (see BuildExecImage's fusion pass).
#define PRD(r) (r)->base
#define PRS1(r) (r)->index
#define PRS2(r) (r)->scale
#define PIMM(r) static_cast<int64_t>((r)->seg_base)
#define PBODY_MovImm(r) R[PRD(r)] = static_cast<uint64_t>(PIMM(r))
#define PBODY_Mov(r) R[PRD(r)] = R[PRS1(r)]
#define PBODY_Add(r) R[PRD(r)] = R[PRS1(r)] + R[PRS2(r)]
#define PBODY_Sub(r) R[PRD(r)] = R[PRS1(r)] - R[PRS2(r)]
#define PBODY_Mul(r) R[PRD(r)] = R[PRS1(r)] * R[PRS2(r)]
#define PBODY_AddImm(r) R[PRD(r)] = R[PRS1(r)] + static_cast<uint64_t>(PIMM(r))
#define PBODY_And(r) R[PRD(r)] = R[PRS1(r)] & R[PRS2(r)]
#define PBODY_Or(r) R[PRD(r)] = R[PRS1(r)] | R[PRS2(r)]
#define PBODY_Shl(r) R[PRD(r)] = R[PRS1(r)] << (R[PRS2(r)] & 63)
#define PBODY_Shr(r)                                                      \
  R[PRD(r)] = static_cast<uint64_t>(static_cast<int64_t>(R[PRS1(r)]) >>   \
                                    (R[PRS2(r)] & 63))
#define PBODY_Not(r) R[PRD(r)] = ~R[PRS1(r)]
#define PBODY_MovIF(r) memcpy(&F[PRD(r)], &R[PRS1(r)], 8)
#define PBODY_CmpEq(r) R[PRD(r)] = R[PRS1(r)] == R[PRS2(r)] ? 1 : 0
#define PBODY_CmpNe(r) R[PRD(r)] = R[PRS1(r)] != R[PRS2(r)] ? 1 : 0
#define PBODY_CmpLt(r)                                             \
  R[PRD(r)] = static_cast<int64_t>(R[PRS1(r)]) <                   \
                      static_cast<int64_t>(R[PRS2(r)])             \
                  ? 1                                              \
                  : 0
#define PBODY_CmpLe(r)                                             \
  R[PRD(r)] = static_cast<int64_t>(R[PRS1(r)]) <=                  \
                      static_cast<int64_t>(R[PRS2(r)])             \
                  ? 1                                              \
                  : 0
#define PBODY_CmpGt(r)                                             \
  R[PRD(r)] = static_cast<int64_t>(R[PRS1(r)]) >                   \
                      static_cast<int64_t>(R[PRS2(r)])             \
                  ? 1                                              \
                  : 0
#define PBODY_CmpGe(r)                                             \
  R[PRD(r)] = static_cast<int64_t>(R[PRS1(r)]) >=                  \
                      static_cast<int64_t>(R[PRS2(r)])             \
                  ? 1                                              \
                  : 0
#define ECOST_MovImm 1
#define ECOST_Mov 1
#define ECOST_Add 1
#define ECOST_Sub 1
#define ECOST_Mul 3
#define ECOST_AddImm 1
#define ECOST_And 1
#define ECOST_Or 1
#define ECOST_Xor 1
#define ECOST_Shl 1
#define ECOST_Shr 1
#define ECOST_Not 1
#define ECOST_CmpEq 1
#define ECOST_CmpNe 1
#define ECOST_CmpLt 1
#define ECOST_CmpLe 1
#define ECOST_CmpGt 1
#define ECOST_CmpGe 1

// Float-arithmetic element bodies: natural (F*), packed-as-second (PF*,
// regs in base/index/scale), packed-after-mem (QF*, regs in rs1/rs2/bnd).
#define FBODY_FAdd(r) F[(r)->rd] = F[(r)->rs1] + F[(r)->rs2]
#define FBODY_FSub(r) F[(r)->rd] = F[(r)->rs1] - F[(r)->rs2]
#define FBODY_FMul(r) F[(r)->rd] = F[(r)->rs1] * F[(r)->rs2]
#define PFBODY_FAdd(r) F[PRD(r)] = F[PRS1(r)] + F[PRS2(r)]
#define PFBODY_FMul(r) F[PRD(r)] = F[PRS1(r)] * F[PRS2(r)]
#define QFBODY_FAdd(r) F[QRD(r)] = F[QRS1(r)] + F[QRS2(r)]
#define QFBODY_FSub(r) F[QRD(r)] = F[QRS1(r)] - F[QRS2(r)]
#define QFBODY_FMul(r) F[QRD(r)] = F[QRS1(r)] * F[QRS2(r)]

// Float load/store bodies, analogous to PAIR_LOAD/PAIR_STORE (8 bytes).
#define PAIR_FLOAD(fdix)                                              \
  do {                                                                \
    const uint64_t ea_ = EA_SEG();                                    \
    uint64_t v_ = 0;                                                  \
    if (uint8_t* pm_ = mem_.FlatPtr(ea_, 8)) {                        \
      memcpy(&v_, pm_, 8);                                            \
    } else if (!mem_.Read(ea_, 8, &v_)) {                             \
      FAULT(VmFault::kUnmapped,                                       \
            StrFormat("fload from %s", Hex(ea_).c_str()));            \
    }                                                                 \
    memcpy(&F[(fdix)], &v_, 8);                                       \
    const uint64_t mc_ = rec->acc_cost + cache_.AccessFast(ea_);      \
    s_miss += mc_ - 2;                                                \
    ++s_loads;                                                        \
    cycles += mc_;                                                    \
  } while (0)
#define PAIR_FSTORE(fdix)                                             \
  do {                                                                \
    const uint64_t ea_ = EA_SEG();                                    \
    uint64_t v_;                                                      \
    memcpy(&v_, &F[(fdix)], 8);                                       \
    if (uint8_t* pm_ = mem_.FlatPtr(ea_, 8)) {                        \
      memcpy(pm_, &v_, 8);                                            \
    } else if (!mem_.Write(ea_, 8, v_)) {                             \
      FAULT(VmFault::kUnmapped,                                       \
            StrFormat("fstore to %s", Hex(ea_).c_str()));             \
    }                                                                 \
    const uint64_t mc_ = rec->acc_cost + cache_.AccessFast(ea_);      \
    s_miss += mc_ - 2;                                                \
    ++s_stores;                                                       \
    cycles += mc_;                                                    \
  } while (0)
#define PAIR_FLoad PAIR_FLOAD
#define PAIR_FStore PAIR_FSTORE

// True when the reference engine could stop or fault between the two
// elements of a pair whose first element costs `costA` — in that case the
// pair must be executed per-instruction via the base handler.
#define PAIR_MUST_BAIL(costA)                                    \
  (__builtin_expect(instrs + 1 >= max_instrs, 0) ||              \
   (kBounded && cycles - start_cycles + (costA) >= budget))
// For pairs whose FIRST element has a dynamic cost (memory access or
// fp-credited check): the mid-pair budget boundary cannot be proven ahead,
// so bounded slices always take the per-instruction path (kBounded folds at
// compile time; Vm::Call runs unbounded).
#define PAIR_MUST_BAIL_DYN() \
  (kBounded || __builtin_expect(instrs + 1 >= max_instrs, 0))

// Second-element accessors for pairs whose FIRST element is a load/store
// (its memory-operand fields stay live): rd/rs1/rs2 pack into rs1/rs2/bnd,
// an immediate into imm (loads/stores don't use it).
#define QRD(r) (r)->rs1
#define QRS1(r) (r)->rs2
#define QRS2(r) (r)->bnd
#define QIMM(r) (r)->imm
#define QBODY_MovImm(r) R[QRD(r)] = static_cast<uint64_t>(QIMM(r))
#define QBODY_Mov(r) R[QRD(r)] = R[QRS1(r)]
#define QBODY_Add(r) R[QRD(r)] = R[QRS1(r)] + R[QRS2(r)]
#define QBODY_Sub(r) R[QRD(r)] = R[QRS1(r)] - R[QRS2(r)]
#define QBODY_Mul(r) R[QRD(r)] = R[QRS1(r)] * R[QRS2(r)]
#define QBODY_Xor(r) R[QRD(r)] = R[QRS1(r)] ^ R[QRS2(r)]
#define QBODY_CmpEq(r) R[QRD(r)] = R[QRS1(r)] == R[QRS2(r)] ? 1 : 0
#define QBODY_CmpNe(r) R[QRD(r)] = R[QRS1(r)] != R[QRS2(r)] ? 1 : 0
#define QBODY_CmpLt(r)                                             \
  R[QRD(r)] = static_cast<int64_t>(R[QRS1(r)]) <                   \
                      static_cast<int64_t>(R[QRS2(r)])             \
                  ? 1                                              \
                  : 0
#define QBODY_CmpLe(r)                                             \
  R[QRD(r)] = static_cast<int64_t>(R[QRS1(r)]) <=                  \
                      static_cast<int64_t>(R[QRS2(r)])             \
                  ? 1                                              \
                  : 0
#define QBODY_CmpGt(r)                                             \
  R[QRD(r)] = static_cast<int64_t>(R[QRS1(r)]) >                   \
                      static_cast<int64_t>(R[QRS2(r)])             \
                  ? 1                                              \
                  : 0
#define QBODY_CmpGe(r)                                             \
  R[QRD(r)] = static_cast<int64_t>(R[QRS1(r)]) >=                  \
                      static_cast<int64_t>(R[QRS2(r)])             \
                  ? 1                                              \
                  : 0

// Guest load/store bodies usable as either pair element: the memory operand
// always comes from the record's natural fields; the destination/source
// register index is a parameter. Faults use the current `pc`, which the
// caller has set to the element's word index.
#define PAIR_LOAD(rdix)                                               \
  do {                                                                \
    const uint64_t ea_ = EA_SEG();                                    \
    uint64_t v_ = 0;                                                  \
    if (uint8_t* pm_ = mem_.FlatPtr(ea_, rec->size)) {                \
      if (rec->size == 1) {                                           \
        v_ = *pm_;                                                    \
      } else {                                                        \
        memcpy(&v_, pm_, 8);                                          \
      }                                                               \
    } else if (!mem_.Read(ea_, rec->size, &v_)) {                     \
      FAULT(VmFault::kUnmapped,                                       \
            StrFormat("load from %s", Hex(ea_).c_str()));             \
    }                                                                 \
    R[(rdix)] = v_;                                                   \
    const uint64_t mc_ = rec->acc_cost + cache_.AccessFast(ea_);      \
    s_miss += mc_ - 2;                                                \
    ++s_loads;                                                        \
    cycles += mc_;                                                    \
  } while (0)
#define PAIR_STORE(rdix)                                              \
  do {                                                                \
    const uint64_t ea_ = EA_SEG();                                    \
    if (uint8_t* pm_ = mem_.FlatPtr(ea_, rec->size)) {                \
      if (rec->size == 1) {                                           \
        *pm_ = static_cast<uint8_t>(R[(rdix)]);                       \
      } else {                                                        \
        const uint64_t v_ = R[(rdix)];                                \
        memcpy(pm_, &v_, 8);                                          \
      }                                                               \
    } else if (!mem_.Write(ea_, rec->size, R[(rdix)])) {              \
      FAULT(VmFault::kUnmapped,                                       \
            StrFormat("store to %s", Hex(ea_).c_str()));              \
    }                                                                 \
    const uint64_t mc_ = rec->acc_cost + cache_.AccessFast(ea_);      \
    s_miss += mc_ - 2;                                                \
    ++s_stores;                                                       \
    cycles += mc_;                                                    \
  } while (0)

void Vm::RunSliceFast(ThreadCtx* t, uint64_t budget) {
  if (budget == kNoBudget) {
    RunSliceFastImpl<false>(t, budget);
  } else {
    RunSliceFastImpl<true>(t, budget);
  }
}

template <bool kBounded>
void Vm::RunSliceFastImpl(ThreadCtx* t, const uint64_t budget) {
  if (t->halted || t->fault != VmFault::kNone) {
    return;
  }
  assert(image_ != nullptr);
  // engine=trace dispatches over the tier's private, leader-patched copy of
  // the record stream; ref/fast use the shared immutable image. Same length,
  // so `nrecs` and the pc bounds discipline are engine-independent.
  TraceTier* const tt = trace_.get();
  const ExecRecord* const recs =
      tt != nullptr ? tt->recs.data() : image_->recs.data();
  const uint64_t nrecs = image_->recs.size();
  const uint64_t* const code = image_->code.data();
  const RegionMap& map = prog_->map;
  const uint64_t max_instrs = opts_.max_instrs;
  const uint64_t stack_lo = t->stack_lo;
  const uint64_t stack_hi = t->stack_hi;

  // Thread state, localized for the duration of the slice.
  uint64_t pc = t->pc;
  uint64_t cycles = t->cycles;
  uint64_t instrs = t->instrs;
  uint32_t fp_credit = t->fp_credit;
  const uint64_t start_cycles = cycles;
  uint64_t R[32];
  memcpy(R, t->regs, sizeof(t->regs));
  memset(R + kNumIntRegs, 0, sizeof(R) - sizeof(t->regs));
  double F[kNumFloatRegs];
  memcpy(F, t->fregs, sizeof(F));

  // VmStats deltas, flushed on exit and around trusted calls. Kept in plain
  // locals whose addresses never escape (no lambdas, no pointers): guest
  // stores go through char*, which may alias anything address-taken, and
  // these counters must stay register-allocatable across them. The
  // per-instruction stats_.cycles delta is derived as cycles - cycles_mark
  // instead of being counted separately (trusted calls re-mark).
  uint64_t flushed_instrs = instrs;
  uint64_t cycles_mark = cycles;
  uint64_t s_checks = 0;
  uint64_t s_check_cyc = 0;
  uint64_t s_cfi = 0;
  uint64_t s_loads = 0;
  uint64_t s_stores = 0;
  uint64_t s_miss = 0;

// Flush the locals into ThreadCtx / VmStats (exit and trusted-call sync).
#define FLUSH_THREAD()                  \
  do {                                  \
    t->pc = pc;                         \
    t->cycles = cycles;                 \
    t->instrs = instrs;                 \
    t->fp_credit = fp_credit;           \
    memcpy(t->regs, R, sizeof(t->regs)); \
    memcpy(t->fregs, F, sizeof(F));     \
  } while (0)
#define FLUSH_STATS()                          \
  do {                                         \
    stats_.instrs += instrs - flushed_instrs;  \
    flushed_instrs = instrs;                   \
    stats_.cycles += cycles - cycles_mark;     \
    cycles_mark = cycles;                      \
    stats_.check_instrs += s_checks;           \
    s_checks = 0;                              \
    stats_.check_cycles += s_check_cyc;        \
    s_check_cyc = 0;                           \
    stats_.cfi_instrs += s_cfi;                \
    s_cfi = 0;                                 \
    stats_.loads += s_loads;                   \
    s_loads = 0;                               \
    stats_.stores += s_stores;                 \
    s_stores = 0;                              \
    stats_.cache_miss_cycles += s_miss;        \
    s_miss = 0;                                \
  } while (0)

  const ExecRecord* rec;
#if CONFLLVM_COMPUTED_GOTO
  // Current promoted block while the trace-tier inner loop runs (kHTraceRun
  // through tTerm/tExit); dead in the ref/fast configurations.
  TraceBlock* tb = nullptr;
#endif

#if CONFLLVM_COMPUTED_GOTO
  // Indexed by ExecHandler — order must match the enum exactly.
  static const void* const kLabels[] = {
      &&kHExecData_lbl, &&kHInvalid_lbl, &&kHMovImm_lbl, &&kHMov_lbl,
      &&kHAdd_lbl,      &&kHSub_lbl,     &&kHMul_lbl,    &&kHDiv_lbl,
      &&kHRem_lbl,      &&kHAnd_lbl,     &&kHOr_lbl,     &&kHXor_lbl,
      &&kHShl_lbl,      &&kHShr_lbl,     &&kHAddImm_lbl, &&kHNeg_lbl,
      &&kHNot_lbl,      &&kHCmpEq_lbl,   &&kHCmpNe_lbl,  &&kHCmpLt_lbl,
      &&kHCmpLe_lbl,    &&kHCmpGt_lbl,   &&kHCmpGe_lbl,  &&kHLoad_lbl,
      &&kHStore_lbl,    &&kHFLoad_lbl,   &&kHFStore_lbl, &&kHLea_lbl,
      &&kHPush_lbl,     &&kHPop_lbl,     &&kHJmp_lbl,    &&kHJnz_lbl,
      &&kHJz_lbl,       &&kHCall_lbl,    &&kHICall_lbl,  &&kHRet_lbl,
      &&kHJmpReg_lbl,   &&kHLoadCode_lbl, &&kHBndclR_lbl, &&kHBndcuR_lbl,
      &&kHBndclM_lbl,   &&kHBndcuM_lbl,  &&kHChkstk_lbl, &&kHTrap_lbl,
      &&kHCallExt_lbl,  &&kHHalt_lbl,    &&kHFAdd_lbl,   &&kHFSub_lbl,
      &&kHFMul_lbl,     &&kHFDiv_lbl,    &&kHFNeg_lbl,   &&kHFCmpEq_lbl,
      &&kHFCmpNe_lbl,   &&kHFCmpLt_lbl,  &&kHFCmpLe_lbl, &&kHFCmpGt_lbl,
      &&kHFCmpGe_lbl,   &&kHCvtIF_lbl,   &&kHCvtFI_lbl,  &&kHMovIF_lbl,
      &&kHFMov_lbl,     &&kHNop_lbl,    &&kHSelect_lbl,
      &&kHExecData_lbl,  // filler for the kNumBaseHandlers slot (never used)
#define CONFLLVM_YP(a, b) &&kHP_##a##_##b##_lbl,
#define CONFLLVM_YJ(a) &&kHP_##a##_Jmp_lbl,
#define CONFLLVM_YT(b) &&kHP_Jmp_##b##_lbl,
      CONFLLVM_PAIRS_SS(CONFLLVM_YP)
      CONFLLVM_PAIRS_SJ(CONFLLVM_YJ)
      CONFLLVM_PAIRS_JS(CONFLLVM_YT)
      CONFLLVM_PAIRS_CB(CONFLLVM_YP)
      CONFLLVM_PAIRS_BB(CONFLLVM_YJ)
      CONFLLVM_PAIRS_SM(CONFLLVM_YP)
      CONFLLVM_PAIRS_MS(CONFLLVM_YP)
      CONFLLVM_PAIRS_BM(CONFLLVM_YP)
      CONFLLVM_PAIRS_FF(CONFLLVM_YP)
      CONFLLVM_PAIRS_FMS(CONFLLVM_YP)
      CONFLLVM_PAIRS_BS(CONFLLVM_YP)
      CONFLLVM_PAIRS_SFM(CONFLLVM_YP)
      CONFLLVM_PAIRS_FMI(CONFLLVM_YP)
      CONFLLVM_PAIRS_FAS(CONFLLVM_YP)
      CONFLLVM_PAIRS_SIF(CONFLLVM_YP)
      CONFLLVM_PAIRS_SN(CONFLLVM_YP)
#define CONFLLVM_YS(b) &&kHP_Pop_##b##_lbl,
      CONFLLVM_PAIRS_PS(CONFLLVM_YS)
#undef CONFLLVM_YS
#define CONFLLVM_YL(b) &&kHP_LoadCode_##b##_lbl,
      CONFLLVM_PAIRS_LC(CONFLLVM_YL)
#undef CONFLLVM_YL
      &&kHP_Not_LoadCode_lbl,
      &&kHP_AddImm_JmpReg_lbl,
      CONFLLVM_PAIRS_BT(CONFLLVM_YP)
#undef CONFLLVM_YP
#undef CONFLLVM_YJ
#undef CONFLLVM_YT
      &&kHP_Add_BndclR_lbl,
      &&kHP_Pop_Pop_lbl,
      &&kHP_Push_Push_lbl,
      &&kHT_BndBnd_Load_lbl,
      &&kHT_BndBnd_Store_lbl,
      &&kHT_BndBnd_FLoad_lbl,
      &&kHT_BndBnd_FStore_lbl,
      &&kHTraceCount_lbl,
      &&kHTraceRun_lbl,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumExecHandlers,
                "kLabels must have one entry per ExecHandler");

  // Trace-tier inner dispatch: indexed by handler id over the FULL image
  // handler space plus the trace-only pseudo handlers (see trace_tier.h).
  // Base body ops jump to their t* labels; terminators route to tTerm, which
  // hands the op's natural record to the outer table above so
  // call/ret/callext/halt semantics are shared code; kHExecData is the
  // synthetic exit. Fused ids a compiled region can contain (simple+simple,
  // simple+mem, mem+simple, pop;pop, push;push and the bndcl;bndcu;access
  // triple) get tP_*/tT_* superinstruction labels generated from the same
  // X-macro lists as the enum; every other fused id is never emitted by
  // TraceTier::Promote and routes to tTerm only to keep the table aligned
  // with the enum. The tail entries are the region-growing pseudo ops
  // (inlined jmp, conditional-branch guards, the loop-back re-entry).
#define CONFLLVM_TSS(a, b) &&tP_##a##_##b,
#define CONFLLVM_TSM(a, m) &&tP_##a##_##m,
#define CONFLLVM_TMS(m, b) &&tP_##m##_##b,
#define CONFLLVM_TF2(a, b) &&tTerm,
#define CONFLLVM_TF1(a) &&tTerm,
  static const void* const kTL[] = {
      &&tExit,    &&tTerm,     &&tMovImm,  &&tMov,
      &&tAdd,     &&tSub,      &&tMul,     &&tDiv,
      &&tRem,     &&tAnd,      &&tOr,      &&tXor,
      &&tShl,     &&tShr,      &&tAddImm,  &&tNeg,
      &&tNot,     &&tCmpEq,    &&tCmpNe,   &&tCmpLt,
      &&tCmpLe,   &&tCmpGt,    &&tCmpGe,   &&tLoad,
      &&tStore,   &&tFLoad,    &&tFStore,  &&tLea,
      &&tPush,    &&tPop,      &&tTerm,    &&tTerm,
      &&tTerm,    &&tTerm,     &&tTerm,    &&tTerm,
      &&tTerm,    &&tLoadCode, &&tBndclR,  &&tBndcuR,
      &&tBndclM,  &&tBndcuM,   &&tChkstk,  &&tTerm,
      &&tTerm,    &&tTerm,     &&tFAdd,    &&tFSub,
      &&tFMul,    &&tFDiv,     &&tFNeg,    &&tFCmpEq,
      &&tFCmpNe,  &&tFCmpLt,   &&tFCmpLe,  &&tFCmpGt,
      &&tFCmpGe,  &&tCvtIF,    &&tCvtFI,   &&tMovIF,
      &&tFMov,    &&tNop,      &&tSelect,
      &&tTerm,  // filler for the kNumBaseHandlers slot (never used)
      // Fused ids, in exact enum order (exec_image.h).
      CONFLLVM_PAIRS_SS(CONFLLVM_TSS)
      CONFLLVM_PAIRS_SJ(CONFLLVM_TF1)
      CONFLLVM_PAIRS_JS(CONFLLVM_TF1)
      CONFLLVM_PAIRS_CB(CONFLLVM_TF2)
      CONFLLVM_PAIRS_BB(CONFLLVM_TF1)
      CONFLLVM_PAIRS_SM(CONFLLVM_TSM)
      CONFLLVM_PAIRS_MS(CONFLLVM_TMS)
      CONFLLVM_PAIRS_BM(CONFLLVM_TF2)
      CONFLLVM_PAIRS_FF(CONFLLVM_TF2)
      CONFLLVM_PAIRS_FMS(CONFLLVM_TF2)
      CONFLLVM_PAIRS_BS(CONFLLVM_TF2)
      CONFLLVM_PAIRS_SFM(CONFLLVM_TF2)
      CONFLLVM_PAIRS_FMI(CONFLLVM_TF2)
      CONFLLVM_PAIRS_FAS(CONFLLVM_TF2)
      CONFLLVM_PAIRS_SIF(CONFLLVM_TF2)
      CONFLLVM_PAIRS_SN(CONFLLVM_TF2)
      CONFLLVM_PAIRS_PS(CONFLLVM_TF1)
      CONFLLVM_PAIRS_LC(CONFLLVM_TF1)
      &&tTerm, &&tTerm,  // kHP_Not_LoadCode, kHP_AddImm_JmpReg
      CONFLLVM_PAIRS_BT(CONFLLVM_TF2)
      &&tTerm,            // kHP_Add_BndclR
      &&tP_Pop_Pop, &&tP_Push_Push,
      &&tT_BndBnd_Load,   &&tT_BndBnd_Store,
      &&tT_BndBnd_FLoad,  &&tT_BndBnd_FStore,
      &&tTerm, &&tTerm,   // kHTraceCount, kHTraceRun (never inside a region)
      &&tJmpInl, &&tGuardNZ, &&tGuardZ, &&tGuardNZT, &&tGuardZT, &&tLoopBack,
      &&tCG_CmpEq_ExitNZ, &&tCG_CmpEq_ExitZ,
      &&tCG_CmpNe_ExitNZ, &&tCG_CmpNe_ExitZ,
      &&tCG_CmpLt_ExitNZ, &&tCG_CmpLt_ExitZ,
      &&tCG_CmpLe_ExitNZ, &&tCG_CmpLe_ExitZ,
      &&tCG_CmpGt_ExitNZ, &&tCG_CmpGt_ExitZ,
      &&tCG_CmpGe_ExitNZ, &&tCG_CmpGe_ExitZ,
      &&tT3A_CmpEq_ExitNZ, &&tT3A_CmpEq_ExitZ,
      &&tT3A_CmpNe_ExitNZ, &&tT3A_CmpNe_ExitZ,
      &&tT3A_CmpLt_ExitNZ, &&tT3A_CmpLt_ExitZ,
      &&tT3A_CmpLe_ExitNZ, &&tT3A_CmpLe_ExitZ,
      &&tT3A_CmpGt_ExitNZ, &&tT3A_CmpGt_ExitZ,
      &&tT3A_CmpGe_ExitNZ, &&tT3A_CmpGe_ExitZ,
      &&tT3L_CmpEq_ExitNZ, &&tT3L_CmpEq_ExitZ,
      &&tT3L_CmpNe_ExitNZ, &&tT3L_CmpNe_ExitZ,
      &&tT3L_CmpLt_ExitNZ, &&tT3L_CmpLt_ExitZ,
      &&tT3L_CmpLe_ExitNZ, &&tT3L_CmpLe_ExitZ,
      &&tT3L_CmpGt_ExitNZ, &&tT3L_CmpGt_ExitZ,
      &&tT3L_CmpGe_ExitNZ, &&tT3L_CmpGe_ExitZ,
      &&tCallInl, &&tRetGuard,
  };
#undef CONFLLVM_TSS
#undef CONFLLVM_TSM
#undef CONFLLVM_TMS
#undef CONFLLVM_TF2
#undef CONFLLVM_TF1
  static_assert(sizeof(kTL) / sizeof(kTL[0]) == kTNumTraceHandlers,
                "kTL must have one entry per trace dispatch id");
#endif

  DISPATCH();

#if !CONFLLVM_COMPUTED_GOTO
  uint16_t sw_h;
dispatch_sw:
  sw_h = rec->handler;
dispatch_sw_as:
  switch (sw_h) {
#endif

  CASE(kHExecData) {
    --instrs;  // the reference engine faults before counting data words
    FAULT(VmFault::kExecData, "executed data word");
  }
  CASE(kHInvalid) { FAULT(VmFault::kExecData, "invalid instruction"); }
  CASE(kHMovImm) {
    R[rec->rd] = static_cast<uint64_t>(rec->imm);
    END_OP(1);
  }
  CASE(kHMov) {
    R[rec->rd] = R[rec->rs1];
    END_OP(1);
  }
  CASE(kHAdd) {
    R[rec->rd] = R[rec->rs1] + R[rec->rs2];
    END_OP(1);
  }
  CASE(kHSub) {
    R[rec->rd] = R[rec->rs1] - R[rec->rs2];
    END_OP(1);
  }
  CASE(kHMul) {
    R[rec->rd] = R[rec->rs1] * R[rec->rs2];
    END_OP(3);
  }
  CASE(kHDiv) {
    const int64_t a = static_cast<int64_t>(R[rec->rs1]);
    const int64_t b = static_cast<int64_t>(R[rec->rs2]);
    if (b == 0) {
      FAULT(VmFault::kDivZero, "division by zero");
    }
    R[rec->rd] = (a == INT64_MIN && b == -1) ? static_cast<uint64_t>(INT64_MIN)
                                             : static_cast<uint64_t>(a / b);
    END_OP(20);
  }
  CASE(kHRem) {
    const int64_t a = static_cast<int64_t>(R[rec->rs1]);
    const int64_t b = static_cast<int64_t>(R[rec->rs2]);
    if (b == 0) {
      FAULT(VmFault::kDivZero, "division by zero");
    }
    R[rec->rd] = (a == INT64_MIN && b == -1) ? 0 : static_cast<uint64_t>(a % b);
    END_OP(20);
  }
  CASE(kHAnd) {
    R[rec->rd] = R[rec->rs1] & R[rec->rs2];
    END_OP(1);
  }
  CASE(kHOr) {
    R[rec->rd] = R[rec->rs1] | R[rec->rs2];
    END_OP(1);
  }
  CASE(kHXor) {
    R[rec->rd] = R[rec->rs1] ^ R[rec->rs2];
    END_OP(1);
  }
  CASE(kHShl) {
    R[rec->rd] = R[rec->rs1] << (R[rec->rs2] & 63);
    END_OP(1);
  }
  CASE(kHShr) {
    R[rec->rd] = static_cast<uint64_t>(static_cast<int64_t>(R[rec->rs1]) >>
                                       (R[rec->rs2] & 63));
    END_OP(1);
  }
  CASE(kHAddImm) {
    R[rec->rd] = R[rec->rs1] + static_cast<uint64_t>(rec->imm);
    END_OP(1);
  }
  CASE(kHNeg) {
    R[rec->rd] = ~R[rec->rs1] + 1;
    END_OP(1);
  }
  CASE(kHNot) {
    R[rec->rd] = ~R[rec->rs1];
    END_OP(1);
  }
  CASE(kHCmpEq) {
    R[rec->rd] = R[rec->rs1] == R[rec->rs2] ? 1 : 0;
    END_OP(1);
  }
  CASE(kHCmpNe) {
    R[rec->rd] = R[rec->rs1] != R[rec->rs2] ? 1 : 0;
    END_OP(1);
  }
  CASE(kHCmpLt) {
    R[rec->rd] = static_cast<int64_t>(R[rec->rs1]) <
                         static_cast<int64_t>(R[rec->rs2])
                     ? 1
                     : 0;
    END_OP(1);
  }
  CASE(kHCmpLe) {
    R[rec->rd] = static_cast<int64_t>(R[rec->rs1]) <=
                         static_cast<int64_t>(R[rec->rs2])
                     ? 1
                     : 0;
    END_OP(1);
  }
  CASE(kHCmpGt) {
    R[rec->rd] = static_cast<int64_t>(R[rec->rs1]) >
                         static_cast<int64_t>(R[rec->rs2])
                     ? 1
                     : 0;
    END_OP(1);
  }
  CASE(kHCmpGe) {
    R[rec->rd] = static_cast<int64_t>(R[rec->rs1]) >=
                         static_cast<int64_t>(R[rec->rs2])
                     ? 1
                     : 0;
    END_OP(1);
  }
  CASE(kHLoad) {
    const uint64_t ea = EA_SEG();
    uint64_t v = 0;
    if (uint8_t* p = mem_.FlatPtr(ea, rec->size)) {
      if (rec->size == 1) {
        v = *p;
      } else {
        memcpy(&v, p, 8);
      }
    } else if (!mem_.Read(ea, rec->size, &v)) {
      FAULT(VmFault::kUnmapped, StrFormat("load from %s", Hex(ea).c_str()));
    }
    R[rec->rd] = v;
    const uint64_t cost = rec->acc_cost + cache_.AccessFast(ea);
    s_miss += cost - 2;
    ++s_loads;
    END_OP(cost);
  }
  CASE(kHStore) {
    const uint64_t ea = EA_SEG();
    if (uint8_t* p = mem_.FlatPtr(ea, rec->size)) {
      if (rec->size == 1) {
        *p = static_cast<uint8_t>(R[rec->rd]);
      } else {
        const uint64_t v = R[rec->rd];
        memcpy(p, &v, 8);
      }
    } else if (!mem_.Write(ea, rec->size, R[rec->rd])) {
      FAULT(VmFault::kUnmapped, StrFormat("store to %s", Hex(ea).c_str()));
    }
    const uint64_t cost = rec->acc_cost + cache_.AccessFast(ea);
    s_miss += cost - 2;
    ++s_stores;
    END_OP(cost);
  }
  CASE(kHFLoad) {
    const uint64_t ea = EA_SEG();
    uint64_t v = 0;
    if (uint8_t* p = mem_.FlatPtr(ea, 8)) {
      memcpy(&v, p, 8);
    } else if (!mem_.Read(ea, 8, &v)) {
      FAULT(VmFault::kUnmapped, StrFormat("fload from %s", Hex(ea).c_str()));
    }
    memcpy(&F[rec->rd], &v, 8);
    const uint64_t cost = rec->acc_cost + cache_.AccessFast(ea);
    s_miss += cost - 2;
    ++s_loads;
    END_OP(cost);
  }
  CASE(kHFStore) {
    const uint64_t ea = EA_SEG();
    uint64_t v;
    memcpy(&v, &F[rec->rd], 8);
    if (uint8_t* p = mem_.FlatPtr(ea, 8)) {
      memcpy(p, &v, 8);
    } else if (!mem_.Write(ea, 8, v)) {
      FAULT(VmFault::kUnmapped, StrFormat("fstore to %s", Hex(ea).c_str()));
    }
    const uint64_t cost = rec->acc_cost + cache_.AccessFast(ea);
    s_miss += cost - 2;
    ++s_stores;
    END_OP(cost);
  }
  CASE(kHLea) {
    R[rec->rd] = EA_NOSEG();
    END_OP(1);
  }
  CASE(kHPush) {
    R[kRegSp] -= 8;
    const uint64_t sp = R[kRegSp];
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      const uint64_t v = R[rec->rd];
      memcpy(p, &v, 8);
    } else if (!mem_.Write(sp, 8, R[rec->rd])) {
      FAULT(VmFault::kUnmapped, "push to unmapped stack");
    }
    END_OP(2 + cache_.AccessFast(sp));
  }
  CASE(kHPop) {
    const uint64_t sp = R[kRegSp];
    uint64_t v = 0;
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      memcpy(&v, p, 8);
    } else if (!mem_.Read(sp, 8, &v)) {
      FAULT(VmFault::kUnmapped, "pop from unmapped stack");
    }
    R[rec->rd] = v;
    const uint64_t cost = 2 + cache_.AccessFast(sp);
    R[kRegSp] += 8;
    END_OP(cost);
  }
  CASE(kHJmp) { END_JUMP(1, rec->target); }
  CASE(kHJnz) { END_JUMP(1, R[rec->rd] != 0 ? rec->target : rec->next); }
  CASE(kHJz) { END_JUMP(1, R[rec->rd] == 0 ? rec->target : rec->next); }
  CASE(kHCall) {
    R[kRegSp] -= 8;
    const uint64_t sp = R[kRegSp];
    const uint64_t ra = CodeAddr(rec->next);
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      memcpy(p, &ra, 8);
    } else if (!mem_.Write(sp, 8, ra)) {
      FAULT(VmFault::kUnmapped, "call: stack unmapped");
    }
    END_JUMP(2 + cache_.AccessFast(sp), rec->target);
  }
  CASE(kHICall) {
    const uint64_t target = R[rec->rs1];
    if (!IsCodeAddr(target) || target % 8 != 0 || CodeIndex(target) >= nrecs) {
      FAULT(VmFault::kBadJump, "icall to non-code address");
    }
    R[kRegSp] -= 8;
    const uint64_t sp = R[kRegSp];
    const uint64_t ra = CodeAddr(rec->next);
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      memcpy(p, &ra, 8);
    } else if (!mem_.Write(sp, 8, ra)) {
      FAULT(VmFault::kUnmapped, "icall: stack unmapped");
    }
    END_JUMP(2 + cache_.AccessFast(sp), CodeIndex(target));
  }
  CASE(kHRet) {
    const uint64_t sp = R[kRegSp];
    uint64_t ra = 0;
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      memcpy(&ra, p, 8);
    } else if (!mem_.Read(sp, 8, &ra)) {
      FAULT(VmFault::kUnmapped, "ret: stack unmapped");
    }
    R[kRegSp] += 8;
    if (!IsCodeAddr(ra) || ra % 8 != 0 || CodeIndex(ra) >= nrecs) {
      FAULT(VmFault::kBadJump, "ret to non-code address");
    }
    END_JUMP(2, CodeIndex(ra));
  }
  CASE(kHJmpReg) {
    const uint64_t target = R[rec->rs1];
    if (!IsCodeAddr(target) || target % 8 != 0 || CodeIndex(target) >= nrecs) {
      FAULT(VmFault::kBadJump, "jmpreg to non-code address");
    }
    END_JUMP(2, CodeIndex(target));
  }
  CASE(kHLoadCode) {
    const uint64_t a = R[rec->rs1];
    if (!IsCodeAddr(a) || a % 8 != 0 || CodeIndex(a) >= nrecs) {
      FAULT(VmFault::kBadJump, "loadcode outside code");
    }
    R[rec->rd] = code[CodeIndex(a)];
    ++s_cfi;
    END_OP(2);
  }
  CASE(kHBndclR) {
    const uint64_t v = R[rec->rs1];
    if (v < map.bnd_lo[rec->bnd]) {
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d lower check failed for %s", rec->bnd,
                      Hex(v).c_str()));
    }
    END_CHECK(1);
  }
  CASE(kHBndcuR) {
    const uint64_t v = R[rec->rs1];
    if (v > map.bnd_hi[rec->bnd]) {
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d upper check failed for %s", rec->bnd,
                      Hex(v).c_str()));
    }
    END_CHECK(1);
  }
  CASE(kHBndclM) {
    const uint64_t v = EA_NOSEG();
    if (v < map.bnd_lo[rec->bnd]) {
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d lower check failed for %s", rec->bnd,
                      Hex(v).c_str()));
    }
    END_CHECK(2);
  }
  CASE(kHBndcuM) {
    const uint64_t v = EA_NOSEG();
    if (v > map.bnd_hi[rec->bnd]) {
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d upper check failed for %s", rec->bnd,
                      Hex(v).c_str()));
    }
    END_CHECK(2);
  }
  CASE(kHChkstk) {
    if (R[kRegSp] < stack_lo || R[kRegSp] >= stack_hi) {
      FAULT(VmFault::kChkstk, "rsp escaped the thread stack");
    }
    END_OP(2);
  }
  CASE(kHTrap) {
    FAULT(VmFault::kCfiTrap,
          StrFormat("trap %d", static_cast<int>(rec->imm)));
  }
  CASE(kHCallExt) {
    // Trusted natives see the Vm through ThreadCtx/VmStats, so sync local
    // state out, invoke, and pull the (possibly clobbered) state back in.
    FLUSH_THREAD();
    FLUSH_STATS();
    InvokeTrusted(t, rec->target);
    if (t->fault != VmFault::kNone) {
      return;  // t holds the authoritative state; nothing local to flush
    }
    pc = t->pc;
    cycles = t->cycles;
    cycles_mark = cycles;
    instrs = t->instrs;
    flushed_instrs = instrs;
    fp_credit = t->fp_credit;
    memcpy(R, t->regs, sizeof(t->regs));
    memcpy(F, t->fregs, sizeof(F));
    END_OP(2);
  }
  CASE(kHHalt) {
    t->halted = true;
    goto done;  // no cycle charge; pc stays at the halt, like the reference
  }
  CASE(kHFAdd) {
    F[rec->rd] = F[rec->rs1] + F[rec->rs2];
    END_FPARITH(3);
  }
  CASE(kHFSub) {
    F[rec->rd] = F[rec->rs1] - F[rec->rs2];
    END_FPARITH(3);
  }
  CASE(kHFMul) {
    F[rec->rd] = F[rec->rs1] * F[rec->rs2];
    END_FPARITH(3);
  }
  CASE(kHFDiv) {
    F[rec->rd] = F[rec->rs1] / F[rec->rs2];
    END_FPARITH(15);
  }
  CASE(kHFNeg) {
    F[rec->rd] = -F[rec->rs1];
    END_OP(1);
  }
  CASE(kHFCmpEq) {
    R[rec->rd] = F[rec->rs1] == F[rec->rs2] ? 1 : 0;
    END_OP(2);
  }
  CASE(kHFCmpNe) {
    R[rec->rd] = F[rec->rs1] != F[rec->rs2] ? 1 : 0;
    END_OP(2);
  }
  CASE(kHFCmpLt) {
    R[rec->rd] = F[rec->rs1] < F[rec->rs2] ? 1 : 0;
    END_OP(2);
  }
  CASE(kHFCmpLe) {
    R[rec->rd] = F[rec->rs1] <= F[rec->rs2] ? 1 : 0;
    END_OP(2);
  }
  CASE(kHFCmpGt) {
    R[rec->rd] = F[rec->rs1] > F[rec->rs2] ? 1 : 0;
    END_OP(2);
  }
  CASE(kHFCmpGe) {
    R[rec->rd] = F[rec->rs1] >= F[rec->rs2] ? 1 : 0;
    END_OP(2);
  }
  CASE(kHCvtIF) {
    F[rec->rd] = static_cast<double>(static_cast<int64_t>(R[rec->rs1]));
    END_OP(3);
  }
  CASE(kHCvtFI) {
    const double v = F[rec->rs1];
    if (std::isnan(v) || v >= 9.2233720368547758e18 ||
        v <= -9.2233720368547758e18) {
      R[rec->rd] = static_cast<uint64_t>(INT64_MIN);
    } else {
      R[rec->rd] = static_cast<uint64_t>(static_cast<int64_t>(v));
    }
    END_OP(3);
  }
  CASE(kHMovIF) {
    memcpy(&F[rec->rd], &R[rec->rs1], 8);
    END_OP(1);
  }
  CASE(kHFMov) {
    F[rec->rd] = F[rec->rs1];
    END_OP(1);
  }
  CASE(kHNop) { END_OP(1); }
  CASE(kHSelect) {
    // rd = (rs1 != 0) ? rs2 : rd — read both sources before the write
    // (rs1/rs2 may alias rd).
    const uint64_t cond = R[rec->rs1];
    const uint64_t taken = R[rec->rs2];
    if (cond != 0) {
      R[rec->rd] = taken;
    }
    END_OP(1);
  }

  // ---- trace tier: block profiling + whole-block execution ----

  CASE(kHTraceCount) {
    // Unpromoted block leader under engine=trace: count the entry, compile
    // the block at threshold, and run THIS entry through the leader's
    // original (possibly fused) handler — promotion is a single handler-slot
    // store observed on the next entry.
    const uint32_t bid = image_->block_of[pc];
    TraceBlock& cb = tt->blocks[bid];
    if (__builtin_expect(++cb.count == tt->threshold, 0)) {
      tt->Promote(bid);
    }
    DISPATCH_AS(cb.orig_handler);
  }
  CASE(kHTraceRun) {
#if CONFLLVM_COMPUTED_GOTO
    tb = &tt->blocks[image_->block_of[pc]];
    // Entry prechecks: if the reference engine COULD stop inside this block
    // (quantum budget, instruction limit), bail to the original handler and
    // run per-instruction, stopping exactly where the reference stops. The
    // outer DISPATCH already counted the block's first instruction, and the
    // final op is outside both sums (reference checks run BEFORE each
    // instruction), hence num_instrs - 2 and a worst_cycles that excludes it.
    if ((kBounded &&
         cycles - start_cycles + tb->worst_cycles >= budget) ||
        __builtin_expect(instrs + tb->num_instrs - 2 >= max_instrs, 0)) {
      ++tt->stats.entry_bails;
      DISPATCH_AS(tb->orig_handler);
    }
    ++tb->runs;
    rec = tb->ops.data();
    goto* kTL[rec->handler];
#else
    // The switch build has no computed goto, so the whole-block inner loop
    // is compiled out; promoted blocks simply run per-instruction.
    DISPATCH_AS(tt->blocks[image_->block_of[pc]].orig_handler);
#endif
  }

#if CONFLLVM_COMPUTED_GOTO
  // Promoted-block bodies. Each replays its base handler's semantics, cost
  // and fp-credit bookkeeping exactly, but advances by bumping `rec` through
  // the block's dense op list (no budget/limit/pc checks — hoisted into the
  // kHTraceRun prechecks, and `pc` is only materialized where it is
  // observable: fault paths carry the op's own word index in rec->target,
  // and the terminator/exit restore it before handing back to the outer
  // loop).
#define TNEXT(c)               \
  do {                         \
    fp_credit = 0;             \
    cycles += (c);             \
    ++rec;                     \
    ++instrs;                  \
    goto* kTL[rec->handler];   \
  } while (0)
#define TNEXT_MEM() /* cycles already charged by the PAIR_* body */ \
  do {                                                              \
    fp_credit = 0;                                                  \
    ++rec;                                                          \
    ++instrs;                                                       \
    goto* kTL[rec->handler];                                        \
  } while (0)
#define TNEXT_FP(c)            \
  do {                         \
    fp_credit = 1;             \
    cycles += (c);             \
    ++rec;                     \
    ++instrs;                  \
    goto* kTL[rec->handler];   \
  } while (0)
#define TNEXT_CHECK(base_cost)                           \
  do {                                                   \
    const uint64_t c_ = fp_credit > 0 ? 0 : (base_cost); \
    ++s_checks;                                          \
    s_check_cyc += c_;                                   \
    if (fp_credit > 0) --fp_credit;                      \
    cycles += c_;                                        \
    ++rec;                                               \
    ++instrs;                                            \
    goto* kTL[rec->handler];                             \
  } while (0)

  tMovImm: {
    R[rec->rd] = static_cast<uint64_t>(rec->imm);
    TNEXT(1);
  }
  tMov: {
    R[rec->rd] = R[rec->rs1];
    TNEXT(1);
  }
  tAdd: {
    R[rec->rd] = R[rec->rs1] + R[rec->rs2];
    TNEXT(1);
  }
  tSub: {
    R[rec->rd] = R[rec->rs1] - R[rec->rs2];
    TNEXT(1);
  }
  tMul: {
    R[rec->rd] = R[rec->rs1] * R[rec->rs2];
    TNEXT(3);
  }
  tDiv: {
    const int64_t a = static_cast<int64_t>(R[rec->rs1]);
    const int64_t b = static_cast<int64_t>(R[rec->rs2]);
    if (__builtin_expect(b == 0, 0)) {
      pc = rec->target;
      FAULT(VmFault::kDivZero, "division by zero");
    }
    R[rec->rd] = (a == INT64_MIN && b == -1) ? static_cast<uint64_t>(INT64_MIN)
                                             : static_cast<uint64_t>(a / b);
    TNEXT(20);
  }
  tRem: {
    const int64_t a = static_cast<int64_t>(R[rec->rs1]);
    const int64_t b = static_cast<int64_t>(R[rec->rs2]);
    if (__builtin_expect(b == 0, 0)) {
      pc = rec->target;
      FAULT(VmFault::kDivZero, "division by zero");
    }
    R[rec->rd] = (a == INT64_MIN && b == -1) ? 0 : static_cast<uint64_t>(a % b);
    TNEXT(20);
  }
  tAnd: {
    R[rec->rd] = R[rec->rs1] & R[rec->rs2];
    TNEXT(1);
  }
  tOr: {
    R[rec->rd] = R[rec->rs1] | R[rec->rs2];
    TNEXT(1);
  }
  tXor: {
    R[rec->rd] = R[rec->rs1] ^ R[rec->rs2];
    TNEXT(1);
  }
  tShl: {
    R[rec->rd] = R[rec->rs1] << (R[rec->rs2] & 63);
    TNEXT(1);
  }
  tShr: {
    R[rec->rd] = static_cast<uint64_t>(static_cast<int64_t>(R[rec->rs1]) >>
                                       (R[rec->rs2] & 63));
    TNEXT(1);
  }
  tAddImm: {
    R[rec->rd] = R[rec->rs1] + static_cast<uint64_t>(rec->imm);
    TNEXT(1);
  }
  tNeg: {
    R[rec->rd] = ~R[rec->rs1] + 1;
    TNEXT(1);
  }
  tNot: {
    R[rec->rd] = ~R[rec->rs1];
    TNEXT(1);
  }
  tCmpEq: {
    R[rec->rd] = R[rec->rs1] == R[rec->rs2] ? 1 : 0;
    TNEXT(1);
  }
  tCmpNe: {
    R[rec->rd] = R[rec->rs1] != R[rec->rs2] ? 1 : 0;
    TNEXT(1);
  }
  tCmpLt: {
    R[rec->rd] = static_cast<int64_t>(R[rec->rs1]) <
                         static_cast<int64_t>(R[rec->rs2])
                     ? 1
                     : 0;
    TNEXT(1);
  }
  tCmpLe: {
    R[rec->rd] = static_cast<int64_t>(R[rec->rs1]) <=
                         static_cast<int64_t>(R[rec->rs2])
                     ? 1
                     : 0;
    TNEXT(1);
  }
  tCmpGt: {
    R[rec->rd] = static_cast<int64_t>(R[rec->rs1]) >
                         static_cast<int64_t>(R[rec->rs2])
                     ? 1
                     : 0;
    TNEXT(1);
  }
  tCmpGe: {
    R[rec->rd] = static_cast<int64_t>(R[rec->rs1]) >=
                         static_cast<int64_t>(R[rec->rs2])
                     ? 1
                     : 0;
    TNEXT(1);
  }
  tLoad: {
    pc = rec->target;  // observable only if the access faults
    PAIR_LOAD(rec->rd);
    TNEXT_MEM();
  }
  tStore: {
    pc = rec->target;
    PAIR_STORE(rec->rd);
    TNEXT_MEM();
  }
  tFLoad: {
    pc = rec->target;
    PAIR_FLOAD(rec->rd);
    TNEXT_MEM();
  }
  tFStore: {
    pc = rec->target;
    PAIR_FSTORE(rec->rd);
    TNEXT_MEM();
  }
  tLea: {
    R[rec->rd] = EA_NOSEG();
    TNEXT(1);
  }
  tPush: {
    R[kRegSp] -= 8;
    const uint64_t sp = R[kRegSp];
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      const uint64_t v = R[rec->rd];
      memcpy(p, &v, 8);
    } else if (!mem_.Write(sp, 8, R[rec->rd])) {
      pc = rec->target;
      FAULT(VmFault::kUnmapped, "push to unmapped stack");
    }
    TNEXT(2 + cache_.AccessFast(sp));
  }
  tPop: {
    const uint64_t sp = R[kRegSp];
    uint64_t v = 0;
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      memcpy(&v, p, 8);
    } else if (!mem_.Read(sp, 8, &v)) {
      pc = rec->target;
      FAULT(VmFault::kUnmapped, "pop from unmapped stack");
    }
    R[rec->rd] = v;
    const uint64_t cost = 2 + cache_.AccessFast(sp);
    R[kRegSp] += 8;
    TNEXT(cost);
  }
  tLoadCode: {
    const uint64_t a = R[rec->rs1];
    if (!IsCodeAddr(a) || a % 8 != 0 || CodeIndex(a) >= nrecs) {
      pc = rec->target;
      FAULT(VmFault::kBadJump, "loadcode outside code");
    }
    R[rec->rd] = code[CodeIndex(a)];
    ++s_cfi;
    TNEXT(2);
  }
  tBndclR: {
    const uint64_t v = R[rec->rs1];
    if (__builtin_expect(v < map.bnd_lo[rec->bnd], 0)) {
      pc = rec->target;
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d lower check failed for %s", rec->bnd,
                      Hex(v).c_str()));
    }
    TNEXT_CHECK(1);
  }
  tBndcuR: {
    const uint64_t v = R[rec->rs1];
    if (__builtin_expect(v > map.bnd_hi[rec->bnd], 0)) {
      pc = rec->target;
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d upper check failed for %s", rec->bnd,
                      Hex(v).c_str()));
    }
    TNEXT_CHECK(1);
  }
  tBndclM: {
    const uint64_t v = EA_NOSEG();
    if (__builtin_expect(v < map.bnd_lo[rec->bnd], 0)) {
      pc = rec->target;
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d lower check failed for %s", rec->bnd,
                      Hex(v).c_str()));
    }
    TNEXT_CHECK(2);
  }
  tBndcuM: {
    const uint64_t v = EA_NOSEG();
    if (__builtin_expect(v > map.bnd_hi[rec->bnd], 0)) {
      pc = rec->target;
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d upper check failed for %s", rec->bnd,
                      Hex(v).c_str()));
    }
    TNEXT_CHECK(2);
  }
  tChkstk: {
    if (R[kRegSp] < stack_lo || R[kRegSp] >= stack_hi) {
      pc = rec->target;
      FAULT(VmFault::kChkstk, "rsp escaped the thread stack");
    }
    TNEXT(2);
  }
  tFAdd: {
    F[rec->rd] = F[rec->rs1] + F[rec->rs2];
    TNEXT_FP(3);
  }
  tFSub: {
    F[rec->rd] = F[rec->rs1] - F[rec->rs2];
    TNEXT_FP(3);
  }
  tFMul: {
    F[rec->rd] = F[rec->rs1] * F[rec->rs2];
    TNEXT_FP(3);
  }
  tFDiv: {
    F[rec->rd] = F[rec->rs1] / F[rec->rs2];
    TNEXT_FP(15);
  }
  tFNeg: {
    F[rec->rd] = -F[rec->rs1];
    TNEXT(1);
  }
  tFCmpEq: {
    R[rec->rd] = F[rec->rs1] == F[rec->rs2] ? 1 : 0;
    TNEXT(2);
  }
  tFCmpNe: {
    R[rec->rd] = F[rec->rs1] != F[rec->rs2] ? 1 : 0;
    TNEXT(2);
  }
  tFCmpLt: {
    R[rec->rd] = F[rec->rs1] < F[rec->rs2] ? 1 : 0;
    TNEXT(2);
  }
  tFCmpLe: {
    R[rec->rd] = F[rec->rs1] <= F[rec->rs2] ? 1 : 0;
    TNEXT(2);
  }
  tFCmpGt: {
    R[rec->rd] = F[rec->rs1] > F[rec->rs2] ? 1 : 0;
    TNEXT(2);
  }
  tFCmpGe: {
    R[rec->rd] = F[rec->rs1] >= F[rec->rs2] ? 1 : 0;
    TNEXT(2);
  }
  tCvtIF: {
    F[rec->rd] = static_cast<double>(static_cast<int64_t>(R[rec->rs1]));
    TNEXT(3);
  }
  tCvtFI: {
    const double v = F[rec->rs1];
    if (std::isnan(v) || v >= 9.2233720368547758e18 ||
        v <= -9.2233720368547758e18) {
      R[rec->rd] = static_cast<uint64_t>(INT64_MIN);
    } else {
      R[rec->rd] = static_cast<uint64_t>(static_cast<int64_t>(v));
    }
    TNEXT(3);
  }
  tMovIF: {
    memcpy(&F[rec->rd], &R[rec->rs1], 8);
    TNEXT(1);
  }
  tFMov: {
    F[rec->rd] = F[rec->rs1];
    TNEXT(1);
  }
  tNop: { TNEXT(1); }
  tSelect: {
    const uint64_t cond = R[rec->rs1];
    const uint64_t taken = R[rec->rs2];
    if (cond != 0) {
      R[rec->rd] = taken;
    }
    TNEXT(1);
  }
  tJmpInl: {
    // Static jmp whose target was inlined right behind it in the op stream:
    // charge the jump, no control transfer.
    TNEXT(1);
  }
  tGuardNZ: {
    if (R[rec->rd] != 0) {
      // Taken: leave the region through the outer dispatch, exactly as the
      // reference engine's END_JUMP would (budget/limit checks resume).
      END_JUMP(1, rec->target);
    }
    TNEXT(1);  // not taken: the fall-through is the next op in the stream
  }
  tGuardZ: {
    if (R[rec->rd] == 0) {
      END_JUMP(1, rec->target);
    }
    TNEXT(1);
  }
  tGuardNZT: {
    // Mirror guard: the TAKEN arm was inlined behind it, so falling through
    // the branch is the side exit (rec->target holds the fall-through word).
    if (R[rec->rd] != 0) {
      TNEXT(1);
    }
    END_JUMP(1, rec->target);
  }
  tGuardZT: {
    if (R[rec->rd] == 0) {
      TNEXT(1);
    }
    END_JUMP(1, rec->target);
  }
  // Fused cmp+guard: the cmp body runs (flag register IS written — later ops
  // and the side-exit path may read it), the guard element is counted before
  // it runs, and the exit leaves through END_JUMP exactly like the unfused
  // guard would (rec->target holds the side-exit word).
#define GEN_TCG(c)                      \
  tCG_##c##_ExitNZ: {                   \
    EBODY_##c(rec);                     \
    fp_credit = 0;                      \
    cycles += ECOST_##c;                \
    ++instrs;                           \
    if (R[rec->rd] != 0) {              \
      END_JUMP(1, rec->target);         \
    }                                   \
    TNEXT(1);                           \
  }                                     \
  tCG_##c##_ExitZ: {                    \
    EBODY_##c(rec);                     \
    fp_credit = 0;                      \
    cycles += ECOST_##c;                \
    ++instrs;                           \
    if (R[rec->rd] == 0) {              \
      END_JUMP(1, rec->target);         \
    }                                   \
    TNEXT(1);                           \
  }
  GEN_TCG(CmpEq)
  GEN_TCG(CmpNe)
  GEN_TCG(CmpLt)
  GEN_TCG(CmpLe)
  GEN_TCG(CmpGt)
  GEN_TCG(CmpGe)
#undef GEN_TCG
  // Fused addimm+cmp+guard (the counted-loop latch): the head runs from its
  // natural fields, the cmp from the SS packing (flag register in `base`),
  // and the guard element follows count-before-execute exactly like the
  // unfused sequence would.
#define GEN_T3A(b)                            \
  tT3A_##b##_ExitNZ: {                        \
    EBODY_AddImm(rec);                        \
    fp_credit = 0;                            \
    cycles += ECOST_AddImm;                   \
    ++instrs;                                 \
    PBODY_##b(rec);                           \
    cycles += ECOST_##b;                      \
    ++instrs;                                 \
    if (R[rec->base] != 0) {                  \
      END_JUMP(1, rec->target);               \
    }                                         \
    TNEXT(1);                                 \
  }                                           \
  tT3A_##b##_ExitZ: {                         \
    EBODY_AddImm(rec);                        \
    fp_credit = 0;                            \
    cycles += ECOST_AddImm;                   \
    ++instrs;                                 \
    PBODY_##b(rec);                           \
    cycles += ECOST_##b;                      \
    ++instrs;                                 \
    if (R[rec->base] == 0) {                  \
      END_JUMP(1, rec->target);               \
    }                                         \
    TNEXT(1);                                 \
  }
  GEN_T3A(CmpEq)
  GEN_T3A(CmpNe)
  GEN_T3A(CmpLt)
  GEN_T3A(CmpLe)
  GEN_T3A(CmpGt)
  GEN_T3A(CmpGe)
#undef GEN_T3A
  // Fused load+cmp+guard (the chain-walk probe): the load keeps its natural
  // operand and faults at its own word (rec->target), the cmp runs from the
  // MS packing (flag register in `rs1`), and the guard side-exits through
  // the word stashed in `imm`.
#define GEN_T3L(b)                                        \
  tT3L_##b##_ExitNZ: {                                    \
    pc = rec->target;                                     \
    PAIR_LOAD(rec->rd);                                   \
    fp_credit = 0;                                        \
    ++instrs;                                             \
    QBODY_##b(rec);                                       \
    cycles += ECOST_##b;                                  \
    ++instrs;                                             \
    if (R[rec->rs1] != 0) {                               \
      END_JUMP(1, static_cast<uint32_t>(rec->imm));       \
    }                                                     \
    TNEXT(1);                                             \
  }                                                       \
  tT3L_##b##_ExitZ: {                                     \
    pc = rec->target;                                     \
    PAIR_LOAD(rec->rd);                                   \
    fp_credit = 0;                                        \
    ++instrs;                                             \
    QBODY_##b(rec);                                       \
    cycles += ECOST_##b;                                  \
    ++instrs;                                             \
    if (R[rec->rs1] == 0) {                               \
      END_JUMP(1, static_cast<uint32_t>(rec->imm));       \
    }                                                     \
    TNEXT(1);                                             \
  }
  GEN_T3L(CmpEq)
  GEN_T3L(CmpNe)
  GEN_T3L(CmpLt)
  GEN_T3L(CmpLe)
  GEN_T3L(CmpGt)
  GEN_T3L(CmpGe)
#undef GEN_T3L
  tCallInl: {
    // Inlined static call: the return-address push runs for real (memory
    // write + cache traffic + fault semantics identical to the outer call
    // handler), then the callee's first op is simply the next in the
    // stream — no control transfer.
    R[kRegSp] -= 8;
    const uint64_t sp = R[kRegSp];
    const uint64_t ra = CodeAddr(rec->next);
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      memcpy(p, &ra, 8);
    } else if (!mem_.Write(sp, 8, ra)) {
      pc = rec->target;
      FAULT(VmFault::kUnmapped, "call: stack unmapped");
    }
    TNEXT(2 + cache_.AccessFast(sp));
  }
  tRetGuard: {
    // Inlined ret: pop and validate the REAL return address. When it lands
    // on the matching call's fall-through (the common case by construction)
    // the region continues in-stream; any other target side-exits through
    // the outer dispatch exactly like the base ret handler.
    const uint64_t sp = R[kRegSp];
    uint64_t ra = 0;
    if (uint8_t* p = mem_.FlatPtr(sp, 8)) {
      memcpy(&ra, p, 8);
    } else if (!mem_.Read(sp, 8, &ra)) {
      pc = rec->target;
      FAULT(VmFault::kUnmapped, "ret: stack unmapped");
    }
    R[kRegSp] += 8;
    if (!IsCodeAddr(ra) || ra % 8 != 0 || CodeIndex(ra) >= nrecs) {
      pc = rec->target;
      FAULT(VmFault::kBadJump, "ret to non-code address");
    }
    if (__builtin_expect(CodeIndex(ra) != static_cast<uint64_t>(rec->imm),
                         0)) {
      END_JUMP(2, CodeIndex(ra));
    }
    TNEXT(2);
  }
  tLoopBack: {
    // The region's terminating jmp back to its own leader: charge the jump,
    // then re-enter the region without the outer-dispatch round trip. The
    // reference engine would check budget/limit before the leader's first
    // instruction and before every instruction after it; both are folded
    // into the entry precheck (num_instrs - 1: the first instruction's own
    // check is part of the sum now, unlike at kHTraceRun where the outer
    // DISPATCH had already performed and counted it).
    fp_credit = 0;
    cycles += 1;
    if ((kBounded && cycles - start_cycles + tb->worst_cycles >= budget) ||
        __builtin_expect(instrs + tb->num_instrs - 1 >= max_instrs, 0)) {
      // Could stop mid-iteration: hand the leader back to the outer
      // dispatch, whose kHTraceRun precheck then bails to per-instruction
      // execution (or the slice ends right here if the budget is spent).
      pc = rec->target;
      DISPATCH();
    }
    ++instrs;  // the leader op, as the outer DISPATCH would count it
    ++tb->runs;
    rec = tb->ops.data();
    goto* kTL[rec->handler];
  }
  tTerm: {
    // The block's terminator keeps its natural record: restore pc and hand
    // it to the outer table's base handler, whose END_* epilogue re-enters
    // the outer dispatch (budget/limit checks resume at the block edge).
    // The preceding TNEXT already counted it, matching the outer DISPATCH.
    pc = tb->term;
    goto* kLabels[rec->handler];
  }
  tExit: {
    // Synthetic exit of a fall-through block: nothing executed — undo the
    // TNEXT count and let the outer dispatch replay the reference engine's
    // budget -> instruction-limit -> pc-bounds -> data-word fault order at
    // the next leader (rec->target == the block's `term` word).
    --instrs;
    pc = rec->target;
    DISPATCH();
  }

  // ---- in-region superinstructions: the image's fused families, minus the
  // mid-pair bail checks (the region entry prechecks already proved the
  // reference engine cannot stop between the elements). Accounting follows
  // the count-before-execute discipline: the first element was counted by
  // the previous advance, each further element is counted before it runs
  // (so a faulting access reports the exact instrs total), and the final
  // ++instrs pre-counts the next op exactly like TNEXT.

#define GEN_TSS(a, b)                 \
  tP_##a##_##b: {                     \
    EBODY_##a(rec);                   \
    PBODY_##b(rec);                   \
    fp_credit = 0;                    \
    cycles += ECOST_##a + ECOST_##b;  \
    ++rec;                            \
    instrs += 2;                      \
    goto* kTL[rec->handler];          \
  }
  CONFLLVM_PAIRS_SS(GEN_TSS)
#undef GEN_TSS

#define PAIR_Load PAIR_LOAD
#define PAIR_Store PAIR_STORE

#define GEN_TSM(a, m)                              \
  tP_##a##_##m: {                                  \
    EBODY_##a(rec);                                \
    fp_credit = 0;                                 \
    cycles += ECOST_##a;                           \
    pc = rec->next; /* the access may fault: B's word */ \
    ++instrs;                                      \
    PAIR_##m(rec->bnd);                            \
    ++rec;                                         \
    ++instrs;                                      \
    goto* kTL[rec->handler];                       \
  }
  CONFLLVM_PAIRS_SM(GEN_TSM)
#undef GEN_TSM

#define GEN_TMS(m, b)                              \
  tP_##m##_##b: {                                  \
    pc = rec->target; /* the access's own word */  \
    PAIR_##m(rec->rd);                             \
    fp_credit = 0;                                 \
    ++instrs;                                      \
    QBODY_##b(rec);                                \
    cycles += ECOST_##b;                           \
    ++rec;                                         \
    ++instrs;                                      \
    goto* kTL[rec->handler];                       \
  }
  CONFLLVM_PAIRS_MS(GEN_TMS)
#undef GEN_TMS

  // Prologue/epilogue pairs, packed like the image's (B's register in rs1).
  // The first push/pop faults at its own word (rec->target), the second at
  // the straight-line successor (rec->next).
  tP_Pop_Pop: {
    {
      const uint64_t sp = R[kRegSp];
      uint64_t v = 0;
      if (uint8_t* pm = mem_.FlatPtr(sp, 8)) {
        memcpy(&v, pm, 8);
      } else if (!mem_.Read(sp, 8, &v)) {
        pc = rec->target;
        FAULT(VmFault::kUnmapped, "pop from unmapped stack");
      }
      R[rec->rd] = v;
      cycles += 2 + cache_.AccessFast(sp);
      R[kRegSp] += 8;
    }
    fp_credit = 0;
    ++instrs;
    {
      const uint64_t sp = R[kRegSp];
      uint64_t v = 0;
      if (uint8_t* pm = mem_.FlatPtr(sp, 8)) {
        memcpy(&v, pm, 8);
      } else if (!mem_.Read(sp, 8, &v)) {
        pc = rec->next;
        FAULT(VmFault::kUnmapped, "pop from unmapped stack");
      }
      R[rec->rs1] = v;
      cycles += 2 + cache_.AccessFast(sp);
      R[kRegSp] += 8;
    }
    ++rec;
    ++instrs;
    goto* kTL[rec->handler];
  }
  tP_Push_Push: {
    R[kRegSp] -= 8;
    {
      const uint64_t sp = R[kRegSp];
      if (uint8_t* pm = mem_.FlatPtr(sp, 8)) {
        const uint64_t v = R[rec->rd];
        memcpy(pm, &v, 8);
      } else if (!mem_.Write(sp, 8, R[rec->rd])) {
        pc = rec->target;
        FAULT(VmFault::kUnmapped, "push to unmapped stack");
      }
      cycles += 2 + cache_.AccessFast(sp);
    }
    fp_credit = 0;
    ++instrs;
    R[kRegSp] -= 8;
    {
      const uint64_t sp = R[kRegSp];
      if (uint8_t* pm = mem_.FlatPtr(sp, 8)) {
        const uint64_t v = R[rec->rs1];
        memcpy(pm, &v, 8);
      } else if (!mem_.Write(sp, 8, R[rec->rs1])) {
        pc = rec->next;
        FAULT(VmFault::kUnmapped, "push to unmapped stack");
      }
      cycles += 2 + cache_.AccessFast(sp);
    }
    ++rec;
    ++instrs;
    goto* kTL[rec->handler];
  }
  // The MPX sandwich triple, packed exactly like the image's: shared
  // checked register/bounds id in rs1/bnd, the access in the natural
  // memory-operand fields with its register in rd and its word in imm.
#define GEN_TT_BND(m)                                               \
  tT_BndBnd_##m: {                                                  \
    const uint64_t v = R[rec->rs1];                                 \
    if (__builtin_expect(v < map.bnd_lo[rec->bnd], 0)) {            \
      pc = rec->target;                                             \
      FAULT(VmFault::kBndViolation,                                 \
            StrFormat("bnd%d lower check failed for %s", rec->bnd,  \
                      Hex(v).c_str()));                             \
    }                                                               \
    const uint64_t c1_ = fp_credit > 0 ? 0 : 1;                     \
    ++s_checks;                                                     \
    s_check_cyc += c1_;                                             \
    if (fp_credit > 0) --fp_credit;                                 \
    cycles += c1_;                                                  \
    ++instrs;                                                       \
    if (__builtin_expect(v > map.bnd_hi[rec->bnd], 0)) {            \
      pc = rec->next;                                               \
      FAULT(VmFault::kBndViolation,                                 \
            StrFormat("bnd%d upper check failed for %s", rec->bnd,  \
                      Hex(v).c_str()));                             \
    }                                                               \
    const uint64_t c2_ = fp_credit > 0 ? 0 : 1;                     \
    ++s_checks;                                                     \
    s_check_cyc += c2_;                                             \
    if (fp_credit > 0) --fp_credit;                                 \
    cycles += c2_;                                                  \
    pc = static_cast<uint64_t>(rec->imm); /* the access word */     \
    ++instrs;                                                       \
    fp_credit = 0;                                                  \
    PAIR_##m(rec->rd);                                              \
    ++rec;                                                          \
    ++instrs;                                                       \
    goto* kTL[rec->handler];                                        \
  }
  GEN_TT_BND(Load)
  GEN_TT_BND(Store)
  GEN_TT_BND(FLoad)
  GEN_TT_BND(FStore)
#undef GEN_TT_BND

#undef TNEXT
#undef TNEXT_MEM
#undef TNEXT_FP
#undef TNEXT_CHECK
#endif  // CONFLLVM_COMPUTED_GOTO

  // ---- fused pairs: two instructions per dispatch ----
  //
  // Each pair: prove the inter-instruction checks cannot trigger (else bail
  // to the first element's base handler), run both bodies off the one
  // record, then account both elements at once.
#define GEN_SS(a, b)                                   \
  CASE(kHP_##a##_##b) {                                \
    if (PAIR_MUST_BAIL(ECOST_##a)) goto kH##a##_lbl;   \
    EBODY_##a(rec);                                    \
    PBODY_##b(rec);                                    \
    ++instrs;                                          \
    fp_credit = 0;                                     \
    cycles += ECOST_##a + ECOST_##b;                   \
    pc = rec->target; /* second element's next */      \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_SS(GEN_SS)
#undef GEN_SS

#define GEN_SJ(a)                                      \
  CASE(kHP_##a##_Jmp) {                                \
    if (PAIR_MUST_BAIL(ECOST_##a)) goto kH##a##_lbl;   \
    EBODY_##a(rec);                                    \
    ++instrs;                                          \
    fp_credit = 0;                                     \
    cycles += ECOST_##a + 1;                           \
    pc = rec->target; /* the jmp's target */           \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_SJ(GEN_SJ)
#undef GEN_SJ

#define GEN_JS(b)                                      \
  CASE(kHP_Jmp_##b) {                                  \
    if (PAIR_MUST_BAIL(1)) goto kHJmp_lbl;             \
    PBODY_##b(rec);                                    \
    ++instrs;                                          \
    fp_credit = 0;                                     \
    cycles += 1 + ECOST_##b;                           \
    pc = static_cast<uint32_t>(rec->disp); /* B next */ \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_JS(GEN_JS)
#undef GEN_JS

#define PAIR_TAKEN_Jnz(v) ((v) != 0)
#define PAIR_TAKEN_Jz(v) ((v) == 0)
#define GEN_CB(a, br)                                              \
  CASE(kHP_##a##_##br) {                                           \
    if (PAIR_MUST_BAIL(1)) goto kH##a##_lbl;                       \
    EBODY_##a(rec);                                                \
    ++instrs;                                                      \
    fp_credit = 0;                                                 \
    cycles += 2;                                                   \
    pc = PAIR_TAKEN_##br(R[PRD(rec)])                              \
             ? static_cast<uint32_t>(rec->disp) /* branch target */ \
             : rec->target;                      /* branch next */  \
    DISPATCH();                                                    \
  }
  CONFLLVM_PAIRS_CB(GEN_CB)
#undef GEN_CB

#define GEN_BB(br)                                     \
  CASE(kHP_##br##_Jmp) {                               \
    if (PAIR_TAKEN_##br(R[rec->rd])) {                 \
      END_JUMP(1, rec->target); /* A alone */          \
    }                                                  \
    if (PAIR_MUST_BAIL(1)) goto kH##br##_lbl;          \
    ++instrs;                                          \
    fp_credit = 0;                                     \
    cycles += 2;                                       \
    pc = static_cast<uint32_t>(rec->disp); /* the jmp's target */ \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_BB(GEN_BB)
#undef GEN_BB

  // cond branch -> its fallthrough simple op: taken = branch alone; not
  // taken = both in one dispatch (B packed SS-style, pair next in disp).
#define GEN_BS(br, b)                                  \
  CASE(kHP_##br##_##b) {                               \
    if (PAIR_TAKEN_##br(R[rec->rd])) {                 \
      END_JUMP(1, rec->target);                        \
    }                                                  \
    if (PAIR_MUST_BAIL(1)) goto kH##br##_lbl;          \
    ++instrs;                                          \
    PBODY_##b(rec);                                    \
    fp_credit = 0;                                     \
    cycles += 1 + ECOST_##b;                           \
    pc = static_cast<uint32_t>(rec->disp);             \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_BS(GEN_BS)
#undef GEN_BS
#undef PAIR_TAKEN_Jnz
#undef PAIR_TAKEN_Jz

  CASE(kHP_Add_BndclR) {
    if (PAIR_MUST_BAIL(1)) goto kHAdd_lbl;
    EBODY_Add(rec);
    // fp_credit resets after the add, so the check costs exactly 1.
    fp_credit = 0;
    cycles += 1;
    pc = rec->next;
    ++instrs;
    const uint64_t v = R[rec->base];
    if (__builtin_expect(v < map.bnd_lo[rec->size], 0)) {
      FAULT(VmFault::kBndViolation,
            StrFormat("bnd%d lower check failed for %s", rec->size,
                      Hex(v).c_str()));
    }
    ++s_checks;
    s_check_cyc += 1;
    cycles += 1;
    pc = rec->target;
    DISPATCH();
  }

#define PAIR_Load PAIR_LOAD
#define PAIR_Store PAIR_STORE

  // simple -> load/store: the memory operand sits in the record's natural
  // fields, the access register in `bnd`.
#define GEN_SM(a, m)                                   \
  CASE(kHP_##a##_##m) {                                \
    if (PAIR_MUST_BAIL(ECOST_##a)) goto kH##a##_lbl;   \
    EBODY_##a(rec);                                    \
    fp_credit = 0;                                     \
    cycles += ECOST_##a;                               \
    pc = rec->next; /* the access may fault: B's pc */ \
    ++instrs;                                          \
    PAIR_##m(rec->bnd);                                \
    pc = rec->target;                                  \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_SM(GEN_SM)
#undef GEN_SM

  // load/store -> simple: the second element packs into rs1/rs2/bnd/imm.
#define GEN_MS(m, b)                                   \
  CASE(kHP_##m##_##b) {                                \
    if (PAIR_MUST_BAIL_DYN()) goto kH##m##_lbl;        \
    PAIR_##m(rec->rd);                                 \
    fp_credit = 0;                                     \
    ++instrs;                                          \
    QBODY_##b(rec);                                    \
    cycles += ECOST_##b;                               \
    pc = rec->target;                                  \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_MS(GEN_MS)
#undef GEN_MS

  // bndcu -> the guarded access (the tail of the MPX check sandwich; the
  // access register rides in rd, which a bndcu never uses).
#define GEN_BM(unused_a, m)                                        \
  CASE(kHP_BndcuR_##m) {                                           \
    if (PAIR_MUST_BAIL_DYN()) goto kHBndcuR_lbl;                   \
    const uint64_t v = R[rec->rs1];                                \
    if (__builtin_expect(v > map.bnd_hi[rec->bnd], 0)) {           \
      FAULT(VmFault::kBndViolation,                                \
            StrFormat("bnd%d upper check failed for %s", rec->bnd, \
                      Hex(v).c_str()));                            \
    }                                                              \
    const uint64_t c1_ = fp_credit > 0 ? 0 : 1;                    \
    ++s_checks;                                                    \
    s_check_cyc += c1_;                                            \
    if (fp_credit > 0) --fp_credit;                                \
    cycles += c1_;                                                 \
    pc = rec->next;                                                \
    ++instrs;                                                      \
    fp_credit = 0;                                                 \
    PAIR_##m(rec->rd);                                             \
    pc = rec->target;                                              \
    DISPATCH();                                                    \
  }
  CONFLLVM_PAIRS_BM(GEN_BM)
#undef GEN_BM

  CASE(kHP_Pop_Pop) {
    if (PAIR_MUST_BAIL_DYN()) goto kHPop_lbl;
    {
      const uint64_t sp = R[kRegSp];
      uint64_t v = 0;
      if (uint8_t* pm = mem_.FlatPtr(sp, 8)) {
        memcpy(&v, pm, 8);
      } else if (!mem_.Read(sp, 8, &v)) {
        FAULT(VmFault::kUnmapped, "pop from unmapped stack");
      }
      R[rec->rd] = v;
      cycles += 2 + cache_.AccessFast(sp);
      R[kRegSp] += 8;
    }
    fp_credit = 0;
    pc = rec->next;
    ++instrs;
    {
      const uint64_t sp = R[kRegSp];
      uint64_t v = 0;
      if (uint8_t* pm = mem_.FlatPtr(sp, 8)) {
        memcpy(&v, pm, 8);
      } else if (!mem_.Read(sp, 8, &v)) {
        FAULT(VmFault::kUnmapped, "pop from unmapped stack");
      }
      R[rec->rs1] = v;
      cycles += 2 + cache_.AccessFast(sp);
      R[kRegSp] += 8;
    }
    pc = rec->target;
    DISPATCH();
  }

  CASE(kHP_Push_Push) {
    if (PAIR_MUST_BAIL_DYN()) goto kHPush_lbl;
    R[kRegSp] -= 8;
    {
      const uint64_t sp = R[kRegSp];
      if (uint8_t* pm = mem_.FlatPtr(sp, 8)) {
        const uint64_t v = R[rec->rd];
        memcpy(pm, &v, 8);
      } else if (!mem_.Write(sp, 8, R[rec->rd])) {
        FAULT(VmFault::kUnmapped, "push to unmapped stack");
      }
      cycles += 2 + cache_.AccessFast(sp);
    }
    fp_credit = 0;
    pc = rec->next;
    ++instrs;
    R[kRegSp] -= 8;
    {
      const uint64_t sp = R[kRegSp];
      if (uint8_t* pm = mem_.FlatPtr(sp, 8)) {
        const uint64_t v = R[rec->rs1];
        memcpy(pm, &v, 8);
      } else if (!mem_.Write(sp, 8, R[rec->rs1])) {
        FAULT(VmFault::kUnmapped, "push to unmapped stack");
      }
      cycles += 2 + cache_.AccessFast(sp);
    }
    pc = rec->target;
    DISPATCH();
  }

  // ---- float pairs ----
#define GEN_FF(a, b)                                  \
  CASE(kHP_##a##_##b) {                               \
    if (PAIR_MUST_BAIL(3)) goto kH##a##_lbl;          \
    FBODY_##a(rec);                                   \
    ++instrs;                                         \
    PFBODY_##b(rec);                                  \
    fp_credit = 1; /* last element is FP arith */     \
    cycles += 6;                                      \
    pc = rec->target;                                 \
    DISPATCH();                                       \
  }
  CONFLLVM_PAIRS_FF(GEN_FF)
#undef GEN_FF

#define GEN_FMS(m, b)                                 \
  CASE(kHP_##m##_##b) {                               \
    if (PAIR_MUST_BAIL_DYN()) goto kH##m##_lbl;       \
    PAIR_##m(rec->rd);                                \
    ++instrs;                                         \
    QFBODY_##b(rec);                                  \
    fp_credit = 1;                                    \
    cycles += 3;                                      \
    pc = rec->target;                                 \
    DISPATCH();                                       \
  }
  CONFLLVM_PAIRS_FMS(GEN_FMS)
#undef GEN_FMS

  // int simple -> float load/store (same shape as GEN_SM).
#define GEN_SFM(a, m)                                  \
  CASE(kHP_##a##_##m) {                                \
    if (PAIR_MUST_BAIL(ECOST_##a)) goto kH##a##_lbl;   \
    EBODY_##a(rec);                                    \
    fp_credit = 0;                                     \
    cycles += ECOST_##a;                               \
    pc = rec->next;                                    \
    ++instrs;                                          \
    PAIR_##m(rec->bnd);                                \
    pc = rec->target;                                  \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_SFM(GEN_SFM)
#undef GEN_SFM

  // float load/store -> int simple (same shape as GEN_MS).
#define GEN_FMI(m, b)                                  \
  CASE(kHP_##m##_##b) {                                \
    if (PAIR_MUST_BAIL_DYN()) goto kH##m##_lbl;        \
    PAIR_##m(rec->rd);                                 \
    fp_credit = 0;                                     \
    ++instrs;                                          \
    QBODY_##b(rec);                                    \
    cycles += ECOST_##b;                               \
    pc = rec->target;                                  \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_FMI(GEN_FMI)
#undef GEN_FMI

  // float arith -> int simple.
#define GEN_FAS(a, b)                                  \
  CASE(kHP_##a##_##b) {                                \
    if (PAIR_MUST_BAIL(3)) goto kH##a##_lbl;           \
    FBODY_##a(rec);                                    \
    ++instrs;                                          \
    PBODY_##b(rec);                                    \
    fp_credit = 0;                                     \
    cycles += 3 + ECOST_##b;                           \
    pc = rec->target;                                  \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_FAS(GEN_FAS)
#undef GEN_FAS

  // imm -> float-bit materialization (movimm64; movif).
#define GEN_SIF(a, b)                                  \
  CASE(kHP_##a##_##b) {                                \
    if (PAIR_MUST_BAIL(1)) goto kH##a##_lbl;           \
    EBODY_##a(rec);                                    \
    ++instrs;                                          \
    PBODY_##b(rec);                                    \
    fp_credit = 0;                                     \
    cycles += 2;                                       \
    pc = rec->target;                                  \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_SIF(GEN_SIF)
#undef GEN_SIF

  // CFI magic materialization: imm -> not (SS shape).
#define GEN_SN(a, b)                                   \
  CASE(kHP_##a##_##b) {                                \
    if (PAIR_MUST_BAIL(ECOST_##a)) goto kH##a##_lbl;   \
    EBODY_##a(rec);                                    \
    ++instrs;                                          \
    PBODY_##b(rec);                                    \
    fp_credit = 0;                                     \
    cycles += ECOST_##a + ECOST_##b;                   \
    pc = rec->target;                                  \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_SN(GEN_SN)
#undef GEN_SN

  // pop -> simple: the CFI return sequence's head (pop RA; movimm64 magic).
#define GEN_PS(b)                                            \
  CASE(kHP_Pop_##b) {                                        \
    if (PAIR_MUST_BAIL_DYN()) goto kHPop_lbl;                \
    {                                                        \
      const uint64_t sp_ = R[kRegSp];                        \
      uint64_t v_ = 0;                                       \
      if (uint8_t* pm_ = mem_.FlatPtr(sp_, 8)) {             \
        memcpy(&v_, pm_, 8);                                 \
      } else if (!mem_.Read(sp_, 8, &v_)) {                  \
        FAULT(VmFault::kUnmapped, "pop from unmapped stack"); \
      }                                                      \
      R[rec->rd] = v_;                                       \
      cycles += 2 + cache_.AccessFast(sp_);                  \
      R[kRegSp] += 8;                                        \
    }                                                        \
    ++instrs;                                                \
    QBODY_##b(rec);                                          \
    fp_credit = 0;                                           \
    cycles += ECOST_##b;                                     \
    pc = rec->target;                                        \
    DISPATCH();                                              \
  }
  CONFLLVM_PAIRS_PS(GEN_PS)
#undef GEN_PS

  // loadcode -> magic compare (the taint-aware CFI check core).
#define GEN_LC(b)                                                    \
  CASE(kHP_LoadCode_##b) {                                           \
    if (PAIR_MUST_BAIL(2)) goto kHLoadCode_lbl;                      \
    const uint64_t a_ = R[rec->rs1];                                 \
    if (!IsCodeAddr(a_) || a_ % 8 != 0 || CodeIndex(a_) >= nrecs) {  \
      FAULT(VmFault::kBadJump, "loadcode outside code");             \
    }                                                                \
    R[rec->rd] = code[CodeIndex(a_)];                                \
    ++s_cfi;                                                         \
    ++instrs;                                                        \
    PBODY_##b(rec); /* packed SS-style: loadcode has no mem operand */ \
    fp_credit = 0;                                                   \
    cycles += 3;                                                     \
    pc = rec->target;                                                \
    DISPATCH();                                                      \
  }
  CONFLLVM_PAIRS_LC(GEN_LC)
#undef GEN_LC

  CASE(kHP_Not_LoadCode) {
    if (PAIR_MUST_BAIL(1)) goto kHNot_lbl;
    EBODY_Not(rec);
    cycles += 1;
    pc = rec->next;  // the loadcode may fault
    ++instrs;
    const uint64_t a_ = R[PRS1(rec)];
    if (!IsCodeAddr(a_) || a_ % 8 != 0 || CodeIndex(a_) >= nrecs) {
      FAULT(VmFault::kBadJump, "loadcode outside code");
    }
    R[PRD(rec)] = code[CodeIndex(a_)];
    ++s_cfi;
    fp_credit = 0;
    cycles += 2;
    pc = rec->target;
    DISPATCH();
  }

  // cond branch fused with its TAKEN arm (chosen for backward/loop edges):
  // not taken = the branch alone; taken = branch + target instruction
  // (packed SS-style, arm continuation in disp).
#define PAIR_TAKEN_JnzT(v) ((v) != 0)
#define PAIR_TAKEN_JzT(v) ((v) == 0)
#define BASE_LBL_JnzT kHJnz_lbl
#define BASE_LBL_JzT kHJz_lbl
#define GEN_BT(br, b)                                  \
  CASE(kHP_##br##_##b) {                               \
    if (!PAIR_TAKEN_##br(R[rec->rd])) {                \
      END_JUMP(1, rec->next);                          \
    }                                                  \
    if (PAIR_MUST_BAIL(1)) goto BASE_LBL_##br;         \
    ++instrs;                                          \
    PBODY_##b(rec);                                    \
    fp_credit = 0;                                     \
    cycles += 1 + ECOST_##b;                           \
    pc = static_cast<uint32_t>(rec->disp);             \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_BT(GEN_BT)
#undef GEN_BT
#undef PAIR_TAKEN_JnzT
#undef PAIR_TAKEN_JzT
#undef BASE_LBL_JnzT
#undef BASE_LBL_JzT

  CASE(kHP_AddImm_JmpReg) {
    if (PAIR_MUST_BAIL(1)) goto kHAddImm_lbl;
    EBODY_AddImm(rec);
    cycles += 1;
    pc = rec->next;  // the jmpreg may fault
    ++instrs;
    const uint64_t tgt_ = R[PRS1(rec)];
    if (!IsCodeAddr(tgt_) || tgt_ % 8 != 0 || CodeIndex(tgt_) >= nrecs) {
      FAULT(VmFault::kBadJump, "jmpreg to non-code address");
    }
    fp_credit = 0;
    cycles += 2;
    pc = CodeIndex(tgt_);
    DISPATCH();
  }

  // ---- the MPX sandwich triple: bndcl; bndcu; access ----
  // The builder guarantees both checks test the same register against the
  // same bounds-register id, so the record's rs1/bnd serve both; the access
  // sits in the natural memory-operand fields with its register in rd and
  // its word index in imm (for the fault pc).
#define GEN_T_BND(m)                                                 \
  CASE(kHT_BndBnd_##m) {                                             \
    if (kBounded || __builtin_expect(instrs + 2 >= max_instrs, 0))   \
      goto kHBndclR_lbl;                                             \
    const uint64_t v = R[rec->rs1];                                  \
    if (__builtin_expect(v < map.bnd_lo[rec->bnd], 0)) {             \
      FAULT(VmFault::kBndViolation,                                  \
            StrFormat("bnd%d lower check failed for %s", rec->bnd,   \
                      Hex(v).c_str()));                              \
    }                                                                \
    const uint64_t c1_ = fp_credit > 0 ? 0 : 1;                      \
    ++s_checks;                                                      \
    s_check_cyc += c1_;                                              \
    if (fp_credit > 0) --fp_credit;                                  \
    cycles += c1_;                                                   \
    pc = rec->next;                                                  \
    ++instrs;                                                        \
    if (__builtin_expect(v > map.bnd_hi[rec->bnd], 0)) {             \
      FAULT(VmFault::kBndViolation,                                  \
            StrFormat("bnd%d upper check failed for %s", rec->bnd,   \
                      Hex(v).c_str()));                              \
    }                                                                \
    const uint64_t c2_ = fp_credit > 0 ? 0 : 1;                      \
    ++s_checks;                                                      \
    s_check_cyc += c2_;                                              \
    if (fp_credit > 0) --fp_credit;                                  \
    cycles += c2_;                                                   \
    pc = static_cast<uint64_t>(rec->imm); /* the access word */      \
    ++instrs;                                                        \
    fp_credit = 0;                                                   \
    PAIR_##m(rec->rd);                                               \
    pc = rec->target;                                                \
    DISPATCH();                                                      \
  }
  GEN_T_BND(Load)
  GEN_T_BND(Store)
  GEN_T_BND(FLoad)
  GEN_T_BND(FStore)
#undef GEN_T_BND

#if !CONFLLVM_COMPUTED_GOTO
  }
  FAULT(VmFault::kExecData, "invalid instruction");  // unknown handler id
#endif

done:
  FLUSH_THREAD();
  FLUSH_STATS();
}

#undef FLUSH_THREAD
#undef FLUSH_STATS

#undef CASE
#undef DISPATCH_TARGET
#undef PIN_IN_REG
#undef DISPATCH_AS
#undef FAULT
#undef DISPATCH
#undef END_OP
#undef END_FPARITH
#undef END_JUMP
#undef END_CHECK
#undef EA_SEG
#undef EA_NOSEG

}  // namespace confllvm
