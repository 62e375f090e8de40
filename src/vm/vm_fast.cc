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
//  * dispatch is computed-goto over pre-resolved handler ids, with condition
//    codes specialized per handler;
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
// Each base op of exec_image.h's op table is written once, as an OP_<name>
// body below. The table expands those bodies into the outer handlers, the
// trace tier's region handlers and every fused pair's elements; only the
// control transfers are written by hand, and they run in the outer loop.
//
// Integer registers live in a 32-entry array whose upper half is zero so
// that kNoMReg (31) memory-operand fields read as 0 without a branch.
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "src/isa/layout.h"
#include "src/support/strings.h"
#include "src/vm/exec_image.h"
#include "src/vm/trace_tier.h"
#include "src/vm/vm.h"

#if !defined(__GNUC__) && !defined(__clang__)
#error "vm_fast.cc needs GCC or Clang: its dispatch uses labels as values"
#endif

namespace confllvm {

#define CASE(h) h##_lbl:
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

// One fault: leave the loop through the one exit that records it with the
// current instruction's pc. (A single exit keeps `t` off the hot path:
// with a store through `t` at every fault site, GCC gives `t` the register
// the FP credit otherwise gets.)
#define FAULT(f, msg)        \
  do {                       \
    fault_kind = (f);        \
    fault_msg = (msg);       \
    goto fault;              \
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
    goto* kLabels[rec->handler];                                       \
  } while (0)

// ---- epilogue hooks ----
//
// ACCT charges base op `h` its table cost plus the dynamic part `x` (a
// memory op's cache penalty), with the reference postlude's FP/MPX
// dual-issue bookkeeping: FP arithmetic leaves one credit, a bound check
// consumes it (and is then free), anything else clears it. END_OP continues
// at the record's fall-through word, TNEXT at the next op of a promoted
// region's op list (see kHTraceRun), and a fused pair's elements use ACCT
// alone.
#define COST(h) kBaseOps[h].cost
#define ACCT(h, x)                                                  \
  do {                                                              \
    if constexpr (kBaseOps[h].kind == OpKind::kCheck) {             \
      const uint64_t c_ = fp_credit > 0 ? 0 : COST(h);              \
      ++s_checks;                                                   \
      s_check_cyc += c_;                                            \
      if (fp_credit > 0) --fp_credit;                               \
      cycles += c_;                                                 \
    } else {                                                        \
      fp_credit = kBaseOps[h].kind == OpKind::kFpArith ? 1 : 0;     \
      cycles += COST(h) + (x);                                      \
    }                                                               \
  } while (0)
#define END_OP(h, x)    \
  do {                  \
    ACCT(h, x);         \
    pc = rec->next;     \
    DISPATCH();         \
  } while (0)
#define TADVANCE()             \
  do {                         \
    ++rec;                     \
    ++instrs;                  \
    goto* kTL[rec->handler];   \
  } while (0)
#define TNEXT(h, x)  \
  do {               \
    ACCT(h, x);      \
    TADVANCE();      \
  } while (0)
#define END_JUMP(c, np)              \
  do {                               \
    fp_credit = 0;                   \
    cycles += (c);                   \
    pc = (np);                       \
    DISPATCH();                      \
  } while (0)

// ---- operand hooks: where an op's register and immediate operands live ----
//
// OPN reads the record's natural fields. A fused pair packs its second
// element into the first record's unused fields (BuildExecImage and
// TraceTier::Promote): OPP behind a first element without a memory operand
// (base/index/scale/size/seg_base), OPQ behind a memory first element
// (rs1/rs2/bnd/imm), OPB for a memory access behind a simple op (its
// register rides in bnd). A memory operand always sits in the natural
// fields.
#define OPN(f) rec->f
#define OPP(f) OPP_##f
#define OPP_rd rec->base
#define OPP_rs1 rec->index
#define OPP_rs2 rec->scale
#define OPP_bnd rec->size
#define OPP_imm static_cast<int64_t>(rec->seg_base)
#define OPQ(f) OPQ_##f
#define OPQ_rd rec->rs1
#define OPQ_rs1 rec->rs2
#define OPQ_rs2 rec->bnd
#define OPQ_imm rec->imm
#define OPB(f) OPB_##f
#define OPB_rd rec->bnd

// ---- fault-pc hooks: make `pc` the faulting op's word before a fault ----
#define FPC_CUR()  // the outer loop: pc already is the op's word
#define FPC_TARGET() pc = rec->target  // region op: its own word in target
#define FPC_NEXT() pc = rec->next      // a pair's second element
#define FPC_IMM() pc = static_cast<uint64_t>(rec->imm)  // a triple's access
// An element position whose record has no slot for its word; only ops that
// cannot fault may be placed there.
#define FPC_NONE() static_assert(sizeof(rec) == 0, "no fault pc here")
#define OP_FAULT(PC, f, msg) \
  do {                       \
    PC();                    \
    FAULT(f, msg);           \
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

// ---- one body per base op ----
//
// OP_<name>(O, PC, E, H) is op H's semantics against the three hooks above:
// O for operands, PC for the fault pc, E for the epilogue. ELEM supplies H.
#define ELEM(name, O, PC, E) OP_##name(O, PC, E, kH##name)

#define OP_ALU(O, E, H, expr) \
  {                           \
    R[O(rd)] = (expr);        \
    E(H, 0);                  \
  }
#define SREG(O, f) static_cast<int64_t>(R[O(f)])
#define OP_MovImm(O, PC, E, H) OP_ALU(O, E, H, static_cast<uint64_t>(O(imm)))
#define OP_Mov(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)])
#define OP_Add(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] + R[O(rs2)])
#define OP_Sub(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] - R[O(rs2)])
#define OP_Mul(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] * R[O(rs2)])
#define OP_And(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] & R[O(rs2)])
#define OP_Or(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] | R[O(rs2)])
#define OP_Xor(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] ^ R[O(rs2)])
#define OP_Shl(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] << (R[O(rs2)] & 63))
#define OP_Shr(O, PC, E, H) \
  OP_ALU(O, E, H, static_cast<uint64_t>(SREG(O, rs1) >> (R[O(rs2)] & 63)))
#define OP_AddImm(O, PC, E, H) \
  OP_ALU(O, E, H, R[O(rs1)] + static_cast<uint64_t>(O(imm)))
#define OP_Neg(O, PC, E, H) OP_ALU(O, E, H, ~R[O(rs1)] + 1)
#define OP_Not(O, PC, E, H) OP_ALU(O, E, H, ~R[O(rs1)])
#define OP_CmpEq(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] == R[O(rs2)] ? 1 : 0)
#define OP_CmpNe(O, PC, E, H) OP_ALU(O, E, H, R[O(rs1)] != R[O(rs2)] ? 1 : 0)
#define OP_CmpLt(O, PC, E, H) \
  OP_ALU(O, E, H, SREG(O, rs1) < SREG(O, rs2) ? 1 : 0)
#define OP_CmpLe(O, PC, E, H) \
  OP_ALU(O, E, H, SREG(O, rs1) <= SREG(O, rs2) ? 1 : 0)
#define OP_CmpGt(O, PC, E, H) \
  OP_ALU(O, E, H, SREG(O, rs1) > SREG(O, rs2) ? 1 : 0)
#define OP_CmpGe(O, PC, E, H) \
  OP_ALU(O, E, H, SREG(O, rs1) >= SREG(O, rs2) ? 1 : 0)
#define OP_Lea(O, PC, E, H) OP_ALU(O, E, H, EA_NOSEG())
#define OP_FCmpEq(O, PC, E, H) OP_ALU(O, E, H, F[O(rs1)] == F[O(rs2)] ? 1 : 0)
#define OP_FCmpNe(O, PC, E, H) OP_ALU(O, E, H, F[O(rs1)] != F[O(rs2)] ? 1 : 0)
#define OP_FCmpLt(O, PC, E, H) OP_ALU(O, E, H, F[O(rs1)] < F[O(rs2)] ? 1 : 0)
#define OP_FCmpLe(O, PC, E, H) OP_ALU(O, E, H, F[O(rs1)] <= F[O(rs2)] ? 1 : 0)
#define OP_FCmpGt(O, PC, E, H) OP_ALU(O, E, H, F[O(rs1)] > F[O(rs2)] ? 1 : 0)
#define OP_FCmpGe(O, PC, E, H) OP_ALU(O, E, H, F[O(rs1)] >= F[O(rs2)] ? 1 : 0)

#define OP_FPU(O, E, H, expr) \
  {                           \
    F[O(rd)] = (expr);        \
    E(H, 0);                  \
  }
#define OP_FAdd(O, PC, E, H) OP_FPU(O, E, H, F[O(rs1)] + F[O(rs2)])
#define OP_FSub(O, PC, E, H) OP_FPU(O, E, H, F[O(rs1)] - F[O(rs2)])
#define OP_FMul(O, PC, E, H) OP_FPU(O, E, H, F[O(rs1)] * F[O(rs2)])
#define OP_FDiv(O, PC, E, H) OP_FPU(O, E, H, F[O(rs1)] / F[O(rs2)])
#define OP_FNeg(O, PC, E, H) OP_FPU(O, E, H, -F[O(rs1)])
#define OP_FMov(O, PC, E, H) OP_FPU(O, E, H, F[O(rs1)])
#define OP_CvtIF(O, PC, E, H) \
  OP_FPU(O, E, H, static_cast<double>(SREG(O, rs1)))

// Signed division: x64 would trap on INT64_MIN / -1; the vISA defines it.
#define OP_DIVREM(O, PC, E, H, expr)                               \
  {                                                                \
    const int64_t a_ = SREG(O, rs1);                               \
    const int64_t b_ = SREG(O, rs2);                               \
    if (__builtin_expect(b_ == 0, 0)) {                            \
      OP_FAULT(PC, VmFault::kDivZero, "division by zero");         \
    }                                                              \
    R[O(rd)] = (expr);                                             \
    E(H, 0);                                                       \
  }
#define OP_Div(O, PC, E, H)                                          \
  OP_DIVREM(O, PC, E, H,                                             \
            (a_ == INT64_MIN && b_ == -1)                            \
                ? static_cast<uint64_t>(INT64_MIN)                   \
                : static_cast<uint64_t>(a_ / b_))
#define OP_Rem(O, PC, E, H)                                          \
  OP_DIVREM(O, PC, E, H,                                             \
            (a_ == INT64_MIN && b_ == -1) ? 0                        \
                                          : static_cast<uint64_t>(a_ % b_))

#define OP_CvtFI(O, PC, E, H)                                        \
  {                                                                  \
    const double v_ = F[O(rs1)];                                     \
    if (std::isnan(v_) || v_ >= 9.2233720368547758e18 ||             \
        v_ <= -9.2233720368547758e18) {                              \
      R[O(rd)] = static_cast<uint64_t>(INT64_MIN);                   \
    } else {                                                         \
      R[O(rd)] = static_cast<uint64_t>(static_cast<int64_t>(v_));    \
    }                                                                \
    E(H, 0);                                                         \
  }
#define OP_MovIF(O, PC, E, H)            \
  {                                      \
    memcpy(&F[O(rd)], &R[O(rs1)], 8);    \
    E(H, 0);                             \
  }
#define OP_Nop(O, PC, E, H) \
  { E(H, 0); }
// rd = (rs1 != 0) ? rs2 : rd — read both sources before the write (rs1/rs2
// may alias rd).
#define OP_Select(O, PC, E, H)             \
  {                                        \
    const uint64_t cond_ = R[O(rs1)];      \
    const uint64_t taken_ = R[O(rs2)];     \
    if (cond_ != 0) {                      \
      R[O(rd)] = taken_;                   \
    }                                      \
    E(H, 0);                               \
  }
#define OP_LoadCode(O, PC, E, H)                                          \
  {                                                                       \
    const uint64_t a_ = R[O(rs1)];                                        \
    if (__builtin_expect(                                                 \
            !IsCodeAddr(a_) || a_ % 8 != 0 || CodeIndex(a_) >= nrecs, 0)) { \
      OP_FAULT(PC, VmFault::kBadJump, "loadcode outside code");           \
    }                                                                     \
    R[O(rd)] = code[CodeIndex(a_)];                                       \
    ++s_cfi;                                                              \
    E(H, 0);                                                              \
  }
#define OP_Chkstk(O, PC, E, H)                                           \
  {                                                                      \
    if (__builtin_expect(R[kRegSp] < stack_lo || R[kRegSp] >= stack_hi, \
                         0)) {                                           \
      OP_FAULT(PC, VmFault::kChkstk, "rsp escaped the thread stack");    \
    }                                                                    \
    E(H, 0);                                                             \
  }

// MPX bound checks: register form tests rs1, memory form the unsegmented
// effective address, against bounds register `bnd`.
#define OP_BNDC(O, PC, E, H, val, cmp, bound, side)                      \
  {                                                                      \
    const uint64_t v_ = (val);                                           \
    if (__builtin_expect(v_ cmp map.bound[O(bnd)], 0)) {                 \
      OP_FAULT(PC, VmFault::kBndViolation,                               \
               StrFormat("bnd%d " side " check failed for %s", O(bnd),   \
                         Hex(v_).c_str()));                              \
    }                                                                    \
    E(H, 0);                                                             \
  }
#define OP_BndclR(O, PC, E, H) \
  OP_BNDC(O, PC, E, H, R[O(rs1)], <, bnd_lo, "lower")
#define OP_BndcuR(O, PC, E, H) \
  OP_BNDC(O, PC, E, H, R[O(rs1)], >, bnd_hi, "upper")
#define OP_BndclM(O, PC, E, H) \
  OP_BNDC(O, PC, E, H, EA_NOSEG(), <, bnd_lo, "lower")
#define OP_BndcuM(O, PC, E, H) \
  OP_BNDC(O, PC, E, H, EA_NOSEG(), >, bnd_hi, "upper")

// Guest loads and stores: the cache model's penalty and the segment
// surcharge are the dynamic part of the cost, and the reference engine
// counts both as cache-miss cycles.
#define MEM_ACCT(E, H, ea, counter)                                  \
  const uint64_t x_ = rec->seg_extra + cache_.AccessFast(ea);        \
  s_miss += x_;                                                      \
  ++(counter);                                                       \
  E(H, x_)
#define OP_Load(O, PC, E, H)                                         \
  {                                                                  \
    const uint64_t ea_ = EA_SEG();                                   \
    uint64_t v_ = 0;                                                 \
    if (uint8_t* p_ = mem_.FlatPtr(ea_, rec->size)) {                \
      if (rec->size == 1) {                                          \
        v_ = *p_;                                                    \
      } else {                                                       \
        memcpy(&v_, p_, 8);                                          \
      }                                                              \
    } else if (!mem_.Read(ea_, rec->size, &v_)) {                    \
      OP_FAULT(PC, VmFault::kUnmapped,                               \
               StrFormat("load from %s", Hex(ea_).c_str()));         \
    }                                                                \
    R[O(rd)] = v_;                                                   \
    MEM_ACCT(E, H, ea_, s_loads);                                    \
  }
#define OP_Store(O, PC, E, H)                                        \
  {                                                                  \
    const uint64_t ea_ = EA_SEG();                                   \
    if (uint8_t* p_ = mem_.FlatPtr(ea_, rec->size)) {                \
      if (rec->size == 1) {                                          \
        *p_ = static_cast<uint8_t>(R[O(rd)]);                        \
      } else {                                                       \
        const uint64_t v_ = R[O(rd)];                                \
        memcpy(p_, &v_, 8);                                          \
      }                                                              \
    } else if (!mem_.Write(ea_, rec->size, R[O(rd)])) {              \
      OP_FAULT(PC, VmFault::kUnmapped,                               \
               StrFormat("store to %s", Hex(ea_).c_str()));          \
    }                                                                \
    MEM_ACCT(E, H, ea_, s_stores);                                   \
  }
#define OP_FLoad(O, PC, E, H)                                        \
  {                                                                  \
    const uint64_t ea_ = EA_SEG();                                   \
    uint64_t v_ = 0;                                                 \
    if (uint8_t* p_ = mem_.FlatPtr(ea_, 8)) {                        \
      memcpy(&v_, p_, 8);                                            \
    } else if (!mem_.Read(ea_, 8, &v_)) {                            \
      OP_FAULT(PC, VmFault::kUnmapped,                               \
               StrFormat("fload from %s", Hex(ea_).c_str()));        \
    }                                                                \
    memcpy(&F[O(rd)], &v_, 8);                                       \
    MEM_ACCT(E, H, ea_, s_loads);                                    \
  }
#define OP_FStore(O, PC, E, H)                                       \
  {                                                                  \
    const uint64_t ea_ = EA_SEG();                                   \
    uint64_t v_;                                                     \
    memcpy(&v_, &F[O(rd)], 8);                                       \
    if (uint8_t* p_ = mem_.FlatPtr(ea_, 8)) {                        \
      memcpy(p_, &v_, 8);                                            \
    } else if (!mem_.Write(ea_, 8, v_)) {                            \
      OP_FAULT(PC, VmFault::kUnmapped,                               \
               StrFormat("fstore to %s", Hex(ea_).c_str()));         \
    }                                                                \
    MEM_ACCT(E, H, ea_, s_stores);                                   \
  }
// Stack pushes and pops pay the cache model but count as neither loads nor
// stores, like the reference engine's.
#define OP_Push(O, PC, E, H)                                         \
  {                                                                  \
    R[kRegSp] -= 8;                                                  \
    const uint64_t sp_ = R[kRegSp];                                  \
    if (uint8_t* p_ = mem_.FlatPtr(sp_, 8)) {                        \
      const uint64_t v_ = R[O(rd)];                                  \
      memcpy(p_, &v_, 8);                                            \
    } else if (!mem_.Write(sp_, 8, R[O(rd)])) {                      \
      OP_FAULT(PC, VmFault::kUnmapped, "push to unmapped stack");    \
    }                                                                \
    E(H, cache_.AccessFast(sp_));                                    \
  }
#define OP_Pop(O, PC, E, H)                                          \
  {                                                                  \
    const uint64_t sp_ = R[kRegSp];                                  \
    uint64_t v_ = 0;                                                 \
    if (uint8_t* p_ = mem_.FlatPtr(sp_, 8)) {                        \
      memcpy(&v_, p_, 8);                                            \
    } else if (!mem_.Read(sp_, 8, &v_)) {                            \
      OP_FAULT(PC, VmFault::kUnmapped, "pop from unmapped stack");   \
    }                                                                \
    R[O(rd)] = v_;                                                   \
    const uint64_t x_ = cache_.AccessFast(sp_);                      \
    R[kRegSp] += 8;                                                  \
    E(H, x_);                                                        \
  }

// Control transfers shared by the outer call/ret handlers and the trace
// tier's inlined call and guarded ret: push the return address of the call
// at `rec`, and pop and validate one into `ra`.
#define PUSH_RA(PC, msg)                                             \
  R[kRegSp] -= 8;                                                    \
  const uint64_t sp = R[kRegSp];                                     \
  {                                                                  \
    const uint64_t ra_ = CodeAddr(rec->next);                        \
    if (uint8_t* p_ = mem_.FlatPtr(sp, 8)) {                         \
      memcpy(p_, &ra_, 8);                                           \
    } else if (!mem_.Write(sp, 8, ra_)) {                            \
      OP_FAULT(PC, VmFault::kUnmapped, msg);                         \
    }                                                                \
  }
#define POP_RA(PC)                                                   \
  uint64_t ra = 0;                                                   \
  {                                                                  \
    const uint64_t sp_ = R[kRegSp];                                  \
    if (uint8_t* p_ = mem_.FlatPtr(sp_, 8)) {                        \
      memcpy(&ra, p_, 8);                                            \
    } else if (!mem_.Read(sp_, 8, &ra)) {                            \
      OP_FAULT(PC, VmFault::kUnmapped, "ret: stack unmapped");       \
    }                                                                \
    R[kRegSp] += 8;                                                  \
    if (!IsCodeAddr(ra) || ra % 8 != 0 || CodeIndex(ra) >= nrecs) {  \
      OP_FAULT(PC, VmFault::kBadJump, "ret to non-code address");    \
    }                                                                \
  }

// True when the reference engine could stop or fault between the elements
// of a pair whose first element is `h`; the pair then bails to h's own
// handler, which performs the per-instruction checks exactly. A first
// element with a dynamic cost (memory access, fp-credited check) cannot
// prove the budget ahead, so bounded slices always bail on it (kBounded
// folds at compile time; Vm::Call runs unbounded).
#define PAIR_MUST_BAIL(h)                                            \
  (__builtin_expect(instrs + 1 >= max_instrs, 0) ||                  \
   (kBounded && (kBaseOps[h].kind == OpKind::kMem ||                 \
                 kBaseOps[h].kind == OpKind::kCheck ||               \
                 cycles - start_cycles + COST(h) >= budget)))

// Selects `ctrl` for a Control row of the op table and `op` for the rest.
#define KIND_SEL_Simple(ctrl, op) op
#define KIND_SEL_FpArith(ctrl, op) op
#define KIND_SEL_Mem(ctrl, op) op
#define KIND_SEL_Check(ctrl, op) op
#define KIND_SEL_Control(ctrl, op) ctrl

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
  const uint64_t* const code = prog_->binary.code.data();
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

  VmFault fault_kind = VmFault::kNone;
  std::string fault_msg;
  const ExecRecord* rec;
  // Current promoted block while the trace-tier inner loop runs (kHTraceRun
  // through tTerm/tExit); dead in the ref/fast configurations.
  TraceBlock* tb = nullptr;

  // Indexed by ExecHandler.
  static const void* const kLabels[] = {
      &&kHExecData_lbl,
#define CONFLLVM_YL(name, kind, cost) &&kH##name##_lbl,
      CONFLLVM_BASE_OPS(CONFLLVM_YL)
#undef CONFLLVM_YL
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
#define CONFLLVM_YC(b) &&kHP_LoadCode_##b##_lbl,
      CONFLLVM_PAIRS_LC(CONFLLVM_YC)
#undef CONFLLVM_YC
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
#define CONFLLVM_TBASE(name, kind, cost) KIND_SEL_##kind(&&tTerm, &&t##name),
#define CONFLLVM_TP2(a, b) &&tP_##a##_##b,
#define CONFLLVM_TF2(a, b) &&tTerm,
#define CONFLLVM_TF1(a) &&tTerm,
  static const void* const kTL[] = {
      &&tExit,
      CONFLLVM_BASE_OPS(CONFLLVM_TBASE)
      &&tTerm,  // filler for the kNumBaseHandlers slot (never used)
      // Fused ids, in exact enum order (exec_image.h).
      CONFLLVM_PAIRS_SS(CONFLLVM_TP2)
      CONFLLVM_PAIRS_SJ(CONFLLVM_TF1)
      CONFLLVM_PAIRS_JS(CONFLLVM_TF1)
      CONFLLVM_PAIRS_CB(CONFLLVM_TF2)
      CONFLLVM_PAIRS_BB(CONFLLVM_TF1)
      CONFLLVM_PAIRS_SM(CONFLLVM_TP2)
      CONFLLVM_PAIRS_MS(CONFLLVM_TP2)
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
#undef CONFLLVM_TBASE
#undef CONFLLVM_TP2
#undef CONFLLVM_TF2
#undef CONFLLVM_TF1
  static_assert(sizeof(kTL) / sizeof(kTL[0]) == kTNumTraceHandlers,
                "kTL must have one entry per trace dispatch id");

  DISPATCH();

  // ---- base ops: the op table's bodies, then the hand-written control ----

  CASE(kHExecData) {
    --instrs;  // the reference engine faults before counting data words
    FAULT(VmFault::kExecData, "executed data word");
  }
#define GEN_OUTER(name, kind, cost) \
  KIND_SEL_##kind(, CASE(kH##name) ELEM(name, OPN, FPC_CUR, END_OP))
  CONFLLVM_BASE_OPS(GEN_OUTER)
#undef GEN_OUTER

  CASE(kHInvalid) { FAULT(VmFault::kExecData, "invalid instruction"); }
  CASE(kHJmp) { END_JUMP(COST(kHJmp), rec->target); }
  CASE(kHJnz) {
    END_JUMP(COST(kHJnz), R[rec->rd] != 0 ? rec->target : rec->next);
  }
  CASE(kHJz) {
    END_JUMP(COST(kHJz), R[rec->rd] == 0 ? rec->target : rec->next);
  }
  CASE(kHCall) {
    PUSH_RA(FPC_CUR, "call: stack unmapped");
    END_JUMP(COST(kHCall) + cache_.AccessFast(sp), rec->target);
  }
  CASE(kHICall) {
    const uint64_t target = R[rec->rs1];
    if (!IsCodeAddr(target) || target % 8 != 0 || CodeIndex(target) >= nrecs) {
      FAULT(VmFault::kBadJump, "icall to non-code address");
    }
    PUSH_RA(FPC_CUR, "icall: stack unmapped");
    END_JUMP(COST(kHICall) + cache_.AccessFast(sp), CodeIndex(target));
  }
  CASE(kHRet) {
    POP_RA(FPC_CUR);
    END_JUMP(COST(kHRet), CodeIndex(ra));
  }
  CASE(kHJmpReg) {
    const uint64_t target = R[rec->rs1];
    if (!IsCodeAddr(target) || target % 8 != 0 || CodeIndex(target) >= nrecs) {
      FAULT(VmFault::kBadJump, "jmpreg to non-code address");
    }
    END_JUMP(COST(kHJmpReg), CodeIndex(target));
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
    cycles = t->cycles;
    cycles_mark = cycles;
    instrs = t->instrs;
    flushed_instrs = instrs;
    memcpy(R, t->regs, sizeof(t->regs));
    memcpy(F, t->fregs, sizeof(F));
    END_JUMP(COST(kHCallExt), rec->next);
  }
  CASE(kHHalt) {
    t->halted = true;
    goto done;  // no cycle charge; pc stays at the halt, like the reference
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
  }

  // Promoted-region bodies: the op table's bodies again, advancing by
  // bumping `rec` through the region's dense op list (no budget/limit/pc
  // checks — hoisted into the kHTraceRun prechecks, and `pc` is only
  // materialized where it is observable: fault paths carry the op's own
  // word index in rec->target, and the terminator/exit restore it before
  // handing back to the outer loop).
#define GEN_REGION(name, kind, cost) \
  KIND_SEL_##kind(, t##name: ELEM(name, OPN, FPC_TARGET, TNEXT))
  CONFLLVM_BASE_OPS(GEN_REGION)
#undef GEN_REGION

  tJmpInl: {
    // Static jmp whose target was inlined right behind it in the op stream:
    // charge the jump, no control transfer.
    TNEXT(kHJmp, 0);
  }
  tGuardNZ: {
    if (R[rec->rd] != 0) {
      // Taken: leave the region through the outer dispatch, exactly as the
      // reference engine's END_JUMP would (budget/limit checks resume).
      END_JUMP(COST(kHJnz), rec->target);
    }
    TNEXT(kHJnz, 0);  // not taken: the fall-through is the next region op
  }
  tGuardZ: {
    if (R[rec->rd] == 0) {
      END_JUMP(COST(kHJz), rec->target);
    }
    TNEXT(kHJz, 0);
  }
  tGuardNZT: {
    // Mirror guard: the TAKEN arm was inlined behind it, so falling through
    // the branch is the side exit (rec->target holds the fall-through word).
    if (R[rec->rd] != 0) {
      TNEXT(kHJnz, 0);
    }
    END_JUMP(COST(kHJnz), rec->target);
  }
  tGuardZT: {
    if (R[rec->rd] == 0) {
      TNEXT(kHJz, 0);
    }
    END_JUMP(COST(kHJz), rec->target);
  }
  // Fused producer + cmp + guard: the elements run count-before-execute
  // exactly like the unfused sequence (the flag register IS written — later
  // ops and the side-exit path may read it), and the exit leaves through
  // END_JUMP like the unfused guard would. Only the exit predicate matters:
  // ExitNZ covers GuardNZ/GuardZT, ExitZ covers GuardZ/GuardNZT.
#define EXIT_ExitNZ(v) ((v) != 0)
#define EXIT_ExitZ(v) ((v) == 0)
#define GUARD_EXIT(x, flag, exit_word)                  \
  if (EXIT_##x(flag)) {                                 \
    END_JUMP(COST(kHJnz), exit_word);                   \
  }                                                     \
  TNEXT(kHJnz, 0)
  // cmp + guard: `target` holds the guard's side-exit word.
#define GEN_TCG(c, x)                                  \
  tCG_##c##_##x: {                                     \
    ELEM(c, OPN, FPC_NONE, ACCT);                      \
    ++instrs;                                          \
    GUARD_EXIT(x, R[rec->rd], rec->target);            \
  }
  // addimm + cmp + guard (the counted-loop latch): the cmp packs SS-style,
  // `target` holds the side exit.
#define GEN_T3A(c, x)                                  \
  tT3A_##c##_##x: {                                    \
    ELEM(AddImm, OPN, FPC_NONE, ACCT);                 \
    ++instrs;                                          \
    ELEM(c, OPP, FPC_NONE, ACCT);                      \
    ++instrs;                                          \
    GUARD_EXIT(x, R[OPP(rd)], rec->target);            \
  }
  // load + cmp + guard (the chain-walk probe): the load faults at its own
  // word (`target`), the cmp packs MS-style, `imm` holds the side exit.
#define GEN_T3L(c, x)                                                \
  tT3L_##c##_##x: {                                                  \
    ELEM(Load, OPN, FPC_TARGET, ACCT);                               \
    ++instrs;                                                        \
    ELEM(c, OPQ, FPC_NONE, ACCT);                                    \
    ++instrs;                                                        \
    GUARD_EXIT(x, R[OPQ(rd)], static_cast<uint32_t>(rec->imm));      \
  }
#define GEN_GUARDED(c)                                 \
  GEN_TCG(c, ExitNZ) GEN_TCG(c, ExitZ)                 \
  GEN_T3A(c, ExitNZ) GEN_T3A(c, ExitZ)                 \
  GEN_T3L(c, ExitNZ) GEN_T3L(c, ExitZ)
  GEN_GUARDED(CmpEq)
  GEN_GUARDED(CmpNe)
  GEN_GUARDED(CmpLt)
  GEN_GUARDED(CmpLe)
  GEN_GUARDED(CmpGt)
  GEN_GUARDED(CmpGe)
#undef GEN_GUARDED
#undef GEN_TCG
#undef GEN_T3A
#undef GEN_T3L
#undef GUARD_EXIT
#undef EXIT_ExitNZ
#undef EXIT_ExitZ
  tCallInl: {
    // Inlined static call: the return-address push runs for real (memory
    // write + cache traffic + fault semantics identical to the outer call
    // handler), then the callee's first op is simply the next in the
    // stream — no control transfer.
    PUSH_RA(FPC_TARGET, "call: stack unmapped");
    TNEXT(kHCall, cache_.AccessFast(sp));
  }
  tRetGuard: {
    // Inlined ret: pop and validate the REAL return address. When it lands
    // on the matching call's fall-through (the common case by construction)
    // the region continues in-stream; any other target side-exits through
    // the outer dispatch exactly like the base ret handler.
    POP_RA(FPC_TARGET);
    if (__builtin_expect(CodeIndex(ra) != static_cast<uint64_t>(rec->imm),
                         0)) {
      END_JUMP(COST(kHRet), CodeIndex(ra));
    }
    TNEXT(kHRet, 0);
  }
  tLoopBack: {
    // The region's terminating jmp back to its own leader: charge the jump,
    // then re-enter the region without the outer-dispatch round trip. The
    // reference engine would check budget/limit before the leader's first
    // instruction and before every instruction after it; both are folded
    // into the entry precheck (num_instrs - 1: the first instruction's own
    // check is part of the sum now, unlike at kHTraceRun where the outer
    // DISPATCH had already performed and counted it).
    ACCT(kHJmp, 0);
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
    // it to the outer table's base handler, whose epilogue re-enters the
    // outer dispatch (budget/limit checks resume at the block edge). The
    // preceding region op already counted it, matching the outer DISPATCH.
    pc = tb->term;
    goto* kLabels[rec->handler];
  }
  tExit: {
    // Synthetic exit of a fall-through block: nothing executed — undo the
    // count and let the outer dispatch replay the reference engine's
    // budget -> instruction-limit -> pc-bounds -> data-word fault order at
    // the next leader (rec->target == the block's `term` word).
    --instrs;
    pc = rec->target;
    DISPATCH();
  }

  // ---- fused pairs and triples ----
  //
  // A fused record runs its elements' bodies off the one record: the first
  // from its natural fields, the rest from the packing named by their
  // operand hook, each element counted before it runs (so a faulting
  // element reports the exact instrs total and its own word). In the outer
  // loop a pair first proves the reference engine cannot stop between its
  // elements, else it bails to the first element's base handler. In a
  // promoted region the kHTraceRun prechecks already proved that, and the
  // region's own superinstructions (TraceTier::Promote) reuse the SS, SM,
  // MS, pop;pop, push;push and triple packings.
#define PAIR_ELEMS(a, b, OB, APC)  \
  ELEM(a, OPN, APC, ACCT);         \
  ++instrs;                        \
  ELEM(b, OB, FPC_NEXT, ACCT)
#define OUTER_PAIR(a, b, OB)                         \
  CASE(kHP_##a##_##b) {                              \
    if (PAIR_MUST_BAIL(kH##a)) goto kH##a##_lbl;     \
    PAIR_ELEMS(a, b, OB, FPC_CUR);                   \
    pc = rec->target; /* B's fall-through */         \
    DISPATCH();                                      \
  }
#define REGION_PAIR(a, b, OB)           \
  tP_##a##_##b: {                       \
    PAIR_ELEMS(a, b, OB, FPC_TARGET);   \
    TADVANCE();                         \
  }
#define GEN_SS(a, b) OUTER_PAIR(a, b, OPP)
#define GEN_SM(a, m) OUTER_PAIR(a, m, OPB)
#define GEN_MS(m, b) OUTER_PAIR(m, b, OPQ)
#define GEN_BM(c, m) OUTER_PAIR(c, m, OPN)  // access register in rd
#define GEN_PS(b) OUTER_PAIR(Pop, b, OPQ)
#define GEN_LC(b) OUTER_PAIR(LoadCode, b, OPP)
  CONFLLVM_PAIRS_SS(GEN_SS)
  CONFLLVM_PAIRS_SM(GEN_SM)
  CONFLLVM_PAIRS_MS(GEN_MS)
  CONFLLVM_PAIRS_BM(GEN_BM)
  CONFLLVM_PAIRS_FF(GEN_SS)
  CONFLLVM_PAIRS_FMS(GEN_MS)
  CONFLLVM_PAIRS_SFM(GEN_SM)
  CONFLLVM_PAIRS_FMI(GEN_MS)
  CONFLLVM_PAIRS_FAS(GEN_SS)
  CONFLLVM_PAIRS_SIF(GEN_SS)
  CONFLLVM_PAIRS_SN(GEN_SS)
  CONFLLVM_PAIRS_PS(GEN_PS)
  CONFLLVM_PAIRS_LC(GEN_LC)
  GEN_SS(Not, LoadCode)
  GEN_SS(Add, BndclR)
  GEN_MS(Pop, Pop)
  GEN_MS(Push, Push)
#undef GEN_SS
#undef GEN_SM
#undef GEN_MS
#undef GEN_BM
#undef GEN_PS
#undef GEN_LC
  // The pairs a promoted region may contain (RegionPairHandler).
#define GEN_SS(a, b) REGION_PAIR(a, b, OPP)
#define GEN_SM(a, m) REGION_PAIR(a, m, OPB)
#define GEN_MS(m, b) REGION_PAIR(m, b, OPQ)
  CONFLLVM_PAIRS_SS(GEN_SS)
  CONFLLVM_PAIRS_SM(GEN_SM)
  CONFLLVM_PAIRS_MS(GEN_MS)
  GEN_MS(Pop, Pop)
  GEN_MS(Push, Push)
#undef GEN_SS
#undef GEN_SM
#undef GEN_MS

  // The MPX sandwich bndcl; bndcu; access: the builder guarantees both
  // checks test the same register against the same bounds-register id, so
  // the record's rs1/bnd serve both; the access sits in the natural
  // memory-operand fields with its register in rd and its word in imm.
#define TRIPLE_ELEMS(m, APC)               \
  ELEM(BndclR, OPN, APC, ACCT);            \
  ++instrs;                                \
  ELEM(BndcuR, OPN, FPC_NEXT, ACCT);       \
  ++instrs;                                \
  ELEM(m, OPN, FPC_IMM, ACCT)
#define GEN_T_BND(m)                                                 \
  CASE(kHT_BndBnd_##m) {                                             \
    if (kBounded || __builtin_expect(instrs + 2 >= max_instrs, 0))   \
      goto kHBndclR_lbl;                                             \
    TRIPLE_ELEMS(m, FPC_CUR);                                        \
    pc = rec->target;                                                \
    DISPATCH();                                                      \
  }                                                                  \
  tT_BndBnd_##m: {                                                   \
    TRIPLE_ELEMS(m, FPC_TARGET);                                     \
    TADVANCE();                                                      \
  }
  GEN_T_BND(Load)
  GEN_T_BND(Store)
  GEN_T_BND(FLoad)
  GEN_T_BND(FStore)
#undef GEN_T_BND
#undef TRIPLE_ELEMS

  // ---- pairs with a control element (outer loop only) ----

  // simple -> jmp: the pair continues at the jmp's target.
#define GEN_SJ(a)                                      \
  CASE(kHP_##a##_Jmp) {                                \
    if (PAIR_MUST_BAIL(kH##a)) goto kH##a##_lbl;       \
    ELEM(a, OPN, FPC_CUR, ACCT);                       \
    ++instrs;                                          \
    ACCT(kHJmp, 0);                                    \
    pc = rec->target;                                  \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_SJ(GEN_SJ)
#undef GEN_SJ

  // jmp -> its target: B packs SS-style, B's fall-through in disp.
#define GEN_JS(b)                                      \
  CASE(kHP_Jmp_##b) {                                  \
    if (PAIR_MUST_BAIL(kHJmp)) goto kHJmp_lbl;         \
    ACCT(kHJmp, 0);                                    \
    ++instrs;                                          \
    ELEM(b, OPP, FPC_TARGET, ACCT);                    \
    pc = static_cast<uint32_t>(rec->disp);             \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_JS(GEN_JS)
#undef GEN_JS

#define PAIR_TAKEN_Jnz(v) ((v) != 0)
#define PAIR_TAKEN_Jz(v) ((v) == 0)
  // cmp -> the branch testing it: branch target in disp, fall-through in
  // target, the flag register packed SS-style.
#define GEN_CB(a, br)                                                \
  CASE(kHP_##a##_##br) {                                             \
    if (PAIR_MUST_BAIL(kH##a)) goto kH##a##_lbl;                     \
    ELEM(a, OPN, FPC_CUR, ACCT);                                     \
    ++instrs;                                                        \
    ACCT(kH##br, 0);                                                 \
    pc = PAIR_TAKEN_##br(R[OPP(rd)]) ? static_cast<uint32_t>(rec->disp) \
                                     : rec->target;                  \
    DISPATCH();                                                      \
  }
  CONFLLVM_PAIRS_CB(GEN_CB)
#undef GEN_CB

  // cond branch whose fall-through is a jmp: taken = the branch alone.
#define GEN_BB(br)                                     \
  CASE(kHP_##br##_Jmp) {                               \
    if (PAIR_TAKEN_##br(R[rec->rd])) {                 \
      END_JUMP(COST(kH##br), rec->target);             \
    }                                                  \
    if (PAIR_MUST_BAIL(kH##br)) goto kH##br##_lbl;     \
    ACCT(kH##br, 0);                                   \
    ++instrs;                                          \
    ACCT(kHJmp, 0);                                    \
    pc = static_cast<uint32_t>(rec->disp); /* the jmp's target */ \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_BB(GEN_BB)
#undef GEN_BB

  // cond branch -> its fall-through simple op: taken = the branch alone; not
  // taken = both in one dispatch (B packed SS-style, pair next in disp).
#define GEN_BS(br, b)                                  \
  CASE(kHP_##br##_##b) {                               \
    if (PAIR_TAKEN_##br(R[rec->rd])) {                 \
      END_JUMP(COST(kH##br), rec->target);             \
    }                                                  \
    if (PAIR_MUST_BAIL(kH##br)) goto kH##br##_lbl;     \
    ACCT(kH##br, 0);                                   \
    ++instrs;                                          \
    ELEM(b, OPP, FPC_NEXT, ACCT);                      \
    pc = static_cast<uint32_t>(rec->disp);             \
    DISPATCH();                                        \
  }
  CONFLLVM_PAIRS_BS(GEN_BS)
#undef GEN_BS

  // cond branch fused with its TAKEN arm (chosen for backward/loop edges):
  // not taken = the branch alone; taken = branch + the arm's first op
  // (packed SS-style, the arm's word in target, its continuation in disp).
#define PAIR_TAKEN_JnzT PAIR_TAKEN_Jnz
#define PAIR_BR_JnzT kHJnz
#define PAIR_BR_LBL_JnzT kHJnz_lbl
#define GEN_BT(br, b)                                      \
  CASE(kHP_##br##_##b) {                                   \
    if (!PAIR_TAKEN_##br(R[rec->rd])) {                    \
      END_JUMP(COST(PAIR_BR_##br), rec->next);             \
    }                                                      \
    if (PAIR_MUST_BAIL(PAIR_BR_##br)) goto PAIR_BR_LBL_##br; \
    ACCT(PAIR_BR_##br, 0);                                 \
    ++instrs;                                              \
    ELEM(b, OPP, FPC_TARGET, ACCT);                        \
    pc = static_cast<uint32_t>(rec->disp);                 \
    DISPATCH();                                            \
  }
  CONFLLVM_PAIRS_BT(GEN_BT)
#undef GEN_BT
#undef PAIR_TAKEN_Jnz
#undef PAIR_TAKEN_Jz
#undef PAIR_TAKEN_JnzT
#undef PAIR_BR_JnzT
#undef PAIR_BR_LBL_JnzT

  // addimm -> jmpreg (the CFI-checked return's tail), jmpreg packed
  // SS-style.
  CASE(kHP_AddImm_JmpReg) {
    if (PAIR_MUST_BAIL(kHAddImm)) goto kHAddImm_lbl;
    ELEM(AddImm, OPN, FPC_CUR, ACCT);
    ++instrs;
    const uint64_t target = R[OPP(rs1)];
    if (!IsCodeAddr(target) || target % 8 != 0 || CodeIndex(target) >= nrecs) {
      pc = rec->next;
      FAULT(VmFault::kBadJump, "jmpreg to non-code address");
    }
    END_JUMP(COST(kHJmpReg), CodeIndex(target));
  }

fault:
  t->fault = fault_kind;
  t->fault_msg = std::move(fault_msg);
  t->fault_pc = pc;
done:
  FLUSH_THREAD();
  FLUSH_STATS();
}

}  // namespace confllvm
