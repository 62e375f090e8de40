// ExecImage: the fast engine's flattened view of a LoadedProgram.
//
// The reference stepper re-derives everything per executed instruction: it
// bounds-checks the pc, tests `optional<MInstr>::has_value()`, switches on
// the opcode, recomputes the segment base and the SegAccessCost, and
// re-resolves jump targets. Mirroring ConfLLVM's own discipline of paying
// for protection at load time (hardware fast paths, §7), ExecImage does all
// of that ONCE per LoadedProgram: every code word becomes a dense
// ExecRecord with a pre-resolved handler id, precomputed base cost,
// pre-resolved fallthrough/branch word indices, and the segment base baked
// in. Data words (magic words, movimm64 payloads) become explicit trap
// records, so the hot loop needs no validity checks at all. Frequent
// straight-line pairs are fused into superinstructions; the lists below
// hold the pairs the checked-in reference-engine pair histogram counts at
// least 10,000 times.
//
// The image is immutable and derived purely from the program's decoded code,
// region map and code words, so clones of a LoadedProgram share one image.
#ifndef CONFLLVM_SRC_VM_EXEC_IMAGE_H_
#define CONFLLVM_SRC_VM_EXEC_IMAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/isa/isa.h"

namespace confllvm {

struct LoadedProgram;

// ---- fused superinstruction pairs ----
//
// Interpreter throughput is bounded by the serial record-fetch chain (pc ->
// record -> fields -> next pc), not by handler work, so the ExecImage fuses
// frequent straight-line pairs into one handler: the pair executes both
// instructions off a single record fetch and dispatch
// while replicating the reference engine's inter-instruction bookkeeping
// exactly (cycle budget and instruction-limit checks between the elements,
// per-element instrs/cycles, fault pcs). Fusing only rewrites the FIRST
// element's handler; the second keeps its own record, so jumps into it
// behave as before, and pairs chain (A+B fused, C+D fused, ...).
//
// The X-macro lists below are the single source of truth: they generate the
// handler enum (here), the label table and bodies (vm_fast.cc), and the
// fusion lookup table (exec_image.cc), so the three can never get out of
// sync. "Simple" ops are registers-only, fixed-cost, and cannot fault.
//
// Which pairs are listed follows the reference-engine pair histogram in
// bench/PAIR_HISTOGRAM.md (`bench_exec_throughput --pair-histogram`, every
// exec row plus the ct and serve kernels): an entry stays while its opcode
// pair occurs at least 10,000 times there (MovImm counts movimm and
// movimm64, each Cmp* counts every cmp, a triple needs both of its pairs).
// Lists are edited by hand when a regenerated histogram moves a pair across
// that line.
//
// The second element's operands are PACKED into the first record's unused
// memory-operand fields (base/index/scale/size/seg_base/disp/target) at
// build time, so a fused pair costs a single record load — the serial
// record-fetch chain, not the indirect branch, is what bounds interpreter
// throughput. The first element's own operand fields stay untouched: when a
// mid-pair budget/instr-limit boundary could hit, the pair handler bails to
// the first element's base handler, which re-runs the exact per-instruction
// checks. (Lea is excluded from fusion: it owns the fields pairs repurpose.)
#define CONFLLVM_PAIRS_SS(Y) /* simple -> simple */                         \
  Y(MovImm, MovImm) Y(MovImm, Mov) Y(MovImm, Add) Y(MovImm, Sub)             \
  Y(MovImm, Mul) Y(MovImm, And) Y(MovImm, Shl) Y(MovImm, Shr)                \
  Y(Mov, MovImm) Y(Mov, Mov) Y(Mov, Add) Y(Mov, AddImm)                      \
  Y(Add, MovImm) Y(Add, Mov) Y(Add, Add)                                     \
  Y(Sub, MovImm) Y(Sub, Mov) Y(Sub, Mul)                                     \
  Y(Mul, MovImm) Y(Mul, Mov) Y(Mul, Add)                                     \
  Y(And, MovImm) Y(And, Mov) Y(And, Or)                                      \
  Y(Or, MovImm) Y(Xor, MovImm) Y(Shl, MovImm) Y(Shr, MovImm)                 \
  Y(MovImm, CmpEq) Y(MovImm, CmpNe) Y(MovImm, CmpLt) Y(MovImm, CmpLe)        \
  Y(MovImm, CmpGt) Y(MovImm, CmpGe)                                          \
  Y(Mov, CmpEq) Y(Mov, CmpNe) Y(Mov, CmpLt) Y(Mov, CmpLe)                    \
  Y(Mov, CmpGt) Y(Mov, CmpGe)                                                \
  Y(Add, CmpEq) Y(Add, CmpNe) Y(Add, CmpLt) Y(Add, CmpLe)                    \
  Y(Add, CmpGt) Y(Add, CmpGe)                                                \
  Y(CmpEq, MovImm) Y(CmpNe, MovImm) Y(CmpLt, MovImm) Y(CmpLe, MovImm)        \
  Y(CmpGt, MovImm) Y(CmpGe, MovImm)                                          \
  Y(CmpEq, Mov) Y(CmpNe, Mov) Y(CmpLt, Mov) Y(CmpLe, Mov)                    \
  Y(CmpGt, Mov) Y(CmpGe, Mov)
#define CONFLLVM_PAIRS_SJ(Y) /* simple -> jmp */ Y(MovImm) Y(Mov)
#define CONFLLVM_PAIRS_JS(Y) /* jmp -> simple (across the edge) */           \
  Y(MovImm) Y(Mov) Y(Add)
#define CONFLLVM_PAIRS_CB(Y) /* compare -> conditional branch */             \
  Y(CmpEq, Jnz) Y(CmpNe, Jnz) Y(CmpLt, Jnz) Y(CmpLe, Jnz)                    \
  Y(CmpGt, Jnz) Y(CmpGe, Jnz)
#define CONFLLVM_PAIRS_BB(Y) /* cond branch whose fallthrough is a jmp */    \
  Y(Jnz)
#define CONFLLVM_PAIRS_SM(Y) /* simple -> load/store */                      \
  Y(MovImm, Load) Y(Mov, Load) Y(Add, Load)                                  \
  Y(MovImm, Store) Y(Mov, Store) Y(Add, Store) Y(AddImm, Store)
#define CONFLLVM_PAIRS_MS(Y) /* load/store -> simple */                      \
  Y(Load, MovImm) Y(Load, Mov) Y(Load, Add) Y(Load, Sub)                     \
  Y(Load, Mul) Y(Load, Xor) Y(Store, MovImm) Y(Store, Mov)
#define CONFLLVM_PAIRS_BM(Y) /* upper bounds check -> the guarded access */  \
  Y(BndcuR, Load) Y(BndcuR, Store)
#define CONFLLVM_PAIRS_FF(Y) /* float arithmetic chains */                   \
  Y(FSub, FMul) Y(FMul, FAdd)
#define CONFLLVM_PAIRS_BS(Y) /* cond branch -> fallthrough simple */         \
  Y(Jnz, MovImm) Y(Jnz, Mov) Y(Jnz, Add) Y(Jnz, Sub)                         \
  Y(Jnz, Mul) Y(Jnz, AddImm)
#define CONFLLVM_PAIRS_SFM(Y) /* int simple -> float load/store */           \
  Y(Add, FLoad) Y(Add, FStore)
#define CONFLLVM_PAIRS_FMI(Y) /* float load/store -> int simple */           \
  Y(FLoad, MovImm) Y(FStore, MovImm)
#define CONFLLVM_PAIRS_FAS(Y) /* float arith -> int simple */                \
  Y(FAdd, MovImm) Y(FSub, MovImm) Y(FMul, MovImm)
#define CONFLLVM_PAIRS_SIF(Y) /* imm -> float-bit materialize */             \
  Y(MovImm, MovIF)
#define CONFLLVM_PAIRS_SN(Y) /* CFI magic materialization: imm -> not */     \
  Y(MovImm, Not)
#define CONFLLVM_PAIRS_PS(Y) /* pop -> simple (CFI return heads) */ Y(MovImm)
#define CONFLLVM_PAIRS_LC(Y) /* loadcode -> magic compare */                 \
  Y(CmpEq) Y(CmpNe)
#define CONFLLVM_PAIRS_BT(Y) /* cond branch -> its TAKEN (backward) arm */   \
  Y(JnzT, MovImm) Y(JnzT, Mov) Y(JnzT, Add) Y(JnzT, Sub)                     \
  Y(JnzT, Mul) Y(JnzT, AddImm)
#define CONFLLVM_PAIRS_FMS(Y) /* float load/store -> float arith */          \
  Y(FLoad, FAdd) Y(FLoad, FSub) Y(FLoad, FMul)

// Handler ids for the token-threaded dispatch loop. Condition codes are
// specialized into per-condition handlers (kHCmpEq + cc).
enum ExecHandler : uint16_t {
  kHExecData = 0,  // data / magic / continuation word: kExecData fault
  kHInvalid,       // decoded kInvalid op (unreachable via the loader)
  kHMovImm,        // also kMovImm64: the payload is pre-materialized in imm
  kHMov,
  kHAdd,
  kHSub,
  kHMul,
  kHDiv,
  kHRem,
  kHAnd,
  kHOr,
  kHXor,
  kHShl,
  kHShr,
  kHAddImm,
  kHNeg,
  kHNot,
  kHCmpEq,  // kHCmpEq + (uint16_t)cc
  kHCmpNe,
  kHCmpLt,
  kHCmpLe,
  kHCmpGt,
  kHCmpGe,
  kHLoad,
  kHStore,
  kHFLoad,
  kHFStore,
  kHLea,
  kHPush,
  kHPop,
  kHJmp,
  kHJnz,
  kHJz,
  kHCall,
  kHICall,
  kHRet,
  kHJmpReg,
  kHLoadCode,
  kHBndclR,
  kHBndcuR,
  kHBndclM,
  kHBndcuM,
  kHChkstk,
  kHTrap,
  kHCallExt,
  kHHalt,
  kHFAdd,
  kHFSub,
  kHFMul,
  kHFDiv,
  kHFNeg,
  kHFCmpEq,  // kHFCmpEq + (uint16_t)cc
  kHFCmpNe,
  kHFCmpLt,
  kHFCmpLe,
  kHFCmpGt,
  kHFCmpGe,
  kHCvtIF,
  kHCvtFI,
  kHMovIF,
  kHFMov,
  kHNop,
  kHSelect,
  kNumBaseHandlers,

  // Fused pair handlers (order mirrors vm_fast.cc's label tables by sharing
  // the list macros above).
#define CONFLLVM_YP(a, b) kHP_##a##_##b,
#define CONFLLVM_YJ(a) kHP_##a##_Jmp,
#define CONFLLVM_YT(b) kHP_Jmp_##b,
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
#define CONFLLVM_YS(b) kHP_Pop_##b,
  CONFLLVM_PAIRS_PS(CONFLLVM_YS)
#undef CONFLLVM_YS
#define CONFLLVM_YL(b) kHP_LoadCode_##b,
  CONFLLVM_PAIRS_LC(CONFLLVM_YL)
#undef CONFLLVM_YL
  kHP_Not_LoadCode,
  kHP_AddImm_JmpReg,
  CONFLLVM_PAIRS_BT(CONFLLVM_YP)
#undef CONFLLVM_YP
#undef CONFLLVM_YJ
#undef CONFLLVM_YT
  kHP_Add_BndclR,
  kHP_Pop_Pop,
  kHP_Push_Push,
  // Fused triples: the full MPX sandwich bndcl;bndcu;access on one pointer
  // register and one bounds register (the hot pattern of every OurMPX row).
  kHT_BndBnd_Load,
  kHT_BndBnd_Store,
  kHT_BndBnd_FLoad,
  kHT_BndBnd_FStore,
  // Trace-tier promotion slots (engine=trace only; never appear in the
  // shared image — the trace tier patches them into its private record copy
  // at block leaders). kHTraceCount bumps the block's entry counter and
  // falls through to the leader's original handler; kHTraceRun executes the
  // whole promoted block off its compiled op list (see trace_tier.h).
  kHTraceCount,
  kHTraceRun,
  kNumExecHandlers,
};

// One code word, flattened. 40 bytes; a record never straddles more than
// one 64-byte line boundary.
struct ExecRecord {
  uint16_t handler = kHExecData;
  uint8_t rd = kNoMReg;
  uint8_t rs1 = kNoMReg;
  uint8_t rs2 = kNoMReg;
  uint8_t base = kNoMReg;   // memory-operand base register (31 reads as 0)
  uint8_t index = kNoMReg;  // memory-operand index register
  uint8_t scale = 0;
  uint8_t seg = 0;       // non-zero: mask base/index to their low 32 bits
  uint8_t size = 8;      // access size in bytes (1 or 8)
  uint8_t acc_cost = 2;  // SegAccessCost for loads/stores; base cost else
  uint8_t bnd = 0;
  uint32_t next = 0;    // pre-resolved fallthrough word index
  uint32_t target = 0;  // pre-resolved branch/call target / import index
  int32_t disp = 0;
  int64_t imm = 0;       // sign-extended imm32, or the movimm64 payload
  uint64_t seg_base = 0;  // fs/gs base for segment-prefixed operands
};

// Segment-prefixed pointer accesses pay one extra cycle for the 32-bit
// sub-register addressing constraint (paper §3); rsp-based frame accesses
// need no extra work (rsp is already in-segment by chkstk). Shared by the
// reference stepper (per access) and the ExecImage builder (per word, once).
inline uint64_t SegAccessCost(const MemOperand& m) {
  return (m.seg != Seg::kNone && m.base != kRegSp) ? 3 : 2;
}

// One static basic block of the flattened code: a maximal straight-line
// instruction run entered only at `leader` (function entries, exit stubs,
// static branch/call targets, and the word after any terminator are
// leaders). `term` is the terminating control instruction's word, or ==
// `end` for blocks that fall through into the next leader (or into a data
// word, where execution faults). Successor edges cover the static CFG only:
// icall/ret/jmpreg/trap/halt blocks have none.
struct ExecBlock {
  uint32_t leader = 0;
  uint32_t end = 0;         // exclusive word bound
  uint32_t term = 0;        // terminator word; == end when falling through
  uint32_t num_instrs = 0;  // instruction count incl. the terminator
  uint32_t succ[2] = {0, 0};
  uint8_t nsucc = 0;
  bool has_term = false;
};

struct ExecImage {
  std::vector<ExecRecord> recs;  // one per code word
  std::vector<uint64_t> code;    // private copy for kLoadCode (CFI reads)

  // Static basic-block metadata over the same word indices: the trace tier's
  // promotion map and the bench's --block-histogram both key off it.
  // block_of[w] is the block id of instruction word w (kNoBlock for data /
  // continuation words); leaders satisfy blocks[block_of[w]].leader == w.
  static constexpr uint32_t kNoBlock = ~0u;
  std::vector<ExecBlock> blocks;
  std::vector<uint32_t> block_of;

  size_t size() const { return recs.size(); }
};

// Flattens `prog` (its decoded slots, region map and code image) into an
// ExecImage. Pure function of the program's content.
std::shared_ptr<const ExecImage> BuildExecImage(const LoadedProgram& prog);

// Fills `rec` with word `w`'s UNFUSED base record (the pre-fusion per-word
// flattening BuildExecImage starts from). The trace tier compiles promoted
// blocks from these so every interior op replays the reference engine's
// per-instruction semantics exactly.
void FillBaseExecRecord(const LoadedProgram& prog, size_t w, ExecRecord* rec);

// Base-handler pair -> fused handler id of a pair that a trace region may
// contain (0 = none): the simple+simple (SS), simple+load/store (SM) and
// load/store+simple (MS) lists plus pop;pop and push;push — the shapes
// whose fault pcs survive region packing. The trace tier re-fuses adjacent
// region ops with these ids and the image's own packing. Both arguments
// must be < kNumBaseHandlers.
uint16_t RegionPairHandler(uint16_t a, uint16_t b);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_VM_EXEC_IMAGE_H_
