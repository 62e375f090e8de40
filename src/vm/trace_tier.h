// The hot-block trace tier (VmEngine::kTrace): runtime block profiling plus
// whole-block compiled handlers layered above the fast engine.
//
// The fast engine's superinstruction set is static — the pairs the checked-in
// reference-engine pair histogram says are frequent — so branchy
// long-running workloads still pay one dispatch per (fused) record. The trace tier discovers hot blocks at run time
// instead: it executes the same ExecImage, but counts entries at every block
// leader (kHTraceCount patched into a PRIVATE copy of the record stream),
// and once a block crosses VmOptions::trace_threshold it compiles the whole
// straight-line region into one block handler (kHTraceRun). A promoted
// block executes its instructions off a pre-decoded, operand-packed op list
// with no per-instruction budget/limit/pc checks — those are hoisted into
// two entry prechecks — and dispatches through a small base-op label table,
// so the serial record-fetch chain of the outer loop (load next pc -> index
// record -> load handler) collapses into a sequential pointer bump.
//
// Promotion is a single store to the leader record's handler field in the
// per-Vm private copy: no global locks on the hot path, and the shared
// LoadedProgram::exec_image stays immutable. Equivalence discipline
// (tests/vm_engine_test.cc gates it differentially):
//  * interior ops are the UNFUSED base records (FillBaseExecRecord), each
//    replaying the reference stepper's body, cost, fp-credit and stats
//    bookkeeping exactly, with its own word index carried in `target` so a
//    mid-block fault reports the precise pc;
//  * the terminator keeps its natural record and is executed by the outer
//    loop's own base handler (one label jump), so call/ret/callext/halt
//    semantics — including the trusted-call state flush — are shared code;
//  * the entry prechecks are conservative: if the reference engine COULD
//    stop mid-block (cycle budget inside a RunParallel quantum, instruction
//    limit), the tier bails to the leader's original handler and the block
//    runs per-instruction, stopping exactly where the reference stops.
// CallResult, VmStats, fault pc/kind/message and the cache stream are
// therefore bit-identical to engine=ref; the TraceTierStats telemetry below
// is kept OUT of VmStats so the stats equivalence stays byte-exact.
#ifndef CONFLLVM_SRC_VM_TRACE_TIER_H_
#define CONFLLVM_SRC_VM_TRACE_TIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/json.h"
#include "src/vm/exec_image.h"

namespace confllvm {

struct LoadedProgram;

// Trace-only pseudo handlers: valid ONLY inside TraceBlock::ops, never in an
// ExecImage or the tier's patched record stream. They extend the trace
// dispatch table past ALL image handlers (a compiled region reuses the
// image's fused pair/triple ids for its own superinstructions, so the
// pseudo ids must live above kNumExecHandlers) and let a region continue
// THROUGH control flow instead of ending at it:
//  * kTJmpInline — a static jmp whose target was inlined: charge the jump,
//    then fall through to the next op in the stream (no control transfer);
//  * kTGuardNZ / kTGuardZ — a jnz/jz whose fall-through was inlined: the
//    not-taken path continues in-stream, the taken path side-exits to the
//    outer dispatch at the record's `target` word (charging exactly what the
//    reference engine charges for the branch either way);
//  * kTGuardNZT / kTGuardZT — the mirror guards: the TAKEN path was inlined
//    (the hotter arm by the tier's own block entry counts — e.g. a loop
//    header's "stay in the loop" branch), so the not-taken path side-exits
//    to the fall-through word stored in `target`;
//  * kTLoopBack — the region's terminating jmp targets its own leader (the
//    for/while loop shape): re-enter the region directly — repeat the entry
//    prechecks, then restart at ops[0] — without the outer-dispatch round
//    trip. Bails to the outer dispatch at the leader (`target`) whenever the
//    prechecks say the reference engine could stop inside the iteration.
//  * kTCG_* — a cmp fused with the guard that tests its result (the trace
//    mirror of the image's CB family): one dispatch computes the flag AND
//    branches. Only the EXIT predicate matters at run time, so the four
//    guard flavors collapse to two labels per cmp: ExitNZ covers GuardNZ
//    (taken path exits) and GuardZT (not-taken path exits when the flag is
//    nonzero); ExitZ covers GuardZ and GuardNZT. `target` holds the guard's
//    side-exit word either way.
enum : uint16_t {
  kTJmpInline = kNumExecHandlers,
  kTGuardNZ,
  kTGuardZ,
  kTGuardNZT,
  kTGuardZT,
  kTLoopBack,
  // Fused cmp+guard ids: ordered (CmpEq..CmpGe) x (ExitNZ, ExitZ) so the
  // promotion peephole can index them as
  //   kTCG_CmpEq_ExitNZ + (cmp - kHCmpEq) * 2 + exit_z.
  kTCG_CmpEq_ExitNZ,
  kTCG_CmpEq_ExitZ,
  kTCG_CmpNe_ExitNZ,
  kTCG_CmpNe_ExitZ,
  kTCG_CmpLt_ExitNZ,
  kTCG_CmpLt_ExitZ,
  kTCG_CmpLe_ExitNZ,
  kTCG_CmpLe_ExitZ,
  kTCG_CmpGt_ExitNZ,
  kTCG_CmpGt_ExitZ,
  kTCG_CmpGe_ExitNZ,
  kTCG_CmpGe_ExitZ,
  // Triple fusions: a non-faulting producer, the cmp consuming it, and the
  // guard testing the flag — one dispatch for a whole loop latch
  // (addimm; cmp; jcc) or chain-walk probe (load; cmp; jcc). Same
  // (cmp x exit) indexing as kTCG_*:
  //  * kT3A_* — AddImm head in its natural fields, cmp packed SS-style
  //    (flag reg in base, operands in index/scale), guard side-exit word in
  //    `target` (the head cannot fault, so the word slot is free);
  //  * kT3L_* — Load head keeps its natural mem operand and its own word in
  //    `target` for the fault pc, cmp packed MS-style (flag reg in rs1,
  //    operands in rs2/bnd), guard side-exit word in `imm`.
  kT3A_CmpEq_ExitNZ,
  kT3A_CmpEq_ExitZ,
  kT3A_CmpNe_ExitNZ,
  kT3A_CmpNe_ExitZ,
  kT3A_CmpLt_ExitNZ,
  kT3A_CmpLt_ExitZ,
  kT3A_CmpLe_ExitNZ,
  kT3A_CmpLe_ExitZ,
  kT3A_CmpGt_ExitNZ,
  kT3A_CmpGt_ExitZ,
  kT3A_CmpGe_ExitNZ,
  kT3A_CmpGe_ExitZ,
  kT3L_CmpEq_ExitNZ,
  kT3L_CmpEq_ExitZ,
  kT3L_CmpNe_ExitNZ,
  kT3L_CmpNe_ExitZ,
  kT3L_CmpLt_ExitNZ,
  kT3L_CmpLt_ExitZ,
  kT3L_CmpLe_ExitNZ,
  kT3L_CmpLe_ExitZ,
  kT3L_CmpGt_ExitNZ,
  kT3L_CmpGt_ExitZ,
  kT3L_CmpGe_ExitNZ,
  kT3L_CmpGe_ExitZ,
  // Call/ret inlining: a region may flow through a static call into the
  // callee and back out through its ret, so a whole leaf call collapses
  // into the caller's region.
  //  * kTCallInline — the return-address push is executed for real
  //    (observable memory write + cache traffic, faults at the call's own
  //    word in `target`), then control falls through in-stream to the
  //    callee's first op; `next` still holds the return word the push
  //    encodes.
  //  * kTRetGuard — the ret pops and validates the REAL return address; if
  //    it equals the expected continuation word (stashed in `imm` by the
  //    walk — the matching inlined call's `next`) the region continues
  //    in-stream, otherwise it side-exits to wherever the popped address
  //    points, exactly like the outer ret handler.
  kTCallInline,
  kTRetGuard,
  kTNumTraceHandlers,
};

// Trace-tier telemetry. Deliberately separate from VmStats (which must stay
// bit-identical across engines); exposed via Vm::trace_tier() and the
// confcc --trace-stats-json sink.
struct TraceTierStats {
  uint64_t candidate_blocks = 0;  // leaders patched with a counting slot
  uint64_t promoted_blocks = 0;   // blocks compiled to kHTraceRun
  uint64_t block_runs = 0;        // whole-block executions of promoted blocks
  // Upper bound on instructions retired inside those runs: each entry is
  // charged the region's full length, so runs that take an early side exit
  // overcount (divide by sim_instrs for a coverage ceiling, not a measure).
  uint64_t trace_instrs = 0;
  uint64_t entry_bails = 0;       // promoted entries that ran per-instruction

  Json ToJson() const;
};

// One block's promotion state. `ops` is empty until promotion; afterwards it
// holds the compiled trace region: the superblock grown from the block's
// leader by appending straight-line instructions (unfused base records, own
// word index in `target` for fault pcs), inlining static jmps (kTJmpInline)
// and conditional branches whose fall-through stays fresh (kTGuardNZ/Z with
// the taken word in `target`), until it reaches a call/ret/indirect
// transfer, a word already in the region, a data word, or the length cap.
// A region ending at a real terminator keeps that op's natural record (run
// by the outer loop at `term`); any other ending is a synthetic kHExecData
// record that hands control back to the outer dispatch at `target`.
struct TraceBlock {
  uint16_t orig_handler = kHExecData;  // pre-patch handler (possibly fused)
  uint32_t num_instrs = 0;    // instructions in the region once promoted
  uint32_t term = 0;  // word of the region's natural terminator (if any)
  uint64_t count = 0;         // block entries seen via the leader record
  uint64_t worst_cycles = 0;  // upper bound on cycles before the final op
  // Whole-region executions. Kept per block (the line the entry prechecks
  // already touch) rather than in TraceTierStats so the hot loop-back path
  // pays one increment on a warm line; Telemetry() aggregates on demand.
  uint64_t runs = 0;
  bool promoted = false;
  std::vector<ExecRecord> ops;
};

// Per-Vm mutable trace state. The shared ExecImage is immutable, so each
// kTrace Vm takes a private copy of the record stream and patches only
// leader handler slots in it; the copy's size never changes, so the raw
// `recs.data()` pointer the dispatch loop holds stays valid across
// promotions (a promotion is one uint16 store, observed on the next entry).
class TraceTier {
 public:
  TraceTier(const LoadedProgram* prog, const ExecImage* image,
            uint64_t threshold);

  // Compiles block `bid`'s straight-line region into its op list and swaps
  // the leader's handler slot from kHTraceCount to kHTraceRun. Regions too
  // small to amortize the entry prechecks are demoted instead: the leader
  // gets its original handler back and the block stops profiling.
  void Promote(uint32_t bid);

  // `stats` plus the per-block run counters folded in (block_runs,
  // trace_instrs). The dispatch loop only bumps TraceBlock::runs on the hot
  // path; use this accessor whenever full telemetry is needed.
  TraceTierStats Telemetry() const;

  const LoadedProgram* prog;
  const ExecImage* image;
  uint64_t threshold;
  std::vector<ExecRecord> recs;    // private, leader-patched record stream
  std::vector<TraceBlock> blocks;  // parallel to image->blocks
  TraceTierStats stats;
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_VM_TRACE_TIER_H_
