#include "src/vm/trace_tier.h"

#include <algorithm>

#include "src/vm/memory.h"
#include "src/vm/program.h"

namespace confllvm {

namespace {

// Region growth stops here regardless of structure; bounds the entry
// prechecks' conservatism (a bigger region bails earlier under small
// RunParallel quanta) and the per-promotion compile cost. Sized so fully
// instrumented presets — MPX wraps every access in bndcl/bndcu, tripling a
// block's record count — still fit a long straight-line block in one region.
constexpr size_t kMaxTraceOps = 512;

// Both read the op table (exec_image.h); only base handlers reach them.
bool IsTerminatorHandler(uint16_t h) {
  return kBaseOps[h].kind == OpKind::kControl;
}

// Upper bound on one op's reference-engine cycle cost, for the bounded-slice
// entry precheck: memory ops bound the cache model by its miss penalty, and
// checks use their full cost (the FP dual-issue credit only lowers it). A
// control op's bound is never used: it only ever ends a region, and the
// final op never enters the precheck sum (the reference engine's next
// budget check happens after it) — which is what lets a trusted call-out,
// whose cost is unbounded, end one.
uint64_t WorstOpCycles(const ExecRecord& r) {
  const BaseOp& op = kBaseOps[r.handler];
  return op.kind == OpKind::kMem
             ? op.cost + r.seg_extra + CacheModel::kMissPenalty
             : op.cost;
}

}  // namespace

TraceTier::TraceTier(const LoadedProgram* p, const ExecImage* img,
                     uint64_t thr)
    : prog(p),
      image(img),
      threshold(thr == 0 ? 1 : thr),
      recs(img->recs),
      blocks(img->blocks.size()) {
  for (size_t bid = 0; bid < image->blocks.size(); ++bid) {
    const ExecBlock& b = image->blocks[bid];
    TraceBlock& tb = blocks[bid];
    tb.num_instrs = b.num_instrs;
    tb.term = b.term;
    if (b.num_instrs < 2) {
      continue;  // a lone terminator has nothing to collapse
    }
    tb.orig_handler = recs[b.leader].handler;
    recs[b.leader].handler = kHTraceCount;
    ++stats.candidate_blocks;
  }
}

// Grows and compiles the trace region rooted at `bid`'s leader. The region
// follows the straight-line path: plain instructions are appended as unfused
// base records; a static jmp is inlined (kTJmpInline) so the walk continues
// at its target; a jnz/jz is turned into a guard (kTGuardNZ/Z) that
// side-exits on the taken path and continues in-stream on the fall-through.
// The walk closes at a call/ret/indirect transfer/trap (natural terminator,
// run by the outer loop via tTerm), at a word already in the region (the
// loop-back jmp of a hot loop stays a natural jmp, so one iteration = one
// region entry), at a data word, or at the length cap (synthetic exit).
void TraceTier::Promote(uint32_t bid) {
  TraceBlock& tb = blocks[bid];
  if (tb.promoted) {
    return;
  }
  const ExecBlock& b = image->blocks[bid];
  tb.ops.clear();
  std::vector<uint32_t> words;  // words already in the region (cycle stop)
  const auto in_region = [&words](uint32_t w) {
    return std::find(words.begin(), words.end(), w) != words.end();
  };
  const size_t nwords = image->block_of.size();
  uint64_t worst_all = 0;  // Σ worst-case cycles over every instruction
  uint64_t last_cost = 0;  // ... and the final instruction's share of it
  uint32_t ninstrs = 0;
  uint32_t w = b.leader;
  // Return words of calls the walk has inlined (innermost last): a ret met
  // while this is non-empty becomes a guarded in-region pop instead of a
  // terminator, continuing at the matching call's fall-through. Each entry
  // snapshots the walk state at the call so a dive that dead-ends inside
  // the callee (before reaching its ret) can be rolled back — the region
  // then ends at the call like any other terminator instead of dragging a
  // mostly-side-exiting callee prefix along.
  struct InlinedCall {
    uint32_t ret_word;
    uint32_t call_word;
    size_t ops_size;
    size_t words_size;
    uint32_t ninstrs;
    uint64_t worst_all;
  };
  std::vector<InlinedCall> call_rets;
  constexpr size_t kMaxInlineCalls = 8;
  for (;;) {
    ExecRecord op;
    if (w < nwords) {
      FillBaseExecRecord(*prog, w, &op);
    }
    if (w >= nwords || op.handler == kHExecData ||
        in_region(w) || tb.ops.size() + 1 >= kMaxTraceOps) {
      if (!call_rets.empty()) {
        // The walk dove into a callee and dead-ended before its ret (a loop
        // inside the callee, the length cap, a data word). Keeping the
        // partial callee prefix would build a region that usually
        // side-exits mid-callee, so roll the walk back to the OUTERMOST
        // unreturned call and close the region there with the call as its
        // natural terminator — the shape the region had before call
        // inlining existed.
        const InlinedCall& s = call_rets.front();
        tb.ops.resize(s.ops_size);
        words.resize(s.words_size);
        ninstrs = s.ninstrs;
        worst_all = s.worst_all;
        ExecRecord call_op;
        FillBaseExecRecord(*prog, s.call_word, &call_op);
        worst_all += WorstOpCycles(call_op);
        last_cost = WorstOpCycles(call_op);
        tb.term = s.call_word;
        tb.ops.push_back(call_op);
        ++ninstrs;
        break;
      }
      // Synthetic exit: hand control back to the outer dispatch at `w`,
      // which replays the reference engine's budget -> instruction-limit ->
      // pc-bounds -> data-word fault order there.
      ExecRecord exit_op;
      exit_op.handler = kHExecData;
      exit_op.target = w;
      tb.ops.push_back(exit_op);
      break;
    }
    words.push_back(w);
    const uint32_t next = op.next;
    const uint32_t taken = op.target;
    if (!IsTerminatorHandler(op.handler)) {
      const uint64_t c = WorstOpCycles(op);
      worst_all += c;
      last_cost = c;
      op.target = w;  // own word index — the precise fault pc for body ops
      tb.ops.push_back(op);
      ++ninstrs;
      w = next;
      continue;
    }
    // Inline a static jmp / guard a conditional branch when the path ahead
    // is fresh; otherwise the op is the region's natural terminator.
    if (op.handler == kHJmp && taken < nwords && taken != b.leader &&
        !in_region(taken)) {
      op.handler = kTJmpInline;
      worst_all += 1;  // branches cost 1 either way
      last_cost = 1;
      tb.ops.push_back(op);
      ++ninstrs;
      w = taken;
      continue;
    }
    if (op.handler == kHCall && taken < nwords && !in_region(taken) &&
        call_rets.size() < kMaxInlineCalls) {
      // Inline the call: execute the return-address push for real, then
      // keep walking at the callee entry. `next` (the return word) rides
      // along for the push AND as the matching ret guard's continuation.
      op.handler = kTCallInline;
      op.target = w;  // own word: the push's fault pc
      call_rets.push_back({next, w, tb.ops.size(), words.size(), ninstrs,
                           worst_all});
      worst_all += 2 + CacheModel::kMissPenalty;
      last_cost = 2 + CacheModel::kMissPenalty;
      tb.ops.push_back(op);
      ++ninstrs;
      w = taken;
      continue;
    }
    if (op.handler == kHRet && !call_rets.empty() &&
        !in_region(call_rets.back().ret_word)) {
      // The innermost inlined call's ret: pop+validate the real return
      // address in-region, continue at the call's fall-through when it
      // matches, side-exit through the popped address when it does not.
      const uint32_t retw = call_rets.back().ret_word;
      call_rets.pop_back();
      op.handler = kTRetGuard;
      op.target = w;  // own word: the pop/bad-address fault pc
      op.imm = static_cast<int64_t>(retw);
      worst_all += 2;
      last_cost = 2;
      tb.ops.push_back(op);
      ++ninstrs;
      w = retw;
      continue;
    }
    if (op.handler == kHJnz || op.handler == kHJz) {
      // Follow whichever arm the tier's own entry counts say is hotter; the
      // other arm becomes the guard's side exit. A loop header's "stay in
      // the loop" branch is usually the TAKEN arm, and following it lets
      // the walk reach the loop-back jmp so a whole iteration collapses
      // into one self-re-entering region. Ties prefer the fall-through.
      const auto arm_count = [&](uint32_t t) -> uint64_t {
        if (t >= nwords || image->block_of[t] == ExecImage::kNoBlock) {
          return 0;
        }
        return blocks[image->block_of[t]].count;
      };
      const bool taken_ok = taken < nwords && !in_region(taken);
      const bool fall_ok = !in_region(next);
      const bool follow_taken =
          taken_ok && (!fall_ok || arm_count(taken) > arm_count(next));
      if (follow_taken || fall_ok) {
        op.handler = follow_taken
                         ? (op.handler == kHJnz ? kTGuardNZT : kTGuardZT)
                         : (op.handler == kHJnz ? kTGuardNZ : kTGuardZ);
        if (follow_taken) {
          op.target = next;  // side exit on the not-taken path
        }
        worst_all += 1;
        last_cost = 1;
        tb.ops.push_back(op);  // fall-guards keep the taken word in `target`
        ++ninstrs;
        w = follow_taken ? taken : next;
        continue;
      }
    }
    if (op.handler == kHJmp && taken == b.leader) {
      // Loop-back edge: the region IS the loop body. Re-enter directly,
      // skipping the outer dispatch; `target` stays the leader for the
      // bail path.
      op.handler = kTLoopBack;
      worst_all += 1;
      last_cost = 1;
      tb.ops.push_back(op);
      ++ninstrs;
      break;
    }
    worst_all += WorstOpCycles(op);
    last_cost = WorstOpCycles(op);
    tb.term = w;  // tTerm materializes pc here before the outer handler runs
    tb.ops.push_back(op);  // natural record: outer base handler executes it
    ++ninstrs;
    break;
  }
  // Superinstruction peephole: re-fuse adjacent body ops with the image's
  // own pair/triple records (second element packed exactly as
  // BuildExecImage's fusion pass packs it), but WITHOUT the outer engine's
  // mid-pair bail checks — the region entry prechecks already proved a
  // mid-region stop impossible. Only shapes whose fault pcs survive the
  // packing are used (RegionPairHandler): fault-free simple+simple,
  // simple+mem (the access faults at rec->next, the straight-line successor
  // word), mem+simple (the access keeps its own word in rec->target),
  // pop;pop / push;push (the second faults at rec->next), and the full
  // bndcl;bndcu;access sandwich (access word carried in imm, exactly like
  // the image triple).
  // Pseudo ops (guards, inlined jmps) and terminators never fuse, so every
  // fused record's elements are word-adjacent by construction.
  std::vector<ExecRecord> fused;
  fused.reserve(tb.ops.size());
  for (size_t i = 0; i < tb.ops.size();) {
    const ExecRecord& a = tb.ops[i];
    if (i + 2 < tb.ops.size() && a.handler == kHBndclR &&
        tb.ops[i + 1].handler == kHBndcuR && tb.ops[i + 1].rs1 == a.rs1 &&
        tb.ops[i + 1].bnd == a.bnd) {
      const ExecRecord& c = tb.ops[i + 2];
      uint16_t th = 0;
      switch (c.handler) {
        case kHLoad: th = kHT_BndBnd_Load; break;
        case kHStore: th = kHT_BndBnd_Store; break;
        case kHFLoad: th = kHT_BndBnd_FLoad; break;
        case kHFStore: th = kHT_BndBnd_FStore; break;
        default: break;
      }
      if (th != 0) {
        ExecRecord r = a;  // keeps target = bndcl's word, next = bndcu's
        r.handler = th;
        r.rd = c.rd;
        r.base = c.base;
        r.index = c.index;
        r.scale = c.scale;
        r.seg = c.seg;
        r.size = c.size;
        r.seg_extra = c.seg_extra;
        r.disp = c.disp;
        r.seg_base = c.seg_base;
        r.imm = static_cast<int64_t>(c.target);  // the access word's pc
        fused.push_back(r);
        i += 3;
        continue;
      }
    }
    if (i + 2 < tb.ops.size() &&
        (a.handler == kHAddImm || a.handler == kHLoad)) {
      // Producer + cmp + guard -> one dispatch (the loop latch and the
      // chain-walk probe). The head keeps its natural fields; AddImm cannot
      // fault so its `target` slot is free for the guard's side exit, while
      // Load needs `target` for its own fault pc and stashes the exit in
      // `imm` (the packed cmp has no immediate).
      const ExecRecord& c = tb.ops[i + 1];
      const ExecRecord& g = tb.ops[i + 2];
      const bool g_exit_z =
          g.handler == kTGuardZ || g.handler == kTGuardNZT;
      const bool g_exit_nz =
          g.handler == kTGuardNZ || g.handler == kTGuardZT;
      if (c.handler >= kHCmpEq && c.handler <= kHCmpGe &&
          (g_exit_z || g_exit_nz) && g.rd == c.rd) {
        ExecRecord r = a;
        const uint16_t off =
            static_cast<uint16_t>((c.handler - kHCmpEq) * 2 + (g_exit_z ? 1 : 0));
        if (a.handler == kHAddImm) {
          r.handler = static_cast<uint16_t>(kT3A_CmpEq_ExitNZ + off);
          r.base = c.rd;  // cmp packs SS-style: flag in base
          r.index = c.rs1;
          r.scale = c.rs2;
          r.target = g.target;
        } else {
          r.handler = static_cast<uint16_t>(kT3L_CmpEq_ExitNZ + off);
          r.rs1 = c.rd;  // cmp packs MS-style: flag in rs1
          r.rs2 = c.rs1;
          r.bnd = c.rs2;
          r.imm = static_cast<int64_t>(g.target);
        }
        fused.push_back(r);
        i += 3;
        continue;
      }
    }
    if (i + 1 < tb.ops.size() && a.handler >= kHCmpEq &&
        a.handler <= kHCmpGe) {
      // cmp + the guard testing its flag -> one fused dispatch. Only the
      // exit predicate matters: GuardNZ (taken exits) and GuardZT (not-taken
      // exits on a nonzero flag) share ExitNZ; GuardZ/GuardNZT share ExitZ.
      const ExecRecord& g = tb.ops[i + 1];
      const bool exit_z =
          g.handler == kTGuardZ || g.handler == kTGuardNZT;
      const bool exit_nz =
          g.handler == kTGuardNZ || g.handler == kTGuardZT;
      if ((exit_z || exit_nz) && g.rd == a.rd) {
        ExecRecord r = a;
        r.handler = static_cast<uint16_t>(
            kTCG_CmpEq_ExitNZ + (a.handler - kHCmpEq) * 2 + (exit_z ? 1 : 0));
        r.target = g.target;  // the guard's side-exit word
        fused.push_back(r);
        i += 2;
        continue;
      }
    }
    if (i + 1 < tb.ops.size() && a.handler < kNumBaseHandlers &&
        tb.ops[i + 1].handler < kNumBaseHandlers) {
      const ExecRecord& b2 = tb.ops[i + 1];
      const uint16_t f = RegionPairHandler(a.handler, b2.handler);
      if (f != 0) {
        ExecRecord r = a;
        r.handler = f;
        if (b2.handler == kHLoad || b2.handler == kHStore) {
          r.bnd = b2.rd;  // simple+mem: B's operand in the natural fields
          r.base = b2.base;
          r.index = b2.index;
          r.scale = b2.scale;
          r.seg = b2.seg;
          r.size = b2.size;
          r.seg_extra = b2.seg_extra;
          r.disp = b2.disp;
          r.seg_base = b2.seg_base;
        } else if (a.handler == kHLoad || a.handler == kHStore) {
          r.rs1 = b2.rd;  // mem+simple: B packs into rs1/rs2/bnd/imm
          r.rs2 = b2.rs1;
          r.bnd = b2.rs2;
          r.imm = b2.imm;
        } else if (a.handler == kHPop || a.handler == kHPush) {
          r.rs1 = b2.rd;  // pop;pop / push;push: B's register
        } else {
          r.base = b2.rd;  // simple+simple: B packs SS-style
          r.index = b2.rs1;
          r.scale = b2.rs2;
          r.seg_base = static_cast<uint64_t>(b2.imm);
        }
        fused.push_back(r);
        i += 2;
        continue;
      }
    }
    fused.push_back(a);
    ++i;
  }
  tb.ops = std::move(fused);
  tb.num_instrs = ninstrs;
  // A region this small cannot amortize the kHTraceRun entry (prechecks +
  // the extra label hop): demote instead — restore the leader's original
  // handler so the block stops profiling and runs the plain fast path.
  if (tb.ops.size() < 3 && tb.ops.back().handler != kTLoopBack) {
    tb.ops.clear();
    tb.ops.shrink_to_fit();
    tb.num_instrs = 0;
    recs[b.leader].handler = tb.orig_handler;
    return;
  }
  // The final instruction is excluded from the precheck sum: the reference
  // engine's budget checks run BEFORE each instruction, so only the prefix
  // sum up to (not including) the last one can trip a check the trace would
  // otherwise skip.
  tb.worst_cycles = worst_all - last_cost;
  tb.promoted = true;
  ++stats.promoted_blocks;
  recs[b.leader].handler = kHTraceRun;  // the promotion: one uint16 store
}

TraceTierStats TraceTier::Telemetry() const {
  TraceTierStats s = stats;
  for (const TraceBlock& tb : blocks) {
    if (tb.promoted) {
      s.block_runs += tb.runs;
      s.trace_instrs += tb.runs * tb.num_instrs;
    }
  }
  return s;
}

Json TraceTierStats::ToJson() const {
  Json j = Json::Object();
  j.Set("candidate_blocks", Json::UInt(candidate_blocks));
  j.Set("promoted_blocks", Json::UInt(promoted_blocks));
  j.Set("block_runs", Json::UInt(block_runs));
  j.Set("trace_instrs", Json::UInt(trace_instrs));
  j.Set("entry_bails", Json::UInt(entry_bails));
  return j;
}

}  // namespace confllvm
