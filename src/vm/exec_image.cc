#include "src/vm/exec_image.h"

#include <vector>

#include "src/vm/program.h"

namespace confllvm {

namespace {

ExecHandler HandlerFor(const MInstr& mi) {
  switch (mi.op) {
    case Op::kInvalid: return kHInvalid;
    case Op::kMovImm:
    case Op::kMovImm64: return kHMovImm;
    case Op::kMov: return kHMov;
    case Op::kAdd: return kHAdd;
    case Op::kSub: return kHSub;
    case Op::kMul: return kHMul;
    case Op::kDiv: return kHDiv;
    case Op::kRem: return kHRem;
    case Op::kAnd: return kHAnd;
    case Op::kOr: return kHOr;
    case Op::kXor: return kHXor;
    case Op::kShl: return kHShl;
    case Op::kShr: return kHShr;
    case Op::kAddImm: return kHAddImm;
    case Op::kNeg: return kHNeg;
    case Op::kNot: return kHNot;
    case Op::kCmp:
      return static_cast<ExecHandler>(kHCmpEq + static_cast<uint16_t>(mi.cc));
    case Op::kLoad: return kHLoad;
    case Op::kStore: return kHStore;
    case Op::kLea: return kHLea;
    case Op::kPush: return kHPush;
    case Op::kPop: return kHPop;
    case Op::kJmp: return kHJmp;
    case Op::kJnz: return kHJnz;
    case Op::kJz: return kHJz;
    case Op::kCall: return kHCall;
    case Op::kICall: return kHICall;
    case Op::kRet: return kHRet;
    case Op::kJmpReg: return kHJmpReg;
    case Op::kLoadCode: return kHLoadCode;
    case Op::kBndclR: return kHBndclR;
    case Op::kBndcuR: return kHBndcuR;
    case Op::kBndclM: return kHBndclM;
    case Op::kBndcuM: return kHBndcuM;
    case Op::kChkstk: return kHChkstk;
    case Op::kTrap: return kHTrap;
    case Op::kCallExt: return kHCallExt;
    case Op::kHalt: return kHHalt;
    case Op::kFAdd: return kHFAdd;
    case Op::kFSub: return kHFSub;
    case Op::kFMul: return kHFMul;
    case Op::kFDiv: return kHFDiv;
    case Op::kFNeg: return kHFNeg;
    case Op::kFCmp:
      return static_cast<ExecHandler>(kHFCmpEq + static_cast<uint16_t>(mi.cc));
    case Op::kCvtIF: return kHCvtIF;
    case Op::kCvtFI: return kHCvtFI;
    case Op::kFLoad: return kHFLoad;
    case Op::kFStore: return kHFStore;
    case Op::kFMov: return kHFMov;
    case Op::kNop: return kHNop;
    case Op::kMovIF: return kHMovIF;
    case Op::kSelect: return kHSelect;
  }
  return kHInvalid;
}

// Taken-arm fusion for a conditional branch whose (backward) target is a
// simple op: kHP_JnzT_<b> / kHP_JzT_<b>, or 0.
uint16_t TakenArmHandler(uint16_t br, uint16_t arm) {
  static const auto table = [] {
    std::vector<uint16_t> t(2 * kNumBaseHandlers, 0);
#define CONFLLVM_BT_ROW_JnzT 0
#define CONFLLVM_BT_ROW_JzT 1
#define CONFLLVM_YBT(brt, b) \
  t[CONFLLVM_BT_ROW_##brt * kNumBaseHandlers + kH##b] = kHP_##brt##_##b;
    CONFLLVM_PAIRS_BT(CONFLLVM_YBT)
#undef CONFLLVM_YBT
#undef CONFLLVM_BT_ROW_JnzT
#undef CONFLLVM_BT_ROW_JzT
    return t;
  }();
  return table[(br == kHJz ? 1 : 0) * kNumBaseHandlers + arm];
}

// Base-handler pair -> fused handler id (0 = not fusible). Generated from
// the same X-macro lists as the enum and the dispatch labels.
uint16_t FusedHandler(uint16_t a, uint16_t b) {
  static const auto table = [] {
    std::vector<uint16_t> t(kNumBaseHandlers * kNumBaseHandlers, 0);
    const auto at = [&t](uint16_t x, uint16_t y) -> uint16_t& {
      return t[x * kNumBaseHandlers + y];
    };
#define CONFLLVM_YP(x, y) at(kH##x, kH##y) = kHP_##x##_##y;
#define CONFLLVM_YJ(x) at(kH##x, kHJmp) = kHP_##x##_Jmp;
#define CONFLLVM_YT(y) at(kHJmp, kH##y) = kHP_Jmp_##y;
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
#define CONFLLVM_YS(b) at(kHPop, kH##b) = kHP_Pop_##b;
    CONFLLVM_PAIRS_PS(CONFLLVM_YS)
#undef CONFLLVM_YS
#define CONFLLVM_YL(b) at(kHLoadCode, kH##b) = kHP_LoadCode_##b;
    CONFLLVM_PAIRS_LC(CONFLLVM_YL)
#undef CONFLLVM_YL
    at(kHNot, kHLoadCode) = kHP_Not_LoadCode;
    at(kHAddImm, kHJmpReg) = kHP_AddImm_JmpReg;
#undef CONFLLVM_YP
#undef CONFLLVM_YJ
#undef CONFLLVM_YT
    at(kHAdd, kHBndclR) = kHP_Add_BndclR;
    at(kHPop, kHPop) = kHP_Pop_Pop;
    at(kHPush, kHPush) = kHP_Push_Push;
    return t;
  }();
  return table[a * kNumBaseHandlers + b];
}

// True when `op` ends a basic block: control leaves the straight line (or,
// for kCallExt, crosses into T and may clobber/fault, so the trace tier
// treats the call-out as a block edge too).
bool IsBlockTerminator(Op op) {
  switch (op) {
    case Op::kJmp:
    case Op::kJnz:
    case Op::kJz:
    case Op::kCall:
    case Op::kICall:
    case Op::kRet:
    case Op::kJmpReg:
    case Op::kTrap:
    case Op::kCallExt:
    case Op::kHalt:
    case Op::kInvalid:
      return true;
    default:
      return false;
  }
}

// Leaders, block extents, and static successor edges over the decoded slots.
void BuildBlockMetadata(const LoadedProgram& prog, ExecImage* img) {
  const size_t n = prog.decoded.size();
  img->block_of.assign(n, ExecImage::kNoBlock);
  std::vector<uint8_t> leader(n, 0);
  const auto mark = [&](uint64_t w) {
    if (w < n && prog.decoded[w].instr.has_value()) {
      leader[w] = 1;
    }
  };
  for (const BinFunction& f : prog.binary.functions) {
    mark(f.entry_word);
  }
  mark(prog.exit_stub_word[0]);
  mark(prog.exit_stub_word[1]);
  // Stride by slot width so a movimm64 payload is never mistaken for a
  // standalone data word (which WOULD start a region: CFI-checked returns
  // skip over an embedded magic word and resume at the instruction right
  // after it, so that instruction must be a leader).
  for (size_t i = 0; i < n;) {
    const DecodedSlot& slot = prog.decoded[i];
    if (!slot.instr.has_value()) {
      mark(i + 1);  // dynamic control flow resumes past the data word
      ++i;
      continue;
    }
    const Op op = slot.instr->op;
    if (op == Op::kJmp || op == Op::kJnz || op == Op::kJz || op == Op::kCall) {
      mark(static_cast<uint32_t>(slot.instr->imm));
    }
    if (IsBlockTerminator(op)) {
      mark(i + slot.words);  // fall-through resumption point
    }
    i += slot.words;
  }

  for (size_t i = 0; i < n; ++i) {
    if (!leader[i]) {
      continue;
    }
    ExecBlock b;
    b.leader = static_cast<uint32_t>(i);
    const uint32_t bid = static_cast<uint32_t>(img->blocks.size());
    size_t w = i;
    while (true) {
      const DecodedSlot& slot = prog.decoded[w];
      img->block_of[w] = bid;
      ++b.num_instrs;
      const MInstr& mi = *slot.instr;
      const size_t next = w + slot.words;
      if (IsBlockTerminator(mi.op)) {
        b.term = static_cast<uint32_t>(w);
        b.end = static_cast<uint32_t>(next);
        b.has_term = true;
        switch (mi.op) {
          case Op::kJmp:
          case Op::kCall:
            b.succ[b.nsucc++] = static_cast<uint32_t>(mi.imm);
            break;
          case Op::kJnz:
          case Op::kJz:
            b.succ[b.nsucc++] = static_cast<uint32_t>(mi.imm);
            b.succ[b.nsucc++] = static_cast<uint32_t>(next);
            break;
          case Op::kCallExt:
            b.succ[b.nsucc++] = static_cast<uint32_t>(next);
            break;
          default:
            break;  // icall/ret/jmpreg/trap/halt/invalid: dynamic or none
        }
        break;
      }
      if (next >= n || leader[next] || !prog.decoded[next].instr.has_value()) {
        // Falls through into the next leader — or into a data word, where
        // execution faults; either way the straight line ends here.
        b.term = static_cast<uint32_t>(next);
        b.end = static_cast<uint32_t>(next);
        b.succ[b.nsucc++] = static_cast<uint32_t>(next);
        break;
      }
      w = next;
    }
    img->blocks.push_back(b);
  }
}

}  // namespace

uint16_t RegionPairHandler(uint16_t a, uint16_t b) {
  static const auto table = [] {
    std::vector<uint16_t> t(kNumBaseHandlers * kNumBaseHandlers, 0);
#define CONFLLVM_YP(x, y) t[kH##x * kNumBaseHandlers + kH##y] = kHP_##x##_##y;
    CONFLLVM_PAIRS_SS(CONFLLVM_YP)
    CONFLLVM_PAIRS_SM(CONFLLVM_YP)
    CONFLLVM_PAIRS_MS(CONFLLVM_YP)
    CONFLLVM_YP(Pop, Pop)
    CONFLLVM_YP(Push, Push)
#undef CONFLLVM_YP
    return t;
  }();
  return table[a * kNumBaseHandlers + b];
}

void FillBaseExecRecord(const LoadedProgram& prog, size_t i, ExecRecord* out) {
  ExecRecord& rec = *out;
  rec = ExecRecord{};
  const DecodedSlot& slot = prog.decoded[i];
  if (!slot.instr.has_value()) {
    rec.handler = kHExecData;  // defaults suffice for the trap
    return;
  }
  const MInstr& mi = *slot.instr;
  rec.handler = HandlerFor(mi);
  rec.rd = mi.rd;
  rec.rs1 = mi.rs1;
  rec.rs2 = mi.rs2;
  rec.bnd = mi.bnd;
  rec.next = static_cast<uint32_t>(i + slot.words);
  rec.imm = mi.op == Op::kMovImm64 ? mi.imm64 : static_cast<int64_t>(mi.imm);
  if (UsesMem(mi.op)) {
    rec.base = mi.mem.base;
    rec.index = mi.mem.index;
    rec.scale = mi.mem.scale_log2;
    rec.seg = static_cast<uint8_t>(mi.mem.seg);
    rec.disp = mi.mem.disp;
    rec.size = mi.size1 ? 1 : 8;
    rec.acc_cost = static_cast<uint8_t>(SegAccessCost(mi.mem));
    if (mi.mem.seg == Seg::kFs) {
      rec.seg_base = prog.map.fs;
    } else if (mi.mem.seg == Seg::kGs) {
      rec.seg_base = prog.map.gs;
    }
  }
  switch (mi.op) {
    case Op::kJmp:
    case Op::kJnz:
    case Op::kJz:
    case Op::kCall:
      rec.target = static_cast<uint32_t>(mi.imm);
      break;
    case Op::kCallExt:
      rec.target = static_cast<uint32_t>(mi.imm);
      break;
    default:
      break;
  }
}

std::shared_ptr<const ExecImage> BuildExecImage(const LoadedProgram& prog) {
  auto img = std::make_shared<ExecImage>();
  img->code = prog.binary.code;
  img->recs.resize(prog.decoded.size());
  for (size_t i = 0; i < prog.decoded.size(); ++i) {
    FillBaseExecRecord(prog, i, &img->recs[i]);
  }

  // Fusion pass: retarget the first element of frequent straight-line pairs
  // to a superinstruction handler (one dispatch executes both). Decided on
  // the base handler ids computed above, so already-fused successors still
  // contribute their original op and chains of pairs compose.
  const size_t n = img->recs.size();
  std::vector<uint16_t> base(n);
  for (size_t i = 0; i < n; ++i) {
    base[i] = img->recs[i].handler;
  }
  // Triple pass first (it owns more record fields than a pair): the full
  // MPX sandwich bndcl;bndcu;access with one pointer register and one
  // bounds-register id.
  for (size_t i = 0; i < n; ++i) {
    ExecRecord& rec = img->recs[i];
    if (base[i] != kHBndclR) {
      continue;
    }
    const size_t j = rec.next;
    if (j >= n || base[j] != kHBndcuR) {
      continue;
    }
    const ExecRecord& rb = img->recs[j];
    if (rb.rs1 != rec.rs1 || rb.bnd != rec.bnd) {
      continue;
    }
    const size_t k = rb.next;
    if (k >= n) {
      continue;
    }
    uint16_t th = 0;
    switch (base[k]) {
      case kHLoad: th = kHT_BndBnd_Load; break;
      case kHStore: th = kHT_BndBnd_Store; break;
      case kHFLoad: th = kHT_BndBnd_FLoad; break;
      case kHFStore: th = kHT_BndBnd_FStore; break;
      default: break;
    }
    if (th == 0) {
      continue;
    }
    const ExecRecord& rc = img->recs[k];
    rec.handler = th;
    rec.rd = rc.rd;  // the access register (int or float index)
    rec.base = rc.base;
    rec.index = rc.index;
    rec.scale = rc.scale;
    rec.seg = rc.seg;
    rec.size = rc.size;
    rec.acc_cost = rc.acc_cost;
    rec.disp = rc.disp;
    rec.seg_base = rc.seg_base;
    rec.imm = static_cast<int64_t>(k);  // the access word index (fault pc)
    rec.target = rc.next;
  }

  for (size_t i = 0; i < n; ++i) {
    ExecRecord& rec = img->recs[i];
    if (rec.handler != base[i]) {
      continue;  // already fused into a triple
    }
    // The second element is the fallthrough, or the (static, in-range)
    // target for a leading jmp — but never the jmp itself.
    size_t j;
    if (base[i] == kHJmp) {
      j = rec.target;
      if (j == i) {
        continue;
      }
    } else {
      j = rec.next;
    }
    if (j >= n) {
      continue;
    }
    uint16_t fused = FusedHandler(base[i], base[j]);
    if ((base[i] == kHJnz || base[i] == kHJz) && rec.target < i) {
      // Backward conditional branch: loop backedges are taken-dominant, so
      // fusing the taken arm beats fusing the fallthrough.
      const uint16_t taken = TakenArmHandler(base[i], base[rec.target]);
      if (taken != 0) {
        const ExecRecord& ra = img->recs[rec.target];
        rec.handler = taken;
        rec.base = ra.rd;
        rec.index = ra.rs1;
        rec.scale = ra.rs2;
        rec.seg_base = static_cast<uint64_t>(ra.imm);
        rec.disp = static_cast<int32_t>(ra.next);
        continue;
      }
    }
    if (fused == 0) {
      continue;
    }
    rec.handler = fused;
    // Pack the second element into the first record's unused fields so the
    // pair executes off a single record fetch. The first element's own
    // operands stay untouched (the pair handlers bail to its base handler
    // when a mid-pair budget/limit boundary could hit).
    const ExecRecord& rb = img->recs[j];
    if (fused == kHP_Add_BndclR) {
      rec.base = rb.rs1;    // B's checked register
      rec.size = rb.bnd;    // B's bounds register id
      rec.target = rb.next;
    } else if (fused == kHP_Pop_Pop || fused == kHP_Push_Push) {
      rec.rs1 = rb.rd;  // B's popped/pushed register
      rec.target = rb.next;
    } else if (base[j] == kHLoad || base[j] == kHStore ||
               base[j] == kHFLoad || base[j] == kHFStore) {
      // simple->mem / bndcu->mem: B's whole memory operand moves into the
      // record's natural fields; its register rides in bnd (rd for bndcu,
      // whose own operands are rs1+bnd).
      if (base[i] == kHBndcuR) {
        rec.rd = rb.rd;
      } else {
        rec.bnd = rb.rd;
      }
      rec.base = rb.base;
      rec.index = rb.index;
      rec.scale = rb.scale;
      rec.seg = rb.seg;
      rec.size = rb.size;
      rec.acc_cost = rb.acc_cost;
      rec.disp = rb.disp;
      rec.seg_base = rb.seg_base;
      rec.target = rb.next;
    } else if (base[i] == kHLoad || base[i] == kHStore ||
               base[i] == kHFLoad || base[i] == kHFStore ||
               base[i] == kHPop) {
      // mem->simple (and pop->simple): B packs into rs1/rs2/bnd/imm
      // (unused by the first element).
      rec.rs1 = rb.rd;
      rec.rs2 = rb.rs1;
      rec.bnd = rb.rs2;
      rec.imm = rb.imm;
      rec.target = rb.next;
    } else if (base[j] == kHJmp) {
      if (base[i] == kHJnz || base[i] == kHJz) {
        rec.disp = static_cast<int32_t>(rb.target);  // A keeps its own target
      } else {
        rec.target = rb.target;  // pair continues at the jmp's target
      }
    } else if (base[j] == kHJnz || base[j] == kHJz) {
      rec.base = rb.rd;                            // branch condition register
      rec.disp = static_cast<int32_t>(rb.target);  // branch taken target
      rec.target = rb.next;                        // branch fallthrough
    } else if (base[i] == kHJnz || base[i] == kHJz) {
      // cond branch -> fallthrough simple: B packs SS-style, the pair's
      // fallthrough continuation in disp (target stays the branch target).
      rec.base = rb.rd;
      rec.index = rb.rs1;
      rec.scale = rb.rs2;
      rec.seg_base = static_cast<uint64_t>(rb.imm);
      rec.disp = static_cast<int32_t>(rb.next);
    } else if (base[i] == kHJmp) {
      rec.base = rb.rd;
      rec.index = rb.rs1;
      rec.scale = rb.rs2;
      rec.seg_base = static_cast<uint64_t>(rb.imm);
      rec.disp = static_cast<int32_t>(rb.next);  // target holds A's own jmp
    } else {
      rec.base = rb.rd;
      rec.index = rb.rs1;
      rec.scale = rb.rs2;
      rec.seg_base = static_cast<uint64_t>(rb.imm);
      rec.target = rb.next;
    }
  }

  // Block metadata rides along unconditionally: it is cheap (one linear
  // walk), and both the trace tier and the ref engine's block profiler
  // (VmOptions::block_profile) key off it.
  BuildBlockMetadata(prog, img.get());
  return img;
}

}  // namespace confllvm
