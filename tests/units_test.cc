// Unit tests for the lower-level modules: lexer, parser, sema/qualifier
// inference, IR optimizations, liveness, ISA encode/decode (property),
// loader magic selection, allocator, VM memory/segmentation semantics, and
// the member names of the stats documents.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/liveness.h"
#include "src/driver/artifact_cache.h"
#include "src/driver/build_graph.h"
#include "src/driver/confcc.h"
#include "src/ir/irgen.h"
#include "src/isa/isa.h"
#include "src/isa/layout.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"
#include "src/opt/passes.h"
#include "src/runtime/allocator.h"
#include "src/sema/qual_solver.h"
#include "src/service/scheduler.h"
#include "src/service/server.h"
#include "src/support/fault_injection.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/vm/trace_tier.h"

namespace confllvm {
namespace {

// ---- lexer ----

TEST(Lexer, TokenizesOperatorsAndLiterals) {
  DiagEngine d;
  auto toks = Lex("x == 0x1f && y->z != 'a' << \"hi\\n\"", &d);
  ASSERT_FALSE(d.HasErrors());
  std::vector<Tok> kinds;
  for (const auto& t : toks) {
    kinds.push_back(t.kind);
  }
  EXPECT_EQ(kinds[0], Tok::kIdent);
  EXPECT_EQ(kinds[1], Tok::kEq);
  EXPECT_EQ(toks[2].int_value, 0x1f);
  EXPECT_EQ(kinds[3], Tok::kAndAnd);
  EXPECT_EQ(kinds[5], Tok::kArrow);
  EXPECT_EQ(toks[8].int_value, 'a');
  EXPECT_EQ(kinds[9], Tok::kShl);
  EXPECT_EQ(toks[10].string_value, "hi\n");
}

TEST(Lexer, CommentsAndLocations) {
  DiagEngine d;
  auto toks = Lex("a // line\n/* block\n*/ b", &d);
  ASSERT_FALSE(d.HasErrors());
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[1].loc.line, 3u);
}

TEST(Lexer, ReportsUnterminatedString) {
  DiagEngine d;
  Lex("\"oops", &d);
  EXPECT_TRUE(d.Contains("unterminated string"));
}

// ---- parser ----

TEST(Parser, PrecedenceAndAssociativity) {
  DiagEngine d;
  auto prog = Parse("int f() { return 1 + 2 * 3 - 4 / 2; }", &d);
  ASSERT_FALSE(d.HasErrors());
  const Stmt* ret = prog->functions[0].body->stmts[0].get();
  EXPECT_EQ(ExprToString(*ret->expr), "((1+(2*3))-(4/2))");
}

TEST(Parser, DeclaratorsWithQualifiers) {
  DiagEngine d;
  auto prog = Parse("private int * private pp; private char buf[4][8];", &d);
  ASSERT_FALSE(d.HasErrors());
  EXPECT_EQ(TypeSyntaxToString(*prog->globals[0].type), "private int* private");
  EXPECT_EQ(TypeSyntaxToString(*prog->globals[1].type), "private char[4][8]");
}

TEST(Parser, FunctionPointerDeclarator) {
  DiagEngine d;
  auto prog = Parse("int apply(int (*f)(int, char*), int v) { return f(v, NULL); }", &d);
  ASSERT_FALSE(d.HasErrors()) << d.ToString();
  EXPECT_EQ(prog->functions[0].params[0].type->base, TypeSyntax::Base::kFnPtr);
}

TEST(Parser, RejectsGarbage) {
  DiagEngine d;
  Parse("int f() { return + ; }", &d);
  EXPECT_TRUE(d.HasErrors());
}

// ---- sema / qualifier inference ----

std::unique_ptr<TypedProgram> Sema(const std::string& src, DiagEngine* d,
                                   SemaOptions opts = {}) {
  return RunSema(Parse(src, d), opts, d);
}

TEST(Sema, InfersPrivateLocalsFromFlows) {
  // `carrier` has no annotation; the assignment from `secret` raises its
  // inferred qualifier to private, which sink() accepts — inference, not
  // annotation, carries the taint (paper §5.1).
  DiagEngine d;
  auto tp = Sema(R"(
    int sink(private int x) { return 0; }
    int main() {
      private int secret = 3;
      int carrier = 0;
      carrier = secret + 1;
      return sink(carrier);
    })", &d);
  EXPECT_NE(tp, nullptr) << d.ToString();
  // And the same carrier must now be rejected at a public sink.
  DiagEngine d2;
  auto tp2 = Sema(R"(
    int out(int x) { return x; }
    int main() {
      private int secret = 3;
      int carrier = 0;
      carrier = secret + 1;
      return out(carrier);
    })", &d2);
  EXPECT_EQ(tp2, nullptr);
  EXPECT_TRUE(d2.Contains("private data flows to public"));
}

TEST(Sema, RejectsPrivateToPublicParam) {
  DiagEngine d;
  auto tp = Sema(R"(
    int out(int x) { return x; }
    int main() {
      private int s = 1;
      return out(s);
    })", &d);
  EXPECT_EQ(tp, nullptr);
  EXPECT_TRUE(d.Contains("private data flows to public"));
}

TEST(Sema, StructFieldInheritsOutermostQualifier) {
  // Paper §5.1: private st x => x.p is a private pointer to private int.
  DiagEngine d;
  auto tp = Sema(R"(
    struct st { private int *p; };
    int peek(struct st *s) { return 0; }
    int main() {
      private struct st x;
      struct st y;
      x.p = NULL;
      y.p = NULL;
      return 0;
    })", &d);
  ASSERT_NE(tp, nullptr) << d.ToString();
}

TEST(Sema, RejectsFieldWithOutermostAnnotation) {
  DiagEngine d;
  auto tp = Sema("struct bad { private int x; }; int main() { return 0; }", &d);
  EXPECT_EQ(tp, nullptr);
  EXPECT_TRUE(d.Contains("outermost qualifier is inherited"));
}

TEST(Sema, CastCannotDeclassifyValues) {
  DiagEngine d;
  auto tp = Sema(R"(
    int main() {
      private int s = 7;
      int leaked = (int)s;
      return leaked;
    })", &d);
  EXPECT_EQ(tp, nullptr);
  EXPECT_TRUE(d.Contains("cast cannot declassify"));
}

TEST(Sema, PointerCastMayRelabelPointee) {
  // The Minizip pattern: statically fine, dynamically checked.
  DiagEngine d;
  auto tp = Sema(R"(
    int use(char *p) { return (int)p[0]; }
    int main() {
      private char s[8];
      char *lie = (char*)(private char*)s;
      return use(lie);
    })", &d);
  EXPECT_NE(tp, nullptr) << d.ToString();
}

TEST(Sema, WarnModeOnlyWarnsOnPrivateBranch) {
  DiagEngine d;
  SemaOptions opts;
  opts.implicit_flows = ImplicitFlowMode::kWarn;
  auto tp = Sema("int main() { private int x = 1; if (x) { return 1; } return 0; }",
                 &d, opts);
  EXPECT_NE(tp, nullptr);
  EXPECT_GT(d.num_warnings(), 0u);
}

TEST(Sema, AllPrivateModeAllowsPrivateBranches) {
  DiagEngine d;
  SemaOptions opts;
  opts.all_private = true;
  auto tp = Sema("int main() { private int x = 1; if (x) { return 1; } return 0; }",
                 &d, opts);
  EXPECT_NE(tp, nullptr) << d.ToString();
  EXPECT_EQ(d.num_warnings(), 0u);
}

TEST(Sema, RejectsTooManyParams) {
  DiagEngine d;
  auto tp = Sema("int f(int a, int b, int c, int d, int e) { return 0; }", &d);
  EXPECT_EQ(tp, nullptr);
  EXPECT_TRUE(d.Contains("at most 4"));
}

TEST(Sema, RejectsFloatParams) {
  DiagEngine d;
  auto tp = Sema("int f(float x) { return 0; }", &d);
  EXPECT_EQ(tp, nullptr);
  EXPECT_TRUE(d.Contains("float parameters"));
}

TEST(QualSolver, LeastSolutionAndFailure) {
  QualSolver s;
  const QualTerm a = s.NewVar();
  const QualTerm b = s.NewVar();
  s.AddFlow(QualTerm::Const(Qual::kPrivate), a, SourceLoc{}, "x");
  s.AddFlow(a, b, SourceLoc{}, "y");
  DiagEngine d;
  ASSERT_TRUE(s.Solve(&d));
  EXPECT_EQ(s.Resolve(a), Qual::kPrivate);
  EXPECT_EQ(s.Resolve(b), Qual::kPrivate);

  QualSolver s2;
  const QualTerm c = s2.NewVar();
  s2.AddFlow(QualTerm::Const(Qual::kPrivate), c, SourceLoc{}, "in");
  s2.AddFlow(c, QualTerm::Const(Qual::kPublic), SourceLoc{}, "sink");
  DiagEngine d2;
  EXPECT_FALSE(s2.Solve(&d2));
  EXPECT_TRUE(d2.Contains("sink"));
}

// ---- IR optimizations ----

TEST(Opt, ConstantFoldingFoldsBranches) {
  DiagEngine d;
  auto tp = Sema("int main() { int x = 2 + 3; if (x == 5) { return 9; } return 1; }", &d);
  ASSERT_NE(tp, nullptr);
  auto ir = GenerateIr(*tp, &d);
  ASSERT_NE(ir, nullptr);
  OptimizeModule(ir.get(), OptLevel::kFull);
  // After folding + simplification main is nearly straight-line.
  const IrFunction* f = ir->FindFunction("main");
  ASSERT_NE(f, nullptr);
  size_t branches = 0;
  for (const auto& bb : f->blocks) {
    for (const auto& in : bb.instrs) {
      branches += in.op == IrOp::kBr ? 1 : 0;
    }
  }
  EXPECT_EQ(branches, 0u);
}

TEST(Opt, DeadCodeEliminationDropsUnusedPureDefs) {
  DiagEngine d;
  auto tp = Sema("int main() { int unused = 1 + 2; return 7; }", &d);
  ASSERT_NE(tp, nullptr);
  auto ir = GenerateIr(*tp, &d);
  OptimizeModule(ir.get(), OptLevel::kFull);
  const IrFunction* f = ir->FindFunction("main");
  size_t instrs = 0;
  for (const auto& bb : f->blocks) {
    instrs += bb.instrs.size();
  }
  EXPECT_LE(instrs, 3u);  // const, ret (+ a possible mov)
}

// ---- liveness ----

TEST(Liveness, CrossCallDetection) {
  DiagEngine d;
  auto tp = Sema(R"(
    int id(int x) { return x; }
    int main() {
      int a = 5;
      int b = id(1);
      return a + b;
    })", &d);
  ASSERT_NE(tp, nullptr);
  auto ir = GenerateIr(*tp, &d);
  const IrFunction* f = ir->FindFunction("main");
  auto live = ComputeLiveness(*f);
  bool any_crossing = false;
  for (const auto& iv : live.intervals) {
    any_crossing = any_crossing || iv.crosses_call;
  }
  EXPECT_TRUE(any_crossing) << "'a' must be live across the call";
}

// ---- ISA encode/decode property ----

TEST(IsaProperty, EncodeDecodeRoundTrip) {
  Rng rng(2024);
  // Decode enforces register classes (16 int, 8 float, kNoMReg for unused
  // memory operands), so the generator draws each field from its op's class.
  const auto is_float_op = [](Op op) {
    switch (op) {
      case Op::kFAdd:
      case Op::kFSub:
      case Op::kFMul:
      case Op::kFDiv:
      case Op::kFNeg:
      case Op::kFMov:
        return true;
      default:
        return false;
    }
  };
  for (int trial = 0; trial < 5000; ++trial) {
    MInstr in;
    in.op = static_cast<Op>(rng.Range(1, static_cast<int64_t>(Op::kMovIF)));
    const bool frd = is_float_op(in.op) || in.op == Op::kFLoad ||
                     in.op == Op::kFStore || in.op == Op::kCvtIF ||
                     in.op == Op::kMovIF;
    const bool frs = is_float_op(in.op) || in.op == Op::kFCmp ||
                     in.op == Op::kCvtFI;
    in.rd = static_cast<uint8_t>(rng.Below(frd ? kNumFloatRegs : kNumIntRegs));
    in.cc = static_cast<Cond>(rng.Below(6));
    in.size1 = rng.Chance(0.5);
    in.bnd = static_cast<uint8_t>(rng.Below(2));
    const auto mem_reg = [&]() -> uint8_t {
      const uint64_t v = rng.Below(kNumIntRegs + 1);
      return v == kNumIntRegs ? kNoMReg : static_cast<uint8_t>(v);
    };
    if (UsesMem(in.op)) {
      in.mem.base = mem_reg();
      in.mem.index = mem_reg();
      in.mem.scale_log2 = static_cast<uint8_t>(rng.Below(4));
      in.mem.seg = static_cast<Seg>(rng.Below(3));
      in.mem.disp = static_cast<int32_t>(rng.Next());
    } else {
      in.rs1 =
          static_cast<uint8_t>(rng.Below(frs ? kNumFloatRegs : kNumIntRegs));
      in.rs2 =
          static_cast<uint8_t>(rng.Below(frs ? kNumFloatRegs : kNumIntRegs));
      in.imm = static_cast<int32_t>(rng.Next());
      in.mem.seg = static_cast<Seg>(rng.Below(3));
      in.mem.scale_log2 = static_cast<uint8_t>(rng.Below(4));
    }
    if (in.op == Op::kMovImm64) {
      in.imm64 = static_cast<int64_t>(rng.Next());
      in.imm = 0;
    }
    std::vector<uint64_t> words;
    Encode(in, &words);
    uint32_t consumed = 0;
    auto back = Decode(words, 0, &consumed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(consumed, in.NumWords());
    EXPECT_EQ(back->op, in.op);
    EXPECT_EQ(back->rd, in.rd & 0x1f);
    if (UsesMem(in.op)) {
      EXPECT_EQ(back->mem.base, in.mem.base & 0x1f);
      EXPECT_EQ(back->mem.index, in.mem.index & 0x1f);
      EXPECT_EQ(back->mem.disp, in.mem.disp);
      EXPECT_EQ(back->mem.seg, in.mem.seg);
    } else {
      EXPECT_EQ(back->rs1, in.rs1 & 0x1f);
      EXPECT_EQ(back->imm, in.imm);
    }
    if (in.op == Op::kMovImm64) {
      EXPECT_EQ(back->imm64, in.imm64);
    }
    // Instruction words never look like magic words.
    EXPECT_FALSE(HasMagicShape(words[0]));
  }
}

// A word whose dereferenced register fields name registers the machine does
// not have is not a valid encoding: Decode must treat it as data, never hand
// an engine an out-of-range register index.
TEST(IsaProperty, DecodeRejectsOutOfClassRegisterFields) {
  const auto reject = [](MInstr in) {
    std::vector<uint64_t> words;
    Encode(in, &words);
    uint32_t consumed = 0;
    EXPECT_FALSE(Decode(words, 0, &consumed).has_value())
        << OpName(in.op) << " rd=" << int(in.rd) << " rs1=" << int(in.rs1);
  };
  {
    MInstr in;  // integer destination past the 16-register file
    in.op = Op::kAdd;
    in.rd = kNumIntRegs;
    in.rs1 = 0;
    in.rs2 = 1;
    reject(in);
  }
  {
    MInstr in;  // float destination past the 8-register file
    in.op = Op::kFAdd;
    in.rd = kNumFloatRegs;
    in.rs1 = 0;
    in.rs2 = 1;
    reject(in);
  }
  {
    MInstr in;  // memory base that is neither a real register nor kNoMReg
    in.op = Op::kLoad;
    in.rd = 0;
    in.mem.base = kNumIntRegs + 3;
    reject(in);
  }
  {
    MInstr in;  // indirect jump through a nonexistent register
    in.op = Op::kJmpReg;
    in.rs1 = 29;
    reject(in);
  }
}

TEST(IsaProperty, MagicWordsNeverDecode) {
  Rng rng(77);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t prefix = (rng.Next() & ((1ull << 59) - 1)) | (1ull << 58);
    const uint64_t w = MakeMagicWord(prefix, static_cast<uint8_t>(rng.Below(32)));
    EXPECT_TRUE(HasMagicShape(w));
    std::vector<uint64_t> words{w};
    uint32_t consumed = 0;
    EXPECT_FALSE(Decode(words, 0, &consumed).has_value());
  }
}

// ---- loader: magic prefixes ----

TEST(Loader, MagicPrefixesAreUniqueInTheBinary) {
  DiagEngine d;
  auto s = MakeSession(R"(
    private int add(private int x) { return x + 1; }
    int main() {
      private int v = 1;
      private int keep[1];
      keep[0] = add(v);
      return 2;
    }
  )", BuildPreset::kOurMpx, &d);
  ASSERT_NE(s, nullptr) << d.ToString();
  const Binary& bin = s->compiled->prog->binary;
  ASSERT_NE(bin.magic_call_prefix, 0u);
  ASSERT_NE(bin.magic_ret_prefix, 0u);
  EXPECT_NE(bin.magic_call_prefix, bin.magic_ret_prefix);
  // Count occurrences: every one must be a recorded (non-inverted) site.
  size_t found = 0;
  for (uint64_t w : bin.code) {
    if (HasMagicShape(w) && (MagicPrefixOf(w) == bin.magic_call_prefix ||
                             MagicPrefixOf(w) == bin.magic_ret_prefix)) {
      ++found;
    }
  }
  size_t sites = 0;
  for (const auto& site : bin.magic_sites) {
    sites += site.inverted ? 0 : 1;
  }
  EXPECT_EQ(found, sites);
}

// ---- allocator ----

TEST(Allocator, CustomPolicyRecyclesSizeClasses) {
  RegionAllocator a(0x1000, 1 << 20, AllocPolicy::kCustom);
  const uint64_t p1 = a.Alloc(100);
  ASSERT_NE(p1, 0u);
  a.Free(p1);
  const uint64_t p2 = a.Alloc(100);
  EXPECT_EQ(p1, p2);  // size-class free list reuse
}

TEST(Allocator, SystemPolicyCoalesces) {
  RegionAllocator a(0x1000, 4096, AllocPolicy::kSystem);
  const uint64_t p1 = a.Alloc(1024);
  const uint64_t p2 = a.Alloc(1024);
  const uint64_t p3 = a.Alloc(1024);
  ASSERT_NE(p3, 0u);
  a.Free(p1);
  a.Free(p2);  // coalesces with p1
  const uint64_t big = a.Alloc(2048);
  EXPECT_EQ(big, p1);
}

TEST(Allocator, ExhaustionReturnsNull) {
  RegionAllocator a(0x1000, 256, AllocPolicy::kCustom);
  EXPECT_NE(a.Alloc(128), 0u);
  EXPECT_NE(a.Alloc(64), 0u);
  EXPECT_EQ(a.Alloc(512), 0u);
}

// ---- VM semantics ----

TEST(VmSemantics, SegmentTruncationConfinesWildPointers) {
  // A pointer forged to point far outside the segment still lands inside
  // segment+guard space; the unmapped guard faults (never a cross-region
  // read).
  DiagEngine d;
  auto s = MakeSession(R"(
    int peek(int addr) {
      char *p = (char*)addr;
      return (int)p[0];
    }
  )", BuildPreset::kOurSeg, &d);
  ASSERT_NE(s, nullptr) << d.ToString();
  // Forge an address deep in the private region; the access is compiled
  // with an fs (public) prefix, so only its low 32 bits are used.
  const uint64_t prv = s->compiled->prog->map.prv_base + 0x100;
  auto r = s->vm->Call("peek", {prv});
  if (r.ok) {
    // Truncation redirected the access into the public segment: whatever it
    // read, it was public bytes, not the private region.
    SUCCEED();
  } else {
    EXPECT_EQ(r.fault, VmFault::kUnmapped);  // landed in guard space
  }
}

TEST(VmSemantics, MpxCheckFaultsOnForgedPrivatePointer) {
  DiagEngine d;
  auto s = MakeSession(R"(
    int peek(int addr) {
      char *p = (char*)addr;
      return (int)p[0];
    }
  )", BuildPreset::kOurMpx, &d);
  ASSERT_NE(s, nullptr) << d.ToString();
  const uint64_t prv = s->compiled->prog->map.prv_base + 0x100;
  auto r = s->vm->Call("peek", {prv});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, VmFault::kBndViolation) << r.fault_msg;
}

TEST(VmSemantics, DivideByZeroFaults) {
  DiagEngine d;
  auto s = MakeSession("int f(int a, int b) { return a / b; }", BuildPreset::kBase, &d);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->vm->Call("f", {10, 2}).ret, 5u);
  auto r = s->vm->Call("f", {10, 0});
  EXPECT_EQ(r.fault, VmFault::kDivZero);
}

TEST(VmSemantics, CacheModelHitsAndMisses) {
  CacheModel c;
  EXPECT_GT(c.Access(0x1000), 0u);  // cold miss
  EXPECT_EQ(c.Access(0x1000), 0u);  // hit
  EXPECT_EQ(c.Access(0x1038), 0u);  // same 64B line
  EXPECT_GT(c.Access(0x1040), 0u);  // next line
}

TEST(VmSemantics, ParallelThreadsScaleOnCores) {
  DiagEngine d;
  VmOptions opts;
  opts.num_cores = 2;
  auto src = R"(
    int spin(int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) { s = s + i; }
      return s;
    })";
  auto s = MakeSession(src, BuildPreset::kBase, &d, opts);
  ASSERT_NE(s, nullptr);
  auto two = s->vm->RunParallel({{"spin", {20000}}, {"spin", {20000}}});
  ASSERT_TRUE(two.ok);
  DiagEngine d2;
  auto s2 = MakeSession(src, BuildPreset::kBase, &d2, opts);
  auto four = s2->vm->RunParallel(
      {{"spin", {20000}}, {"spin", {20000}}, {"spin", {20000}}, {"spin", {20000}}});
  ASSERT_TRUE(four.ok);
  // 4 threads on 2 cores take about twice the wall time of 2 threads.
  EXPECT_GT(four.wall_cycles, two.wall_cycles * 17 / 10);
  EXPECT_LT(four.wall_cycles, two.wall_cycles * 23 / 10);
}

// ---- stats documents ----

std::vector<std::string> MemberNames(const Json& doc) {
  std::vector<std::string> names;
  for (const auto& kv : doc.members()) {
    names.push_back(kv.first);
  }
  return names;
}

// The counter names CI, `confcc --connect` and the benchmark read: each
// document's members, in order, and a dump that parses back to itself with
// every member's kind (an integral double stays a double).
TEST(StatsDocuments, MemberNamesAreStable) {
  const auto expect_stable = [](const Json& doc,
                                const std::vector<std::string>& names) {
    const std::string dumped = doc.Dump();
    EXPECT_EQ(MemberNames(doc), names) << dumped;
    Json parsed;
    std::string err;
    ASSERT_TRUE(Json::Parse(dumped, &parsed, &err)) << err << "\n" << dumped;
    EXPECT_EQ(parsed.Dump(), dumped);
    for (size_t i = 0; i < names.size() && i < parsed.members().size(); ++i) {
      EXPECT_EQ(parsed.members()[i].second.kind(), doc.members()[i].second.kind())
          << names[i] << " in " << dumped;
    }
  };

  expect_stable(
      CacheStats{}.ToJson(),
      {"hits", "misses", "shared_waits", "insertions", "evictions",
       "bytes_retained", "prefix_shares", "link_hits", "link_misses",
       "disk_hits", "disk_misses", "disk_stores", "disk_evictions",
       "disk_invalid", "disk_retries", "disk_io_failures",
       "disk_store_failures", "disk_breaker_opens",
       "disk_breaker_short_circuits", "disk_breaker_probes",
       "disk_breaker_open", "hits_by_stage", "misses_by_stage"});
  expect_stable(ServeScheduler::Stats{}.ToJson(),
                {"submitted", "accepted", "completed", "rejected_queue_full",
                 "rejected_client_cap", "peak_queue_depth", "clients_seen"});
  expect_stable(
      ConfccdServer::ServerStats{}.ToJson(),
      {"connections_accepted", "connections_dropped_inject",
       "connections_closed", "bad_frames", "bad_requests", "requests",
       "responses_dropped", "injected_read_faults",
       "injected_dispatch_faults"});
  expect_stable(TraceTierStats{}.ToJson(),
                {"candidate_blocks", "promoted_blocks", "block_runs",
                 "trace_instrs", "entry_bails"});

  BuildGraphStats graph;
  graph.per_module.push_back({"leaf \"quoted\"", 0, true, false, true, 2.0});
  const Json graph_doc = graph.ToJson();
  expect_stable(graph_doc, {"modules", "waves", "codegen_ran", "link_cached",
                            "link", "module_detail"});
  expect_stable(*graph_doc.Find("link"), {"code_words", "functions",
                                          "resolved_call_sites",
                                          "contract_checks"});
  ASSERT_EQ(graph_doc.Find("module_detail")->items().size(), 1u);
  expect_stable(graph_doc.Find("module_detail")->items()[0],
                {"name", "wave", "ok", "skipped", "codegen_cached", "ms"});

  FaultInjector& fi = FaultInjector::Instance();
  std::string err;
  ASSERT_TRUE(fi.Configure("seed=5,unit.site=n1", &err)) << err;
  EXPECT_TRUE(fi.ShouldFail("unit.site"));
  const Json report = fi.ReportJson();
  fi.Reset();
  expect_stable(report, {"seed", "sites"});
  ASSERT_EQ(report.Find("sites")->items().size(), 1u);
  expect_stable(report.Find("sites")->items()[0], {"site", "hits", "fired"});
}

}  // namespace
}  // namespace confllvm
