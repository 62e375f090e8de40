// Engine-differential tests: the fast execution engine (token-threaded
// dispatch over an ExecImage, flat region memory) and the trace tier above
// it (runtime block profiling + whole-block compiled handlers) must be
// bit-identical in observable behaviour to the reference stepper —
// CallResult (return value, fault kind/pc/message), VmStats (every
// counter), cache-model hit/miss streams, trusted-library side effects —
// for every workload under all eight presets, on success AND on every
// fault path. The trace sessions run with a tiny promotion threshold so
// the promoted whole-block path actually executes in every test; a
// dedicated case reaches the handlers no workload executes. Plus
// unit tests for the satellites: ExecImage block metadata (leaders across
// jump/call/fault edges, fused pairs spanning block boundaries, promotion
// under RunParallel), exact max_instrs enforcement, Memory::Map
// end-address overflow, the O(1) function-name index, and the default
// engine (the trace tier, checked against ref on a promoting exec row).
#include <gtest/gtest.h>

#include <algorithm>

#include "bench/workloads.h"
#include "src/driver/artifact_cache.h"
#include "src/driver/confcc.h"
#include "src/isa/layout.h"
#include "src/runtime/loader.h"
#include "src/vm/exec_image.h"
#include "src/vm/trace_tier.h"
#include "tests/test_util.h"

namespace confllvm {
namespace {

using testutil::DiffCall;
using testutil::EngineOpts;
using testutil::EnginePair;
using testutil::ExpectSameResult;
using testutil::ExpectSameStats;
using testutil::kTestTraceThreshold;
using testutil::MakePair;
using workloads::kNumSpecKernels;
using workloads::kSpecKernels;

// ---- the tentpole guarantee: every workload × every preset ----

class SpecKernelDiff : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(All, SpecKernelDiff,
                         ::testing::Range(0, kNumSpecKernels),
                         [](const auto& info) {
                           return kSpecKernels[info.param].name;
                         });

TEST_P(SpecKernelDiff, IdenticalUnderAllPresets) {
  const auto& kernel = kSpecKernels[GetParam()];
  ArtifactCache cache;  // share the front end across the 16 compiles
  for (BuildPreset preset : kAllBuildPresets) {
    SCOPED_TRACE(PresetName(preset));
    auto p = MakePair(kernel.source, preset, &cache);
    ASSERT_NE(p.ref, nullptr);
    ASSERT_NE(p.fast, nullptr);
    DiffCall(&p, "main", {});
  }
}

struct AppCase {
  const char* name;
};

class AppDiff : public ::testing::TestWithParam<AppCase> {};
INSTANTIATE_TEST_SUITE_P(All, AppDiff,
                         ::testing::Values(AppCase{"nginx"}, AppCase{"ldap"},
                                           AppCase{"privado"},
                                           AppCase{"merkle"}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST_P(AppDiff, IdenticalUnderAllPresets) {
  const std::string name = GetParam().name;
  const char* src = testutil::AppSource(name);
  ArtifactCache cache;
  for (BuildPreset preset : kAllBuildPresets) {
    SCOPED_TRACE(PresetName(preset));
    auto p = MakePair(src, preset, &cache);
    ASSERT_NE(p.ref, nullptr);
    ASSERT_NE(p.fast, nullptr);
    if (name == "nginx") {
      for (Session* s : {p.ref.get(), p.fast.get(), p.trace.get()}) {
        s->tlib->AddFile("index.html", std::string(1024, 'x'));
        for (int i = 0; i < 4; ++i) {
          s->tlib->PushRx(0, "GET index.html\n");
        }
      }
    }
    DiffCall(&p, "main", {});
    // Trusted-library side effects must agree too.
    for (Session* s : {p.fast.get(), p.trace.get()}) {
      EXPECT_EQ(p.ref->tlib->SentBytes(0), s->tlib->SentBytes(0));
      EXPECT_EQ(p.ref->tlib->log(), s->tlib->log());
      EXPECT_EQ(p.ref->tlib->declassified(), s->tlib->declassified());
    }
  }
}

TEST(EngineDiff, MultiCallSequencePreservesCacheModelState) {
  // Back-to-back calls on one Vm: the D-cache model carries state across
  // calls, so the second call's cycle count depends on the first — both
  // engines must agree call by call.
  auto p = MakePair(workloads::kMerkle, BuildPreset::kOurMpx);
  ASSERT_NE(p.ref, nullptr);
  ASSERT_NE(p.fast, nullptr);
  ASSERT_NE(p.trace, nullptr);
  DiffCall(&p, "merkle_build", {64});
  DiffCall(&p, "merkle_read_all", {0, 64});
  DiffCall(&p, "merkle_read_all", {0, 64});
  // Promotion state carries across calls on one Vm: blocks counted hot in
  // the first call run promoted in the later ones, and equality holds.
  const TraceTier* tier = p.trace->vm->trace_tier();
  ASSERT_NE(tier, nullptr);
  EXPECT_GT(tier->stats.promoted_blocks, 0u);
  EXPECT_GT(tier->Telemetry().block_runs, 0u);
}

// Handlers no workload reaches: memory-form MPX checks (emitted for every
// access once the guard-displacement shortcut is off), the fcmp conditions
// eq/ne/le/ge, and nop (never emitted, so one is patched over a bound check
// that always passes). Each must run identically on every engine, and on
// the trace tier also inside a promoted region.
TEST(EngineDiff, RareHandlersRunOnEveryEngineAndInsidePromotedRegions) {
  const char* src = R"(
    int g_buf[16];
    int probe(int i) {
      float f = (float)(i % 9);
      float g = 4.0;
      int hits = 0;
      if (f == g) { hits = hits + 1; }
      if (f != g) { hits = hits + 2; }
      if (f <= g) { hits = hits + 4; }
      if (f >= g) { hits = hits + 8; }
      g_buf[i & 15] = g_buf[i & 15] + hits;
      return hits;
    }
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        s = s + probe(i);
      }
      return s + g_buf[3];
    })";
  BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  config.codegen.mpx_guard_disp_opt = false;
  const auto session = [&](VmEngine engine) -> std::unique_ptr<Session> {
    DiagEngine d;
    auto compiled = Compile(src, config, &d);
    EXPECT_NE(compiled, nullptr) << d.ToString();
    if (compiled == nullptr) {
      return nullptr;
    }
    // The first bndcl.m after probe's entry guards its g_buf load.
    LoadedProgram& prog = *compiled->prog;
    const BinFunction* probe = nullptr;
    for (const BinFunction& f : prog.binary.functions) {
      probe = f.name == "probe" ? &f : probe;
    }
    EXPECT_NE(probe, nullptr);
    size_t w = probe == nullptr ? prog.decoded.size() : probe->entry_word;
    while (w < prog.decoded.size() &&
           !(prog.decoded[w].instr.has_value() &&
             prog.decoded[w].instr->op == Op::kBndclM)) {
      ++w;
    }
    EXPECT_LT(w, prog.decoded.size());
    if (w < prog.decoded.size()) {
      EXPECT_EQ(prog.decoded[w].words, 1u);
      MInstr nop{};
      nop.op = Op::kNop;
      std::vector<uint64_t> words;
      Encode(nop, &words);
      EXPECT_EQ(words.size(), 1u);
      prog.binary.code[w] = words[0];
      testutil::Redecode(&prog);
    }
    return MakeSessionFor(std::move(compiled), EngineOpts(engine));
  };
  EnginePair p{session(VmEngine::kRef), session(VmEngine::kFast),
               session(VmEngine::kTrace)};
  ASSERT_NE(p.ref, nullptr);
  ASSERT_NE(p.fast, nullptr);
  ASSERT_NE(p.trace, nullptr);
  const Vm::CallResult want = p.ref->vm->Call("main", {});
  EXPECT_TRUE(want.ok) << FaultName(want.fault) << " " << want.fault_msg;
  EXPECT_EQ(want.ret, 577u);  // 545 over the 64 probes + g_buf[3] == 32
  for (Session* s : {p.fast.get(), p.trace.get()}) {
    SCOPED_TRACE(s == p.fast.get() ? "engine=fast" : "engine=trace");
    ExpectSameResult(want, s->vm->Call("main", {}));
    ExpectSameStats(*p.ref->vm, *s->vm);
  }

  const ExecImage& img = *p.fast->compiled->prog->exec_image->built();
  const TraceTier* tier = p.trace->vm->trace_tier();
  ASSERT_NE(tier, nullptr);
  for (const uint16_t h : {kHBndclM, kHBndcuM, kHFCmpEq, kHFCmpNe, kHFCmpLe,
                           kHFCmpGe, kHNop}) {
    SCOPED_TRACE(h);
    // The fast engine dispatches the handler itself (no fused record
    // absorbs it)...
    EXPECT_TRUE(std::any_of(img.recs.begin(), img.recs.end(),
                            [h](const ExecRecord& r) { return r.handler == h; }));
    // ... and a promoted region that ran holds it in its op list.
    EXPECT_TRUE(std::any_of(
        tier->blocks.begin(), tier->blocks.end(), [h](const TraceBlock& tb) {
          return tb.promoted && tb.runs > 0 &&
                 std::any_of(tb.ops.begin(), tb.ops.end(),
                             [h](const ExecRecord& op) {
                               return op.handler == h;
                             });
        }));
  }
}

TEST(EngineDiff, RunParallelWaveAccountingIdentical) {
  const char* src = R"(
    int spin(int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) { s = s + i * i; }
      return s;
    })";
  for (BuildPreset preset : {BuildPreset::kBase, BuildPreset::kOurMpx}) {
    SCOPED_TRACE(PresetName(preset));
    VmOptions base;
    base.num_cores = 2;
    base.quantum = 500;  // tiny slices: many waves, mid-block preemptions
    DiagEngine d1;
    VmOptions ro = base;
    ro.engine = VmEngine::kRef;
    auto ref = MakeSession(src, preset, &d1, ro);
    ASSERT_NE(ref, nullptr) << d1.ToString();
    std::vector<Vm::ThreadSpec> specs;
    for (uint64_t n : {1000u, 3000u, 500u, 2000u, 1500u}) {
      specs.push_back({"spin", {n}});
    }
    const auto r = ref->vm->RunParallel(specs);
    // Trace under a tiny quantum exercises the bounded-slice entry bail:
    // the loop block promotes, and most promoted entries must still stop
    // exactly at the reference engine's budget boundary.
    for (VmEngine e : {VmEngine::kFast, VmEngine::kTrace}) {
      SCOPED_TRACE(EngineName(e));
      VmOptions fo = base;
      fo.engine = e;
      fo.trace_threshold = kTestTraceThreshold;
      DiagEngine d2;
      auto fast = MakeSession(src, preset, &d2, fo);
      ASSERT_NE(fast, nullptr) << d2.ToString();
      const auto f = fast->vm->RunParallel(specs);
      EXPECT_EQ(r.ok, f.ok);
      EXPECT_EQ(r.wall_cycles, f.wall_cycles);
      ASSERT_EQ(r.per_thread.size(), f.per_thread.size());
      for (size_t i = 0; i < r.per_thread.size(); ++i) {
        SCOPED_TRACE(i);
        ExpectSameResult(r.per_thread[i], f.per_thread[i]);
      }
      ExpectSameStats(*ref->vm, *fast->vm);
      if (e == VmEngine::kTrace) {
        const TraceTier* tier = fast->vm->trace_tier();
        ASSERT_NE(tier, nullptr);
        EXPECT_GT(tier->stats.promoted_blocks, 0u);
        EXPECT_GT(tier->stats.entry_bails, 0u);
      }
    }
  }
}

// ---- fault paths: identical VmFault, fault_pc, and message ----

struct FaultCase {
  const char* name;
  const char* src;
  const char* entry;
  std::vector<uint64_t> args;
  BuildPreset preset;
  VmFault want;
};

const char* kWildStore = R"(
    int poke(int x) {
      char *p = (char*)x;
      p[0] = 1;
      return 0;
    })";

const char* kHijack = R"(
    int gadget(int x) { return x * 3; }
    int dispatch(int target) {
      int (*f)(int) = (int (*)(int))target;
      return f(7);
    })";

class FaultDiff : public ::testing::TestWithParam<FaultCase> {};
INSTANTIATE_TEST_SUITE_P(
    All, FaultDiff,
    ::testing::Values(
        FaultCase{"div_zero", "int f(int x) { return 10 / x; }", "f", {0},
                  BuildPreset::kOurMpx, VmFault::kDivZero},
        FaultCase{"rem_zero", "int f(int x) { return 10 % x; }", "f", {0},
                  BuildPreset::kOurSeg, VmFault::kDivZero},
        FaultCase{"bnd_violation_mpx", kWildStore, "poke", {8},
                  BuildPreset::kOurMpx, VmFault::kBndViolation},
        FaultCase{"unmapped_base", kWildStore, "poke", {8}, BuildPreset::kBase,
                  VmFault::kUnmapped},
        // 200 MiB is past OurSeg's carved working set but inside the 4 GiB
        // segment: the classic in-segment guard-space fault.
        FaultCase{"unmapped_seg_guard", kWildStore, "poke", {200 * 1024 * 1024},
                  BuildPreset::kOurSeg, VmFault::kUnmapped},
        FaultCase{"trusted_check",
                  R"(private void *prv_malloc(int n);
                     int send(int fd, char *buf, int n);
                     int leak() {
                       private char *p = (private char*)prv_malloc(32);
                       send(0, (char*)(int)p, 32);
                       return 0;
                     })",
                  "leak", {}, BuildPreset::kOurMpx, VmFault::kTrustedCheck},
        FaultCase{"chkstk_runaway_recursion",
                  "int f(int n) { return f(n) + 1; }", "f", {1},
                  BuildPreset::kOurMpx, VmFault::kChkstk}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(FaultDiff, IdenticalFaultOnAllEngines) {
  const FaultCase& c = GetParam();
  auto p = MakePair(c.src, c.preset);
  ASSERT_NE(p.ref, nullptr);
  ASSERT_NE(p.fast, nullptr);
  ASSERT_NE(p.trace, nullptr);
  const auto ref = p.ref->vm->Call(c.entry, c.args);
  EXPECT_FALSE(ref.ok);
  EXPECT_EQ(ref.fault, c.want) << FaultName(ref.fault) << ": " << ref.fault_msg;
  for (Session* s : {p.fast.get(), p.trace.get()}) {
    SCOPED_TRACE(EngineName(s == p.fast.get() ? VmEngine::kFast
                                              : VmEngine::kTrace));
    const auto got = s->vm->Call(c.entry, c.args);
    ExpectSameResult(ref, got);
    ExpectSameStats(*p.ref->vm, *s->vm);
  }
}

TEST(FaultDiffExtra, CfiTrapOnMidFunctionIndirectCall) {
  auto p = MakePair(kHijack, BuildPreset::kOurMpx);
  ASSERT_NE(p.ref, nullptr);
  ASSERT_NE(p.fast, nullptr);
  const uint64_t mid = CodeAddr(p.ref->compiled->prog->EntryWordOf("gadget") + 3);
  ASSERT_EQ(mid, CodeAddr(p.fast->compiled->prog->EntryWordOf("gadget") + 3));
  DiffCall(&p, "dispatch", {mid});
  EXPECT_EQ(p.ref->vm->Call("dispatch", {mid}).fault, VmFault::kCfiTrap);
}

TEST(FaultDiffExtra, BadJumpOnIndirectCallOutsideCode) {
  // Base has no CFI: the icall itself must reject the non-code target.
  auto p = MakePair(kHijack, BuildPreset::kBase);
  ASSERT_NE(p.ref, nullptr);
  ASSERT_NE(p.fast, nullptr);
  const uint64_t heap = p.ref->compiled->prog->map.pub_heap + 64;
  const auto ref = p.ref->vm->Call("dispatch", {heap});
  EXPECT_EQ(ref.fault, VmFault::kBadJump) << ref.fault_msg;
  ExpectSameResult(ref, p.fast->vm->Call("dispatch", {heap}));
  ExpectSameResult(ref, p.trace->vm->Call("dispatch", {heap}));
}

TEST(FaultDiffExtra, ExecDataOnIndirectCallIntoDataWord) {
  // Under Base the icall only checks the code range, so aiming it at a
  // movimm64 payload word executes a data word.
  const char* src = R"(
    int gadget(int x) { return x + 1000000000000; }
    int dispatch(int target) {
      int (*f)(int) = (int (*)(int))target;
      return f(7);
    })";
  auto p = MakePair(src, BuildPreset::kBase);
  ASSERT_NE(p.ref, nullptr);
  ASSERT_NE(p.fast, nullptr);
  const auto& decoded = p.ref->compiled->prog->decoded;
  uint64_t data_word = 0;
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (!decoded[i].instr.has_value()) {
      data_word = i;
      break;
    }
  }
  ASSERT_NE(data_word, 0u) << "expected a movimm64 payload word";
  const auto ref = p.ref->vm->Call("dispatch", {CodeAddr(data_word)});
  EXPECT_EQ(ref.fault, VmFault::kExecData) << ref.fault_msg;
  for (Session* s : {p.fast.get(), p.trace.get()}) {
    ExpectSameResult(ref, s->vm->Call("dispatch", {CodeAddr(data_word)}));
    ExpectSameStats(*p.ref->vm, *s->vm);
  }
}

TEST(FaultDiffExtra, BadJumpOnSmashedReturnAddress) {
  // Overwrite the saved return address with a non-code value under Base:
  // the plain ret must fault with bad-jump, identically on both engines.
  const char* src = R"(
    int smash(int off, int fake) {
      char buf[8];
      int *ra = (int*)(buf + off);
      *ra = fake;
      return 1;
    })";
  auto p = MakePair(src, BuildPreset::kBase);
  ASSERT_NE(p.ref, nullptr);
  ASSERT_NE(p.fast, nullptr);
  bool faulted = false;
  for (uint64_t off = 8; off <= 48; off += 8) {
    SCOPED_TRACE(off);
    const auto ref = p.ref->vm->Call("smash", {off, 0x1234});
    ExpectSameResult(ref, p.fast->vm->Call("smash", {off, 0x1234}));
    ExpectSameResult(ref, p.trace->vm->Call("smash", {off, 0x1234}));
    faulted = faulted || ref.fault == VmFault::kBadJump;
  }
  EXPECT_TRUE(faulted) << "no offset reached the saved return address";
  ExpectSameStats(*p.ref->vm, *p.fast->vm);
  ExpectSameStats(*p.ref->vm, *p.trace->vm);
}

TEST(FaultDiffExtra, BadJumpOnJmpReg) {
  // jmpreg only appears inside compiler-emitted CFI return sequences, so a
  // hostile target needs a hand-assembled binary: f loads a bad address and
  // jumpregs to it.
  for (const uint64_t bad :
       {uint64_t{0x1234}, kCodeBase + 7, kCodeBase + 8 * 1000000}) {
    SCOPED_TRACE(bad);
    Vm::CallResult results[3];
    VmStats stats[3];
    int i = 0;
    for (VmEngine e : {VmEngine::kRef, VmEngine::kFast, VmEngine::kTrace}) {
      Binary bin;
      MInstr mov{};
      mov.op = Op::kMovImm64;
      mov.rd = 1;
      mov.imm64 = static_cast<int64_t>(bad);
      Encode(mov, &bin.code);
      MInstr jr{};
      jr.op = Op::kJmpReg;
      jr.rs1 = 1;
      Encode(jr, &bin.code);
      bin.functions.push_back({"f", 0, 0, 0});
      DiagEngine diags;
      auto prog = LoadBinary(std::move(bin), LoadOptions{}, &diags);
      ASSERT_NE(prog, nullptr) << diags.ToString();
      TrustedLib tlib;
      Vm vm(prog.get(), &tlib, EngineOpts(e));
      results[i] = vm.Call("f", {});
      stats[i] = vm.stats();
      ++i;
    }
    EXPECT_EQ(results[0].fault, VmFault::kBadJump)
        << results[0].fault_msg;
    for (int j = 1; j < 3; ++j) {
      SCOPED_TRACE(j);
      ExpectSameResult(results[0], results[j]);
      EXPECT_EQ(stats[0].instrs, stats[j].instrs);
      EXPECT_EQ(stats[0].cycles, stats[j].cycles);
    }
  }
}

// ---- satellite: exact max_instrs enforcement ----

TEST(MaxInstrs, EnforcedExactlyOnBothEngines) {
  const char* spin = "int f() { int i = 0; while (i >= 0) { i = i + 1; } return i; }";
  for (VmEngine e : {VmEngine::kRef, VmEngine::kFast, VmEngine::kTrace}) {
    SCOPED_TRACE(EngineName(e));
    VmOptions o = EngineOpts(e);
    o.max_instrs = 777;
    DiagEngine d;
    auto s = MakeSession(spin, BuildPreset::kOurMpx, &d, o);
    ASSERT_NE(s, nullptr) << d.ToString();
    const auto r = s->vm->Call("f", {});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, VmFault::kInstrLimit);
    // Exactly max_instrs instructions ran — not one more.
    EXPECT_EQ(r.instrs, 777u);
  }
}

TEST(MaxInstrs, LimitEqualToProgramLengthIsNotAFault) {
  const char* src = "int f() { return 41; }";
  DiagEngine d;
  auto probe = MakeSession(src, BuildPreset::kBase, &d);
  ASSERT_NE(probe, nullptr) << d.ToString();
  const auto full = probe->vm->Call("f", {});
  ASSERT_TRUE(full.ok);
  for (VmEngine e : {VmEngine::kRef, VmEngine::kFast, VmEngine::kTrace}) {
    SCOPED_TRACE(EngineName(e));
    VmOptions exact = EngineOpts(e);
    exact.max_instrs = full.instrs;
    DiagEngine d2;
    auto s = MakeSession(src, BuildPreset::kBase, &d2, exact);
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->vm->Call("f", {}).ok);

    VmOptions short_by_one = EngineOpts(e);
    short_by_one.max_instrs = full.instrs - 1;
    DiagEngine d3;
    auto s2 = MakeSession(src, BuildPreset::kBase, &d3, short_by_one);
    ASSERT_NE(s2, nullptr);
    const auto r = s2->vm->Call("f", {});
    EXPECT_EQ(r.fault, VmFault::kInstrLimit);
    EXPECT_EQ(r.instrs, full.instrs - 1);
  }
}

// ---- satellite: Memory::Map / IsMapped edge cases ----

TEST(MemoryMap, ZeroSizeMapsNothing) {
  Memory m;
  m.Map(0x10000, 0);
  EXPECT_FALSE(m.IsMapped(0x10000, 1));
  uint64_t v = 0;
  EXPECT_FALSE(m.Read(0x10000, 8, &v));
  EXPECT_TRUE(m.IsMapped(0x10000, 0));  // vacuously: nothing to check
}

TEST(MemoryMap, EndAddressOverflowClampsToTop) {
  constexpr uint64_t kPage = 4096;
  Memory m;
  const uint64_t base = ~0ull - 3 * kPage + 1;
  // base + size wraps past 2^64; the map must clamp, not wrap to a tiny
  // (or empty) range or around to address 0.
  m.Map(base, 8 * kPage);
  EXPECT_TRUE(m.IsMapped(base, 3 * kPage));
  EXPECT_TRUE(m.IsMapped(~0ull - 8, 8));
  EXPECT_NE(m.FlatPtr(base, 3 * kPage), nullptr);  // one contiguous buffer
  uint64_t v = 0;
  EXPECT_TRUE(m.Write(base, 8, 0x1122334455667788ull));
  EXPECT_TRUE(m.Read(base, 8, &v));
  EXPECT_EQ(v, 0x1122334455667788ull);
  EXPECT_FALSE(m.IsMapped(base - kPage, 8));
  EXPECT_FALSE(m.IsMapped(0, 8));
  EXPECT_FALSE(m.Write(0, 8, 42));
  EXPECT_EQ(m.FlatPtr(0, 8), nullptr);
}

TEST(MemoryMap, FlatRegionsBackRangesAndFaultOutside) {
  Memory m;
  m.Map(0x40000000, 0x10000);
  EXPECT_TRUE(m.IsMapped(0x40000000, 0x10000));
  EXPECT_FALSE(m.IsMapped(0x40000000 + 0x10000, 1));
  uint64_t v = ~0ull;
  EXPECT_TRUE(m.Read(0x40000000, 8, &v));
  EXPECT_EQ(v, 0u);  // zero-filled
  EXPECT_TRUE(m.Write(0x4000fff8, 8, 42));
  ASSERT_NE(m.FlatPtr(0x4000fff8, 8), nullptr);
  EXPECT_EQ(m.FlatPtr(0x4000fff9, 8), nullptr);  // crosses the region end
  // An 8-byte access straddling the region end fails like a guard hit.
  EXPECT_FALSE(m.Read(0x4000fffc, 8, &v));
}

// ---- satellite: function-name index ----

TEST(FunctionIndex, FindsAllAndTracksAppends) {
  Binary bin;
  for (int i = 0; i < 100; ++i) {
    bin.functions.push_back({"fn" + std::to_string(i),
                             static_cast<uint32_t>(i), 0, 0});
  }
  EXPECT_EQ(bin.FunctionIndex("fn0"), 0);
  EXPECT_EQ(bin.FunctionIndex("fn99"), 99);
  EXPECT_EQ(bin.FunctionIndex("nope"), -1);
  // Appending after a lookup must invalidate the lazily built index.
  bin.functions.push_back({"late", 100, 0, 0});
  EXPECT_EQ(bin.FunctionIndex("late"), 100);
  // Duplicate names resolve to the first definition, like the old scan.
  bin.functions.push_back({"fn0", 101, 0, 0});
  EXPECT_EQ(bin.FunctionIndex("fn0"), 0);
}

// ---- satellite: ExecImage block metadata + trace-tier structure ----

// A branchy program with a loop, a call, and a faulting edge: exercises
// leader identification across jump targets, call targets and the
// fall-through words after every terminator.
const char* kBlocky = R"(
    int helper(int x) { return x * 2 + 1; }
    int main() {
      int s = 0;
      for (int i = 0; i < 50; i = i + 1) {
        if (i % 3 == 0) { s = s + helper(i); } else { s = s - i; }
      }
      return s;
    })";

TEST(BlockMetadata, LeadersCoverJumpCallAndFaultEdges) {
  DiagEngine d;
  auto s = MakeSession(kBlocky, BuildPreset::kOurMpx, &d);
  ASSERT_NE(s, nullptr) << d.ToString();
  const LoadedProgram& prog = *s->compiled->prog;
  ASSERT_NE(prog.exec_image->built(), nullptr);
  const ExecImage& img = *prog.exec_image->built();
  ASSERT_FALSE(img.blocks.empty());
  ASSERT_EQ(img.block_of.size(), prog.decoded.size());

  // Every function entry is a block leader.
  for (const BinFunction& f : prog.binary.functions) {
    const uint32_t bid = img.block_of[f.entry_word];
    ASSERT_NE(bid, ExecImage::kNoBlock) << f.name;
    EXPECT_EQ(img.blocks[bid].leader, f.entry_word) << f.name;
  }

  for (size_t bid = 0; bid < img.blocks.size(); ++bid) {
    SCOPED_TRACE(bid);
    const ExecBlock& b = img.blocks[bid];
    // Extents are sane and every word in the block maps back to it.
    ASSERT_LT(b.leader, b.end);
    ASSERT_GE(b.num_instrs, 1u);
    EXPECT_EQ(img.block_of[b.leader], bid);
    if (b.has_term) {
      EXPECT_EQ(img.block_of[b.term], bid);
      EXPECT_LT(b.term, b.end);
    } else {
      // Fall-through block: ends where the next leader (or a data word)
      // begins, and that edge is its only successor.
      EXPECT_EQ(b.term, b.end);
      ASSERT_EQ(b.nsucc, 1);
      EXPECT_EQ(b.succ[0], b.end);
    }
    // Static successors land on leaders (or data words, where execution
    // faults — those carry no block).
    for (uint8_t k = 0; k < b.nsucc; ++k) {
      const uint32_t succ = b.succ[k];
      if (succ < img.block_of.size() &&
          img.block_of[succ] != ExecImage::kNoBlock) {
        EXPECT_EQ(img.blocks[img.block_of[succ]].leader, succ);
      }
    }
    // A word after the terminator of a has_term block is a leader if it is
    // an instruction (the fall-through resumption point).
    if (b.has_term && b.end < img.block_of.size() &&
        prog.decoded[b.end].instr.has_value()) {
      ASSERT_NE(img.block_of[b.end], ExecImage::kNoBlock);
      EXPECT_EQ(img.blocks[img.block_of[b.end]].leader, b.end);
    }
  }

  // movimm64 payload (data) words belong to no block.
  for (size_t w = 0; w < prog.decoded.size(); ++w) {
    if (!prog.decoded[w].instr.has_value()) {
      EXPECT_EQ(img.block_of[w], ExecImage::kNoBlock) << w;
    }
  }
}

TEST(BlockMetadata, FusedPairsMaySpanBlockBoundaries) {
  // The fusion pass pairs adjacent records with no regard for block edges
  // (a jmp fuses with its TARGET instruction, a leader). The trace tier
  // must stay correct anyway: it patches only leader slots and compiles
  // promoted blocks from unfused records, so spanning pairs merely
  // undercount entries. This test proves such records exist, then that the
  // trace engine is still bit-identical on the very program containing
  // them (DiffCall), promotion included.
  ArtifactCache cache;
  size_t spanning = 0;
  for (BuildPreset preset : kAllBuildPresets) {
    SCOPED_TRACE(PresetName(preset));
    auto p = MakePair(kBlocky, preset, &cache);
    ASSERT_NE(p.ref, nullptr);
    ASSERT_NE(p.trace, nullptr);
    const LoadedProgram& prog = *p.trace->compiled->prog;
    const ExecImage& img = *prog.exec_image->built();
    for (size_t w = 0; w < img.recs.size(); ++w) {
      if (img.recs[w].handler < kNumBaseHandlers) {
        continue;  // unfused
      }
      ExecRecord base;
      FillBaseExecRecord(prog, w, &base);
      // The fused record's second element sits at the first element's
      // natural successor; if that word is a leader (or in a different
      // block), the pair spans a block boundary.
      const uint32_t second = base.next;
      if (second < img.block_of.size() &&
          img.block_of[second] != ExecImage::kNoBlock &&
          (img.blocks[img.block_of[second]].leader == second ||
           img.block_of[second] != img.block_of[w])) {
        ++spanning;
      }
    }
    DiffCall(&p, "main", {});
    const TraceTier* tier = p.trace->vm->trace_tier();
    ASSERT_NE(tier, nullptr);
    EXPECT_GT(tier->stats.promoted_blocks, 0u);
  }
  EXPECT_GT(spanning, 0u)
      << "expected at least one fused record spanning a block boundary";
}

TEST(BlockMetadata, TraceTierPatchesOnlyLeaderSlotsOfItsPrivateCopy) {
  DiagEngine d;
  auto s = MakeSession(kBlocky, BuildPreset::kOurMpx, &d,
                       EngineOpts(VmEngine::kTrace));
  ASSERT_NE(s, nullptr) << d.ToString();
  const LoadedProgram& prog = *s->compiled->prog;
  const ExecImage& img = *prog.exec_image->built();
  const TraceTier* tier = s->vm->trace_tier();
  ASSERT_NE(tier, nullptr);
  ASSERT_EQ(tier->recs.size(), img.recs.size());
  EXPECT_GT(tier->stats.candidate_blocks, 0u);
  for (size_t w = 0; w < img.recs.size(); ++w) {
    SCOPED_TRACE(w);
    // The shared image never carries trace handlers.
    ASSERT_LT(img.recs[w].handler, kHTraceCount);
    const uint32_t bid = img.block_of[w];
    const bool is_candidate_leader =
        bid != ExecImage::kNoBlock && img.blocks[bid].leader == w &&
        img.blocks[bid].num_instrs >= 2;
    if (is_candidate_leader) {
      EXPECT_EQ(tier->recs[w].handler, kHTraceCount);
      EXPECT_EQ(tier->blocks[bid].orig_handler, img.recs[w].handler);
    } else {
      // Non-leader (and single-instruction-block) records are untouched.
      EXPECT_EQ(memcmp(&tier->recs[w], &img.recs[w], sizeof(ExecRecord)), 0);
    }
  }
  // After running, promoted leaders hold the run slot; everything else is
  // still bit-identical to the shared image.
  const auto r = s->vm->Call("main", {});
  EXPECT_TRUE(r.ok);
  EXPECT_GT(tier->stats.promoted_blocks, 0u);
  for (size_t w = 0; w < img.recs.size(); ++w) {
    const uint32_t bid = img.block_of[w];
    if (bid != ExecImage::kNoBlock && img.blocks[bid].leader == w &&
        tier->blocks[bid].promoted) {
      EXPECT_EQ(tier->recs[w].handler, kHTraceRun);
      const TraceBlock& tb = tier->blocks[bid];
      // The compiled region covers at least the whole root block (it may
      // continue through inlined jmps and guarded branches); the peephole
      // fuses adjacent ops, so the op list can be shorter than the
      // instruction count but never longer than it plus one synthetic exit.
      EXPECT_GE(tb.num_instrs, img.blocks[bid].num_instrs);
      EXPECT_GE(tb.ops.size(), 1u);
      EXPECT_LE(tb.ops.size(), tb.num_instrs + 1u);
      // Every op carries an image handler id (base or fused) or a
      // trace-only pseudo handler — never the patch slots themselves.
      for (const ExecRecord& op : tb.ops) {
        EXPECT_LT(op.handler, kTNumTraceHandlers);
        EXPECT_NE(op.handler, kHTraceCount);
        EXPECT_NE(op.handler, kHTraceRun);
      }
    }
  }
}

TEST(BlockMetadata, PromotionUnderRunParallelWavesStaysIdentical) {
  // Several threads share one trace Vm: promotion flips handler slots
  // while other threads are mid-program between waves. Wave accounting and
  // per-thread results must still match the reference exactly, and the
  // SHARED image must stay pristine (promotion only writes the Vm-private
  // copy).
  VmOptions base;
  base.num_cores = 3;
  base.quantum = 2000;
  DiagEngine d1, d2;
  VmOptions ro = base;
  ro.engine = VmEngine::kRef;
  VmOptions to = base;
  to.engine = VmEngine::kTrace;
  to.trace_threshold = 16;  // promote mid-run, not instantly
  auto ref = MakeSession(kBlocky, BuildPreset::kOurMpx, &d1, ro);
  auto trace = MakeSession(kBlocky, BuildPreset::kOurMpx, &d2, to);
  ASSERT_NE(ref, nullptr) << d1.ToString();
  ASSERT_NE(trace, nullptr) << d2.ToString();
  std::vector<Vm::ThreadSpec> specs(5, {"main", {}});
  const auto r = ref->vm->RunParallel(specs);
  const auto t = trace->vm->RunParallel(specs);
  EXPECT_EQ(r.ok, t.ok);
  EXPECT_EQ(r.wall_cycles, t.wall_cycles);
  ASSERT_EQ(r.per_thread.size(), t.per_thread.size());
  for (size_t i = 0; i < r.per_thread.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameResult(r.per_thread[i], t.per_thread[i]);
  }
  ExpectSameStats(*ref->vm, *trace->vm);
  const TraceTier* tier = trace->vm->trace_tier();
  ASSERT_NE(tier, nullptr);
  EXPECT_GT(tier->stats.promoted_blocks, 0u);
  for (const ExecRecord& rec :
       trace->compiled->prog->exec_image->built()->recs) {
    ASSERT_LT(rec.handler, kHTraceCount);  // shared image untouched
  }
}

// ---- satellite: the reference engine's block profiler ----

TEST(BlockProfile, EntryCountsAccountForEveryInstruction) {
  // In a fault-free run every executed instruction belongs to exactly one
  // block entry (jump targets are always leaders, so control never enters
  // a block mid-way): total instructions must equal the entry-weighted sum
  // of block lengths. This is the invariant the bench's --block-histogram
  // report builds on.
  std::vector<uint64_t> profile;
  VmOptions o = EngineOpts(VmEngine::kRef);
  o.block_profile = &profile;
  DiagEngine d;
  auto s = MakeSession(kBlocky, BuildPreset::kOurMpx, &d, o);
  ASSERT_NE(s, nullptr) << d.ToString();
  const ExecImage& img = *s->compiled->prog->exec_image->built();
  ASSERT_EQ(profile.size(), img.blocks.size());
  const auto r = s->vm->Call("main", {});
  ASSERT_TRUE(r.ok) << r.fault_msg;
  uint64_t weighted = 0;
  uint64_t entries = 0;
  for (size_t bid = 0; bid < profile.size(); ++bid) {
    weighted += profile[bid] * img.blocks[bid].num_instrs;
    entries += profile[bid];
  }
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(weighted, r.instrs);
}

// ---- ExecImage construction ----

TEST(ExecImage, SharedAcrossVmsOfOneProgram) {
  DiagEngine d;
  auto s = MakeSession("int main() { return 7; }", BuildPreset::kOurMpx, &d);
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->compiled->prog->exec_image->built(), nullptr);
  const ExecImage* img = s->compiled->prog->exec_image->built();
  EXPECT_EQ(img->recs.size(), s->compiled->prog->decoded.size());
  TrustedLib tlib2;
  Vm second(s->compiled->prog.get(), &tlib2, EngineOpts(VmEngine::kFast));
  EXPECT_EQ(s->compiled->prog->exec_image->built(), img);  // no rebuild
}

TEST(ExecImage, RefEngineDoesNotBuildOne)
{
  DiagEngine d;
  auto s = MakeSession("int main() { return 7; }", BuildPreset::kOurMpx, &d,
                       EngineOpts(VmEngine::kRef));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->compiled->prog->exec_image->built(), nullptr);
  EXPECT_EQ(s->vm->Call("main", {}).ret, 7u);
}

// ---- the default engine ----

TEST(DefaultEngine, IsTheTraceTier) {
  EXPECT_EQ(VmOptions{}.engine, VmEngine::kTrace);
  EXPECT_EQ(VmOptions{}.trace_threshold, 1024u);
}

TEST(DefaultEngine, SessionWithoutOptionsMatchesRefOnAPromotingExecRow) {
  // A session made without VmOptions runs the trace tier at its default
  // threshold. mcf's hot loops cross that threshold, so promoted regions
  // run, and the result must still equal the reference engine's under
  // every preset the exec benchmark runs.
  const auto* mcf = std::find_if(
      kSpecKernels, kSpecKernels + kNumSpecKernels,
      [](const auto& k) { return std::string(k.name) == "mcf"; });
  ASSERT_NE(mcf, kSpecKernels + kNumSpecKernels);
  for (BuildPreset preset :
       {BuildPreset::kBase, BuildPreset::kOurMpx, BuildPreset::kOurSeg}) {
    SCOPED_TRACE(PresetName(preset));
    DiagEngine d1, d2;
    auto def = MakeSession(mcf->source, preset, &d1);
    auto ref =
        MakeSession(mcf->source, preset, &d2, EngineOpts(VmEngine::kRef));
    ASSERT_NE(def, nullptr) << d1.ToString();
    ASSERT_NE(ref, nullptr) << d2.ToString();
    const TraceTier* tier = def->vm->trace_tier();
    ASSERT_NE(tier, nullptr);
    const auto r = ref->vm->Call("main", {});
    const auto t = def->vm->Call("main", {});
    EXPECT_TRUE(r.ok) << r.fault_msg;
    ExpectSameResult(r, t);
    ExpectSameStats(*ref->vm, *def->vm);
    EXPECT_GT(tier->stats.promoted_blocks, 0u);
  }
}

}  // namespace
}  // namespace confllvm
