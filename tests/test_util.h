// Shared compile-run-compare helpers for the differential test suites.
//
// The engine-differential suites (vm_engine, workloads, link, disk_cache,
// ct_preset) all follow the same shape: compile one source under a preset,
// run it on two or three execution engines, and demand bit-identical
// observable behaviour — CallResult, every VmStats counter, and the cache
// model's hit/miss totals. This header holds that shape once so every suite
// compares the SAME set of observables; a counter added here tightens all
// of them at once.
#ifndef CONFLLVM_TESTS_TEST_UTIL_H_
#define CONFLLVM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "src/driver/artifact_cache.h"
#include "src/driver/confcc.h"
#include "src/isa/isa.h"
#include "src/runtime/loader.h"
#include "src/verifier/verifier.h"

namespace confllvm {
namespace testutil {

// Source text for the named example application workload.
inline const char* AppSource(const std::string& name) {
  if (name == "nginx") return workloads::kNginx;
  if (name == "ldap") return workloads::kLdap;
  if (name == "privado") return workloads::kPrivado;
  return workloads::kMerkle;
}

// Runs ConfVerify over the session's compiled program and expects a clean
// result. Compile() does not verify by default, so suites that promise
// "verifier-checked" call this explicitly on every instrumented binary.
inline void ExpectVerifies(const Session& s, const std::string& label) {
  const VerifyResult r = Verify(*s.compiled->prog);
  EXPECT_TRUE(r.ok) << label << "\n" << r.ErrorText();
}

// Re-decodes after mutating code words (mirrors what an attacker-supplied
// binary would look like). The forgery suites patch instructions into a
// loaded program's code image and re-verify; the decoded slots must follow,
// through the loader's own pre-decode so tests and loader cannot drift, and
// the program gets a fresh ExecImage slot, as program.h requires of code
// that patches a loaded program.
inline void Redecode(LoadedProgram* prog) {
  prog->decoded = DecodeSlots(prog->binary.code);
  prog->exec_image = std::make_shared<ExecImageSlot>();
}

// Promotion threshold used by the differential trace sessions: low enough
// that any loop body promotes within the first iterations, so the tests
// exercise the counting path, the promotion swap, AND the whole-block path.
constexpr uint64_t kTestTraceThreshold = 2;

inline VmOptions EngineOpts(VmEngine e) {
  VmOptions o;
  o.engine = e;
  if (e == VmEngine::kTrace) {
    o.trace_threshold = kTestTraceThreshold;
  }
  return o;
}

inline void ExpectSameResult(const Vm::CallResult& ref,
                             const Vm::CallResult& fast) {
  EXPECT_EQ(ref.ok, fast.ok);
  EXPECT_EQ(ref.fault, fast.fault)
      << FaultName(ref.fault) << " vs " << FaultName(fast.fault);
  EXPECT_EQ(ref.fault_msg, fast.fault_msg);
  EXPECT_EQ(ref.fault_pc, fast.fault_pc);
  EXPECT_EQ(ref.ret, fast.ret);
  EXPECT_EQ(ref.cycles, fast.cycles);
  EXPECT_EQ(ref.instrs, fast.instrs);
}

inline void ExpectSameStats(const Vm& ref, const Vm& fast) {
  const VmStats& a = ref.stats();
  const VmStats& b = fast.stats();
  EXPECT_EQ(a.instrs, b.instrs);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.check_instrs, b.check_instrs);
  EXPECT_EQ(a.check_cycles, b.check_cycles);
  EXPECT_EQ(a.cfi_instrs, b.cfi_instrs);
  EXPECT_EQ(a.trusted_cycles, b.trusted_cycles);
  EXPECT_EQ(a.trusted_calls, b.trusted_calls);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.cache_miss_cycles, b.cache_miss_cycles);
  EXPECT_EQ(ref.cache().hits(), fast.cache().hits());
  EXPECT_EQ(ref.cache().misses(), fast.cache().misses());
}

// Compiles `src` once per engine (through a shared cache so the binaries are
// byte-identical) and returns the three sessions.
struct EnginePair {
  std::unique_ptr<Session> ref;
  std::unique_ptr<Session> fast;
  std::unique_ptr<Session> trace;
};

inline EnginePair MakePair(const std::string& src, BuildPreset preset,
                           ArtifactCache* cache = nullptr) {
  EnginePair p;
  DiagEngine d1;
  DiagEngine d2;
  DiagEngine d3;
  const BuildConfig config = BuildConfig::For(preset);
  p.ref = MakeSessionFor(Compile(src, config, &d1, nullptr, cache),
                         EngineOpts(VmEngine::kRef));
  p.fast = MakeSessionFor(Compile(src, config, &d2, nullptr, cache),
                          EngineOpts(VmEngine::kFast));
  p.trace = MakeSessionFor(Compile(src, config, &d3, nullptr, cache),
                           EngineOpts(VmEngine::kTrace));
  EXPECT_NE(p.ref, nullptr) << d1.ToString();
  EXPECT_NE(p.fast, nullptr) << d2.ToString();
  EXPECT_NE(p.trace, nullptr) << d3.ToString();
  return p;
}

// Runs the same call on all three engines and checks full observational
// equality of fast AND trace against the reference.
inline void DiffCall(EnginePair* p, const std::string& fn,
                     const std::vector<uint64_t>& args) {
  const auto ref = p->ref->vm->Call(fn, args);
  {
    SCOPED_TRACE("engine=fast");
    const auto fast = p->fast->vm->Call(fn, args);
    ExpectSameResult(ref, fast);
    ExpectSameStats(*p->ref->vm, *p->fast->vm);
  }
  {
    SCOPED_TRACE("engine=trace");
    const auto trace = p->trace->vm->Call(fn, args);
    ExpectSameResult(ref, trace);
    ExpectSameStats(*p->ref->vm, *p->trace->vm);
  }
}

}  // namespace testutil
}  // namespace confllvm

#endif  // CONFLLVM_TESTS_TEST_UTIL_H_
