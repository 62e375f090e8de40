// Mutation-fuzz harness for the untrusted-binary surface (the robustness
// half of the paper's §5.2/§6 "distrust the compiler" posture): every
// corrupted object file — a bit-flipped cache entry, a truncated --emit-bin,
// a hostile producer — must be rejected with a clean diagnostic by
// DeserializeBinary, LoadBinary, or LinkBinaries. Never a crash, hang, or
// out-of-bounds access; CI runs this harness under ASan+UBSan to make
// "clean" mean memory-clean, not merely no-segfault.
//
// The corpus is real compiler output (several sources × instrumentation
// presets), mutated by a seeded deterministic Rng: bit flips, byte
// overwrites, truncations, and appends. Mutants that still deserialize are
// pushed all the way through load, ConfVerify, a short execution on every
// engine (which must agree exactly), and a link against a pristine module.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/confcc.h"
#include "src/isa/binary.h"
#include "src/isa/link.h"
#include "src/runtime/loader.h"
#include "src/runtime/trusted.h"
#include "src/support/rng.h"
#include "src/verifier/verifier.h"
#include "src/vm/vm.h"
#include "tests/test_util.h"

namespace confllvm {
namespace {

const char* kLeafSource =
    "int main() { int s = 0; for (int i = 1; i <= 10; i = i + 1) "
    "{ s = s + i; } return s; }\n";

const char* kRichSource = R"(
  int g_scale = 3;
  void *pub_malloc(int n);
  void pub_free(void *p);
  int scale(int x) { return x * g_scale; }
  int main() {
    int *h = (int*)pub_malloc(2 * sizeof(int));
    h[0] = scale(5);
    private int secret = 7;
    private int folded = secret + h[0];
    h[1] = 4;
    int r = h[0] + h[1];
    pub_free((void*)h);
    return r;
  }
)";

struct CorpusEntry {
  BuildPreset preset;
  std::vector<uint8_t> blob;  // pristine serialized Binary
};

std::vector<CorpusEntry> BuildCorpus() {
  std::vector<CorpusEntry> corpus;
  for (const char* src : {kLeafSource, kRichSource}) {
    for (const BuildPreset p :
         {BuildPreset::kBase, BuildPreset::kOurMpx, BuildPreset::kOurSeg}) {
      DiagEngine diags;
      auto cp = Compile(src, BuildConfig::For(p), &diags);
      EXPECT_NE(cp, nullptr) << PresetName(p) << ": " << diags.ToString();
      if (cp != nullptr) {
        corpus.push_back({p, SerializeBinary(cp->prog->binary)});
      }
    }
  }
  return corpus;
}

std::vector<uint8_t> Mutate(const std::vector<uint8_t>& blob, Rng* rng) {
  std::vector<uint8_t> m = blob;
  switch (rng->Below(4)) {
    case 0: {  // flip 1-8 random bits
      const uint64_t flips = 1 + rng->Below(8);
      for (uint64_t i = 0; i < flips && !m.empty(); ++i) {
        m[rng->Below(m.size())] ^= static_cast<uint8_t>(1u << rng->Below(8));
      }
      break;
    }
    case 1: {  // overwrite a random run with random bytes
      if (!m.empty()) {
        const size_t at = rng->Below(m.size());
        const size_t len = 1 + rng->Below(16);
        for (size_t i = at; i < m.size() && i < at + len; ++i) {
          m[i] = static_cast<uint8_t>(rng->Next());
        }
      }
      break;
    }
    case 2:  // truncate
      m.resize(rng->Below(m.size() + 1));
      break;
    default: {  // append garbage
      const size_t extra = 1 + rng->Below(32);
      for (size_t i = 0; i < extra; ++i) {
        m.push_back(static_cast<uint8_t>(rng->Next()));
      }
      break;
    }
  }
  return m;
}

// One mutant, end to end: deserialize; if the encoding survives, load; if
// the load survives, execute briefly on every engine and link it against a
// pristine module. Every stage must either succeed or fail with a
// diagnostic — the harness itself only asserts the "no crash / no silent
// null" contract, the sanitizers assert memory cleanliness.
void RunMutant(const std::vector<uint8_t>& mutant, BuildPreset preset,
               const Binary& pristine) {
  Binary bin;
  if (!DeserializeBinary(mutant, &bin)) {
    return;  // rejected at the encoding layer: the common, correct outcome
  }
  const BuildConfig config = BuildConfig::For(preset);

  // The linker sees module-shaped inputs before any load runs.
  {
    DiagEngine ldiags;
    Binary copy = bin;
    auto linked = LinkBinaries({&pristine, &copy}, &ldiags);
    EXPECT_TRUE(linked != nullptr || ldiags.HasErrors());
  }

  DiagEngine diags;
  auto prog = LoadBinary(std::move(bin), config.load, &diags);
  if (prog == nullptr) {
    // A structurally valid but semantically corrupt binary must say why.
    EXPECT_TRUE(diags.HasErrors());
    return;
  }
  // ConfVerify indexes its tables with the mutant's untrusted jump and call
  // immediates: it must return without throwing and explain any rejection.
  VerifyResult vr;
  EXPECT_NO_THROW(vr = Verify(*prog));
  EXPECT_TRUE(vr.ok || !vr.errors.empty());
  // Loaded: a short bounded run must fault or finish, never escape, and
  // every engine must agree on how: the fast engine and the trace tier
  // (promoting at the differential suites' low threshold, so mutated code
  // also runs inside compiled regions) reproduce the reference stepper's
  // CallResult and VmStats exactly.
  const auto options = [](VmEngine engine) {
    VmOptions o = testutil::EngineOpts(engine);
    o.max_instrs = 5000;
    return o;
  };
  TrustedLib ref_lib({config.alloc_policy});
  Vm ref(prog.get(), &ref_lib, options(VmEngine::kRef));
  const Vm::CallResult want = ref.Call("main", {});
  for (const VmEngine engine : {VmEngine::kFast, VmEngine::kTrace}) {
    SCOPED_TRACE(EngineName(engine));
    TrustedLib lib({config.alloc_policy});
    Vm vm(prog.get(), &lib, options(engine));
    testutil::ExpectSameResult(want, vm.Call("main", {}));
    testutil::ExpectSameStats(ref, vm);
  }
}

TEST(BinaryFuzz, MutatedBlobsNeverCrashTheDecoderLoaderLinkerOrVm) {
  const std::vector<CorpusEntry> corpus = BuildCorpus();
  ASSERT_FALSE(corpus.empty());
  Rng rng(0x5eedf00d);
  for (const CorpusEntry& entry : corpus) {
    Binary pristine;
    ASSERT_TRUE(DeserializeBinary(entry.blob, &pristine));
    for (int round = 0; round < 200; ++round) {
      SCOPED_TRACE(std::string(PresetName(entry.preset)) + " round " +
                   std::to_string(round));
      RunMutant(Mutate(entry.blob, &rng), entry.preset, pristine);
    }
  }
}

// Targeted structural corruptions: take the *decoded* pristine Binary and
// break exactly one semantic invariant the encoding cannot express. Each
// must be rejected by the loader with a "corrupt binary" diagnostic — these
// are the out-of-bounds patch vectors the fuzz loop only hits by luck.
TEST(BinaryFuzz, LoaderRejectsEverySemanticInvariantBreak) {
  DiagEngine cdiags;
  auto cp =
      Compile(kRichSource, BuildConfig::For(BuildPreset::kOurMpx), &cdiags);
  ASSERT_NE(cp, nullptr) << cdiags.ToString();
  const Binary& good = cp->prog->binary;
  ASSERT_FALSE(good.functions.empty());
  ASSERT_FALSE(good.globals.empty());
  ASSERT_FALSE(good.global_refs.empty());

  const auto expect_corrupt = [&](Binary bad, const char* what) {
    SCOPED_TRACE(what);
    DiagEngine diags;
    EXPECT_EQ(LoadBinary(std::move(bad),
                         BuildConfig::For(BuildPreset::kOurMpx).load, &diags),
              nullptr);
    EXPECT_TRUE(diags.Contains("corrupt binary")) << diags.ToString();
  };

  {
    Binary b = good;
    b.functions[0].entry_word = static_cast<uint32_t>(b.code.size());
    expect_corrupt(std::move(b), "function entry outside code");
  }
  {
    Binary b = good;
    b.globals[0].size = ~uint64_t{0};  // would overflow the globals cursor
    expect_corrupt(std::move(b), "global size overflow");
  }
  {
    Binary b = good;
    b.globals[0].init.resize(b.globals[0].size + 1);
    expect_corrupt(std::move(b), "initializer larger than global");
  }
  {
    Binary b = good;
    b.globals[0].relocs.push_back({b.globals[0].size, 0});
    expect_corrupt(std::move(b), "relocation outside global");
  }
  {
    Binary b = good;
    b.global_refs[0].global_idx = static_cast<uint32_t>(b.globals.size());
    expect_corrupt(std::move(b), "global ref outside table");
  }
  {
    Binary b = good;
    b.global_refs[0].word = static_cast<uint32_t>(b.code.size());
    expect_corrupt(std::move(b), "global ref outside code");
  }
  {
    Binary b = good;
    b.func_refs.push_back({0, static_cast<uint32_t>(b.functions.size())});
    expect_corrupt(std::move(b), "func ref outside table");
  }
  {
    Binary b = good;
    b.magic_sites.push_back(
        {static_cast<uint32_t>(b.code.size()), false, 0, false});
    expect_corrupt(std::move(b), "magic site outside code");
  }
  {
    Binary b = good;
    ASSERT_FALSE(b.imports.empty());
    b.imports[0].num_params = 4;
    b.imports[0].params.clear();
    expect_corrupt(std::move(b), "import param count out-reads table");
  }
}

}  // namespace
}  // namespace confllvm
