// Tests for the artifact cache (src/driver/artifact_cache.h) and the
// incremental pipeline built on it: hit/miss accounting, single-flight
// front-end sharing across the preset sweep, key sensitivity, LRU eviction
// under a byte cap, read-only sharing of the front-end artifacts, one
// shared ExecImage per cached program, and the extended equivalence
// guarantee — warm, incremental, and batch-cached builds are byte-identical
// to cold sequential builds for all eight presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "src/driver/artifact_cache.h"
#include "src/driver/confcc.h"
#include "src/driver/pipeline.h"
#include "src/ir/irgen.h"
#include "src/lang/parser.h"
#include "src/vm/exec_image.h"
#include "tests/test_util.h"

namespace confllvm {
namespace {

// Mirrors the rich program pipeline_stages_test.cc uses: every front-end
// feature class (quals, pointers, arrays, structs, globals, function
// pointers, recursion, floats, trusted imports) so the shared artifacts
// carry every kind of cross-reference.
const char* kSource = R"(
  struct acc { int lo; int hi; };
  struct acc g_acc;
  int g_scale = 2;
  void *pub_malloc(int n);
  void pub_free(void *p);
  int twice(int x) { return 2 * x; }
  int thrice(int x) { return 3 * x; }
  int apply(int (*f)(int), int v) { return f(v); }
  int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
  }
  private int blend(private int s, int p) { return s + p; }
  int main() {
    int a[8];
    for (int i = 0; i < 8; i = i + 1) { a[i] = i * g_scale; }
    int *h = (int*)pub_malloc(4 * sizeof(int));
    h[0] = apply(twice, a[3]);
    h[1] = apply(thrice, a[2]);
    h[2] = fib(10);
    h[3] = 1 + 2 * 3;
    g_acc.lo = h[0] + h[1];
    g_acc.hi = h[2] + h[3];
    private int secret = 41;
    private int mixed = blend(secret, g_acc.lo);
    private int sink[1];
    sink[0] = mixed;
    float f = 1.5;
    int fi = (int)(f * 4.0);
    int r = g_acc.lo + g_acc.hi + fi;
    pub_free((void*)h);
    return r;
  })";

size_t Idx(StageId id) { return static_cast<size_t>(id); }

std::unique_ptr<CompiledProgram> CompileCached(const std::string& src,
                                               const BuildConfig& config,
                                               ArtifactCache* cache,
                                               PipelineStats* stats = nullptr) {
  DiagEngine diags;
  auto cp = Compile(src, config, &diags, stats, cache);
  EXPECT_NE(cp, nullptr) << diags.ToString();
  return cp;
}

// ---- Hit/miss accounting ----

TEST(ArtifactCache, ColdThenWarmAccounting) {
  ArtifactCache cache;
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);

  // Cold: every cacheable stage misses and publishes.
  PipelineStats cold_stats;
  auto cold = CompileCached(kSource, config, &cache, &cold_stats);
  CacheStats cs = cache.stats();
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.misses, 6u);  // parse sema irgen opt codegen load
  EXPECT_EQ(cs.insertions, 6u);
  EXPECT_GT(cs.bytes_retained, 0u);
  for (const StageStats& s : cold_stats.stages) {
    EXPECT_FALSE(s.cached) << s.name;
    EXPECT_TRUE(s.ran) << s.name;
  }

  // Warm: the deepest probe restores the post-load artifact in one hit and
  // every stage row reports cached.
  PipelineStats warm_stats;
  auto warm = CompileCached(kSource, config, &cache, &warm_stats);
  cs = cache.stats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.misses, 6u);  // unchanged
  ASSERT_EQ(warm_stats.stages.size(), 6u);
  for (const StageStats& s : warm_stats.stages) {
    EXPECT_TRUE(s.cached) << s.name;
    EXPECT_FALSE(s.ran) << s.name;
    EXPECT_TRUE(s.ok) << s.name;
  }

  // Byte-identical warm build, and the stats snapshots round-trip.
  EXPECT_EQ(warm->prog->binary.code, cold->prog->binary.code);
  EXPECT_EQ(warm->codegen_stats.code_words, cold->codegen_stats.code_words);
  EXPECT_EQ(warm->qual_constraints, cold->qual_constraints);
  EXPECT_GT(warm->qual_constraints, 0u);
}

// ---- Key sensitivity ----

TEST(ArtifactCache, OptLevelChangeKeepsFrontEndPrefix) {
  ArtifactCache cache;
  BuildConfig reduced = BuildConfig::For(BuildPreset::kOurMpx);
  ASSERT_EQ(reduced.opt_level, OptLevel::kReduced);
  CompileCached(kSource, reduced, &cache);
  const CacheStats before = cache.stats();

  // Same source, kFull: the front-end prefix must be reused — its keys do
  // not read OptLevel — while opt and everything downstream re-runs.
  BuildConfig full = reduced;
  full.opt_level = OptLevel::kFull;
  PipelineStats stats;
  CompileCached(kSource, full, &cache, &stats);
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.misses_by_stage[Idx(StageId::kParse)],
            before.misses_by_stage[Idx(StageId::kParse)]);
  EXPECT_EQ(after.misses_by_stage[Idx(StageId::kSema)],
            before.misses_by_stage[Idx(StageId::kSema)]);
  EXPECT_EQ(after.misses_by_stage[Idx(StageId::kIrGen)],
            before.misses_by_stage[Idx(StageId::kIrGen)]);
  EXPECT_EQ(after.misses_by_stage[Idx(StageId::kOpt)],
            before.misses_by_stage[Idx(StageId::kOpt)] + 1);
  EXPECT_EQ(after.misses_by_stage[Idx(StageId::kCodegen)],
            before.misses_by_stage[Idx(StageId::kCodegen)] + 1);

  // The irgen artifact satisfied the prefix; opt onward actually ran.
  ASSERT_EQ(stats.stages.size(), 6u);
  EXPECT_TRUE(stats.stages[0].cached);   // parse
  EXPECT_TRUE(stats.stages[1].cached);   // sema
  EXPECT_TRUE(stats.stages[2].cached);   // irgen
  EXPECT_FALSE(stats.stages[3].cached);  // opt
  EXPECT_FALSE(stats.stages[4].cached);  // codegen
}

TEST(ArtifactCache, SourceChangeInvalidatesEverything) {
  ArtifactCache cache;
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  CompileCached(kSource, config, &cache);
  const CacheStats before = cache.stats();

  DiagEngine diags;
  PipelineStats stats;
  auto cp = Compile("int main() { return 3; }", config, &diags, &stats, &cache);
  ASSERT_NE(cp, nullptr) << diags.ToString();
  const CacheStats after = cache.stats();
  // A different source shares no key with the first compile: six new
  // misses, no new hits.
  EXPECT_EQ(after.misses, before.misses + 6);
  EXPECT_EQ(after.hits, before.hits);
  for (const StageStats& s : stats.stages) {
    EXPECT_FALSE(s.cached) << s.name;
  }
}

TEST(ArtifactCache, MagicSeedChangeOnlyRedoesLoad) {
  ArtifactCache cache;
  BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  CompileCached(kSource, config, &cache);
  const CacheStats before = cache.stats();

  config.load.magic_seed = 0xfeed;
  PipelineStats stats;
  CompileCached(kSource, config, &cache, &stats);
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.misses, before.misses + 1);  // load only
  EXPECT_EQ(after.misses_by_stage[Idx(StageId::kLoad)],
            before.misses_by_stage[Idx(StageId::kLoad)] + 1);
  ASSERT_EQ(stats.stages.size(), 6u);
  EXPECT_TRUE(stats.stages[4].cached);   // codegen restored
  EXPECT_FALSE(stats.stages[5].cached);  // load re-ran under the new seed
}

// ---- Batch front-end sharing (the PR's acceptance criterion) ----

TEST(ArtifactCache, PresetSweepRunsFrontEndOnce) {
  ArtifactCache cache;
  const auto jobs = PresetSweepJobs(kSource);
  ASSERT_EQ(jobs.size(), 8u);
  auto outcomes = CompileBatch(jobs, /*num_workers=*/4, &cache);

  // Reference: cold compiles without any cache.
  for (size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].invocation->diags().ToString();
    DiagEngine diags;
    auto cold = Compile(jobs[i].source, jobs[i].config, &diags);
    ASSERT_NE(cold, nullptr);
    EXPECT_EQ(outcomes[i].program->prog->binary.code, cold->prog->binary.code);
  }

  // Single-flight guarantees the front end ran exactly once per source even
  // though all eight jobs started concurrently.
  const CacheStats cs = cache.stats();
  EXPECT_EQ(cs.misses_by_stage[Idx(StageId::kParse)], 1u);
  EXPECT_EQ(cs.misses_by_stage[Idx(StageId::kSema)], 1u);
  EXPECT_EQ(cs.misses_by_stage[Idx(StageId::kIrGen)], 1u);
  // Opt is keyed per OptLevel: kFull (Base, BaseOA) + kReduced (the rest).
  EXPECT_EQ(cs.misses_by_stage[Idx(StageId::kOpt)], 2u);
  // Base and BaseOA differ only in allocator policy (a runtime property),
  // so they also share codegen/load artifacts: at most 7 distinct keys.
  EXPECT_LE(cs.misses_by_stage[Idx(StageId::kCodegen)], 7u);
  EXPECT_LE(cs.misses_by_stage[Idx(StageId::kLoad)], 7u);
  EXPECT_GT(cs.hits, 0u);
}

TEST(ArtifactCache, SequentialSweepSharesDeterministically) {
  // One worker makes the schedule deterministic: Base compiles cold (6
  // misses), BaseOA restores Base's post-load artifact in a single hit.
  ArtifactCache cache;
  auto all = PresetSweepJobs(kSource);
  std::vector<BatchJob> jobs(all.begin(), all.begin() + 2);
  auto outcomes = CompileBatch(jobs, /*num_workers=*/1, &cache);
  ASSERT_TRUE(outcomes[0].ok);
  ASSERT_TRUE(outcomes[1].ok);
  const CacheStats cs = cache.stats();
  EXPECT_EQ(cs.misses, 6u);
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(outcomes[0].program->prog->binary.code,
            outcomes[1].program->prog->binary.code);
}

// ---- Incremental recompiles ----

TEST(ArtifactCache, IncrementalPresetSwitchReusesPrefix) {
  ArtifactCache cache;
  auto mpx = CompileCached(kSource, BuildConfig::For(BuildPreset::kOurMpx), &cache);

  // Switching preset re-runs only the instrumentation stages: OurSeg has the
  // same OptLevel, so parse/sema/irgen/opt all restore from cache.
  PipelineStats stats;
  auto seg =
      CompileCached(kSource, BuildConfig::For(BuildPreset::kOurSeg), &cache, &stats);
  ASSERT_EQ(stats.stages.size(), 6u);
  EXPECT_TRUE(stats.stages[0].cached);
  EXPECT_TRUE(stats.stages[1].cached);
  EXPECT_TRUE(stats.stages[2].cached);
  EXPECT_TRUE(stats.stages[3].cached);
  EXPECT_FALSE(stats.stages[4].cached);
  EXPECT_FALSE(stats.stages[5].cached);

  // And the incremental build matches a cold OurSeg build byte for byte.
  DiagEngine diags;
  auto cold = Compile(kSource, BuildConfig::For(BuildPreset::kOurSeg), &diags);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(seg->prog->binary.code, cold->prog->binary.code);
  EXPECT_NE(seg->prog->binary.code, mpx->prog->binary.code);
}

TEST(ArtifactCache, WarmBuildsByteIdenticalAcrossAllPresets) {
  ArtifactCache cache;
  for (const BuildPreset p : kAllBuildPresets) {
    SCOPED_TRACE(PresetName(p));
    const BuildConfig config = BuildConfig::For(p);
    DiagEngine cold_diags;
    auto cold = Compile(kSource, config, &cold_diags);
    ASSERT_NE(cold, nullptr) << cold_diags.ToString();
    auto first = CompileCached(kSource, config, &cache);   // fills / reuses
    auto warm = CompileCached(kSource, config, &cache);    // fully cached
    EXPECT_EQ(first->prog->binary.code, cold->prog->binary.code);
    EXPECT_EQ(warm->prog->binary.code, cold->prog->binary.code);
    EXPECT_EQ(warm->prog->binary.magic_sites.size(),
              cold->prog->binary.magic_sites.size());
  }
}

// ---- Warnings replay on cached rebuilds ----

TEST(ArtifactCache, WarmBuildsReplayWarnings) {
  // Under ImplicitFlowMode::kWarn a private branch compiles with a warning;
  // warm builds restore the front end from the cache, so the warning must
  // be replayed from the artifact — once, not per restored stage.
  const char* src = R"(
    int main() {
      private int secret = 1;
      if (secret) { return 2; }
      return 3;
    })";
  BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  config.sema.implicit_flows = ImplicitFlowMode::kWarn;

  ArtifactCache cache;
  size_t cold_warnings = 0;
  for (int round = 0; round < 3; ++round) {
    DiagEngine diags;
    auto cp = Compile(src, config, &diags, nullptr, &cache);
    ASSERT_NE(cp, nullptr) << diags.ToString();
    if (round == 0) {
      cold_warnings = diags.num_warnings();
      EXPECT_GT(cold_warnings, 0u) << "expected a private-branch warning";
    } else {
      EXPECT_EQ(diags.num_warnings(), cold_warnings) << "round " << round;
      EXPECT_TRUE(diags.Contains("private")) << diags.ToString();
    }
  }

  // A preset switch replays the shared front-end's warning into the new
  // invocation too.
  BuildConfig seg = BuildConfig::For(BuildPreset::kOurSeg);
  seg.sema.implicit_flows = ImplicitFlowMode::kWarn;
  DiagEngine diags;
  auto cp = Compile(src, seg, &diags, nullptr, &cache);
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(diags.num_warnings(), cold_warnings);
}

// ---- Verify stays in the loop on cached rebuilds ----

TEST(ArtifactCache, VerifyRunsOnWarmRebuilds) {
  ArtifactCache cache;
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  for (int round = 0; round < 2; ++round) {
    CompilerInvocation inv(kSource, config);
    inv.set_cache(&cache);
    ASSERT_TRUE(RunStandardPipeline(&inv, /*verify=*/true))
        << inv.diags().ToString();
    ASSERT_NE(inv.verify_result, nullptr) << "round " << round;
    EXPECT_TRUE(inv.verify_result->ok);
    const StageStats& verify = inv.stats().stages.back();
    EXPECT_EQ(verify.id, StageId::kVerify);
    // ConfVerify executed — it is never satisfied from the cache.
    EXPECT_FALSE(verify.cached) << "round " << round;
    EXPECT_TRUE(verify.ran) << "round " << round;
  }
}

// ---- Eviction ----

TEST(ArtifactCache, EvictsLruUnderByteCap) {
  // Size one compile's artifacts, then cap the cache below it so retaining
  // everything is impossible.
  ArtifactCache probe_cache;
  CompileCached(kSource, BuildConfig::For(BuildPreset::kOurMpx), &probe_cache);
  const size_t full_bytes = probe_cache.stats().bytes_retained;
  ASSERT_GT(full_bytes, 0u);

  ArtifactCache cache(full_bytes / 2);
  CompileCached(kSource, BuildConfig::For(BuildPreset::kOurMpx), &cache);
  const CacheStats cs = cache.stats();
  EXPECT_GT(cs.evictions, 0u);
  EXPECT_LE(cs.bytes_retained, full_bytes / 2);
}

TEST(ArtifactCache, EvictionPreservesCorrectness) {
  // A pathologically small cap evicts almost everything; compiles must
  // still be byte-identical to cold builds, just with fewer hits.
  ArtifactCache cache(/*max_bytes=*/1024);
  DiagEngine diags;
  auto cold = Compile(kSource, BuildConfig::For(BuildPreset::kOurSeg), &diags);
  ASSERT_NE(cold, nullptr);
  for (int round = 0; round < 3; ++round) {
    auto cp = CompileCached(kSource, BuildConfig::For(BuildPreset::kOurSeg), &cache);
    EXPECT_EQ(cp->prog->binary.code, cold->prog->binary.code) << round;
  }
  EXPECT_LE(cache.stats().bytes_retained, 1024u);
}

// ---- One ExecImage per cached program ----
//
// The cold invocation's program, its Load artifact and every restore of it
// share one ExecImage slot (src/vm/program.h): the first fast or trace Vm
// on any of them builds the image, every other one runs that image, and
// paths that need no image never build one.

using testutil::EngineOpts;
using testutil::ExpectSameResult;
using testutil::ExpectSameStats;

// An uncached reference-engine session: what every cached run must match.
std::unique_ptr<Session> RefSession(const std::string& src, BuildPreset preset) {
  DiagEngine diags;
  auto s = MakeSession(src, preset, &diags, EngineOpts(VmEngine::kRef));
  EXPECT_NE(s, nullptr) << diags.ToString();
  return s;
}

// A warm (or cold) compile through `cache`, wrapped in a session on `engine`.
std::unique_ptr<Session> CachedSession(const std::string& src,
                                       const BuildConfig& config,
                                       ArtifactCache* cache, VmEngine engine) {
  auto cp = CompileCached(src, config, cache);
  return cp == nullptr ? nullptr : MakeSessionFor(std::move(cp), EngineOpts(engine));
}

TEST(SharedExecImage, WarmRestoresRunTheColdProgramsImage) {
  ArtifactCache cache;
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  auto ref = RefSession(kSource, BuildPreset::kOurMpx);
  ASSERT_NE(ref, nullptr);
  const Vm::CallResult want = ref->vm->Call("main", {});
  ASSERT_TRUE(want.ok) << want.fault_msg;

  auto cold = CachedSession(kSource, config, &cache, VmEngine::kFast);
  ASSERT_NE(cold, nullptr);
  const ExecImage* img = cold->compiled->prog->exec_image->built();
  ASSERT_NE(img, nullptr);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    auto warm = CachedSession(kSource, config, &cache, VmEngine::kFast);
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->compiled->prog->exec_image->built(), img);
    ExpectSameResult(want, warm->vm->Call("main", {}));
    ExpectSameStats(*ref->vm, *warm->vm);
  }
  EXPECT_EQ(cache.stats().hits_by_stage[Idx(StageId::kLoad)], 2u);
}

TEST(SharedExecImage, CompileVerifyAndRefPathsBuildNone) {
  ArtifactCache cache;
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  auto cold = CompileCached(kSource, config, &cache);
  ASSERT_NE(cold, nullptr);

  auto compiled = CompileCached(kSource, config, &cache);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->prog->exec_image, cold->prog->exec_image);  // one slot
  EXPECT_EQ(compiled->prog->exec_image->built(), nullptr);

  CompilerInvocation inv(kSource, config);
  inv.set_cache(&cache);
  ASSERT_TRUE(RunStandardPipeline(&inv, /*verify=*/true))
      << inv.diags().ToString();
  ASSERT_NE(inv.verify_result, nullptr);
  EXPECT_TRUE(inv.verify_result->ok) << inv.verify_result->ErrorText();
  EXPECT_EQ(inv.prog->exec_image->built(), nullptr);

  auto ref = CachedSession(kSource, config, &cache, VmEngine::kRef);
  ASSERT_NE(ref, nullptr);
  EXPECT_TRUE(ref->vm->Call("main", {}).ok);
  EXPECT_EQ(ref->compiled->prog->exec_image->built(), nullptr);
  EXPECT_EQ(cold->prog->exec_image->built(), nullptr);
}

TEST(SharedExecImage, ConcurrentRestoresBuildExactlyOneImage) {
  ArtifactCache cache;
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurSeg);
  auto ref = RefSession(kSource, BuildPreset::kOurSeg);
  ASSERT_NE(ref, nullptr);
  const Vm::CallResult want = ref->vm->Call("main", {});
  auto cold = CompileCached(kSource, config, &cache);  // no Vm: slot empty
  ASSERT_NE(cold, nullptr);

  // Every thread restores first, then all construct their Vms at once, so
  // the first-use builds race on the one shared slot.
  constexpr int kThreads = 8;
  std::atomic<int> restored{0};
  std::vector<std::unique_ptr<Session>> sessions(kThreads);
  std::vector<Vm::CallResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto cp = CompileCached(kSource, config, &cache);
      restored.fetch_add(1);
      while (restored.load() < kThreads) {
        std::this_thread::yield();
      }
      if (cp == nullptr) {
        return;
      }
      sessions[i] = MakeSessionFor(
          std::move(cp),
          EngineOpts(i % 2 == 0 ? VmEngine::kFast : VmEngine::kTrace));
      results[i] = sessions[i]->vm->Call("main", {});
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const ExecImage* img = cold->prog->exec_image->built();
  ASSERT_NE(img, nullptr);
  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE(i);
    ASSERT_NE(sessions[i], nullptr);
    EXPECT_EQ(sessions[i]->compiled->prog->exec_image->built(), img);
    ExpectSameResult(want, results[i]);
    ExpectSameStats(*ref->vm, *sessions[i]->vm);
  }
}

TEST(SharedExecImage, LoadArtifactChargesItsImageBuiltOrNot) {
  ArtifactCache cache;
  BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ASSERT_NE(CompileCached(kSource, config, &cache), nullptr);
  const size_t before = cache.stats().bytes_retained;
  // A magic-seed change re-runs Load alone: the byte delta is one Load
  // artifact's charge, taken at Put with no image built yet.
  config.load.magic_seed = 0xfeed;
  auto cold = CompileCached(kSource, config, &cache);
  ASSERT_NE(cold, nullptr);
  ASSERT_EQ(cold->prog->exec_image->built(), nullptr);
  const size_t charged = cache.stats().bytes_retained - before;

  auto warm = CachedSession(kSource, config, &cache, VmEngine::kFast);
  ASSERT_NE(warm, nullptr);
  const ExecImage* img = warm->compiled->prog->exec_image->built();
  ASSERT_NE(img, nullptr);
  EXPECT_EQ(cache.stats().bytes_retained - before, charged);  // unchanged

  // ExecImageBytes predicts the built image's footprint exactly, and the
  // charge covers it on top of the program's binary and decoded slots.
  const size_t image_bytes = sizeof(ExecImage) +
                             img->recs.capacity() * sizeof(ExecRecord) +
                             img->block_of.capacity() * sizeof(uint32_t) +
                             img->blocks.capacity() * sizeof(ExecBlock);
  EXPECT_EQ(ExecImageBytes(*cold->prog), image_bytes);
  EXPECT_GE(charged, ApproxBytes(cold->prog->binary) +
                         cold->prog->decoded.size() * sizeof(DecodedSlot) +
                         image_bytes);
}

TEST(SharedExecImage, EvictingTheLoadArtifactMidRunKeepsTheSessionWhole) {
  // Long enough that compiling kSource below overlaps the guest run.
  const std::string loop =
      "int main() { int s = 0; for (int i = 0; i < 200000; i = i + 1) "
      "{ s = s + i % 7; } return s; }";
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  auto ref = RefSession(loop, BuildPreset::kOurMpx);
  ASSERT_NE(ref, nullptr);
  const Vm::CallResult want = ref->vm->Call("main", {});
  ASSERT_TRUE(want.ok) << want.fault_msg;

  // Cap the cache at exactly one compile of `loop`: the larger kSource's
  // artifacts then push every one of loop's out, oldest first.
  ArtifactCache sizing;
  ASSERT_NE(CompileCached(loop, config, &sizing), nullptr);
  ArtifactCache cache(sizing.stats().bytes_retained);
  ASSERT_NE(CompileCached(loop, config, &cache), nullptr);
  auto s = CachedSession(loop, config, &cache, VmEngine::kFast);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(cache.stats().hits_by_stage[Idx(StageId::kLoad)], 1u);
  const ExecImage* img = s->compiled->prog->exec_image->built();
  ASSERT_NE(img, nullptr);

  Vm::CallResult got;
  std::thread run([&] { got = s->vm->Call("main", {}); });
  EXPECT_NE(CompileCached(kSource, config, &cache), nullptr);
  run.join();
  ExpectSameResult(want, got);
  ExpectSameStats(*ref->vm, *s->vm);
  EXPECT_EQ(s->compiled->prog->exec_image->built(), img);

  // The Load artifact really was evicted: a recompile runs Load again.
  PipelineStats again;
  ASSERT_NE(CompileCached(loop, config, &cache, &again), nullptr);
  ASSERT_FALSE(again.stages.empty());
  EXPECT_EQ(again.stages.back().id, StageId::kLoad);
  EXPECT_TRUE(again.stages.back().ran);
  EXPECT_FALSE(again.stages.back().cached);
}

// ---- Stats snapshot coherence ----

TEST(ArtifactCache, StatsSnapshotIsCoherentUnderConcurrentCompiles) {
  // Regression test for the --cache-stats reporting path: stats() must
  // return one snapshot taken under the cache lock, so a reader racing live
  // compiles can never observe a torn struct. The invariants below hold for
  // every coherent snapshot (each hit/miss increments its aggregate and its
  // per-stage counter under one lock hold) but are routinely violated by a
  // field-at-a-time read of live state.
  ArtifactCache cache;
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const CacheStats cs = cache.stats();
      uint64_t hit_sum = 0;
      uint64_t miss_sum = 0;
      for (size_t i = 0; i < CacheStats::kNumStages; ++i) {
        hit_sum += cs.hits_by_stage[i];
        miss_sum += cs.misses_by_stage[i];
      }
      EXPECT_EQ(cs.hits, hit_sum);
      EXPECT_EQ(cs.misses, miss_sum);
      EXPECT_GE(cs.insertions, cs.evictions);
      // Every producer registration resolves to an insertion (Put) or an
      // abandon; an in-flight key is still an observed miss, so misses can
      // only run ahead of insertions, never behind.
      EXPECT_GE(cs.misses, cs.insertions - std::min<uint64_t>(
                                               cs.insertions, cs.disk_hits));
    }
  });
  // Churn: three sources × full preset sweeps, all through the one cache.
  for (int round = 0; round < 3; ++round) {
    const std::string src =
        "int main() { return " + std::to_string(7 + round) + "; }";
    auto outcomes = CompileBatch(PresetSweepJobs(src), /*num_workers=*/4, &cache);
    for (const auto& out : outcomes) {
      EXPECT_TRUE(out.ok) << out.invocation->diags().ToString();
    }
  }
  stop.store(true);
  poller.join();

  const CacheStats final_stats = cache.stats();
  EXPECT_GT(final_stats.hits, 0u);
  EXPECT_GT(final_stats.misses, 0u);
}

// ---- Read-only sharing of the front-end artifacts ----

TEST(SharedArtifacts, PresetSweepSharesOneOptimizedModule) {
  ArtifactCache cache;
  const auto jobs = PresetSweepJobs(kSource);
  auto outcomes = CompileBatch(jobs, /*num_workers=*/4, &cache);

  // Every kReduced preset reads the one cached Opt module. A preset whose
  // Codegen key another preset shares (OurBare next to Our1Mem) may instead
  // restore that Codegen artifact whole and never hold an IR at all.
  const IrModule* shared = nullptr;
  size_t reduced = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    const CompilerInvocation& inv = *outcomes[i].invocation;
    ASSERT_TRUE(outcomes[i].ok) << inv.diags().ToString();
    DiagEngine diags;
    auto cold = Compile(jobs[i].source, jobs[i].config, &diags);
    ASSERT_NE(cold, nullptr) << diags.ToString();
    EXPECT_EQ(outcomes[i].program->prog->binary.code, cold->prog->binary.code);
    if (jobs[i].config.opt_level != OptLevel::kReduced) {
      continue;
    }
    ++reduced;
    if (inv.ir == nullptr) {
      const StageStats* opt = inv.stats().Find(StageId::kOpt);
      const StageStats* codegen = inv.stats().Find(StageId::kCodegen);
      ASSERT_NE(opt, nullptr);
      ASSERT_NE(codegen, nullptr);
      EXPECT_TRUE(opt->cached && opt->ms == 0);  // skipped by the deep probe
      EXPECT_TRUE(codegen->cached);
      continue;
    }
    if (shared == nullptr) {
      shared = inv.ir.get();
    }
    EXPECT_EQ(inv.ir.get(), shared);
  }
  EXPECT_EQ(reduced, 6u);
  ASSERT_NE(shared, nullptr);
}

TEST(SharedArtifacts, GenerateIrReadsOneTypedProgramFromManyThreads) {
  // sizeof over scalar, pointer, function-pointer and struct operands (one
  // struct lays out an array member): IR generation reads each size from
  // sema's ExprInfo and interns nothing into the shared TypeContext.
  const char* src = R"(
    struct cell { int key; char tag; int vals[3]; };
    struct list { struct cell *head; struct list *next; };
    int main() {
      int n = sizeof(int) + sizeof(char) + sizeof(int*) + sizeof(char**);
      n = n + sizeof(struct cell) + sizeof(struct cell*) + sizeof(struct list);
      return n + sizeof(struct list**) + sizeof(int (*)(int));
    })";
  DiagEngine diags;
  std::shared_ptr<const TypedProgram> typed =
      RunSema(Parse(src, &diags), SemaOptions{}, &diags);
  ASSERT_NE(typed, nullptr) << diags.ToString();
  DiagEngine d0;
  auto reference = GenerateIr(*typed, &d0);
  ASSERT_NE(reference, nullptr) << d0.ToString();
  const std::string expected = IrToString(*reference);

  constexpr int kThreads = 8;
  std::vector<std::string> texts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&typed, &texts, t] {
      DiagEngine d;
      auto ir = GenerateIr(*typed, &d);
      texts[t] = ir != nullptr ? IrToString(*ir) : d.ToString();
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(texts[t], expected) << "thread " << t;
  }

  // And the program computes what C's layout rules say: 8+1+8+8, then
  // cell {8, 1 (+7), 24} = 40, 8, list = 16, then 8 + 8.
  auto s = MakeSession(src, BuildPreset::kOurMpx, &diags);
  ASSERT_NE(s, nullptr) << diags.ToString();
  const Vm::CallResult r = s->vm->Call("main", {});
  ASSERT_TRUE(r.ok) << r.fault_msg;
  EXPECT_EQ(r.ret, 25u + 40u + 8u + 16u + 8u + 8u);
}

}  // namespace
}  // namespace confllvm
