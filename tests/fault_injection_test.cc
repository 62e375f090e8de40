// Resilience hardening under deterministic fault injection
// (src/support/fault_injection.h; ARCHITECTURE.md "Failure model and
// degradation ladder"):
//
//   * injector semantics — spec parsing/rejection, nth-hit and probability
//     triggers, per-site stream determinism, and the hit-count report;
//   * the headline chaos gate — a cold→warm --preset=all sweep under disk
//     I/O fault injection never crashes, produces byte-identical binaries
//     vs the fault-free run, and the cache *reports* its degradation;
//   * disk-tier degradation ladder — retry-then-fail accounting, the
//     circuit breaker opening after consecutive failures, short-circuiting
//     while open, and self-healing through periodic probes; injected
//     ENOSPC on the entry write and on the publish rename degrades to
//     compute-without-store;
//   * pipeline failure isolation — an injected stage crash fails exactly
//     its own job with a diagnostic; a stalled stage trips the per-job
//     deadline; the build scheduler skips only the transitive dependents
//     of a failed module;
//   * the VM wall-clock watchdog faults with `deadline` identically across
//     all three engines, for Call and RunParallel.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/artifact_cache.h"
#include "src/driver/build_graph.h"
#include "src/driver/confcc.h"
#include "src/driver/disk_cache.h"
#include "src/driver/pipeline.h"
#include "src/isa/binary.h"
#include "src/support/fault_injection.h"
#include "src/support/json.h"
#include "src/vm/vm.h"

namespace fs = std::filesystem;

namespace confllvm {
namespace {

// Arms the global injector for one scope; disarms (and zeroes counters) on
// exit even when an assertion fails, so tests cannot leak faults into each
// other.
struct InjectorScope {
  explicit InjectorScope(const std::string& spec) {
    std::string err;
    EXPECT_TRUE(FaultInjector::Instance().Configure(spec, &err)) << err;
  }
  ~InjectorScope() { FaultInjector::Instance().Reset(); }
};

struct TempCacheDir {
  TempCacheDir() {
    static std::atomic<int> counter{0};
    path = (fs::temp_directory_path() /
            ("confllvm_fault_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::create_directories(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::unique_ptr<ArtifactCache> MakeDiskCache(const std::string& dir) {
  auto cache = std::make_unique<ArtifactCache>();
  EXPECT_TRUE(cache->AttachDiskTier({dir, 0}));
  return cache;
}

const char* kSource =
    "int main() { int s = 0; for (int i = 1; i <= 10; i = i + 1) "
    "{ s = s + i; } return s; }\n";

StageArtifact MakeCodegenArtifact() {
  DiagEngine diags;
  auto cp = Compile(kSource, BuildConfig::For(BuildPreset::kOurMpx), &diags);
  EXPECT_NE(cp, nullptr) << diags.ToString();
  StageArtifact a;
  a.stage = StageId::kCodegen;
  a.binary = std::make_shared<const Binary>(cp->prog->binary);
  a.source = std::make_shared<const std::string>(kSource);
  a.bytes = ApproxBytes(*a.binary);
  return a;
}

// ---- Injector semantics ----

TEST(FaultInjector, RejectsMalformedSpecsAndStaysUnarmed) {
  FaultInjector& fi = FaultInjector::Instance();
  std::string err;
  for (const char* bad :
       {"disk.read.open", "disk.read.open=", "disk.read.open=p",
        "disk.read.open=p1.5", "disk.read.open=p-0.1", "disk.read.open=pabc",
        "disk.read.open=n0", "disk.read.open=nabc", "seed=", "seed=xyz",
        "=p0.5"}) {
    SCOPED_TRACE(bad);
    err.clear();
    EXPECT_FALSE(fi.Configure(bad, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(fi.enabled());
  }
  // Empty clauses (stray commas) are tolerated and arm nothing.
  ASSERT_TRUE(fi.Configure(",,", &err)) << err;
  EXPECT_FALSE(fi.enabled());
  // A good spec arms; the empty spec disarms.
  ASSERT_TRUE(fi.Configure("seed=3,disk.*=p0.5,pipeline.codegen=n2", &err))
      << err;
  EXPECT_TRUE(fi.enabled());
  ASSERT_TRUE(fi.Configure("", &err));
  EXPECT_FALSE(fi.enabled());
}

TEST(FaultInjector, NthHitFiresExactlyOnceAndGlobArmsByPrefix) {
  InjectorScope inject("some.site=n3,glob.prefix.*=n1");
  FaultInjector& fi = FaultInjector::Instance();
  std::vector<bool> fires;
  for (int i = 0; i < 6; ++i) {
    fires.push_back(fi.ShouldFail("some.site"));
  }
  EXPECT_EQ(fires, std::vector<bool>({false, false, true, false, false, false}));
  EXPECT_TRUE(fi.ShouldFail("glob.prefix.a"));
  EXPECT_FALSE(fi.ShouldFail("glob.prefix.a"));  // n1 already fired for .a
  EXPECT_TRUE(fi.ShouldFail("glob.prefix.b"));   // .b has its own hit count
  EXPECT_FALSE(fi.ShouldFail("unrelated.site"));

  const std::string json = fi.ReportJson().Dump();
  EXPECT_NE(json.find("\"some.site\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"glob.prefix.a\""), std::string::npos) << json;
}

TEST(FaultInjector, ProbabilityStreamsAreDeterministicPerSeedAndSite) {
  const auto draw = [](const std::string& spec, const std::string& site,
                       int n) {
    InjectorScope inject(spec);
    std::vector<bool> fires;
    for (int i = 0; i < n; ++i) {
      fires.push_back(FaultInjector::Instance().ShouldFail(site));
    }
    return fires;
  };
  const auto a = draw("seed=42,s.*=p0.5", "s.one", 64);
  EXPECT_EQ(a, draw("seed=42,s.*=p0.5", "s.one", 64));
  EXPECT_NE(a, draw("seed=43,s.*=p0.5", "s.one", 64));
  EXPECT_NE(a, draw("seed=42,s.*=p0.5", "s.two", 64));
  // Interleaving hits of another site does not perturb s.one's stream.
  {
    InjectorScope inject("seed=42,s.*=p0.5");
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      FaultInjector::Instance().ShouldFail("s.two");
      fires.push_back(FaultInjector::Instance().ShouldFail("s.one"));
      FaultInjector::Instance().ShouldFail("s.three");
    }
    EXPECT_EQ(fires, a);
  }
  // p0.5 over 64 draws fires sometimes but not always.
  int fired = 0;
  for (const bool f : a) {
    fired += f ? 1 : 0;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

// ---- The headline chaos gate ----

TEST(ChaosSweep, DiskFaultsNeverChangeOutputBytesAndAreReported) {
  // Fault-free reference: one blob per preset.
  auto baseline = CompileBatch(PresetSweepJobs(kSource), 2, nullptr);
  std::vector<std::vector<uint8_t>> ref;
  for (auto& o : baseline) {
    ASSERT_TRUE(o.ok) << o.label << ": " << o.invocation->diags().ToString();
    ref.push_back(SerializeBinary(o.program->prog->binary));
  }

  TempCacheDir dir;
  InjectorScope inject("seed=7,disk.*=p0.5");
  uint64_t total_degradation = 0;
  for (const char* round : {"cold", "warm"}) {
    SCOPED_TRACE(round);
    auto cache = MakeDiskCache(dir.path);
    auto out = CompileBatch(PresetSweepJobs(kSource), 2, cache.get());
    for (size_t i = 0; i < out.size(); ++i) {
      SCOPED_TRACE(out[i].label);
      ASSERT_TRUE(out[i].ok) << out[i].invocation->diags().ToString();
      // The tentpole property: injected disk faults may cost performance
      // (retries, recomputes), never correctness — every output byte is
      // identical to the fault-free run.
      EXPECT_EQ(SerializeBinary(out[i].program->prog->binary), ref[i]);
    }
    const CacheStats cs = cache->stats();
    total_degradation += cs.disk_retries + cs.disk_io_failures +
                         cs.disk_store_failures +
                         cs.disk_breaker_short_circuits;
  }
  // Degradation is visible, never silent: at p=0.5 the sweep must have
  // recorded retries/failures somewhere.
  EXPECT_GT(total_degradation, 0u);

  // The injector's own report saw the disk sites fire.
  uint64_t fired = 0;
  for (const auto& sc : FaultInjector::Instance().Report()) {
    if (sc.site.rfind("disk.", 0) == 0) {
      fired += sc.fired;
    }
  }
  EXPECT_GT(fired, 0u);
}

// ---- Disk-tier degradation ladder ----

TEST(DiskResilience, RetriesAreCountedAndTransientFaultsStillSucceed) {
  TempCacheDir dir;
  DiskCacheTier tier({dir.path, 0});
  ASSERT_TRUE(tier.ok());
  const StageArtifact artifact = MakeCodegenArtifact();
  // n1: exactly the first write attempt fails; the retry must succeed and
  // the store must land.
  InjectorScope inject("disk.write.open=n1");
  EXPECT_TRUE(tier.Store("codegen:0xretry", artifact));
  const auto rs = tier.resilience();
  EXPECT_GE(rs.retries, 1u);
  EXPECT_EQ(rs.io_failures, 0u);
  EXPECT_EQ(rs.store_failures, 0u);
  EXPECT_FALSE(rs.breaker_open);
  EXPECT_NE(tier.Load("codegen:0xretry").artifact, nullptr);
}

TEST(DiskResilience, BreakerOpensAfterConsecutiveFailuresAndSelfHeals) {
  TempCacheDir dir;
  DiskCacheTier tier({dir.path, 0});
  ASSERT_TRUE(tier.ok());
  const StageArtifact artifact = MakeCodegenArtifact();
  {
    InjectorScope inject("disk.write.*=p1.0");
    for (uint32_t i = 0; i < kDiskCacheBreakerThreshold; ++i) {
      EXPECT_FALSE(
          tier.Store("codegen:0xchaos" + std::to_string(i), artifact));
    }
    auto rs = tier.resilience();
    EXPECT_TRUE(rs.breaker_open);
    EXPECT_GE(rs.breaker_opens, 1u);
    EXPECT_GE(rs.io_failures, kDiskCacheBreakerThreshold);
    EXPECT_GE(rs.store_failures, kDiskCacheBreakerThreshold);
    EXPECT_GT(rs.retries, 0u);
    // While open the tier answers without touching the disk: a store fails
    // fast, a load is a plain miss, both counted as short-circuits.
    EXPECT_FALSE(tier.Store("codegen:0xopen", artifact));
    EXPECT_EQ(tier.Load("codegen:0xopen").artifact, nullptr);
    EXPECT_GT(tier.resilience().breaker_short_circuits, 0u);
  }
  // Faults cleared: within one probe interval an operation is admitted as a
  // self-healing probe, succeeds, and closes the breaker.
  bool healed = false;
  for (uint64_t i = 0; i <= kDiskCacheBreakerProbeInterval && !healed; ++i) {
    tier.Store("codegen:0xheal", artifact);
    healed = !tier.resilience().breaker_open;
  }
  EXPECT_TRUE(healed);
  EXPECT_GT(tier.resilience().breaker_probes, 0u);
  EXPECT_TRUE(tier.Store("codegen:0xafter", artifact));
  EXPECT_NE(tier.Load("codegen:0xafter").artifact, nullptr);
}

TEST(DiskResilience, EnospcOnWriteOrRenameDegradesToComputeWithoutStore) {
  DiagEngine ref_diags;
  auto ref = Compile(kSource, BuildConfig::For(BuildPreset::kOurMpx),
                     &ref_diags);
  ASSERT_NE(ref, nullptr);
  const std::vector<uint8_t> ref_blob = SerializeBinary(ref->prog->binary);

  for (const char* spec : {"disk.write.data=p1.0", "disk.write.rename=p1.0"}) {
    SCOPED_TRACE(spec);
    TempCacheDir dir;
    {
      // Every store attempt loses its payload (injected ENOSPC): the
      // compile must still succeed, with the lost store counted.
      InjectorScope inject(spec);
      auto cache = MakeDiskCache(dir.path);
      DiagEngine diags;
      auto cp = Compile(kSource, BuildConfig::For(BuildPreset::kOurMpx),
                        &diags, nullptr, cache.get());
      ASSERT_NE(cp, nullptr) << diags.ToString();
      EXPECT_EQ(SerializeBinary(cp->prog->binary), ref_blob);
      const CacheStats cs = cache->stats();
      EXPECT_EQ(cs.disk_stores, 0u);
      EXPECT_GT(cs.disk_store_failures, 0u);
      EXPECT_GT(cs.disk_retries, 0u);
      // No partial entry may be left visible — the directory holds no .art
      // files at all.
      for (const auto& de : fs::directory_iterator(dir.path)) {
        EXPECT_NE(de.path().extension(), ".art") << de.path();
      }
    }
    // The disk returns to health: a warm run recomputes correctly, stores,
    // and the run after that hits.
    {
      auto cache = MakeDiskCache(dir.path);
      DiagEngine diags;
      auto cp = Compile(kSource, BuildConfig::For(BuildPreset::kOurMpx),
                        &diags, nullptr, cache.get());
      ASSERT_NE(cp, nullptr);
      EXPECT_EQ(SerializeBinary(cp->prog->binary), ref_blob);
      EXPECT_GT(cache->stats().disk_stores, 0u);
    }
    auto again = MakeDiskCache(dir.path);
    DiagEngine diags;
    ASSERT_NE(Compile(kSource, BuildConfig::For(BuildPreset::kOurMpx), &diags,
                      nullptr, again.get()),
              nullptr);
    EXPECT_EQ(again->stats().disk_hits, 1u);
  }
}

TEST(DiskResilience, ResilienceCountersSurfaceInStatsRowAndJson) {
  TempCacheDir dir;
  InjectorScope inject("disk.write.data=p1.0");
  auto cache = MakeDiskCache(dir.path);
  DiagEngine diags;
  ASSERT_NE(Compile(kSource, BuildConfig::For(BuildPreset::kOurMpx), &diags,
                    nullptr, cache.get()),
            nullptr);
  const CacheStats cs = cache->stats();
  const std::string row = cs.ToRow();
  EXPECT_NE(row.find("disk-resilience:"), std::string::npos) << row;
  const std::string json = cs.ToJson().Dump();
  for (const char* key :
       {"\"disk_retries\"", "\"disk_io_failures\"", "\"disk_store_failures\"",
        "\"disk_breaker_opens\"", "\"disk_breaker_short_circuits\"",
        "\"disk_breaker_probes\"", "\"disk_breaker_open\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// ---- Pipeline failure isolation + deadlines ----

TEST(PipelineIsolation, InjectedStageCrashFailsExactlyItsOwnJob) {
  InjectorScope inject("pipeline.codegen=n1");
  auto out = CompileBatch(PresetSweepJobs(kSource), /*num_workers=*/1, nullptr);
  int failed = 0;
  for (auto& o : out) {
    if (o.ok) {
      continue;
    }
    ++failed;
    EXPECT_TRUE(
        o.invocation->diags().Contains("internal error in stage codegen"))
        << o.invocation->diags().ToString();
    EXPECT_TRUE(o.invocation->diags().Contains("injected fault"));
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(out.size(), 8u);
}

TEST(PipelineDeadline, StalledStageTripsThePerJobDeadline) {
  InjectorScope inject("pipeline.stall.*=p1.0");  // 20 ms stall before each stage's compute
  BatchJob job;
  job.label = "deadline";
  job.source = kSource;
  job.config = BuildConfig::For(BuildPreset::kOurMpx);
  job.deadline_ms = 5;
  auto out = CompileBatch({job}, 1, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].ok);
  EXPECT_TRUE(out[0].invocation->diags().Contains("compile deadline exceeded"))
      << out[0].invocation->diags().ToString();
}

TEST(PipelineDeadline, GenerousDeadlineDoesNotPerturbTheCompile) {
  BatchJob job;
  job.label = "ok";
  job.source = kSource;
  job.config = BuildConfig::For(BuildPreset::kOurMpx);
  job.deadline_ms = 60000;
  auto out = CompileBatch({job}, 1, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].ok) << out[0].invocation->diags().ToString();
}

// ---- Scheduler failure isolation ----

TEST(SchedulerIsolation, FailedModuleSkipsOnlyItsTransitiveDependents) {
  DiagEngine gdiags;
  BuildGraph graph;
  // leaf parses but fails sema; mid -> leaf, app -> mid; solo independent.
  ASSERT_TRUE(graph.AddModule(
      "leaf", "int leaf_f(int x) { return undefined_sym; }\n", &gdiags));
  ASSERT_TRUE(graph.AddModule(
      "mid", "import \"leaf\";\nint mid_f(int x) { return leaf_f(x) + 1; }\n",
      &gdiags));
  ASSERT_TRUE(graph.AddModule(
      "app", "import \"mid\";\nint main() { return mid_f(1); }\n", &gdiags));
  ASSERT_TRUE(graph.AddModule(
      "solo", "int solo_f(int x) { return x * 2; }\n", &gdiags));
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ASSERT_TRUE(graph.Finalize(config, &gdiags)) << gdiags.ToString();

  BuildScheduler sched(&graph, config);
  LinkedBuild build = sched.Run();
  EXPECT_FALSE(build.ok);

  const auto outcome = [&](const std::string& name) -> const ModuleOutcome& {
    for (const ModuleOutcome& mo : build.modules) {
      if (mo.name == name) {
        return mo;
      }
    }
    ADD_FAILURE() << "no outcome for " << name;
    return build.modules[0];
  };
  // The broken module failed its own entry...
  EXPECT_FALSE(outcome("leaf").ok);
  EXPECT_FALSE(outcome("leaf").skipped);
  // ...its transitive dependents were skipped without compiling...
  EXPECT_TRUE(outcome("mid").skipped);
  EXPECT_EQ(outcome("mid").invocation, nullptr);
  EXPECT_TRUE(outcome("app").skipped);
  // ...and the independent module still compiled (warming the cache for
  // the fixed rebuild).
  EXPECT_TRUE(outcome("solo").ok);
  EXPECT_FALSE(outcome("solo").skipped);

  // The aggregated diagnostics name both the failure and every skip.
  EXPECT_TRUE(build.diags.Contains("module 'leaf' failed to compile"))
      << build.diags.ToString();
  EXPECT_TRUE(
      build.diags.Contains("module 'mid' skipped: dependency 'leaf' failed"));
  EXPECT_TRUE(
      build.diags.Contains("module 'app' skipped: dependency 'mid' failed"));

  // The per-module JSON rows carry the skip flag.
  const std::string json = build.stats.ToJson().Dump();
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::Parse(json, &doc, &err)) << err << "\n" << json;
  const Json* detail = doc.Find("module_detail");
  ASSERT_NE(detail, nullptr) << json;
  const Json* mid = nullptr;
  for (const Json& row : detail->items()) {
    if (row.GetString("name") == "mid") {
      mid = &row;
    }
  }
  ASSERT_NE(mid, nullptr) << json;
  EXPECT_EQ(mid->GetUInt("wave", 99), 1u) << json;
  EXPECT_FALSE(mid->GetBool("ok", true)) << json;
  EXPECT_TRUE(mid->GetBool("skipped")) << json;
}

// ---- VM wall-clock watchdog ----

const char* kSpinSource =
    "int main() { int s = 0; for (int i = 0; i < 2000000000; i = i + 1) "
    "{ s = s + i; } return s; }\n";

TEST(VmDeadline, WatchdogFaultsWithDeadlineOnEveryEngine) {
  for (const VmEngine e :
       {VmEngine::kRef, VmEngine::kFast, VmEngine::kTrace}) {
    SCOPED_TRACE(EngineName(e));
    DiagEngine diags;
    auto cp =
        Compile(kSpinSource, BuildConfig::For(BuildPreset::kOurMpx), &diags);
    ASSERT_NE(cp, nullptr) << diags.ToString();
    VmOptions opts;
    opts.engine = e;
    opts.deadline_ms = 25;
    auto s = MakeSessionFor(std::move(cp), opts);
    const auto r = s->vm->Call("main", {});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, VmFault::kDeadline);
    EXPECT_STREQ(FaultName(r.fault), "deadline");
    EXPECT_EQ(r.fault_msg, "wall-clock deadline exceeded");
    EXPECT_GT(r.instrs, 0u);  // it ran, then was stopped
  }
}

TEST(VmDeadline, RunParallelFaultsEveryRunnableThread) {
  DiagEngine diags;
  auto cp =
      Compile(kSpinSource, BuildConfig::For(BuildPreset::kOurMpx), &diags);
  ASSERT_NE(cp, nullptr) << diags.ToString();
  VmOptions opts;
  opts.deadline_ms = 25;
  auto s = MakeSessionFor(std::move(cp), opts);
  const auto pr = s->vm->RunParallel({{"main", {}}, {"main", {}}});
  EXPECT_FALSE(pr.ok);
  ASSERT_EQ(pr.per_thread.size(), 2u);
  for (const auto& r : pr.per_thread) {
    EXPECT_EQ(r.fault, VmFault::kDeadline);
  }
}

TEST(VmDeadline, ZeroDeadlineMeansNoWatchdogAndIdenticalRuns) {
  // deadline_ms=0 (the default) must not change observable behaviour; a
  // short program under a generous deadline must also be bit-identical to
  // the undeadlined run.
  DiagEngine diags;
  auto a = Compile(kSource, BuildConfig::For(BuildPreset::kOurMpx), &diags);
  auto b = Compile(kSource, BuildConfig::For(BuildPreset::kOurMpx), &diags);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  VmOptions with_deadline;
  with_deadline.deadline_ms = 60000;
  auto sa = MakeSessionFor(std::move(a), VmOptions{});
  auto sb = MakeSessionFor(std::move(b), with_deadline);
  const auto ra = sa->vm->Call("main", {});
  const auto rb = sb->vm->Call("main", {});
  EXPECT_TRUE(ra.ok) << ra.fault_msg;
  EXPECT_TRUE(rb.ok) << rb.fault_msg;
  EXPECT_EQ(ra.ret, rb.ret);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.instrs, rb.instrs);
}

}  // namespace
}  // namespace confllvm
