// The `compile` workload: preset sweeps of every program the repo carries,
// cold, then stored into a fresh disk tier, then restarted from that disk
// tier, plus the 3-module LDAP split through BuildGraph/BuildScheduler.
//
// An op is one item's sweep: CompileBatch(PresetSweepJobs(src, verify)) on
// `workers` threads with a fresh ArtifactCache, or the split built under
// OurMPX and OurSeg. Every binary must be byte-identical to the set-up's
// reference build, whichever tier served it.
#include <filesystem>
#include <iterator>

#include "perfbench/src/bench.h"
#include "perfbench/src/corpus.h"
#include "perfbench/src/layers.h"
#include "src/driver/artifact_cache.h"
#include "src/isa/binary.h"

namespace perfbench {

using namespace confllvm;

namespace {

constexpr int kSetupRepeats = 9;
constexpr double kWindowSeconds = 2.0;
constexpr BuildPreset kSplitPresets[] = {BuildPreset::kOurMpx, BuildPreset::kOurSeg};

// One compiled item: per job, the serialized-binary hash (0 = failed) and
// the code size.
struct ItemBuild {
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> code_words;
  std::vector<std::unique_ptr<CompiledProgram>> programs;  // reference build only
  double restored_ms = 0;  // cache restore time summed over the jobs' stages
};

struct TierTotals {
  CacheStats stats;
  std::vector<double> restore_ms;  // per sweep, cold phase

  void Add(const CacheStats& s) {
    stats.hits += s.hits;
    stats.misses += s.misses;
    stats.shared_waits += s.shared_waits;
    stats.evictions += s.evictions;
    stats.disk_hits += s.disk_hits;
    stats.disk_stores += s.disk_stores;
  }
};

// Builds item `idx` (corpus index, or corpus.size() + k for the split under
// kSplitPresets[k]) through `cache`.
ItemBuild BuildItem(const std::vector<Program>& corpus, size_t idx, unsigned workers,
                    ArtifactCache* cache, bool keep_programs) {
  ItemBuild out;
  auto record = [&](bool ok, const PipelineStats* stats, const LoadedProgram* prog) {
    out.hashes.push_back(ok ? Fnv(SerializeBinary(prog->binary)) : 0);
    out.code_words.push_back(ok ? prog->binary.code.size() : 0);
    if (stats != nullptr) {
      for (const StageStats& s : stats->stages) {
        out.restored_ms += s.cached ? s.ms : 0;
      }
    }
  };
  if (idx < corpus.size()) {
    std::vector<BatchOutcome> outcomes =
        CompileBatch(SweepJobs(corpus[idx]), workers, cache);
    for (BatchOutcome& o : outcomes) {
      const bool ok = o.ok && o.program != nullptr;
      record(ok, &o.invocation->stats(), ok ? o.program->prog.get() : nullptr);
      if (keep_programs) {
        out.programs.push_back(std::move(o.program));
      }
    }
    return out;
  }
  const BuildPreset preset = kSplitPresets[idx - corpus.size()];
  LinkedBuild build = BuildSplit(ConfigFor(preset), /*verify=*/true, cache, workers);
  record(build.ok, nullptr, build.ok ? build.prog.get() : nullptr);
  for (const ModuleOutcome& mo : build.modules) {
    if (mo.invocation != nullptr) {
      for (const StageStats& s : mo.invocation->stats().stages) {
        out.restored_ms += s.cached ? s.ms : 0;
      }
    }
  }
  return out;
}

bool Matches(const ItemBuild& got, const ItemBuild& want) {
  if (got.hashes != want.hashes) {
    return false;
  }
  for (const uint64_t h : got.hashes) {
    if (h == 0) {
      return false;
    }
  }
  return true;
}

struct PassSamples {
  Windowed cold_ms;   // fresh memory-only cache
  Windowed store_ms;  // fresh cache writing through to the disk tier
  Windowed warm_ms;   // fresh cache restarted on the written disk tier
};

// One pass, three phases over the items in a seeded order: cold sweeps with
// a fresh memory-only cache; the same sweeps storing into a fresh disk
// directory; then restarts through new caches opened on that directory.
// The store phase's file writes are timed apart from the cold sweeps
// because the host's write latency drifts far more than its compile speed.
void RunPass(const std::vector<Program>& corpus, size_t nitems, const Options& opts,
             const std::vector<ItemBuild>& reference, Rng* rng, int pass,
             PassSamples* samples, TierTotals* tiers, Result* result) {
  static const char* const kPhaseNames[] = {"cold", "store", "disk-warm"};
  const std::string dir = opts.workdir + "/disk-" + std::to_string(pass);
  std::filesystem::remove_all(dir);
  std::vector<size_t> order(nitems);
  for (size_t i = 0; i < nitems; ++i) {
    order[i] = i;
  }
  rng->Shuffle(&order);
  Windowed* phase_ms[] = {&samples->cold_ms, &samples->store_ms, &samples->warm_ms};
  for (int phase = 0; phase < 3; ++phase) {
    for (const size_t idx : order) {
      ArtifactCache cache;
      const bool attached = phase == 0 || cache.AttachDiskTier({dir, 0});
      const auto t0 = Clock::now();
      const ItemBuild got = BuildItem(corpus, idx, opts.workers, &cache, false);
      const auto done = Clock::now();
      const bool ok = attached && Matches(got, reference[idx]);
      if (!ok) {
        Report("compile: item %zu %s sweep mismatch", idx, kPhaseNames[phase]);
      }
      result->Count(ok);
      phase_ms[phase]->Add(done, MsBetween(t0, done));
      if (tiers != nullptr) {
        tiers->Add(cache.stats());
        if (phase == 0) {
          tiers->restore_ms.push_back(got.restored_ms);
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int RunCompile(const Options& opts, Result* result) {
  const std::vector<Program> corpus = CompileCorpus();
  const size_t nitems = corpus.size() + std::size(kSplitPresets);

  // Set-up: the reference build of every item (no cache), repeated.
  std::vector<ItemBuild> reference;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double scale = kProbeRefMs / HostProbeMs(opts.workers);
    const auto t0 = Clock::now();
    std::vector<ItemBuild> builds;
    for (size_t idx = 0; idx < nitems; ++idx) {
      builds.push_back(BuildItem(corpus, idx, opts.workers, nullptr, true));
    }
    setup_s.push_back(MsSince(t0) / 1e3 * scale);
    reference = std::move(builds);
  }
  for (const ItemBuild& b : reference) {
    for (const uint64_t h : b.hashes) {
      result->Count(h != 0);
    }
  }

  // Reference runs of the reference build: Base, OurMPX and OurSeg of every
  // non-ct program (indices into kAllBuildPresets: 0, 5, 7). Every preset
  // must return Base's value; the cycle ratios give the simulated overhead.
  std::vector<double> mpx_ratio;
  std::vector<double> seg_ratio;
  double code_words = 0;
  for (size_t idx = 0; idx < corpus.size(); ++idx) {
    if (corpus[idx].ct) {
      continue;
    }
    Signature sig[3];
    const size_t slots[3] = {0, 5, 7};
    for (int k = 0; k < 3; ++k) {
      auto& prog = reference[idx].programs[slots[k]];
      if (prog == nullptr) {
        sig[k] = Signature{};
        continue;
      }
      auto session = MakeSessionFor(std::move(prog));
      sig[k] = DriveSession(corpus[idx], session.get());
    }
    const bool ok = sig[0].ok && sig[1].ok && sig[2].ok && sig[1].ret == sig[0].ret &&
                    sig[2].ret == sig[0].ret;
    result->Count(ok);
    if (ok) {
      mpx_ratio.push_back(static_cast<double>(sig[1].cycles) / sig[0].cycles);
      seg_ratio.push_back(static_cast<double>(sig[2].cycles) / sig[0].cycles);
    }
    code_words += static_cast<double>(reference[idx].code_words[5]);
  }
  code_words += static_cast<double>(reference[corpus.size()].code_words[0]);
  Report("compile: %zu items (%zu programs + split x %zu), setup %.3f s", nitems,
         corpus.size(), std::size(kSplitPresets), Median(setup_s));

  Rng rng(opts.seed);
  if (opts.trace) {
    PassSamples samples{Windowed(Clock::now(), 1, 1), Windowed(Clock::now(), 1, 1),
                        Windowed(Clock::now(), 1, 1)};
    TierTotals tiers;
    RunPass(corpus, nitems, opts, reference, &rng, 0, &samples, &tiers, result);
    const CacheStats& s = tiers.stats;
    result->Set("driver.cache_hit_ratio",
                s.hits + s.misses == 0 ? 0 : static_cast<double>(s.hits) / (s.hits + s.misses),
                "ratio");
    result->Set("driver.restore_ms", Median(tiers.restore_ms), "ms");
    result->Set("driver.shared_waits", static_cast<double>(s.shared_waits), "count");
    result->Set("driver.evictions", static_cast<double>(s.evictions), "count");
    result->Set("driver.disk_hits", static_cast<double>(s.disk_hits), "count");
    result->Set("driver.disk_stores", static_cast<double>(s.disk_stores), "count");

    std::vector<WalkItem> items;
    std::vector<WalkItem> probe;
    for (const Program& p : corpus) {
      const std::vector<BuildPreset> presets =
          p.ct ? std::vector<BuildPreset>(std::begin(kCtBuildPresets), std::end(kCtBuildPresets))
               : std::vector<BuildPreset>{BuildPreset::kBase, BuildPreset::kOurMpx,
                                          BuildPreset::kOurSeg};
      for (const BuildPreset preset : presets) {
        items.push_back({p, preset});
      }
      probe.push_back({p, p.ct ? BuildPreset::kCtMpx : BuildPreset::kOurMpx});
    }
    TracedWalk(items, opts, result);
    ServiceProbe(probe, opts, result);
    return 0;
  }

  const auto start = Clock::now();
  PassSamples samples{Windowed(start, opts.seconds, kWindowSeconds),
                      Windowed(start, opts.seconds, kWindowSeconds),
                      Windowed(start, opts.seconds, kWindowSeconds)};
  int pass = 0;
  do {
    RunPass(corpus, nitems, opts, reference, &rng, pass++, &samples, nullptr, result);
    const auto now = Clock::now();
    const double probe = HostProbeMs(opts.workers);
    for (Windowed* w : {&samples.cold_ms, &samples.store_ms, &samples.warm_ms}) {
      w->AddProbe(now, probe);
    }
  } while (MsSince(start) < opts.seconds * 1e3);

  result->Set("setup_s", Median(setup_s), "s");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  result->Set("ops_per_s", samples.cold_ms.InverseMean() * 1e3, "1/s");
  result->Set("p50_ms", samples.cold_ms.Percentile(0.5), "ms");
  result->Set("p99_ms", samples.cold_ms.Percentile(0.99), "ms");
  result->Set("secondary_p50_ms", samples.warm_ms.Percentile(0.5), "ms");
  result->Set("code_words", code_words, "words");
  result->Set("sim_overhead_mpx_pct", (GeoMean(mpx_ratio) - 1) * 100, "%");
  result->Set("sim_overhead_seg_pct", (GeoMean(seg_ratio) - 1) * 100, "%");
  Report("compile: host probe %.2f ms (reference %.1f ms)", samples.cold_ms.ProbeMs(),
         kProbeRefMs);
  Report("compile: %d passes; in the window %zu cold sweeps (p50 %.3f ms), %zu disk "
         "stores (p50 %.3f ms), %zu disk-warm sweeps (p50 %.3f ms)",
         pass, samples.cold_ms.size(), samples.cold_ms.Percentile(0.5),
         samples.store_ms.size(), samples.store_ms.Percentile(0.5),
         samples.warm_ms.size(), samples.warm_ms.Percentile(0.5));
  return 0;
}

}  // namespace perfbench
