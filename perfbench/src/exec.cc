// The `exec` workload: every exec row (11 SPEC mains, nginx, ldap hits,
// ldap misses, privado, merkle on 4 threads) under Base, OurMPX and OurSeg,
// each run on a fresh Session with the default engine.
//
// Everything is compiled during set-up; each run restores its program from
// the warm memory cache, so the VM and the trusted runtime do nearly all the
// work. An op is one pass over every row x preset in a seeded order. Every
// run must match the set-up's reference-engine record (ret, simulated
// cycles, instructions, bytes sent).
#include <algorithm>
#include <atomic>
#include <iterator>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/corpus.h"
#include "perfbench/src/layers.h"
#include "src/driver/artifact_cache.h"

namespace perfbench {

using namespace confllvm;

namespace {

// A set-up repetition takes a few tens of milliseconds, so a median of 9
// moved 40% from run to run.
constexpr int kSetupRepeats = 31;
constexpr BuildPreset kTimedPresets[] = {BuildPreset::kBase, BuildPreset::kOurMpx,
                                         BuildPreset::kOurSeg};
// The paper's overhead columns (Fig. 5, Fig. 6 and the LDAP table).
constexpr BuildPreset kPaperPresets[] = {BuildPreset::kOurBare, BuildPreset::kOurCFI,
                                         BuildPreset::kOurMpx, BuildPreset::kOurSeg};

size_t PresetSlot(BuildPreset p) {
  for (size_t i = 0; i < std::size(kAllBuildPresets); ++i) {
    if (kAllBuildPresets[i] == p) {
      return i;
    }
  }
  return 0;
}

// Compiles and verifies every distinct source under every paper preset into
// `cache`.
bool CompileAll(const std::vector<Program>& rows, unsigned workers, ArtifactCache* cache) {
  std::vector<BatchJob> jobs;
  std::vector<std::string> seen;
  for (const Program& row : rows) {
    if (std::find(seen.begin(), seen.end(), row.source) != seen.end()) {
      continue;
    }
    seen.push_back(row.source);
    for (BatchJob& j : PresetSweepJobs(row.source, /*verify=*/true)) {
      jobs.push_back(std::move(j));
    }
  }
  bool ok = true;
  for (const BatchOutcome& o : CompileBatch(jobs, workers, cache)) {
    ok = ok && o.ok;
  }
  return ok;
}

// A fresh CompiledProgram for `row` under `preset`: a warm cache restores
// every stage.
std::unique_ptr<CompiledProgram> Restore(const Program& row, BuildPreset preset,
                                         ArtifactCache* cache, double* restore_ms) {
  DiagEngine diags;
  PipelineStats stats;
  auto cp = Compile(row.source, ConfigFor(preset), &diags, &stats, cache);
  if (restore_ms != nullptr) {
    for (const StageStats& s : stats.stages) {
      *restore_ms += s.cached ? s.ms : 0;
    }
  }
  return cp;
}

}  // namespace

int RunExec(const Options& opts, Result* result) {
  const std::vector<Program> rows = ExecRows();

  std::unique_ptr<ArtifactCache> cache;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double scale = kProbeRefMs / HostProbeMs(opts.workers);
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<ArtifactCache>();
    result->Count(CompileAll(rows, opts.workers, fresh.get()));
    setup_s.push_back(MsSince(t0) / 1e3 * scale);
    cache = std::move(fresh);
  }

  // Reference record: every row x paper preset once on the ref engine,
  // spread over `workers` threads.
  const size_t npresets = std::size(kAllBuildPresets);
  std::vector<std::vector<Signature>> oracle(rows.size(),
                                             std::vector<Signature>(npresets));
  const auto o0 = Clock::now();
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < opts.workers; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < rows.size() * npresets; i = next++) {
        const size_t r = i / npresets;
        auto cp = Restore(rows[r], kAllBuildPresets[i % npresets], cache.get(), nullptr);
        if (cp == nullptr) {
          continue;
        }
        VmOptions vo;
        vo.engine = VmEngine::kRef;
        auto session = MakeSessionFor(std::move(cp), vo);
        oracle[r][i % npresets] = DriveSession(rows[r], session.get());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t p = 0; p < npresets; ++p) {
      // Every preset must compute what Base computes.
      result->Count(oracle[r][p].ok && oracle[r][p].ret == oracle[r][0].ret);
    }
  }
  Report("exec: reference record of %zu rows x %zu presets in %.1f s", rows.size(),
         npresets, MsSince(o0) / 1e3);

  // Paper-derived rows: simulated-cycle overhead against Base.
  Report("%-12s %10s %8s %8s %8s %8s", "row", "Base Mcyc", "OurBare", "OurCFI", "OurMPX",
         "OurSeg");
  std::vector<double> mpx_ratio;
  std::vector<double> seg_ratio;
  for (size_t r = 0; r < rows.size(); ++r) {
    const double base = static_cast<double>(oracle[r][0].cycles);
    double pct[4];
    for (size_t k = 0; k < 4; ++k) {
      pct[k] = (oracle[r][PresetSlot(kPaperPresets[k])].cycles / base - 1) * 100;
    }
    Report("%-12s %10.2f %7.1f%% %7.1f%% %7.1f%% %7.1f%%", rows[r].name.c_str(),
           base / 1e6, pct[0], pct[1], pct[2], pct[3]);
    mpx_ratio.push_back(pct[2] / 100 + 1);
    seg_ratio.push_back(pct[3] / 100 + 1);
  }
  Report("%-12s %10s %8s %8s %7.1f%% %7.1f%%", "geomean", "", "", "",
         (GeoMean(mpx_ratio) - 1) * 100, (GeoMean(seg_ratio) - 1) * 100);

  std::vector<std::pair<size_t, BuildPreset>> runs;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const BuildPreset p : kTimedPresets) {
      runs.push_back({r, p});
    }
  }
  Rng rng(opts.seed);

  if (opts.trace) {
    const CacheStats before = cache->stats();
    std::vector<double> restore_ms;
    for (const auto& [r, preset] : runs) {
      double ms = 0;
      auto cp = Restore(rows[r], preset, cache.get(), &ms);
      restore_ms.push_back(ms);
      auto session = MakeSessionFor(std::move(cp));
      result->Count(DriveSession(rows[r], session.get()) == oracle[r][PresetSlot(preset)]);
    }
    const CacheStats after = cache->stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    result->Set("driver.cache_hit_ratio", hits + misses == 0 ? 0 : hits / (hits + misses),
                "ratio");
    result->Set("driver.restore_ms", Median(restore_ms), "ms");
    result->Set("driver.shared_waits",
                static_cast<double>(after.shared_waits - before.shared_waits), "count");
    result->Set("driver.evictions", static_cast<double>(after.evictions - before.evictions),
                "count");
    result->Set("driver.disk_hits", 0, "count");
    result->Set("driver.disk_stores", 0, "count");

    std::vector<WalkItem> items;
    std::vector<WalkItem> probe;
    for (const Program& row : rows) {
      for (const BuildPreset p : kTimedPresets) {
        items.push_back({row, p});
      }
      probe.push_back({row, BuildPreset::kOurMpx});
    }
    TracedWalk(items, opts, result);
    ServiceProbe(probe, opts, result);
    return 0;
  }

  // Every run is timed between two run probes (see RunProbeMs). A pass is
  // scaled by the median of its probes and each merkle run by the mean of
  // the four probes around it; medians are taken over the whole run. One
  // warm-up pass goes first and is not recorded.
  std::vector<double> pass_ms;    // reference ms per pass
  std::vector<double> merkle_ms;  // reference ms per merkle run, averaged per pass
  std::vector<double> raw_pass_ms;
  std::vector<double> probe_ms;
  bool warm = false;
  auto start = Clock::now();
  do {
    rng.Shuffle(&runs);  // a fresh seeded order every pass
    std::vector<double> probes;
    std::vector<double> run_ms;
    std::vector<std::pair<size_t, double>> merkle;  // (run index, guest ms)
    for (const auto& [r, preset] : runs) {
      probes.push_back(RunProbeMs());
      const auto r0 = Clock::now();
      auto cp = Restore(rows[r], preset, cache.get(), nullptr);
      if (cp == nullptr) {
        result->Count(false);
        run_ms.push_back(MsSince(r0));
        continue;
      }
      auto session = MakeSessionFor(std::move(cp));
      double guest_ms = 0;
      const Signature sig = DriveSession(rows[r], session.get(), &guest_ms);
      run_ms.push_back(MsSince(r0));
      const bool ok = sig == oracle[r][PresetSlot(preset)];
      if (!ok) {
        Report("exec: %s/%s differs from the reference record", rows[r].name.c_str(),
               PresetName(preset));
      }
      result->Count(ok);
      if (rows[r].drive == Drive::kMerkle) {
        merkle.push_back({run_ms.size() - 1, guest_ms});
      }
    }
    probes.push_back(RunProbeMs());
    if (!warm) {
      warm = true;
      start = Clock::now();
      continue;
    }
    double raw = 0;
    for (const double ms : run_ms) {
      raw += ms;
    }
    const double probe = Median(probes);
    raw_pass_ms.push_back(raw);
    probe_ms.push_back(probe);
    pass_ms.push_back(raw * kRunProbeRefMs / probe);
    double merkle_sum = 0;
    for (const auto& [i, guest_ms] : merkle) {
      // Probes i-1 and i come before run i, probes i+1 and i+2 after it.
      const size_t lo = i == 0 ? 0 : i - 1;
      const size_t hi = std::min(probes.size(), i + 3);
      double near = 0;
      for (size_t k = lo; k < hi; ++k) {
        near += probes[k];
      }
      merkle_sum += guest_ms * kRunProbeRefMs / (near / static_cast<double>(hi - lo));
    }
    if (!merkle.empty()) {
      merkle_ms.push_back(merkle_sum / static_cast<double>(merkle.size()));
    }
  } while (pass_ms.empty() || MsSince(start) < opts.seconds * 1e3);
  double total_pass_ms = 0;
  for (const double ms : pass_ms) {
    total_pass_ms += ms;
  }

  double code_words = 0;
  std::vector<std::string> seen;
  for (const Program& row : rows) {
    if (std::find(seen.begin(), seen.end(), row.source) != seen.end()) {
      continue;
    }
    seen.push_back(row.source);
    auto cp = Restore(row, BuildPreset::kOurMpx, cache.get(), nullptr);
    code_words += cp != nullptr ? static_cast<double>(cp->prog->binary.code.size()) : 0;
  }

  result->Set("setup_s", Median(setup_s), "s");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  result->Set("ops_per_s", static_cast<double>(pass_ms.size()) / total_pass_ms * 1e3, "1/s");
  result->Set("p50_ms", Median(pass_ms), "ms");
  result->Set("p99_ms", Percentile(pass_ms, 0.99), "ms");
  result->Set("secondary_p50_ms", Median(merkle_ms), "ms");
  result->Set("code_words", code_words, "words");
  result->Set("sim_overhead_mpx_pct", (GeoMean(mpx_ratio) - 1) * 100, "%");
  result->Set("sim_overhead_seg_pct", (GeoMean(seg_ratio) - 1) * 100, "%");
  Report("exec: run probe p50 %.3f ms (reference %.1f ms)", Median(probe_ms), kRunProbeRefMs);
  Report("exec: %zu passes of %zu runs after a warm-up pass, raw pass p50 %.1f ms, "
         "pass p50 %.1f ms, merkle p50 %.2f ms",
         pass_ms.size(), runs.size(), Median(raw_pass_ms), Median(pass_ms),
         Median(merkle_ms));
  return 0;
}

}  // namespace perfbench
