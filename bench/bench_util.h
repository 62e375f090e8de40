// Shared helpers for the per-figure programs.
//
// Cycle counts come from the VM's deterministic cost model, so every table
// is exactly reproducible. Simulated time uses a 3.4 GHz clock (the paper's
// i7-6700).
#ifndef CONFLLVM_BENCH_BENCH_UTIL_H_
#define CONFLLVM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/driver/artifact_cache.h"
#include "src/driver/confcc.h"
#include "src/driver/pipeline.h"

namespace confllvm::bench {

inline constexpr double kClockHz = 3.4e9;

struct RunResult {
  bool ok = false;
  uint64_t cycles = 0;
  uint64_t ret = 0;
  uint64_t check_instrs = 0;
};

// Compiles `src` under `preset`, runs setup (may be null), then calls `fn`.
inline RunResult RunOnce(const std::string& src, BuildPreset preset,
                         const std::string& fn, const std::vector<uint64_t>& args,
                         const std::function<void(Session*)>& setup = nullptr) {
  DiagEngine diags;
  auto s = MakeSession(src, preset, &diags);
  RunResult out;
  if (s == nullptr) {
    fprintf(stderr, "compile failed under %s:\n%s", PresetName(preset),
            diags.ToString().c_str());
    return out;
  }
  if (setup) {
    setup(s.get());
  }
  auto r = s->vm->Call(fn, args);
  out.ok = r.ok;
  out.cycles = r.cycles;
  out.ret = r.ret;
  out.check_instrs = s->vm->stats().check_instrs;
  if (!r.ok) {
    fprintf(stderr, "%s: %s fault: %s\n", PresetName(preset), fn.c_str(),
            r.fault_msg.c_str());
  }
  return out;
}

// One preset's compiled+runnable artifact from a CompileSweep.
struct SweepEntry {
  BuildPreset preset = BuildPreset::kBase;
  std::unique_ptr<Session> session;  // null when compilation failed
};

// Batch-compiles `src` under every preset in `presets` concurrently through
// the pipeline's CompileBatch (jobs = 0 -> hardware concurrency), then wraps
// each outcome in a runnable Session. Compilation failures are reported to
// stderr and leave a null session in the corresponding entry. A non-null
// `cache` shares the front-end artifacts across the sweep (and across
// successive sweeps of the same source) without changing any output byte.
inline std::vector<SweepEntry> CompileSweep(const std::string& src,
                                            const std::vector<BuildPreset>& presets,
                                            unsigned jobs = 0,
                                            ArtifactCache* cache = nullptr) {
  std::vector<BatchJob> batch;
  for (const BuildPreset p : presets) {
    BatchJob job;
    job.label = PresetName(p);
    job.source = src;
    job.config = BuildConfig::For(p);
    batch.push_back(std::move(job));
  }
  auto outcomes = CompileBatch(batch, jobs, cache);

  std::vector<SweepEntry> entries;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    SweepEntry e;
    e.preset = presets[i];
    if (!outcomes[i].ok) {
      fprintf(stderr, "compile failed under %s:\n%s", outcomes[i].label.c_str(),
              outcomes[i].invocation->diags().ToString().c_str());
    } else {
      e.session = MakeSessionFor(std::move(outcomes[i].program));
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

inline double Pct(uint64_t cycles, uint64_t base) {
  return base == 0 ? 0.0 : 100.0 * static_cast<double>(cycles) / base;
}

inline void PrintHeader(const char* title, const std::vector<std::string>& cols) {
  printf("\n== %s ==\n%-14s", title, "");
  for (const auto& c : cols) {
    printf("%12s", c.c_str());
  }
  printf("\n");
}

}  // namespace confllvm::bench

#endif  // CONFLLVM_BENCH_BENCH_UTIL_H_
