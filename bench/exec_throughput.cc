// Execution-throughput benchmark: host-side interpreter speed of the three
// VM engine tiers over the fig5 SPEC kernel suite plus the §7.2-§7.5
// applications (mini-NGINX, mini-LDAP hits and misses, the Privado
// classifier, one Merkle verify-read thread).
//
// Every runtime figure in this reproduction is produced by simulating
// millions of vISA instructions, so the interpreter's host MIPS bounds how
// many workloads/presets/iterations the benches can afford. This bench pits
// the reference stepper against the fast engine (ExecImage + token-threaded
// dispatch + superinstructions) and the trace tier (runtime hot-block
// promotion above the fast engine) on identical binaries — all three on
// the same flat region memory — and emits one JSON document on stdout for
// BENCH_exec.json harvesting:
//   per workload × preset: simulated instrs/cycles (ref and fast must match
//   cycle-for-cycle, trace must match the full call result — the bench
//   fails otherwise), wall ms and host MIPS per engine, the ref→fast and
//   fast→trace speedups, and the trace tier's promotion telemetry; plus a
//   geomean/min summary with a separate fast→trace geomean over the server
//   apps nginx/ldap/ldap-miss (the branchy long-running programs the tier
//   exists for; privado and merkle stay out of that gate).
//
// Needs no google-benchmark: it is a plain executable so CI can always run
// it. Timing is min-of-N over fresh sessions (the D-cache model is part of
// the simulation, so each measured run starts from a cold Vm — for the
// trace tier that includes re-discovering and re-promoting its hot blocks).
//
// --pair-histogram: instead of timing, run every exec row × preset, the ct
// kernels × ct presets and the serve kernels × presets once on the
// *reference* engine with VmOptions::pair_histogram attached and dump the
// aggregated dynamic opcode-pair frequency table as JSON (sorted by count,
// with cumulative fractions). This is the input that decides the fast
// engine's superinstruction lists: bench/PAIR_HISTOGRAM.md holds the
// checked-in snapshot and the 10,000-pair rule exec_image.h follows.
//
// --block-histogram: run every workload × preset once on the reference
// engine with VmOptions::block_profile attached and dump (a) the dynamic
// basic-block length distribution — entries and retired instructions per
// static block length — and (b) the top-N hottest blocks by retired
// instructions. This is the trace tier's tuning input: the head of the
// hot-block list is what crosses trace_threshold, and the length
// distribution says how much dispatch a whole-block handler can amortize.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "src/driver/artifact_cache.h"
#include "src/support/strings.h"
#include "src/vm/trace_tier.h"

namespace confllvm {
namespace {

using workloads::kNumSpecKernels;
using workloads::kSpecKernels;

constexpr BuildPreset kPresets[] = {
    BuildPreset::kBase,   BuildPreset::kBaseOA, BuildPreset::kOurBare,
    BuildPreset::kOurCFI, BuildPreset::kOurMpx, BuildPreset::kOurSeg,
};
constexpr int kRepeats = 7;
constexpr int kNginxRequests = 192;
constexpr int kNginxFileBytes = 4096;
// ~6 entries per hash bucket: hit queries walk a realistic multi-entry
// chain instead of resolving on the first probe, so the lookup loop (not
// the per-query call/callext envelope) carries the cost.
constexpr uint64_t kLdapEntries = 6000;
// Hit queries walk a short hash chain each; miss queries take the
// 256-iteration referral-scan path, so far fewer of them dominate the run.
constexpr uint64_t kLdapQueries = 6000;
constexpr uint64_t kLdapMissQueries = 600;
// Merkle verify-reads every block of a 512-block tree on one thread (the
// perfbench exec row runs the same call on four RunParallel threads).
constexpr uint64_t kMerkleBlocks = 512;

// One timed unit: compile `source`, run `setup` (untimed: queue requests,
// populate the directory), then time a single Call of `fn`.
struct BenchWorkload {
  const char* name;
  const char* source;
  const char* fn;
  std::vector<uint64_t> args;
  std::function<void(Session*)> setup;  // may be null
  bool is_app;  // §7.2/§7.3 server app — enters the trace-tier geomean gate
};

std::vector<BenchWorkload> MakeWorkloads() {
  std::vector<BenchWorkload> ws;
  for (int k = 0; k < kNumSpecKernels; ++k) {
    ws.push_back({kSpecKernels[k].name, kSpecKernels[k].source, "main", {},
                  nullptr, false});
  }
  ws.push_back({"nginx", workloads::kNginx, "server_run",
                {kNginxRequests},
                [](Session* s) {
                  s->tlib->AddFile("f", std::string(kNginxFileBytes, 'x'));
                  for (int i = 0; i < kNginxRequests; ++i) {
                    s->tlib->PushRx(0, "GET f\n");
                  }
                  s->vm->Call("server_init", {});
                },
                true});
  ws.push_back({"ldap", workloads::kLdap, "ldap_run",
                {kLdapQueries, 1},
                [](Session* s) { s->vm->Call("ldap_populate", {kLdapEntries}); },
                true});
  ws.push_back({"ldap-miss", workloads::kLdap, "ldap_run",
                {kLdapMissQueries, 0},
                [](Session* s) { s->vm->Call("ldap_populate", {kLdapEntries}); },
                true});
  ws.push_back({"privado", workloads::kPrivado, "nn_classify", {},
                [](Session* s) {
                  s->vm->Call("nn_init", {});
                  s->vm->Call("nn_stage_image", {7});
                },
                false});
  ws.push_back({"merkle", workloads::kMerkle, "merkle_read_all",
                {0, kMerkleBlocks},
                [](Session* s) { s->vm->Call("merkle_build", {kMerkleBlocks}); },
                false});
  return ws;
}

struct EngineRun {
  bool ok = false;
  double wall_ms = 0;  // min over kRepeats
  uint64_t instrs = 0;
  uint64_t cycles = 0;
  uint64_t ret = 0;
  // Trace tier telemetry (kTrace runs only).
  uint64_t promoted_blocks = 0;
  uint64_t block_runs = 0;
  uint64_t trace_instrs = 0;
  uint64_t entry_bails = 0;
};

// One engine's timed run on a fresh session. The shared cache makes the
// per-repeat recompile a restore, and the ExecImage is built in the Vm
// constructor, so the timer brackets only the measured Vm::Call (setup —
// request queueing, directory population — runs before the clock starts).
bool MeasureOnce(const BenchWorkload& w, BuildPreset preset, VmEngine engine,
                 ArtifactCache* cache, EngineRun* out) {
  DiagEngine diags;
  auto compiled =
      Compile(w.source, BuildConfig::For(preset), &diags, nullptr, cache);
  if (compiled == nullptr) {
    fprintf(stderr, "compile failed under %s:\n%s", PresetName(preset),
            diags.ToString().c_str());
    return false;
  }
  VmOptions opts;
  opts.engine = engine;
  auto s = MakeSessionFor(std::move(compiled), opts);
  if (w.setup) {
    w.setup(s.get());
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = s->vm->Call(w.fn, w.args);
  const auto t1 = std::chrono::steady_clock::now();
  if (!r.ok) {
    fprintf(stderr, "%s/%s/%s: %s fault: %s\n", w.name, PresetName(preset),
            EngineName(engine), w.fn, r.fault_msg.c_str());
    return false;
  }
  out->ok = true;
  out->instrs = r.instrs;
  out->cycles = r.cycles;
  out->ret = r.ret;
  if (const TraceTier* tt = s->vm->trace_tier()) {
    const TraceTierStats ts = tt->Telemetry();
    out->promoted_blocks = ts.promoted_blocks;
    out->block_runs = ts.block_runs;
    out->trace_instrs = ts.trace_instrs;
    out->entry_bails = ts.entry_bails;
  }
  out->wall_ms = std::min(
      out->wall_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
  return true;
}

// Repeats are interleaved ref/fast/trace so host noise (throttling,
// neighbours) drifts across all engines equally; min-of-N per engine.
bool MeasureTriple(const BenchWorkload& w, BuildPreset preset,
                   ArtifactCache* cache, EngineRun* ref, EngineRun* fast,
                   EngineRun* trace) {
  ref->wall_ms = 1e300;
  fast->wall_ms = 1e300;
  trace->wall_ms = 1e300;
  for (int rep = 0; rep < kRepeats; ++rep) {
    if (!MeasureOnce(w, preset, VmEngine::kRef, cache, ref) ||
        !MeasureOnce(w, preset, VmEngine::kFast, cache, fast) ||
        !MeasureOnce(w, preset, VmEngine::kTrace, cache, trace)) {
      return false;
    }
  }
  return true;
}

double Mips(const EngineRun& r) {
  return r.wall_ms <= 0 ? 0 : static_cast<double>(r.instrs) / (r.wall_ms * 1e3);
}

int Run() {
  const std::vector<BenchWorkload> ws = MakeWorkloads();
  std::string out = StrFormat(
      "{\n  \"bench\": \"exec_throughput\",\n  \"repeats\": %d,\n"
      "  \"workloads\": [\n",
      kRepeats);
  double log_speedup_sum = 0;
  double min_speedup = 1e300;
  double log_trace_sum = 0;
  double min_trace = 1e300;
  double app_log_trace_sum = 0;
  int app_rows = 0;
  double total_ref_ms = 0;
  double total_fast_ms = 0;
  double total_trace_ms = 0;
  int rows = 0;
  bool all_match = true;

  for (size_t k = 0; k < ws.size(); ++k) {
    const BenchWorkload& w = ws[k];
    ArtifactCache cache;  // shared front end across presets and repeats
    out += StrFormat("    {\"name\": \"%s\", \"presets\": [\n", w.name);
    const size_t npresets = sizeof(kPresets) / sizeof(kPresets[0]);
    for (size_t c = 0; c < npresets; ++c) {
      const BuildPreset preset = kPresets[c];
      EngineRun ref;
      EngineRun fast;
      EngineRun trace;
      if (!MeasureTriple(w, preset, &cache, &ref, &fast, &trace)) {
        return 1;
      }
      // ref↔fast is gated cycle-identical; the trace tier is additionally
      // gated on the full call result (ret + instrs + cycles).
      const bool match = ref.cycles == fast.cycles && ref.instrs == fast.instrs;
      const bool trace_match = ref.cycles == trace.cycles &&
                               ref.instrs == trace.instrs &&
                               ref.ret == trace.ret;
      all_match = all_match && match && trace_match;
      const double speedup = fast.wall_ms <= 0 ? 0 : ref.wall_ms / fast.wall_ms;
      const double tspeed =
          trace.wall_ms <= 0 ? 0 : fast.wall_ms / trace.wall_ms;
      log_speedup_sum += std::log(speedup);
      min_speedup = std::min(min_speedup, speedup);
      log_trace_sum += std::log(tspeed);
      min_trace = std::min(min_trace, tspeed);
      if (w.is_app) {
        app_log_trace_sum += std::log(tspeed);
        ++app_rows;
      }
      total_ref_ms += ref.wall_ms;
      total_fast_ms += fast.wall_ms;
      total_trace_ms += trace.wall_ms;
      ++rows;
      out += StrFormat(
          "      {\"preset\": \"%s\", \"sim_instrs\": %llu, "
          "\"sim_cycles\": %llu, \"cycles_match\": %s, \"trace_match\": %s, "
          "\"ref\": {\"wall_ms\": %.3f, \"mips\": %.1f}, "
          "\"fast\": {\"wall_ms\": %.3f, \"mips\": %.1f}, "
          "\"trace\": {\"wall_ms\": %.3f, \"mips\": %.1f, "
          "\"promoted_blocks\": %llu, \"block_runs\": %llu, "
          "\"trace_instrs\": %llu, \"entry_bails\": %llu}, "
          "\"speedup\": %.2f, \"trace_speedup\": %.2f}%s\n",
          PresetName(preset), static_cast<unsigned long long>(fast.instrs),
          static_cast<unsigned long long>(fast.cycles), match ? "true" : "false",
          trace_match ? "true" : "false", ref.wall_ms, Mips(ref), fast.wall_ms,
          Mips(fast), trace.wall_ms, Mips(trace),
          static_cast<unsigned long long>(trace.promoted_blocks),
          static_cast<unsigned long long>(trace.block_runs),
          static_cast<unsigned long long>(trace.trace_instrs),
          static_cast<unsigned long long>(trace.entry_bails), speedup, tspeed,
          c + 1 == npresets ? "" : ",");
    }
    out += StrFormat("    ]}%s\n", k + 1 == ws.size() ? "" : ",");
  }

  const double geomean = rows == 0 ? 0 : std::exp(log_speedup_sum / rows);
  const double tgeomean = rows == 0 ? 0 : std::exp(log_trace_sum / rows);
  const double app_tgeomean =
      app_rows == 0 ? 0 : std::exp(app_log_trace_sum / app_rows);
  const double total = total_fast_ms <= 0 ? 0 : total_ref_ms / total_fast_ms;
  out += StrFormat(
      "  ],\n  \"summary\": {\"rows\": %d, \"geomean_speedup\": %.2f, "
      "\"suite_speedup\": %.2f, \"min_speedup\": %.2f, "
      "\"trace_geomean_speedup\": %.2f, \"trace_min_speedup\": %.2f, "
      "\"app_trace_geomean_speedup\": %.2f, "
      "\"total_ref_ms\": %.1f, \"total_fast_ms\": %.1f, "
      "\"total_trace_ms\": %.1f, \"all_cycles_match\": %s}\n}\n",
      rows, geomean, total, min_speedup, tgeomean, min_trace, app_tgeomean,
      total_ref_ms, total_fast_ms, total_trace_ms,
      all_match ? "true" : "false");
  fputs(out.c_str(), stdout);
  fprintf(stderr,
          "exec_throughput: %d rows, ref->fast %.2fx suite (geomean %.2fx, "
          "min %.2fx); fast->trace geomean %.2fx (apps %.2fx, min %.2fx); "
          "results %s\n",
          rows, total, geomean, min_speedup, tgeomean, app_tgeomean, min_trace,
          all_match ? "identical" : "DIVERGED");
  // Differing simulated results mean the engines disagree — fail loudly so
  // CI treats the bench as a check, not just a report.
  return all_match ? 0 : 1;
}

// ---- --pair-histogram mode ----

int RunPairHistogram() {
  // Every exec row under the six standard presets, the ct kernels under the
  // ct presets (the linearizer's select traffic) and the confccd serve
  // kernels under the standard presets (the daemon's per-request guest work).
  struct Sweep {
    BenchWorkload w;
    std::vector<BuildPreset> presets;
  };
  const std::vector<BuildPreset> standard(std::begin(kPresets), std::end(kPresets));
  std::vector<Sweep> sweeps;
  for (BenchWorkload& w : MakeWorkloads()) {
    sweeps.push_back({std::move(w), standard});
  }
  for (int k = 0; k < workloads::kNumCtKernels; ++k) {
    const auto& kernel = workloads::kCtKernels[k];
    sweeps.push_back({{kernel.name, kernel.source, "kernel", {42, 7}, nullptr, false},
                      {std::begin(kCtBuildPresets), std::end(kCtBuildPresets)}});
  }
  for (int k = 0; k < workloads::kNumServeKernels; ++k) {
    const auto& kernel = workloads::kServeKernels[k];
    sweeps.push_back(
        {{kernel.name, kernel.source, "main", {}, nullptr, false}, standard});
  }

  std::vector<uint64_t> hist(256 * 256, 0);
  uint64_t total_instrs = 0;
  int rows = 0;
  for (const Sweep& sw : sweeps) {
    const BenchWorkload& w = sw.w;
    ArtifactCache cache;
    for (const BuildPreset preset : sw.presets) {
      DiagEngine diags;
      auto compiled =
          Compile(w.source, BuildConfig::For(preset), &diags, nullptr, &cache);
      if (compiled == nullptr) {
        fprintf(stderr, "compile failed under %s:\n%s", PresetName(preset),
                diags.ToString().c_str());
        return 1;
      }
      // The histogram counts the *reference* dynamic stream (set-up calls
      // included: the fast engine runs them too); the fast engine's fusion
      // would hide exactly the pairs being measured.
      VmOptions opts;
      opts.engine = VmEngine::kRef;
      opts.pair_histogram = &hist;
      auto s = MakeSessionFor(std::move(compiled), opts);
      if (w.setup) {
        w.setup(s.get());
      }
      const auto r = s->vm->Call(w.fn, w.args);
      if (!r.ok) {
        fprintf(stderr, "%s/%s: %s fault: %s\n", w.name, PresetName(preset),
                w.fn, r.fault_msg.c_str());
        return 1;
      }
      total_instrs += r.instrs;
      ++rows;
    }
  }

  struct Pair {
    uint16_t key;
    uint64_t count;
  };
  std::vector<Pair> pairs;
  uint64_t total_pairs = 0;
  for (uint32_t key = 0; key < hist.size(); ++key) {
    if (hist[key] != 0) {
      pairs.push_back({static_cast<uint16_t>(key), hist[key]});
      total_pairs += hist[key];
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.count > b.count; });

  std::string out = StrFormat(
      "{\n  \"bench\": \"exec_pair_histogram\",\n  \"engine\": \"ref\",\n"
      "  \"runs\": %d,\n  \"total_instrs\": %llu,\n  \"total_pairs\": %llu,\n"
      "  \"distinct_pairs\": %zu,\n  \"pairs\": [\n",
      rows, static_cast<unsigned long long>(total_instrs),
      static_cast<unsigned long long>(total_pairs), pairs.size());
  double cumulative = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Op a = static_cast<Op>(pairs[i].key >> 8);
    const Op b = static_cast<Op>(pairs[i].key & 0xff);
    const double frac =
        total_pairs == 0 ? 0 : static_cast<double>(pairs[i].count) / total_pairs;
    cumulative += frac;
    out += StrFormat(
        "    {\"first\": \"%s\", \"second\": \"%s\", \"count\": %llu, "
        "\"frac\": %.6f, \"cum_frac\": %.6f}%s\n",
        OpName(a), OpName(b), static_cast<unsigned long long>(pairs[i].count),
        frac, cumulative, i + 1 == pairs.size() ? "" : ",");
  }
  out += "  ]\n}\n";
  fputs(out.c_str(), stdout);
  fprintf(stderr,
          "exec_pair_histogram: %d runs, %zu distinct pairs over %llu dynamic "
          "pairs; top pair covers %.1f%%\n",
          rows, pairs.size(), static_cast<unsigned long long>(total_pairs),
          pairs.empty() ? 0.0
                        : 100.0 * static_cast<double>(pairs[0].count) /
                              static_cast<double>(total_pairs));
  return 0;
}

// ---- --block-histogram mode ----

constexpr size_t kTopBlocks = 20;

int RunBlockHistogram() {
  const std::vector<BenchWorkload> ws = MakeWorkloads();
  struct HotBlock {
    std::string where;  // workload/preset
    uint32_t bid = 0;
    uint32_t leader = 0;
    uint32_t len = 0;
    uint64_t entries = 0;
    uint64_t weight = 0;  // entries × len = instructions retired in the block
  };
  std::vector<HotBlock> hot;
  // length -> {entries, retired instructions} over every run.
  std::vector<uint64_t> len_entries;
  std::vector<uint64_t> len_instrs;
  uint64_t total_instrs = 0;
  uint64_t total_entries = 0;
  int rows = 0;

  for (const BenchWorkload& w : ws) {
    ArtifactCache cache;
    for (const BuildPreset preset : kPresets) {
      DiagEngine diags;
      auto compiled =
          Compile(w.source, BuildConfig::For(preset), &diags, nullptr, &cache);
      if (compiled == nullptr) {
        fprintf(stderr, "compile failed under %s:\n%s", PresetName(preset),
                diags.ToString().c_str());
        return 1;
      }
      // The profile counts the *reference* dynamic stream — the trace tier's
      // own counters stop at promotion, which is the behaviour being tuned.
      std::vector<uint64_t> profile;
      VmOptions opts;
      opts.engine = VmEngine::kRef;
      opts.block_profile = &profile;
      auto s = MakeSessionFor(std::move(compiled), opts);
      if (w.setup) {
        w.setup(s.get());
      }
      const auto r = s->vm->Call(w.fn, w.args);
      if (!r.ok) {
        fprintf(stderr, "%s/%s: %s fault: %s\n", w.name, PresetName(preset),
                w.fn, r.fault_msg.c_str());
        return 1;
      }
      const ExecImage* img = s->compiled->prog->exec_image->built();
      for (size_t bid = 0; bid < profile.size() && bid < img->blocks.size();
           ++bid) {
        if (profile[bid] == 0) {
          continue;
        }
        const ExecBlock& b = img->blocks[bid];
        if (b.num_instrs >= len_entries.size()) {
          len_entries.resize(b.num_instrs + 1, 0);
          len_instrs.resize(b.num_instrs + 1, 0);
        }
        len_entries[b.num_instrs] += profile[bid];
        len_instrs[b.num_instrs] += profile[bid] * b.num_instrs;
        total_entries += profile[bid];
        hot.push_back({std::string(w.name) + "/" + PresetName(preset),
                       static_cast<uint32_t>(bid), b.leader, b.num_instrs,
                       profile[bid], profile[bid] * b.num_instrs});
      }
      total_instrs += r.instrs;
      ++rows;
    }
  }

  std::sort(hot.begin(), hot.end(),
            [](const HotBlock& a, const HotBlock& b) {
              return a.weight != b.weight ? a.weight > b.weight
                                          : a.entries > b.entries;
            });
  if (hot.size() > kTopBlocks) {
    hot.resize(kTopBlocks);
  }

  std::string out = StrFormat(
      "{\n  \"bench\": \"exec_block_histogram\",\n  \"engine\": \"ref\",\n"
      "  \"runs\": %d,\n  \"total_instrs\": %llu,\n"
      "  \"total_block_entries\": %llu,\n"
      "  \"mean_block_len\": %.2f,\n  \"lengths\": [\n",
      rows, static_cast<unsigned long long>(total_instrs),
      static_cast<unsigned long long>(total_entries),
      total_entries == 0
          ? 0.0
          : static_cast<double>(total_instrs) / static_cast<double>(total_entries));
  bool first = true;
  for (size_t len = 0; len < len_entries.size(); ++len) {
    if (len_entries[len] == 0) {
      continue;
    }
    const double share =
        total_instrs == 0
            ? 0
            : static_cast<double>(len_instrs[len]) / static_cast<double>(total_instrs);
    out += StrFormat(
        "%s    {\"len\": %zu, \"entries\": %llu, \"instrs\": %llu, "
        "\"instr_share\": %.4f}",
        first ? "" : ",\n", len,
        static_cast<unsigned long long>(len_entries[len]),
        static_cast<unsigned long long>(len_instrs[len]), share);
    first = false;
  }
  out += "\n  ],\n  \"hottest\": [\n";
  for (size_t i = 0; i < hot.size(); ++i) {
    const HotBlock& h = hot[i];
    out += StrFormat(
        "    {\"where\": \"%s\", \"block\": %u, \"leader\": %u, \"len\": %u, "
        "\"entries\": %llu, \"instrs\": %llu, \"instr_share\": %.4f}%s\n",
        h.where.c_str(), h.bid, h.leader, h.len,
        static_cast<unsigned long long>(h.entries),
        static_cast<unsigned long long>(h.weight),
        total_instrs == 0
            ? 0
            : static_cast<double>(h.weight) / static_cast<double>(total_instrs),
        i + 1 == hot.size() ? "" : ",");
  }
  out += "  ]\n}\n";
  fputs(out.c_str(), stdout);
  fprintf(stderr,
          "exec_block_histogram: %d runs, %llu block entries over %llu "
          "instrs (mean dynamic block %.2f instrs); hottest block carries "
          "%.1f%% of one run's instructions\n",
          rows, static_cast<unsigned long long>(total_entries),
          static_cast<unsigned long long>(total_instrs),
          total_entries == 0 ? 0.0
                             : static_cast<double>(total_instrs) /
                                   static_cast<double>(total_entries),
          hot.empty() || total_instrs == 0
              ? 0.0
              : 100.0 * static_cast<double>(hot[0].weight) /
                    static_cast<double>(total_instrs));
  return 0;
}

// ---- --ct-trace-diff mode ----

// The machine-readable form of the constant-time gate: for every ct
// workload × ct preset × engine, run the kernel with several secret inputs
// and record the full observable trace surface (cycles, instrs, loads,
// stores, cache hit/miss counters, and the per-access hit/miss stream).
// One JSON file per workload (`ct_trace_<name>.json`) carries every
// observation plus the two verdicts — secrets indistinguishable per engine,
// engines identical per secret — so a CI failure ships the exact diverging
// numbers as an artifact instead of just a red X. Exits non-zero on any
// divergence. (tests/ct_preset_test.cc asserts the same property with
// first-divergence diagnostics; this mode exists for artifact harvesting.)

constexpr uint64_t kCtSecrets[] = {0, 1, 42, 1000000007};
constexpr uint64_t kCtPublicArg = 7;
constexpr uint64_t kCtTraceThreshold = 2;  // force trace-tier promotion

struct CtObservation {
  bool ok = false;
  uint64_t ret = 0;
  VmStats stats;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<uint8_t> stream;
};

uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

bool SameCtObservation(const CtObservation& a, const CtObservation& b) {
  return a.ok == b.ok && a.ret == b.ret && a.stats.cycles == b.stats.cycles &&
         a.stats.instrs == b.stats.instrs && a.stats.loads == b.stats.loads &&
         a.stats.stores == b.stats.stores && a.cache_hits == b.cache_hits &&
         a.cache_misses == b.cache_misses && a.stream == b.stream;
}

// Trace equality across *secrets* additionally requires equal return
// values to be a non-goal: the result legitimately depends on the secret.
bool SameCtTrace(const CtObservation& a, const CtObservation& b) {
  return a.ok == b.ok && a.stats.cycles == b.stats.cycles &&
         a.stats.instrs == b.stats.instrs && a.stats.loads == b.stats.loads &&
         a.stats.stores == b.stats.stores && a.cache_hits == b.cache_hits &&
         a.cache_misses == b.cache_misses && a.stream == b.stream;
}

int RunCtTraceDiff() {
  constexpr VmEngine kEngines[] = {VmEngine::kRef, VmEngine::kFast,
                                   VmEngine::kTrace};
  constexpr const char* kEngineNames[] = {"ref", "fast", "trace"};
  constexpr int kNumEngines = 3;
  constexpr int kNumSecrets =
      static_cast<int>(sizeof(kCtSecrets) / sizeof(kCtSecrets[0]));
  bool all_ok = true;

  for (int k = 0; k < workloads::kNumCtKernels; ++k) {
    const auto& kernel = workloads::kCtKernels[k];
    ArtifactCache cache;
    bool workload_ok = true;
    std::string body;

    for (size_t pi = 0; pi < std::size(kCtBuildPresets); ++pi) {
      const BuildPreset preset = kCtBuildPresets[pi];
      // grid[engine][secret]
      CtObservation grid[kNumEngines][kNumSecrets];
      for (int e = 0; e < kNumEngines; ++e) {
        for (int si = 0; si < kNumSecrets; ++si) {
          DiagEngine diags;
          auto compiled = Compile(kernel.source, BuildConfig::For(preset),
                                  &diags, nullptr, &cache);
          if (compiled == nullptr) {
            fprintf(stderr, "%s/%s: compile failed:\n%s", kernel.name,
                    PresetName(preset), diags.ToString().c_str());
            return 1;
          }
          VmOptions opts;
          opts.engine = kEngines[e];
          if (kEngines[e] == VmEngine::kTrace) {
            opts.trace_threshold = kCtTraceThreshold;
          }
          auto s = MakeSessionFor(std::move(compiled), opts);
          CtObservation& o = grid[e][si];
          s->vm->cache().set_stream_log(&o.stream);
          const auto r = s->vm->Call("kernel", {kCtSecrets[si], kCtPublicArg});
          s->vm->cache().set_stream_log(nullptr);
          o.ok = r.ok;
          o.ret = r.ret;
          o.stats = s->vm->stats();
          o.cache_hits = s->vm->cache().hits();
          o.cache_misses = s->vm->cache().misses();
          if (!r.ok) {
            fprintf(stderr, "%s/%s/%s secret=%llu: fault: %s\n", kernel.name,
                    PresetName(preset), kEngineNames[e],
                    static_cast<unsigned long long>(kCtSecrets[si]),
                    r.fault_msg.c_str());
            workload_ok = false;
          }
        }
      }
      bool secret_invariant = true;
      for (int e = 0; e < kNumEngines; ++e) {
        for (int si = 1; si < kNumSecrets; ++si) {
          secret_invariant &= SameCtTrace(grid[e][0], grid[e][si]);
        }
      }
      bool engines_agree = true;
      for (int si = 0; si < kNumSecrets; ++si) {
        for (int e = 1; e < kNumEngines; ++e) {
          engines_agree &= SameCtObservation(grid[0][si], grid[e][si]);
        }
      }
      workload_ok = workload_ok && secret_invariant && engines_agree;

      body += StrFormat(
          "    {\"preset\": \"%s\", \"secret_invariant\": %s, "
          "\"engines_agree\": %s, \"engines\": [\n",
          PresetName(preset), secret_invariant ? "true" : "false",
          engines_agree ? "true" : "false");
      for (int e = 0; e < kNumEngines; ++e) {
        body += StrFormat("      {\"engine\": \"%s\", \"runs\": [\n",
                          kEngineNames[e]);
        for (int si = 0; si < kNumSecrets; ++si) {
          const CtObservation& o = grid[e][si];
          body += StrFormat(
              "        {\"secret\": %llu, \"ok\": %s, \"ret\": %llu, "
              "\"cycles\": %llu, \"instrs\": %llu, \"loads\": %llu, "
              "\"stores\": %llu, \"cache_hits\": %llu, \"cache_misses\": "
              "%llu, \"stream_len\": %zu, \"stream_fnv\": \"%016llx\"}%s\n",
              static_cast<unsigned long long>(kCtSecrets[si]),
              o.ok ? "true" : "false", static_cast<unsigned long long>(o.ret),
              static_cast<unsigned long long>(o.stats.cycles),
              static_cast<unsigned long long>(o.stats.instrs),
              static_cast<unsigned long long>(o.stats.loads),
              static_cast<unsigned long long>(o.stats.stores),
              static_cast<unsigned long long>(o.cache_hits),
              static_cast<unsigned long long>(o.cache_misses),
              o.stream.size(),
              static_cast<unsigned long long>(Fnv1a64(o.stream)),
              si + 1 == kNumSecrets ? "" : ",");
        }
        body += StrFormat("      ]}%s\n", e + 1 == kNumEngines ? "" : ",");
      }
      body += StrFormat("    ]}%s\n",
                        pi + 1 == std::size(kCtBuildPresets) ? "" : ",");
    }

    std::string doc = StrFormat(
        "{\n  \"bench\": \"ct_trace_diff\",\n  \"workload\": \"%s\",\n"
        "  \"public_arg\": %llu,\n  \"ok\": %s,\n  \"presets\": [\n",
        kernel.name, static_cast<unsigned long long>(kCtPublicArg),
        workload_ok ? "true" : "false");
    doc += body;
    doc += "  ]\n}\n";

    const std::string path = StrFormat("ct_trace_%s.json", kernel.name);
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    fputs(doc.c_str(), f);
    fclose(f);
    fprintf(stderr, "ct_trace_diff: %s -> %s (%s)\n", kernel.name,
            path.c_str(), workload_ok ? "ok" : "DIVERGENCE");
    all_ok = all_ok && workload_ok;
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace confllvm

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pair-histogram") == 0) {
      return confllvm::RunPairHistogram();
    }
    if (std::strcmp(argv[i], "--block-histogram") == 0) {
      return confllvm::RunBlockHistogram();
    }
    if (std::strcmp(argv[i], "--ct-trace-diff") == 0) {
      return confllvm::RunCtTraceDiff();
    }
  }
  return confllvm::Run();
}
