// confcc: command-line driver — compile a MiniC file through the staged
// pipeline, optionally verify, disassemble, time the stages, and run it
// under any (or all) of the paper's configurations.
//
//   confcc [--preset=OurMPX|all] [--entry=main] [--args=1,2,3] [--verify]
//          [--disasm] [--stats] [--time-passes] [--jobs=N] [--all-private]
//          [--incremental] [--cache-stats] [--cache-bytes=N]
//          [--cache-dir=D] [--cache-disk-bytes=N] [--cache-stats-json=F]
//          [--emit-bin=F] [--engine=ref|fast|trace] [--trace-threshold=N]
//          [--trace-stats-json=F] file.mc
//
// --preset=all batch-compiles every §7.1/§7.2 configuration concurrently
// (--jobs workers) through CompileBatch and reports one line per preset.
// --engine selects the VM interpreter: the reference stepper, the
// token-threaded fast engine, or the hot-block trace tier (default)
// (observable behaviour is identical on all three — see ARCHITECTURE.md
// "Engine tiers"). --trace-threshold sets the per-block entry count at
// which the trace tier promotes a block to a whole-block handler;
// --trace-stats-json writes the tier's telemetry (candidate/promoted
// blocks, block runs, bails) to F — F.<preset> per preset in sweep mode.
// --incremental routes compilation through the artifact cache, sharing the
// Parse/Sema/IrGen prefix across the sweep; --cache-stats appends the cache
// counters (hits, misses, bytes retained, prefix shares, disk tier) to the
// --time-passes table; --cache-bytes caps retained artifact bytes (LRU).
// --cache-dir attaches the persistent disk tier rooted at D (implies the
// cache): codegen artifacts persist across confcc invocations, so a warm
// rerun of an unchanged source skips Parse/Sema/Opt/Codegen entirely;
// --cache-disk-bytes caps the directory (LRU-by-mtime eviction);
// --cache-stats-json writes one coherent stats snapshot as JSON to F.
// --emit-bin serializes each compiled (post-load) Binary to F in single
// mode, or F.<preset>.bin per preset in sweep mode — byte-identical across
// cold and warm runs, which is what the CI disk-cache job diffs.
// In single-preset mode --jobs=N shards per-function codegen emission.
//
// Resilience/chaos flags (ARCHITECTURE.md "Failure model and degradation
// ladder"): --inject-faults=SPEC arms the deterministic fault injector
// (spec syntax in src/support/fault_injection.h — e.g.
// seed=42,disk.*=p0.05,pipeline.codegen=n1; the CONFCC_INJECT_FAULTS
// environment variable is read first, the flag overrides it);
// --inject-report=F writes the injector's per-site hit/fired counts as JSON
// to F at exit, even after a fatal error. --deadline-ms=N arms the VM
// wall-clock watchdog: a guest run exceeding N ms halts with a `deadline`
// fault instead of hanging confcc. Any uncaught internal error exits 1 with
// a one-line `confcc: fatal:` diagnostic.
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string_view>

#include "src/driver/artifact_cache.h"
#include "src/driver/build_graph.h"
#include "src/driver/confcc.h"
#include "src/driver/disk_cache.h"
#include "src/driver/pipeline.h"
#include "src/isa/binary.h"
#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/support/fault_injection.h"
#include "src/support/strings.h"
#include "src/vm/trace_tier.h"
#include "src/verifier/verifier.h"
#include "tools/cli.h"

using namespace confllvm;

namespace {

int Usage() {
  fprintf(stderr,
          "usage: confcc [--preset=P|all] [--entry=F] [--args=a,b,...] [--verify]\n"
          "              [--disasm] [--stats] [--time-passes] [--jobs=N]\n"
          "              [--all-private] [--incremental] [--cache-stats]\n"
          "              [--cache-bytes=N] [--cache-dir=D] [--cache-disk-bytes=N]\n"
          "              [--cache-stats-json=F] [--emit-bin=F]\n"
          "              [--engine=ref|fast|trace] [--trace-threshold=N]\n"
          "              [--trace-stats-json=F] [--inject-faults=SPEC]\n"
          "              [--inject-report=F] [--deadline-ms=N] file.mc\n"
          "       confcc --link [options] [--graph-stats-json=F] a.mc b.mc ...\n"
          "       confcc --connect=SOCK [options] [file.mc | --link a.mc ...]\n"
          "presets: Base BaseOA Our1Mem OurBare OurCFI OurMPX OurMPX-Sep OurSeg\n"
          "         ct-mpx ct-seg (constant-time: secret branches linearized,\n"
          "         verifier enforces secret-independent control flow/addresses)\n"
          "--link builds each file as a module (name = basename), resolves\n"
          "`import \"name\"` declarations through the build graph, compiles in\n"
          "dependency-parallel waves, links with cross-module contract checks,\n"
          "and (with --verify) runs link-time ConfVerify on the merged image.\n");
  return 2;
}

struct Options {
  BuildPreset preset = BuildPreset::kOurMpx;
  bool sweep = false;  // --preset=all
  std::string entry = "main";
  std::vector<uint64_t> args;
  bool verify = false;
  bool disasm = false;
  bool stats = false;
  bool time_passes = false;
  unsigned jobs = 0;  // 0 = hardware concurrency
  bool all_private = false;
  bool incremental = false;   // compile through the artifact cache
  bool cache_stats = false;   // print the cache counters row (implies cache)
  uint64_t cache_bytes = 0;   // artifact-cache byte cap, 0 = unbounded
  std::string cache_dir;      // persistent disk tier root (implies cache)
  uint64_t cache_disk_bytes = 0;  // disk-tier byte cap, 0 = unbounded
  std::string cache_stats_json;  // write the stats snapshot as JSON here
  std::string emit_bin;       // serialize compiled Binary(s) here
  VmEngine engine = VmOptions{}.engine;  // --engine=ref|fast|trace
  uint64_t trace_threshold = VmOptions{}.trace_threshold;
  uint64_t deadline_ms = 0;  // VM wall-clock watchdog (0 = none)
  std::string trace_stats_json;  // write TraceTierStats JSON here
  bool link = false;          // multi-module build-graph mode
  std::string graph_stats_json;  // write BuildGraphStats JSON here (--link)
  std::string connect;        // --connect=SOCK: forward verbs to a confccd
  std::vector<std::string> files;  // positional args (--link: the modules)

  // Byte caps / stats outputs only make sense with a cache, so every cache
  // flag implies one.
  bool UseCache() const {
    return incremental || cache_stats || cache_bytes != 0 ||
           !cache_dir.empty() || !cache_stats_json.empty();
  }
};

// Builds the cache the options ask for into *cache, attaching the disk tier
// when --cache-dir was given; null when no cache flag is set. False (after a
// diagnostic) when the disk tier cannot be attached — a broken cache dir is
// an explicit error, not a silent cold compile.
bool MakeCache(const Options& opt, std::unique_ptr<ArtifactCache>* cache) {
  if (!opt.UseCache()) {
    return true;
  }
  *cache = std::make_unique<ArtifactCache>(opt.cache_bytes);
  if (!opt.cache_dir.empty() &&
      !(*cache)->AttachDiskTier({opt.cache_dir, opt.cache_disk_bytes})) {
    fprintf(stderr, "confcc: cannot create cache dir %s\n",
            opt.cache_dir.c_str());
    return false;
  }
  return true;
}

// One coherent snapshot rendered to every requested sink. Taking the
// snapshot once matters: the row and the JSON must agree even if something
// were still compiling (see ArtifactCache::stats()).
bool ReportCacheStats(const ArtifactCache& cache, const Options& opt) {
  const CacheStats cs = cache.stats();
  if (opt.cache_stats) {
    fputs(cs.ToRow().c_str(), stderr);
  }
  return opt.cache_stats_json.empty() ||
         cli::WriteSink(opt.cache_stats_json, cs.ToJson().Dump());
}

// Reads one input file; false after a one-line diagnostic.
bool ReadSource(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    fprintf(stderr, "confcc: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    fprintf(stderr, "confcc: error reading %s\n", path.c_str());
    return false;
  }
  *out = buf.str();
  return true;
}

// --emit-bin: writes one serialized Binary to F, or in a sweep to
// F.<preset>.bin for preset `sweep_label`.
bool EmitBinary(const std::vector<uint8_t>& blob, const Options& opt,
                const char* sweep_label) {
  return cli::WriteFile(
      sweep_label != nullptr ? SweepEmitPath(opt.emit_bin, sweep_label)
                             : opt.emit_bin,
      std::string_view(reinterpret_cast<const char*>(blob.data()), blob.size()));
}

// One guest run's outcome, from the local VM or a daemon's execute response.
struct RunReport {
  bool ok = false;
  std::string fault;
  std::string fault_msg;
  std::string guest_stdout;
  uint64_t ret = 0;
  uint64_t instrs = 0;
  uint64_t cycles = 0;
  std::optional<VmStats> stats;  // --stats (local runs only)
};

// Prints a run's fault line, or its guest stdout and, unless `quiet` (a
// sweep prints a table instead), its run line. False when the run faulted.
bool ReportRun(const RunReport& r, const Options& opt, bool quiet) {
  if (!r.ok) {
    fprintf(stderr, "confcc: %s faulted: %s (%s)\n", opt.entry.c_str(),
            r.fault.c_str(), r.fault_msg.c_str());
    return false;
  }
  fputs(r.guest_stdout.c_str(), stdout);
  if (quiet) {
    return true;
  }
  fprintf(stderr, "confcc: %s() = %lld  (%llu instructions, %llu cycles",
          opt.entry.c_str(), static_cast<long long>(r.ret),
          static_cast<unsigned long long>(r.instrs),
          static_cast<unsigned long long>(r.cycles));
  if (r.stats.has_value()) {
    fprintf(stderr, "; checks=%llu cfi=%llu tcalls=%llu cache-miss-cyc=%llu",
            static_cast<unsigned long long>(r.stats->check_instrs),
            static_cast<unsigned long long>(r.stats->cfi_instrs),
            static_cast<unsigned long long>(r.stats->trusted_calls),
            static_cast<unsigned long long>(r.stats->cache_miss_cycles));
  }
  fprintf(stderr, ")\n");
  return true;
}

// A single-mode run's exit code: the guest's return value, or 1.
int ExitCode(bool ran, const RunReport& r) {
  return ran ? static_cast<int>(r.ret & 0xff) : 1;
}

// Writes --emit-bin, ConfVerifies the program when `verify` is set, then
// runs `entry` and reports the run (ReportRun). In a sweep, `sweep_label`
// names the preset: it quiets the run line and suffixes the --emit-bin and
// --trace-stats-json paths so presets don't clobber each other. False when
// any step fails.
bool RunProgram(std::unique_ptr<CompiledProgram> compiled, const Options& opt,
                const char* sweep_label, bool verify, RunReport* r) {
  if (!opt.emit_bin.empty() &&
      !EmitBinary(SerializeBinary(compiled->prog->binary), opt, sweep_label)) {
    return false;
  }
  if (verify) {
    const VerifyResult v = Verify(*compiled->prog);
    fprintf(stderr, "confverify: %s (%zu procedures, %zu instructions)\n",
            v.ok ? "ok" : "REJECTED", v.procedures, v.instructions);
    if (!v.ok) {
      fputs(v.ErrorText().c_str(), stderr);
      return false;
    }
  }
  VmOptions vm_opts;
  vm_opts.engine = opt.engine;
  vm_opts.trace_threshold = opt.trace_threshold;
  vm_opts.deadline_ms = opt.deadline_ms;
  auto s = MakeSessionFor(std::move(compiled), vm_opts);
  const Vm::CallResult cr = s->vm->Call(opt.entry, opt.args);
  if (!opt.trace_stats_json.empty()) {
    // Engines below kTrace have no tier; an empty telemetry object keeps the
    // sink well-formed for whoever diffs it.
    const TraceTier* tt = s->vm->trace_tier();
    const TraceTierStats ts = tt != nullptr ? tt->Telemetry() : TraceTierStats{};
    if (!cli::WriteSink(sweep_label != nullptr
                            ? opt.trace_stats_json + "." + sweep_label
                            : opt.trace_stats_json,
                        ts.ToJson().Dump())) {
      return false;
    }
  }
  r->ok = cr.ok;
  r->fault = FaultName(cr.fault);
  r->fault_msg = cr.fault_msg;
  r->guest_stdout = s->tlib->stdout_text();
  r->ret = cr.ret;
  r->instrs = cr.instrs;
  r->cycles = cr.cycles;
  if (opt.stats) {
    r->stats = s->vm->stats();
  }
  return ReportRun(*r, opt, sweep_label != nullptr);
}

void FailRow(const char* preset) {
  fprintf(stderr, "%-12s%8s\n", preset, "FAIL");
}

// The `preset ok cycles` table of the --link and --connect sweeps.
// `run(preset, &cycles)` builds and runs one preset; false counts a failure
// and prints that preset's FAIL row.
int CyclesSweep(const std::function<bool(BuildPreset, uint64_t*)>& run) {
  fprintf(stderr, "%-12s%8s%14s\n", "preset", "ok", "cycles");
  int failures = 0;
  for (const BuildPreset p : kAllBuildPresets) {
    uint64_t cycles = 0;
    if (!run(p, &cycles)) {
      ++failures;
      FailRow(PresetName(p));
      continue;
    }
    fprintf(stderr, "%-12s%8s%14llu\n", PresetName(p), "ok",
            static_cast<unsigned long long>(cycles));
  }
  return failures == 0 ? 0 : 1;
}

// --preset=all: compile every configuration concurrently, then run each.
int RunSweep(const std::string& source, const Options& opt) {
  std::unique_ptr<ArtifactCache> cache;
  if (!MakeCache(opt, &cache)) {
    return 1;
  }
  // ConfVerify runs only on presets WantsVerify accepts, even under
  // --verify (mirrors the paper's threat model).
  auto outcomes =
      CompileBatch(PresetSweepJobs(source, opt.verify, opt.all_private),
                   opt.jobs, cache.get());

  int failures = 0;
  if (opt.time_passes) {
    fprintf(stderr, "vm engine: %s\n", EngineName(opt.engine));
  }
  fprintf(stderr, "%-12s%8s%10s%10s%12s%14s\n", "preset", "ok", "ms", "words",
          "constraints", "cycles");
  for (auto& out : outcomes) {
    const char* label = out.label.c_str();
    if (!out.ok) {
      ++failures;
      FailRow(label);
      fputs(out.invocation->diags().ToString().c_str(), stderr);
      continue;
    }
    // Warnings (e.g. implicit-flow notes under --all-private) still matter
    // for presets that compiled successfully.
    fputs(out.invocation->diags().ToString().c_str(), stderr);
    const PipelineStats& ps = out.invocation->stats();
    if (opt.disasm) {
      printf("-- %s --\n%s", label,
             Disassemble(out.program->prog->binary).c_str());
    }
    RunReport r;
    if (!RunProgram(std::move(out.program), opt, label, false, &r)) {
      ++failures;
      FailRow(label);
      continue;
    }
    fprintf(stderr, "%-12s%8s%10.2f%10llu%12zu%14llu\n", label, "ok",
            ps.total_ms, static_cast<unsigned long long>(ps.codegen.code_words),
            ps.solver.constraints, static_cast<unsigned long long>(r.cycles));
    if (opt.time_passes) {
      fprintf(stderr, "-- %s --\n%s", label, ps.ToTable().c_str());
    }
  }
  if (cache != nullptr && !ReportCacheStats(*cache, opt)) {
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

// ---- Multi-module build-graph mode (--link) ----

// a/b/foo.mc -> "foo": the module name `import "foo"` resolves to.
std::string ModuleNameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.find_last_of('.');
  return dot == std::string::npos || dot == 0 ? base : base.substr(0, dot);
}

// Compiles the graph under one preset (waves through the shared cache),
// links, loads, and optionally verifies. Prints the per-module
// --time-passes tables and the build's diagnostics, which carry each failed
// module's own errors under its name; returns the runnable program (null on
// failure).
std::unique_ptr<CompiledProgram> BuildLinked(const BuildGraph& graph,
                                             const BuildConfig& config,
                                             const Options& opt,
                                             ArtifactCache* cache,
                                             BuildGraphStats* stats_out) {
  BuildScheduler::Options sopts;
  sopts.num_workers = opt.jobs;
  sopts.verify = opt.verify && WantsVerify(config);
  BuildScheduler sched(&graph, config, sopts);
  LinkedBuild build = sched.Run(cache);
  *stats_out = build.stats;
  for (const ModuleOutcome& mo : build.modules) {
    if (opt.time_passes && mo.invocation != nullptr) {
      fprintf(stderr, "-- module %s --\n%s", mo.name.c_str(),
              mo.invocation->stats().ToTable().c_str());
    }
  }
  fputs(build.diags.ToString().c_str(), stderr);
  if (opt.verify && build.verify_result != nullptr) {
    fprintf(stderr, "confverify(link): %s (%zu procedures, %zu instructions)\n",
            build.verify_result->ok ? "ok" : "REJECTED",
            build.verify_result->procedures, build.verify_result->instructions);
  }
  if (!build.ok) {
    return nullptr;
  }
  fprintf(stderr,
          "conflink: %zu modules in %zu waves -> %zu code words, %zu functions, "
          "%zu cross-module call sites\n",
          build.stats.modules, build.stats.waves, build.stats.link.code_words,
          build.stats.link.functions, build.stats.link.resolved_call_sites);
  auto cp = std::make_unique<CompiledProgram>();
  cp->config = config;
  cp->prog = std::move(build.prog);
  return cp;
}

int RunLink(const Options& opt) {
  DiagEngine gdiags;
  BuildGraph graph;
  for (const std::string& f : opt.files) {
    std::string source;
    if (!ReadSource(f, &source)) {
      return 1;
    }
    if (!graph.AddModule(ModuleNameOf(f), std::move(source), &gdiags)) {
      fputs(gdiags.ToString().c_str(), stderr);
      return 1;
    }
  }
  std::unique_ptr<ArtifactCache> cache;
  if (!MakeCache(opt, &cache)) {
    return 1;
  }
  // Interface extraction and parse keys are preset-independent; any preset's
  // config carries the sema defaults Finalize needs.
  const BuildConfig fin_cfg = BuildConfig::ForWholeProgram(
      opt.sweep ? BuildPreset::kOurMpx : opt.preset, opt.all_private);
  if (!graph.Finalize(fin_cfg, &gdiags, cache.get(), opt.jobs)) {
    fputs(gdiags.ToString().c_str(), stderr);
    return 1;
  }

  int rc = 0;
  if (opt.time_passes) {
    fprintf(stderr, "vm engine: %s\n", EngineName(opt.engine));
  }
  Json graph_json;
  if (opt.sweep) {
    graph_json = Json::Array();
    rc = CyclesSweep([&](BuildPreset p, uint64_t* cycles) {
      BuildGraphStats stats;
      auto compiled =
          BuildLinked(graph, BuildConfig::ForWholeProgram(p, opt.all_private),
                      opt, cache.get(), &stats);
      Json row = Json::Object();
      row.Set("preset", Json::Str(PresetName(p)));
      row.Set("graph", stats.ToJson());
      graph_json.Append(std::move(row));
      RunReport r;
      if (compiled == nullptr ||
          !RunProgram(std::move(compiled), opt, PresetName(p), false, &r)) {
        return false;
      }
      *cycles = r.cycles;
      return true;
    });
  } else {
    BuildGraphStats stats;
    auto compiled = BuildLinked(
        graph, BuildConfig::ForWholeProgram(opt.preset, opt.all_private), opt,
        cache.get(), &stats);
    graph_json = stats.ToJson();
    if (compiled == nullptr) {
      rc = 1;
    } else {
      if (opt.disasm) {
        fputs(Disassemble(compiled->prog->binary).c_str(), stdout);
      }
      RunReport r;
      rc = ExitCode(RunProgram(std::move(compiled), opt, nullptr, false, &r), r);
    }
  }
  if (!opt.graph_stats_json.empty() &&
      !cli::WriteSink(opt.graph_stats_json, graph_json.Dump())) {
    return 1;
  }
  if (cache != nullptr && !ReportCacheStats(*cache, opt)) {
    return 1;
  }
  return rc;
}

// ---- Daemon client mode (--connect) ----
//
// Forwards the CLI verbs to a running confccd (tools/confccd_main.cc) over
// its Unix socket, so this invocation compiles against the daemon's warm
// shared cache instead of a cold private one.

// The daemon owns the cache tiers, and its execute response carries none of
// the local-only outputs. A flag naming either is a contradiction, not a
// preference: rather than silently compiling against a client-local tier
// (cold every run, invisible to the daemon's stats) or dropping an output,
// confcc refuses it with a one-line diagnostic before dialing. True when a
// flag was refused.
bool ConnectConflicts(const Options& opt) {
  const char* const kTiers = "the daemon owns the cache tiers";
  const char* const kLocal = "the daemon does not return that output";
  const struct {
    bool set;
    const char* flag;
    const char* why;
  } flags[] = {
      {!opt.cache_dir.empty(), "--cache-dir", kTiers},
      {opt.cache_bytes != 0, "--cache-bytes", kTiers},
      {opt.cache_disk_bytes != 0, "--cache-disk-bytes", kTiers},
      {opt.incremental, "--incremental", kTiers},
      {!opt.trace_stats_json.empty(), "--trace-stats-json", kLocal},
      {!opt.graph_stats_json.empty(), "--graph-stats-json", kLocal},
      {opt.time_passes, "--time-passes", kLocal},
      {opt.disasm, "--disasm", kLocal},
      {opt.stats, "--stats", kLocal},
  };
  for (const auto& f : flags) {
    if (f.set) {
      fprintf(stderr,
              "confcc: %s conflicts with --connect=%s: %s; drop %s or run "
              "without --connect\n",
              f.flag, opt.connect.c_str(), f.why, f.flag);
      return true;
    }
  }
  return false;
}

int FetchDaemonStats(ConfccdClient& client, const Options& opt) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("stats"));
  Json resp;
  std::string err;
  if (!client.Call(std::move(req), &resp, &err) ||
      resp.GetString("status") != "ok") {
    fprintf(stderr, "confcc: daemon stats request failed: %s\n", err.c_str());
    return 1;
  }
  if (opt.cache_stats) {
    fputs(resp.GetString("cache_row").c_str(), stderr);
  }
  // The daemon sends its cache document already dumped (the `stats` verb's
  // cache_json string).
  if (!opt.cache_stats_json.empty() &&
      !cli::WriteSink(opt.cache_stats_json, resp.GetString("cache_json"))) {
    return 1;
  }
  return 0;
}

int RunConnect(const Options& opt) {
  // Read the inputs before dialing out — a missing file should not cost a
  // round trip (and keeps the error messages identical to solo mode).
  std::vector<std::pair<std::string, std::string>> modules;  // name, source
  std::string source;
  for (const std::string& f : opt.files) {
    std::string text;
    if (!ReadSource(f, &text)) {
      return 1;
    }
    if (opt.link) {
      modules.emplace_back(ModuleNameOf(f), std::move(text));
    } else {
      source = std::move(text);
    }
  }

  ConfccdClient client;
  std::string err;
  if (!client.Connect(opt.connect, &err)) {
    fprintf(stderr, "confcc: cannot connect to daemon: %s\n", err.c_str());
    return 1;
  }

  // Stats-only invocation: no inputs, just render the daemon's counters.
  if (opt.files.empty()) {
    if (!opt.cache_stats && opt.cache_stats_json.empty()) {
      return Usage();
    }
    return FetchDaemonStats(client, opt);
  }

  auto make_req = [&](const char* preset_name) {
    Json req = Json::Object();
    req.Set("verb", Json::Str("execute"));
    req.Set("preset", Json::Str(preset_name));
    if (!modules.empty()) {
      Json mods = Json::Array();
      for (const auto& m : modules) {
        Json jm = Json::Object();
        jm.Set("name", Json::Str(m.first));
        jm.Set("source", Json::Str(m.second));
        mods.Append(std::move(jm));
      }
      req.Set("modules", std::move(mods));
    } else {
      req.Set("source", Json::Str(source));
    }
    req.Set("entry", Json::Str(opt.entry));
    Json args = Json::Array();
    for (const uint64_t a : opt.args) {
      args.Append(Json::UInt(a));
    }
    req.Set("args", std::move(args));
    if (opt.verify) {
      req.Set("verify", Json::Bool(true));
    }
    if (opt.all_private) {
      req.Set("all_private", Json::Bool(true));
    }
    req.Set("engine", Json::Str(EngineName(opt.engine)));
    req.Set("trace_threshold", Json::UInt(opt.trace_threshold));
    if (opt.deadline_ms != 0) {
      req.Set("deadline_ms", Json::UInt(opt.deadline_ms));
    }
    if (!opt.emit_bin.empty()) {
      req.Set("want_bin", Json::Bool(true));
    }
    return req;
  };

  // Runs one preset through the daemon and reports it like a local run
  // (`sweep_label` as in RunProgram). Returns 0, or the process exit code of
  // the failure.
  auto run_one = [&](const char* preset_name, const char* sweep_label,
                     RunReport* r) -> int {
    Json resp;
    int retries = 0;
    if (!client.CallWithRetry(make_req(preset_name), &resp, &err,
                              /*max_attempts=*/10, &retries)) {
      // Retryable exhaustion (sustained backpressure): EX_TEMPFAIL so
      // callers/scripts can distinguish "try later" from a hard failure.
      fprintf(stderr, "confcc: daemon busy, retries exhausted: %s\n",
              err.c_str());
      return 75;
    }
    fputs(resp.GetString("diagnostics").c_str(), stderr);
    if (resp.GetString("status") != "ok") {
      fprintf(stderr, "confcc: daemon: %s\n",
              resp.GetString("error", "request failed").c_str());
      return 1;
    }
    if (!opt.emit_bin.empty()) {
      std::vector<uint8_t> blob;
      if (!HexDecode(resp.GetString("bin_hex"), &blob)) {
        fprintf(stderr, "confcc: daemon returned a malformed binary\n");
        return 1;
      }
      if (!EmitBinary(blob, opt, sweep_label)) {
        return 1;
      }
    }
    r->ok = resp.GetBool("ran_ok");
    r->fault = resp.GetString("fault");
    r->fault_msg = resp.GetString("fault_msg");
    r->guest_stdout = resp.GetString("guest_stdout");
    r->ret = resp.GetUInt("ret");
    r->instrs = resp.GetUInt("instrs");
    r->cycles = resp.GetUInt("cycles");
    return ReportRun(*r, opt, sweep_label != nullptr) ? 0 : 1;
  };

  int rc;
  if (opt.sweep) {
    rc = CyclesSweep([&](BuildPreset p, uint64_t* cycles) {
      RunReport r;
      if (run_one(PresetName(p), PresetName(p), &r) != 0) {
        return false;
      }
      *cycles = r.cycles;
      return true;
    });
  } else {
    RunReport r;
    rc = run_one(PresetName(opt.preset), nullptr, &r);
    if (rc == 0) {
      rc = ExitCode(true, r);
    }
  }

  if (opt.cache_stats || !opt.cache_stats_json.empty()) {
    const int stats_rc = FetchDaemonStats(client, opt);
    if (rc == 0) {
      rc = stats_rc;
    }
  }
  return rc;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--preset=", 0) == 0) {
      const std::string name = a.substr(9);
      if (name == "all") {
        opt.sweep = true;
      } else if (!ParsePresetName(name, &opt.preset)) {
        fprintf(stderr, "unknown preset '%s'\n", name.c_str());
        return Usage();
      }
    } else if (a.rfind("--entry=", 0) == 0) {
      opt.entry = a.substr(8);
    } else if (a.rfind("--args=", 0) == 0) {
      std::stringstream ss(a.substr(7));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        uint64_t v = 0;
        if (!cli::ParseFlag("--args element", tok, &v)) {
          return Usage();
        }
        opt.args.push_back(v);
      }
      // The ABI has kNumArgRegs argument registers (sema rejects a function
      // with more parameters), so a longer list could never be passed.
      if (opt.args.size() > kNumArgRegs) {
        fprintf(stderr, "confcc: bad --args '%s' (expected at most %d values)\n",
                a.substr(7).c_str(), kNumArgRegs);
        return Usage();
      }
    } else if (a.rfind("--jobs=", 0) == 0) {
      // Parse signed so `--jobs=-1` cannot wrap to ~4 billion workers; zero
      // and negative clamp to hardware concurrency with a warning.
      const long long requested = strtoll(a.substr(7).c_str(), nullptr, 0);
      std::string warning;
      opt.jobs = NormalizeJobCount(requested, &warning);
      if (!warning.empty()) {
        fprintf(stderr, "confcc: warning: %s\n", warning.c_str());
      }
    } else if (a.rfind("--cache-bytes=", 0) == 0) {
      if (!cli::ParseFlag("--cache-bytes", a.substr(14), &opt.cache_bytes)) {
        return Usage();
      }
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      opt.cache_dir = a.substr(12);
    } else if (a.rfind("--cache-disk-bytes=", 0) == 0) {
      if (!cli::ParseFlag("--cache-disk-bytes", a.substr(19),
                          &opt.cache_disk_bytes)) {
        return Usage();
      }
    } else if (a.rfind("--cache-stats-json=", 0) == 0) {
      opt.cache_stats_json = a.substr(19);
    } else if (a.rfind("--emit-bin=", 0) == 0) {
      opt.emit_bin = a.substr(11);
    } else if (a.rfind("--graph-stats-json=", 0) == 0) {
      opt.graph_stats_json = a.substr(19);
    } else if (a == "--link") {
      opt.link = true;
    } else if (a.rfind("--connect=", 0) == 0) {
      opt.connect = a.substr(10);
    } else if (a.rfind("--engine=", 0) == 0) {
      const std::string name = a.substr(9);
      if (!ParseEngineName(name, &opt.engine)) {
        fprintf(stderr, "unknown engine '%s' (expected ref, fast or trace)\n",
                name.c_str());
        return Usage();
      }
    } else if (a.rfind("--trace-threshold=", 0) == 0) {
      if (!cli::ParseFlag("--trace-threshold", a.substr(18),
                          &opt.trace_threshold)) {
        return Usage();
      }
    } else if (a.rfind("--trace-stats-json=", 0) == 0) {
      opt.trace_stats_json = a.substr(19);
    } else if (a.rfind("--inject-faults=", 0) == 0) {
      std::string err;
      if (!FaultInjector::Instance().Configure(a.substr(16), &err)) {
        fprintf(stderr, "confcc: bad --inject-faults spec: %s\n", err.c_str());
        return Usage();
      }
    } else if (a.rfind("--inject-report=", 0) == 0) {
      cli::g_inject_report = a.substr(16);
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      if (!cli::ParseFlag("--deadline-ms", a.substr(14), &opt.deadline_ms)) {
        return Usage();
      }
    } else if (a == "--incremental") {
      opt.incremental = true;
    } else if (a == "--cache-stats") {
      opt.cache_stats = true;
    } else if (a == "--verify") {
      opt.verify = true;
    } else if (a == "--disasm") {
      opt.disasm = true;
    } else if (a == "--stats") {
      opt.stats = true;
    } else if (a == "--time-passes") {
      opt.time_passes = true;
    } else if (a == "--all-private") {
      opt.all_private = true;
    } else if (a[0] == '-') {
      return Usage();
    } else {
      opt.files.push_back(a);
    }
  }
  if (!opt.connect.empty() && ConnectConflicts(opt)) {
    return 2;
  }
  if (!opt.link && opt.files.size() > 1) {
    fprintf(stderr,
            "confcc: %zu input files given without --link; pass --link to "
            "build them as modules\n",
            opt.files.size());
    return Usage();
  }
  if (!opt.connect.empty()) {
    // Daemon client mode: inputs optional (stats-only queries have none).
    return RunConnect(opt);
  }
  if (opt.files.empty()) {
    return Usage();
  }
  if (opt.link) {
    return RunLink(opt);
  }
  std::string source;
  if (!ReadSource(opt.files[0], &source)) {
    return 1;
  }
  if (opt.sweep) {
    return RunSweep(source, opt);
  }

  BuildConfig config = BuildConfig::ForWholeProgram(opt.preset, opt.all_private);
  // Single-preset mode: --jobs shards per-function codegen emission (0 =
  // hardware concurrency, matching the sweep's worker semantics; output is
  // bit-identical for any value).
  config.codegen_jobs = opt.jobs;
  std::unique_ptr<ArtifactCache> cache;
  if (!MakeCache(opt, &cache)) {
    return 1;
  }
  CompilerInvocation inv(std::move(source), config);
  inv.set_cache(cache.get());
  const bool ok = RunStandardPipeline(&inv);
  fputs(inv.diags().ToString().c_str(), stderr);
  if (opt.time_passes) {
    fputs(inv.stats().ToTable().c_str(), stderr);
    fprintf(stderr, "vm engine: %s\n", EngineName(opt.engine));
  }
  if (cache != nullptr && !ReportCacheStats(*cache, opt)) {
    return 1;
  }
  if (!ok) {
    return 1;
  }
  auto compiled = inv.TakeProgram();
  fprintf(stderr, "confcc: %s: %zu code words, %zu functions, %zu imports [%s, %s]\n",
          opt.files[0].c_str(), compiled->prog->binary.code.size(),
          compiled->prog->binary.functions.size(),
          compiled->prog->binary.imports.size(), PresetName(opt.preset),
          OptLevelName(inv.config().opt_level));

  if (opt.disasm) {
    fputs(Disassemble(compiled->prog->binary).c_str(), stdout);
  }
  RunReport r;
  return ExitCode(RunProgram(std::move(compiled), opt, nullptr, opt.verify, &r),
                  r);
}

}  // namespace

int main(int argc, char** argv) {
  return cli::RunTool("confcc", Main, argc, argv);
}
