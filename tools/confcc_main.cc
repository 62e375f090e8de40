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
// token-threaded fast engine (default), or the hot-block trace tier
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
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

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

// Parses a numeric flag's value; a malformed one gets a one-line
// diagnostic, and the caller exits with the usage text.
bool ParseFlagU64(const char* flag, const std::string& value, uint64_t* out) {
  if (ParseU64(value, out)) {
    return true;
  }
  fprintf(stderr, "confcc: bad %s '%s' (expected an unsigned integer)\n",
          flag, value.c_str());
  return false;
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
  std::string file;
  std::vector<std::string> files;  // all positional args (--link modules)

  // Byte caps / stats outputs only make sense with a cache, so every cache
  // flag implies one.
  bool UseCache() const {
    return incremental || cache_stats || cache_bytes != 0 ||
           !cache_dir.empty() || !cache_stats_json.empty();
  }
};

// Builds the cache the options ask for, attaching the disk tier when
// --cache-dir was given. Null when no cache flag is set; also null (after a
// diagnostic) when the disk tier cannot be attached — a broken cache dir is
// an explicit error, not a silent cold compile.
std::unique_ptr<ArtifactCache> MakeCache(const Options& opt, bool* error) {
  *error = false;
  if (!opt.UseCache()) {
    return nullptr;
  }
  auto cache = std::make_unique<ArtifactCache>(opt.cache_bytes);
  if (!opt.cache_dir.empty() &&
      !cache->AttachDiskTier({opt.cache_dir, opt.cache_disk_bytes})) {
    fprintf(stderr, "confcc: cannot create cache dir %s\n",
            opt.cache_dir.c_str());
    *error = true;
    return nullptr;
  }
  return cache;
}

// Writes one dumped JSON document to `path`, newline-terminated; false
// after a one-line diagnostic when the file cannot be written.
bool WriteSink(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    fprintf(stderr, "confcc: cannot write %s\n", path.c_str());
    return false;
  }
  out << json << '\n';
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
         WriteSink(opt.cache_stats_json, cs.ToJson().Dump());
}

bool EmitBinary(const Binary& bin, const std::string& path) {
  const std::vector<uint8_t> blob = SerializeBinary(bin);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    fprintf(stderr, "confcc: cannot write %s\n", path.c_str());
    return false;
  }
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  return static_cast<bool>(out);
}

// Runs `entry` of one compiled program; returns false on fault. `quiet`
// suppresses the per-run summary line (sweep mode prints a table instead).
// `label` suffixes the --trace-stats-json path in sweep mode so presets
// don't clobber each other.
bool RunProgram(std::unique_ptr<CompiledProgram> compiled, const Options& opt,
                uint64_t* cycles_out, uint64_t* ret_out = nullptr,
                bool quiet = false, const std::string& label = "") {
  VmOptions vm_opts;
  vm_opts.engine = opt.engine;
  vm_opts.trace_threshold = opt.trace_threshold;
  vm_opts.deadline_ms = opt.deadline_ms;
  auto s = MakeSessionFor(std::move(compiled), vm_opts);
  auto r = s->vm->Call(opt.entry, opt.args);
  if (!opt.trace_stats_json.empty()) {
    const std::string path = label.empty()
                                 ? opt.trace_stats_json
                                 : opt.trace_stats_json + "." + label;
    // Engines below kTrace have no tier; an empty telemetry object keeps the
    // sink well-formed for whoever diffs it.
    const TraceTier* tt = s->vm->trace_tier();
    const TraceTierStats ts = tt != nullptr ? tt->Telemetry() : TraceTierStats{};
    if (!WriteSink(path, ts.ToJson().Dump())) {
      return false;
    }
  }
  if (!r.ok) {
    fprintf(stderr, "confcc: %s faulted: %s (%s)\n", opt.entry.c_str(),
            FaultName(r.fault), r.fault_msg.c_str());
    return false;
  }
  if (!s->tlib->stdout_text().empty()) {
    fputs(s->tlib->stdout_text().c_str(), stdout);
  }
  if (quiet) {
    if (cycles_out != nullptr) {
      *cycles_out = r.cycles;
    }
    if (ret_out != nullptr) {
      *ret_out = r.ret;
    }
    return true;
  }
  fprintf(stderr, "confcc: %s() = %lld  (%llu instructions, %llu cycles",
          opt.entry.c_str(), static_cast<long long>(r.ret),
          static_cast<unsigned long long>(r.instrs),
          static_cast<unsigned long long>(r.cycles));
  if (opt.stats) {
    const VmStats& vs = s->vm->stats();
    fprintf(stderr, "; checks=%llu cfi=%llu tcalls=%llu cache-miss-cyc=%llu",
            static_cast<unsigned long long>(vs.check_instrs),
            static_cast<unsigned long long>(vs.cfi_instrs),
            static_cast<unsigned long long>(vs.trusted_calls),
            static_cast<unsigned long long>(vs.cache_miss_cycles));
  }
  fprintf(stderr, ")\n");
  if (cycles_out != nullptr) {
    *cycles_out = r.cycles;
  }
  if (ret_out != nullptr) {
    *ret_out = r.ret;
  }
  return true;
}

// --preset=all: compile every configuration concurrently, then run each.
int RunSweep(const std::string& source, const Options& opt) {
  std::vector<BatchJob> jobs;
  for (const BuildPreset p : kAllBuildPresets) {
    BatchJob job;
    job.label = PresetName(p);
    job.source = source;
    job.config = BuildConfig::ForWholeProgram(p, opt.all_private);
    // ConfVerify targets fully-instrumented secure binaries; skip for
    // Base-like presets and the single-stack OurMPX-Sep ablation even under
    // --verify (mirrors the paper's threat model).
    job.verify = opt.verify && WantsVerify(job.config);
    jobs.push_back(std::move(job));
  }
  bool cache_error = false;
  std::unique_ptr<ArtifactCache> cache = MakeCache(opt, &cache_error);
  if (cache_error) {
    return 1;
  }
  auto outcomes = CompileBatch(jobs, opt.jobs, cache.get());

  int failures = 0;
  if (opt.time_passes) {
    fprintf(stderr, "vm engine: %s\n", EngineName(opt.engine));
  }
  fprintf(stderr, "%-12s%8s%10s%10s%12s%14s\n", "preset", "ok", "ms", "words",
          "constraints", "cycles");
  for (auto& out : outcomes) {
    if (!out.ok) {
      ++failures;
      fprintf(stderr, "%-12s%8s\n%s", out.label.c_str(), "FAIL",
              out.invocation->diags().ToString().c_str());
      continue;
    }
    // Warnings (e.g. implicit-flow notes under --all-private) still matter
    // for presets that compiled successfully.
    fputs(out.invocation->diags().ToString().c_str(), stderr);
    const PipelineStats& ps = out.invocation->stats();
    if (opt.disasm) {
      printf("-- %s --\n%s", out.label.c_str(),
             Disassemble(out.program->prog->binary).c_str());
    }
    if (!opt.emit_bin.empty() &&
        !EmitBinary(out.program->prog->binary,
                    SweepEmitPath(opt.emit_bin, out.label))) {
      ++failures;
      continue;
    }
    uint64_t cycles = 0;
    if (!RunProgram(std::move(out.program), opt, &cycles, nullptr,
                    /*quiet=*/true, out.label)) {
      ++failures;
      continue;
    }
    fprintf(stderr, "%-12s%8s%10.2f%10llu%12zu%14llu\n", out.label.c_str(), "ok",
            ps.total_ms, static_cast<unsigned long long>(ps.codegen.code_words),
            ps.solver.constraints, static_cast<unsigned long long>(cycles));
    if (opt.time_passes) {
      fprintf(stderr, "-- %s --\n%s", out.label.c_str(), ps.ToTable().c_str());
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
// links, loads, and optionally verifies. Prints per-module and link/verify
// diagnostics; returns the runnable program (null on failure).
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
  if (stats_out != nullptr) {
    *stats_out = build.stats;
  }
  for (const ModuleOutcome& mo : build.modules) {
    if (mo.invocation != nullptr && !mo.invocation->diags().diagnostics().empty()) {
      fprintf(stderr, "-- module %s --\n%s", mo.name.c_str(),
              mo.invocation->diags().ToString().c_str());
    }
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
    std::ifstream in(f);
    if (!in) {
      fprintf(stderr, "confcc: cannot open %s\n", f.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
      fprintf(stderr, "confcc: error reading %s\n", f.c_str());
      return 1;
    }
    if (!graph.AddModule(ModuleNameOf(f), buf.str(), &gdiags)) {
      fputs(gdiags.ToString().c_str(), stderr);
      return 1;
    }
  }
  bool cache_error = false;
  std::unique_ptr<ArtifactCache> cache = MakeCache(opt, &cache_error);
  if (cache_error) {
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
    int failures = 0;
    graph_json = Json::Array();
    fprintf(stderr, "%-12s%8s%14s\n", "preset", "ok", "cycles");
    for (const BuildPreset p : kAllBuildPresets) {
      BuildGraphStats stats;
      auto compiled =
          BuildLinked(graph, BuildConfig::ForWholeProgram(p, opt.all_private),
                      opt, cache.get(), &stats);
      Json row = Json::Object();
      row.Set("preset", Json::Str(PresetName(p)));
      row.Set("graph", stats.ToJson());
      graph_json.Append(std::move(row));
      if (compiled == nullptr) {
        ++failures;
        fprintf(stderr, "%-12s%8s\n", PresetName(p), "FAIL");
        continue;
      }
      if (!opt.emit_bin.empty() &&
          !EmitBinary(compiled->prog->binary,
                      SweepEmitPath(opt.emit_bin, PresetName(p)))) {
        ++failures;
        continue;
      }
      uint64_t cycles = 0;
      if (!RunProgram(std::move(compiled), opt, &cycles, nullptr, /*quiet=*/true,
                      PresetName(p))) {
        ++failures;
        continue;
      }
      fprintf(stderr, "%-12s%8s%14llu\n", PresetName(p), "ok",
              static_cast<unsigned long long>(cycles));
    }
    rc = failures == 0 ? 0 : 1;
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
      if (!opt.emit_bin.empty() &&
          !EmitBinary(compiled->prog->binary, opt.emit_bin)) {
        rc = 1;
      } else {
        uint64_t cycles = 0;
        uint64_t ret = 0;
        rc = RunProgram(std::move(compiled), opt, &cycles, &ret)
                 ? static_cast<int>(ret & 0xff)
                 : 1;
      }
    }
  }
  if (!opt.graph_stats_json.empty() &&
      !WriteSink(opt.graph_stats_json, graph_json.Dump())) {
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
// shared cache instead of a cold private one. The daemon owns the cache
// tiers: client-local cache configuration under --connect is a
// contradiction, not a preference — rather than silently compiling against
// a client-local tier (cold every run, invisible to the daemon's stats),
// the conflict is a one-line nonzero-exit diagnostic.

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
      !WriteSink(opt.cache_stats_json, resp.GetString("cache_json"))) {
    return 1;
  }
  return 0;
}

int RunConnect(const Options& opt) {
  // The satellite contract: --cache-dir (and friends) name a *client-local*
  // cache location while --connect hands compilation to a daemon with its
  // own tiers. Disagreeing silently would compile cold and lie about it.
  if (!opt.cache_dir.empty() || opt.cache_bytes != 0 ||
      opt.cache_disk_bytes != 0 || opt.incremental) {
    const char* flag = !opt.cache_dir.empty()           ? "--cache-dir"
                       : opt.cache_bytes != 0           ? "--cache-bytes"
                       : opt.cache_disk_bytes != 0      ? "--cache-disk-bytes"
                                                        : "--incremental";
    fprintf(stderr,
            "confcc: %s conflicts with --connect=%s: the daemon owns the "
            "cache tiers; drop %s or run without --connect\n",
            flag, opt.connect.c_str(), flag);
    return 2;
  }

  // Read the inputs before dialing out — a missing file should not cost a
  // round trip (and keeps the error messages identical to solo mode).
  std::vector<std::pair<std::string, std::string>> modules;  // name, source
  std::string source;
  if (!opt.files.empty()) {
    if (!opt.link && opt.files.size() > 1) {
      fprintf(stderr,
              "confcc: %zu input files given without --link; pass --link to "
              "build them as modules\n",
              opt.files.size());
      return Usage();
    }
    for (const std::string& f : opt.files) {
      std::ifstream in(f);
      if (!in) {
        fprintf(stderr, "confcc: cannot open %s\n", f.c_str());
        return 1;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      if (in.bad()) {
        fprintf(stderr, "confcc: error reading %s\n", f.c_str());
        return 1;
      }
      if (opt.link) {
        modules.emplace_back(ModuleNameOf(f), buf.str());
      } else {
        source = buf.str();
      }
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

  // Runs one preset through the daemon. Returns the process exit code for
  // single mode; sweep mode treats nonzero as a failure and keeps going.
  auto run_one = [&](const char* preset_name, bool quiet,
                     uint64_t* cycles_out) -> int {
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
      const std::string path =
          quiet ? SweepEmitPath(opt.emit_bin, preset_name) : opt.emit_bin;
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out ||
          !out.write(reinterpret_cast<const char*>(blob.data()),
                     static_cast<std::streamsize>(blob.size()))) {
        fprintf(stderr, "confcc: cannot write %s\n", path.c_str());
        return 1;
      }
    }
    if (!resp.GetBool("ran_ok")) {
      fprintf(stderr, "confcc: %s faulted: %s (%s)\n", opt.entry.c_str(),
              resp.GetString("fault").c_str(),
              resp.GetString("fault_msg").c_str());
      return 1;
    }
    fputs(resp.GetString("guest_stdout").c_str(), stdout);
    if (cycles_out != nullptr) {
      *cycles_out = resp.GetUInt("cycles");
    }
    if (quiet) {
      return 0;
    }
    fprintf(stderr, "confcc: %s() = %lld  (%llu instructions, %llu cycles)\n",
            opt.entry.c_str(), static_cast<long long>(resp.GetUInt("ret")),
            static_cast<unsigned long long>(resp.GetUInt("instrs")),
            static_cast<unsigned long long>(resp.GetUInt("cycles")));
    return static_cast<int>(resp.GetUInt("ret") & 0xff);
  };

  int rc;
  if (opt.sweep) {
    int failures = 0;
    fprintf(stderr, "%-12s%8s%14s\n", "preset", "ok", "cycles");
    for (const BuildPreset p : kAllBuildPresets) {
      uint64_t cycles = 0;
      if (run_one(PresetName(p), /*quiet=*/true, &cycles) != 0) {
        ++failures;
        fprintf(stderr, "%-12s%8s\n", PresetName(p), "FAIL");
        continue;
      }
      fprintf(stderr, "%-12s%8s%14llu\n", PresetName(p), "ok",
              static_cast<unsigned long long>(cycles));
    }
    rc = failures == 0 ? 0 : 1;
  } else {
    rc = run_one(PresetName(opt.preset), /*quiet=*/false, nullptr);
  }

  if (opt.cache_stats || !opt.cache_stats_json.empty()) {
    const int stats_rc = FetchDaemonStats(client, opt);
    if (rc == 0) {
      rc = stats_rc;
    }
  }
  return rc;
}

// Written at exit by main() when --inject-report=F was given: the fault
// injector's per-site counters survive even a fatal error, so a chaos run
// that dies still reports what fired.
std::string g_inject_report;

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
        if (!ParseFlagU64("--args element", tok, &v)) {
          return Usage();
        }
        opt.args.push_back(v);
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
      if (!ParseFlagU64("--cache-bytes", a.substr(14), &opt.cache_bytes)) {
        return Usage();
      }
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      opt.cache_dir = a.substr(12);
    } else if (a.rfind("--cache-disk-bytes=", 0) == 0) {
      if (!ParseFlagU64("--cache-disk-bytes", a.substr(19),
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
      if (!ParseFlagU64("--trace-threshold", a.substr(18),
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
      g_inject_report = a.substr(16);
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseFlagU64("--deadline-ms", a.substr(14), &opt.deadline_ms)) {
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
      opt.file = a;
      opt.files.push_back(a);
    }
  }
  if (!opt.connect.empty()) {
    // Daemon client mode: inputs optional (stats-only queries have none);
    // RunConnect validates its own argument combinations.
    return RunConnect(opt);
  }
  if (opt.file.empty()) {
    return Usage();
  }
  if (opt.link) {
    return RunLink(opt);
  }
  if (opt.files.size() > 1) {
    fprintf(stderr,
            "confcc: %zu input files given without --link; pass --link to "
            "build them as modules\n",
            opt.files.size());
    return Usage();
  }

  std::ifstream in(opt.file);
  if (!in) {
    fprintf(stderr, "confcc: cannot open %s\n", opt.file.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    fprintf(stderr, "confcc: error reading %s\n", opt.file.c_str());
    return 1;
  }

  if (opt.sweep) {
    return RunSweep(buf.str(), opt);
  }

  BuildConfig config = BuildConfig::ForWholeProgram(opt.preset, opt.all_private);
  // Single-preset mode: --jobs shards per-function codegen emission (0 =
  // hardware concurrency, matching the sweep's worker semantics; output is
  // bit-identical for any value).
  config.codegen_jobs = opt.jobs;
  bool cache_error = false;
  std::unique_ptr<ArtifactCache> cache = MakeCache(opt, &cache_error);
  if (cache_error) {
    return 1;
  }
  CompilerInvocation inv(buf.str(), config);
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
          opt.file.c_str(), compiled->prog->binary.code.size(),
          compiled->prog->binary.functions.size(),
          compiled->prog->binary.imports.size(), PresetName(opt.preset),
          OptLevelName(inv.config().opt_level));

  if (opt.disasm) {
    fputs(Disassemble(compiled->prog->binary).c_str(), stdout);
  }
  if (!opt.emit_bin.empty() &&
      !EmitBinary(compiled->prog->binary, opt.emit_bin)) {
    return 1;
  }
  if (opt.verify) {
    VerifyResult v = Verify(*compiled->prog);
    fprintf(stderr, "confverify: %s (%zu procedures, %zu instructions)\n",
            v.ok ? "ok" : "REJECTED", v.procedures, v.instructions);
    if (!v.ok) {
      fputs(v.ErrorText().c_str(), stderr);
      return 1;
    }
  }

  uint64_t cycles = 0;
  uint64_t ret = 0;
  if (!RunProgram(std::move(compiled), opt, &cycles, &ret)) {
    return 1;
  }
  return static_cast<int>(ret & 0xff);
}

}  // namespace

int main(int argc, char** argv) {
  // Environment-armed injection (the CI chaos job): read before flag parsing
  // so an explicit --inject-faults overrides the environment.
  std::string env_err;
  if (!FaultInjector::Instance().ConfigureFromEnv(&env_err)) {
    fprintf(stderr, "confcc: bad CONFCC_INJECT_FAULTS: %s\n", env_err.c_str());
    return 2;
  }
  // Last-resort failure isolation: any error that escapes the driver —
  // including injected chaos faults surfacing somewhere unhardened — exits
  // with a one-line diagnostic, never a raw terminate/core.
  int rc;
  try {
    rc = Main(argc, argv);
  } catch (const std::exception& e) {
    fprintf(stderr, "confcc: fatal: %s\n", e.what());
    rc = 1;
  } catch (...) {
    fprintf(stderr, "confcc: fatal: unknown error\n");
    rc = 1;
  }
  if (!g_inject_report.empty() &&
      !WriteSink(g_inject_report, FaultInjector::Instance().ReportJson().Dump())) {
    rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
