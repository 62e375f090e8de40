#include "src/driver/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "src/driver/artifact_cache.h"
#include "src/ir/irgen.h"
#include "src/lang/parser.h"
#include "src/support/fault_injection.h"
#include "src/support/parallel.h"
#include "src/support/strings.h"

namespace confllvm {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

// ---- Cache keys ----
//
// Each stage's key is an FNV-1a hash chained over the source content hash
// and exactly the config fields the stage (plus its upstream prefix) reads.
// Parse/Sema/IrGen never see OptLevel or instrumentation options, so their
// keys — and therefore their cached artifacts — are shared across the whole
// eight-preset sweep.

class KeyHasher {
 public:
  KeyHasher& Add(const std::string& s) {
    for (const char c : s) {
      Byte(static_cast<uint8_t>(c));
    }
    Byte(0xff);  // length separator
    return *this;
  }
  KeyHasher& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(v >> (i * 8)));
    }
    return *this;
  }
  KeyHasher& Add(bool b) { return Add(static_cast<uint64_t>(b ? 1 : 0)); }

  // "<stage>:<hex64>" — the prefix keeps keys self-describing in logs and
  // cheap to attribute in tests.
  std::string Finish(const char* stage) const {
    return std::string(stage) + ":" + Hex(state_);
  }

  // Raw digest, for callers that memoize a hash rather than form a key
  // (CompilerInvocation::SourceHash) — one FNV definition in the file.
  uint64_t raw() const { return state_; }

 private:
  void Byte(uint8_t b) {
    state_ ^= b;
    state_ *= 1099511628211ull;  // FNV-1a 64 prime
  }
  uint64_t state_ = 14695981039346656037ull;  // FNV-1a 64 offset basis
};

std::string ParseKey(const CompilerInvocation& inv) {
  return KeyHasher().Add(inv.SourceHash()).Finish("parse");
}

std::string SemaKey(const CompilerInvocation& inv) {
  const SemaOptions& s = inv.config().sema;
  // The imports fingerprint covers the content of every interface this
  // module's `import` declarations read (which declarations exist is already
  // in the source hash): a dependency's exported-signature change re-keys
  // Sema and everything downstream, while its body-only changes do not.
  return KeyHasher()
      .Add(ParseKey(inv))
      .Add(static_cast<uint64_t>(s.implicit_flows))
      .Add(s.all_private)
      .Add(s.ct)
      .Add(inv.imports_fingerprint())
      .Finish("sema");
}

std::string IrGenKey(const CompilerInvocation& inv) {
  // IR generation reads nothing from the config beyond what sema consumed.
  return KeyHasher().Add(SemaKey(inv)).Finish("irgen");
}

std::string OptKey(const CompilerInvocation& inv) {
  PassPipelineOptions popts;
  popts.level = inv.config().opt_level;
  popts.ct = inv.config().sema.ct;
  popts.whole_program = inv.config().whole_program;
  return KeyHasher()
      .Add(IrGenKey(inv))
      .Add(static_cast<uint64_t>(popts.level))
      .Add(popts.ct)
      .Add(popts.whole_program)
      .Add(PassScheduleFingerprint(popts))
      .Finish("opt");
}

std::string CodegenKey(const CompilerInvocation& inv) {
  const CodegenOptions& c = inv.config().codegen;
  // Note: BuildConfig::codegen_jobs is deliberately absent — sharding is
  // bit-transparent.
  return KeyHasher()
      .Add(OptKey(inv))
      .Add(static_cast<uint64_t>(c.scheme))
      .Add(c.cfi)
      .Add(c.separate_stacks)
      .Add(c.confllvm_abi)
      .Add(c.mpx_coalesce)
      .Add(c.mpx_guard_disp_opt)
      .Add(c.mpx_elide_stack_checks)
      .Add(c.emit_chkstk)
      .Add(c.ct)
      .Finish("codegen");
}

std::string LoadKey(const CompilerInvocation& inv) {
  const LoadOptions& l = inv.config().load;
  return KeyHasher()
      .Add(CodegenKey(inv))
      .Add(l.separate_t_memory)
      .Add(l.unified_bounds)
      .Add(l.magic_seed)
      .Finish("load");
}

// ---- Concrete stages ----

class ParseStage : public Stage {
 public:
  StageId id() const override { return StageId::kParse; }
  bool Run(CompilerInvocation* inv) override {
    inv->ast = Parse(inv->source(), &inv->diags());
    return !inv->diags().HasErrors();
  }
  std::string CacheKey(const CompilerInvocation& inv) const override {
    return ParseKey(inv);
  }
};

class SemaStage : public Stage {
 public:
  StageId id() const override { return StageId::kSema; }
  bool Run(CompilerInvocation* inv) override {
    inv->typed = RunSema(std::move(inv->ast), inv->config().sema, &inv->diags(),
                         inv->interfaces());
    if (inv->typed == nullptr) {
      return false;
    }
    inv->stats().solver = inv->typed->solver_stats;
    return true;
  }
  std::string CacheKey(const CompilerInvocation& inv) const override {
    return SemaKey(inv);
  }
};

class IrGenStage : public Stage {
 public:
  StageId id() const override { return StageId::kIrGen; }
  bool Run(CompilerInvocation* inv) override {
    inv->ir = GenerateIr(*inv->typed, &inv->diags());
    return inv->ir != nullptr;
  }
  std::string CacheKey(const CompilerInvocation& inv) const override {
    return IrGenKey(inv);
  }
};

// Runs the registered FunctionPasses for one OptLevel. Keeps the same
// per-function bounded-fixpoint schedule the monolithic driver used, so the
// optimized IR is bit-identical to the pre-pipeline compiler.
class OptStage : public Stage {
 public:
  explicit OptStage(PassPipelineOptions opts) : opts_(opts) {}
  StageId id() const override { return StageId::kOpt; }
  bool Run(CompilerInvocation* inv) override {
    OptimizeModule(inv->ir.get(), opts_, &inv->stats().passes);
    return true;
  }
  std::string CacheKey(const CompilerInvocation& inv) const override {
    return OptKey(inv);
  }

 private:
  PassPipelineOptions opts_;
};

class CodegenStage : public Stage {
 public:
  CodegenStage(CodegenOptions opts, unsigned jobs) : opts_(opts), jobs_(jobs) {}
  StageId id() const override { return StageId::kCodegen; }
  bool Run(CompilerInvocation* inv) override {
    inv->binary = std::make_unique<Binary>(GenerateCode(
        *inv->ir, opts_, &inv->diags(), &inv->stats().codegen, jobs_));
    return !inv->diags().HasErrors();
  }
  std::string CacheKey(const CompilerInvocation& inv) const override {
    return CodegenKey(inv);
  }

 private:
  CodegenOptions opts_;
  unsigned jobs_;
};

class LoadStage : public Stage {
 public:
  explicit LoadStage(LoadOptions opts) : opts_(opts) {}
  StageId id() const override { return StageId::kLoad; }
  bool Run(CompilerInvocation* inv) override {
    inv->prog = LoadBinary(std::move(*inv->binary), opts_, &inv->diags());
    inv->binary.reset();
    return inv->prog != nullptr;
  }
  std::string CacheKey(const CompilerInvocation& inv) const override {
    return LoadKey(inv);
  }

 private:
  LoadOptions opts_;
};

class VerifyStage : public Stage {
 public:
  StageId id() const override { return StageId::kVerify; }
  bool Run(CompilerInvocation* inv) override {
    inv->verify_result = std::make_unique<VerifyResult>(Verify(*inv->prog));
    if (!inv->verify_result->ok) {
      for (const std::string& e : inv->verify_result->errors) {
        inv->diags().Error({}, "confverify: " + e);
      }
      return false;
    }
    return true;
  }
  // No CacheKey override: ConfVerify re-runs on every rebuild, cached or
  // not — a verified-at-some-point binary is not a verified binary.
};

// ---- Cache snapshot / restore ----
//
// Snapshot deep-clones the stage's output out of the invocation into an
// immutable artifact; Restore deep-clones a cached artifact back into an
// invocation. Both directions clone so no invocation ever aliases mutable
// cache state — that independence is what makes cached and cold builds
// byte-identical and lets batch workers restore concurrently. The one
// shared piece is a LoadedProgram's ExecImage slot: the producer's program,
// the Load artifact and every restore of it hold the same slot, so a
// program's image is built at most once, by whichever Vm needs it first,
// and never eagerly here (compile-only and ref-engine paths never need it).
//
// `diag_base` is the invocation's diagnostic count when its pipeline
// started: everything past it was emitted by this pipeline and travels with
// the artifact, and restores replay only the tail the invocation has not
// yet produced or replayed (lists for successive stages of one key chain
// are prefix-extensions of each other, by determinism).

StageArtifact Snapshot(const CompilerInvocation& inv, StageId id,
                       size_t diag_base) {
  StageArtifact a;
  a.stage = id;
  a.source = std::make_shared<const std::string>(inv.source());
  const auto& all = inv.diags().diagnostics();
  a.diags.assign(all.begin() + static_cast<ptrdiff_t>(diag_base), all.end());
  switch (id) {
    case StageId::kParse:
      a.ast = CloneProgram(*inv.ast);
      a.bytes = ApproxBytes(*a.ast);
      break;
    case StageId::kSema:
      a.typed = inv.typed->Clone();
      a.solver = inv.stats().solver;
      a.bytes = ApproxBytes(*a.typed);
      break;
    case StageId::kIrGen:
    case StageId::kOpt:
      a.ir = inv.ir->Clone();
      a.solver = inv.stats().solver;
      a.bytes = ApproxBytes(*a.ir);
      break;
    case StageId::kCodegen:
      a.binary = std::make_shared<const Binary>(*inv.binary);
      a.solver = inv.stats().solver;
      a.codegen = inv.stats().codegen;
      a.bytes = ApproxBytes(*a.binary);
      break;
    case StageId::kLoad:
      a.prog = std::make_shared<const LoadedProgram>(*inv.prog);
      a.solver = inv.stats().solver;
      a.codegen = inv.stats().codegen;
      a.bytes = ApproxBytes(*a.prog);
      break;
    case StageId::kVerify:
    case StageId::kLink:  // snapshotted by the build scheduler, not here
      break;
  }
  a.bytes += a.source->size() + a.diags.size() * sizeof(Diagnostic);
  return a;
}

void Restore(CompilerInvocation* inv, const StageArtifact& a, size_t diag_base) {
  const size_t have = inv->diags().diagnostics().size() - diag_base;
  for (size_t i = have; i < a.diags.size(); ++i) {
    inv->diags().Add(a.diags[i]);
  }
  switch (a.stage) {
    case StageId::kParse:
      inv->ast = CloneProgram(*a.ast);
      break;
    case StageId::kSema:
      inv->typed = a.typed->Clone();
      inv->ast.reset();  // a cold Sema consumes the AST; mirror it
      inv->stats().solver = a.solver;
      break;
    case StageId::kIrGen:
    case StageId::kOpt:
      inv->ir = a.ir->Clone();
      inv->stats().solver = a.solver;
      break;
    case StageId::kCodegen:
      inv->binary = std::make_unique<Binary>(*a.binary);
      inv->stats().solver = a.solver;
      inv->stats().codegen = a.codegen;
      break;
    case StageId::kLoad:
      inv->prog = std::make_unique<LoadedProgram>(*a.prog);
      inv->binary.reset();  // a cold Load consumes the binary; mirror it
      inv->stats().solver = a.solver;
      inv->stats().codegen = a.codegen;
      break;
    case StageId::kVerify:
    case StageId::kLink:  // restored by the build scheduler, not here
      break;
  }
}

}  // namespace

const char* StageName(StageId id) {
  switch (id) {
    case StageId::kParse: return "parse";
    case StageId::kSema: return "sema";
    case StageId::kIrGen: return "irgen";
    case StageId::kOpt: return "opt";
    case StageId::kCodegen: return "codegen";
    case StageId::kLoad: return "load";
    case StageId::kVerify: return "verify";
    case StageId::kLink: return "link";
  }
  return "?";
}

std::string CodegenCacheKey(const CompilerInvocation& inv) {
  return CodegenKey(inv);
}

std::string LinkCacheKey(const std::vector<std::string>& module_codegen_keys) {
  KeyHasher h;
  h.Add(static_cast<uint64_t>(module_codegen_keys.size()));
  for (const std::string& k : module_codegen_keys) {
    h.Add(k);
  }
  return h.Finish("link");
}

const StageStats* PipelineStats::Find(StageId id) const {
  for (const StageStats& s : stages) {
    if (s.id == id) {
      return &s;
    }
  }
  return nullptr;
}

std::string PipelineStats::ToTable() const {
  std::string out = Fmt("%-10s%10s%10s%10s\n", "stage", "ms", "IR in", "IR out");
  for (const StageStats& s : stages) {
    out += Fmt("%-10s%10.3f", s.name, s.ms);
    if (s.ir_instrs_in != 0 || s.ir_instrs_out != 0) {
      out += Fmt("%10zu%10zu", s.ir_instrs_in, s.ir_instrs_out);
    } else {
      out += Fmt("%10s%10s", "-", "-");
    }
    if (!s.ok) {
      out += "  (failed)";
    } else if (s.cached) {
      out += "  (cached)";
    }
    out += "\n";
  }
  out += Fmt("%-10s%10.3f\n", "total", total_ms);
  for (const PassRunStats& p : passes) {
    out += Fmt("  pass %-16s%8.3f ms  runs=%llu changed=%llu\n", p.name, p.ms,
               static_cast<unsigned long long>(p.invocations),
               static_cast<unsigned long long>(p.changed));
  }
  if (solver.constraints != 0 || solver.vars != 0) {
    out += Fmt("  qual-solver: vars=%zu constraints=%zu edges=%zu propagations=%zu\n",
               solver.vars, solver.constraints, solver.edges, solver.propagations);
  }
  if (codegen.code_words != 0) {
    out += Fmt("  codegen: funcs=%llu words=%llu bndchk=%llu coalesced=%llu "
               "elided=%llu magic=%llu spills(priv)=%llu\n",
               static_cast<unsigned long long>(codegen.functions_emitted),
               static_cast<unsigned long long>(codegen.code_words),
               static_cast<unsigned long long>(codegen.bnd_checks_emitted),
               static_cast<unsigned long long>(codegen.bnd_checks_coalesced),
               static_cast<unsigned long long>(codegen.bnd_checks_elided_stack),
               static_cast<unsigned long long>(codegen.magic_words),
               static_cast<unsigned long long>(codegen.private_spills));
  }
  return out;
}

// ---- CompilerInvocation ----

CompilerInvocation::CompilerInvocation(std::string source, BuildConfig config)
    : source_(std::move(source)),
      config_(config),
      owned_diags_(std::make_unique<DiagEngine>()),
      diags_(owned_diags_.get()) {}

CompilerInvocation::CompilerInvocation(std::string source, BuildConfig config,
                                       DiagEngine* diags)
    : source_(std::move(source)), config_(config), diags_(diags) {}

uint64_t CompilerInvocation::SourceHash() const {
  if (!source_hash_valid_) {
    source_hash_ = KeyHasher().Add(source_).raw();
    source_hash_valid_ = true;
  }
  return source_hash_;
}

std::unique_ptr<CompiledProgram> CompilerInvocation::TakeProgram() {
  if (prog == nullptr) {
    return nullptr;
  }
  auto out = std::make_unique<CompiledProgram>();
  out->config = config_;
  out->codegen_stats = stats_.codegen;
  out->qual_vars = stats_.solver.vars;
  out->qual_constraints = stats_.solver.constraints;
  out->prog = std::move(prog);
  return out;
}

// ---- PassManager ----

void PassManager::AddStage(std::unique_ptr<Stage> stage) {
  stages_.push_back(std::move(stage));
}

PassManager PassManager::Standard(const BuildConfig& config, bool verify) {
  PassManager pm = Object(config);
  pm.AddStage(std::make_unique<LoadStage>(config.load));
  if (verify) {
    pm.AddStage(std::make_unique<VerifyStage>());
  }
  return pm;
}

PassManager PassManager::Object(const BuildConfig& config) {
  PassManager pm;
  pm.AddStage(std::make_unique<ParseStage>());
  pm.AddStage(std::make_unique<SemaStage>());
  pm.AddStage(std::make_unique<IrGenStage>());
  PassPipelineOptions popts;
  popts.level = config.opt_level;
  popts.ct = config.sema.ct;
  popts.whole_program = config.whole_program;
  pm.AddStage(std::make_unique<OptStage>(popts));
  pm.AddStage(std::make_unique<CodegenStage>(config.codegen, config.codegen_jobs));
  return pm;
}

PassManager PassManager::ParseOnly() {
  PassManager pm;
  pm.AddStage(std::make_unique<ParseStage>());
  return pm;
}

bool PassManager::Run(CompilerInvocation* inv) const {
  ArtifactCache* cache = inv->cache();
  // Diagnostics the engine already held (borrowed engines may carry prior
  // compiles' output) are not this pipeline's; everything after this index
  // is what snapshots capture and restores replay against.
  const size_t diag_base = inv->diags().diagnostics().size();

  // Incremental fast path: probe for the *deepest* cached artifact along
  // this schedule and restore it, skipping the entire prefix. A warm
  // rebuild of an unchanged invocation restores the post-load artifact and
  // runs nothing (except Verify, which always runs); a config change
  // restores the last stage whose key survived and recomputes from there.
  // Keys this walk probed without finding anything already consulted the
  // disk tier too; the stage loop below tells Acquire to skip the redundant
  // re-read (and re-count) of the same absent entry.
  size_t start = 0;
  std::vector<std::string> probed_missed;
  if (cache != nullptr) {
    for (size_t i = stages_.size(); i-- > 0;) {
      const std::string key = stages_[i]->CacheKey(*inv);
      if (key.empty()) {
        continue;
      }
      auto artifact = cache->Probe(key, stages_[i]->id());
      if (artifact == nullptr) {
        probed_missed.push_back(key);
        continue;
      }
      if (artifact->source != nullptr && *artifact->source != inv->source()) {
        continue;  // 64-bit key collision: never restore a foreign program
      }
      const auto t0 = std::chrono::steady_clock::now();
      Restore(inv, *artifact, diag_base);
      // One stats row per skipped stage so the --time-passes table still
      // shows the full schedule; the restore cost lands on the restored
      // stage's row.
      for (size_t j = 0; j <= i; ++j) {
        StageStats s;
        s.id = stages_[j]->id();
        s.name = stages_[j]->name();
        s.ok = true;
        s.cached = true;
        s.ms = j == i ? MsSince(t0) : 0;
        inv->stats().stages.push_back(s);
        inv->stats().total_ms += s.ms;
      }
      start = i + 1;
      break;
    }
  }

  for (size_t i = start; i < stages_.size(); ++i) {
    Stage& stage = *stages_[i];
    StageStats s;
    s.id = stage.id();
    s.name = stage.name();
    // IR sizes are only meaningful while the IR is the live artifact
    // (irgen through codegen); load/verify operate on the binary.
    const bool track_ir =
        stage.id() >= StageId::kIrGen && stage.id() <= StageId::kCodegen;
    s.ir_instrs_in = track_ir && inv->ir != nullptr ? CountInstrs(*inv->ir) : 0;

    // Per-job deadline (CompilerInvocation::set_deadline_ms): checked between
    // stages so one pathological module fails its own invocation with a
    // diagnostic instead of stalling the whole batch indefinitely.
    if (inv->DeadlineExpired()) {
      inv->diags().Error({}, Fmt("compile deadline exceeded before stage %s",
                                 stage.name()));
      s.ok = false;
      inv->stats().stages.push_back(s);
      return false;
    }

    const auto t0 = std::chrono::steady_clock::now();

    const std::string key =
        cache != nullptr ? stage.CacheKey(*inv) : std::string();
    bool stage_ok;
    // Failure isolation: a throwing stage (bad_alloc, a compiler bug, an
    // injected pipeline.<stage> fault) fails *this* invocation with a
    // diagnostic instead of propagating out of the batch worker and
    // terminating the process. The ProducerGuard below abandons any cache
    // registration during the unwind, so waiters on the key are released.
    // Test hook: pipeline.stall.<stage> simulates slow stage *compute* — it
    // fires only on the paths that actually run the stage, never on a cache
    // restore, so a stalled producer keeps its single-flight registration
    // in flight long enough for concurrent duplicates to observably wait.
    auto run_stage = [&]() {
      if (FaultInjector::Instance().enabled() &&
          InjectFault(std::string("pipeline.stall.") + stage.name())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      return stage.Run(inv);
    };
    try {
      if (FaultInjector::Instance().enabled()) {
        // Test hook: pipeline.<stage> simulates a stage crash.
        if (InjectFault(std::string("pipeline.") + stage.name())) {
          throw std::runtime_error("injected fault");
        }
      }
      if (!key.empty()) {
        // Single-flight: either restore a published artifact (possibly after
        // waiting out a concurrent producer) or become the producer and
        // publish what this run computes.
        const bool probe_disk_missed =
            std::find(probed_missed.begin(), probed_missed.end(), key) !=
            probed_missed.end();
        auto artifact = cache->Acquire(key, stage.id(), probe_disk_missed);
        if (artifact != nullptr && artifact->source != nullptr &&
            *artifact->source != inv->source()) {
          // Key collision with a different source: the slot belongs to the
          // other program, so run uncached rather than restore or republish.
          stage_ok = run_stage();
        } else if (artifact != nullptr) {
          Restore(inv, *artifact, diag_base);
          s.cached = true;
          stage_ok = true;
        } else {
          // Producer: the registration MUST be resolved even if Run or the
          // snapshot clone throws (e.g. bad_alloc) — otherwise every waiter
          // on this key blocks forever. The guard abandons on any unwind.
          struct ProducerGuard {
            ArtifactCache* cache;
            const std::string& key;
            bool resolved = false;
            ~ProducerGuard() {
              if (!resolved) {
                cache->Abandon(key);
              }
            }
          } guard{cache, key};
          stage_ok = run_stage();
          if (stage_ok && !inv->diags().HasErrors()) {
            cache->Put(key, Snapshot(*inv, stage.id(), diag_base));
            guard.resolved = true;
          }
        }
      } else {
        stage_ok = run_stage();
      }
    } catch (const std::exception& e) {
      inv->diags().Error({}, Fmt("internal error in stage %s: %s",
                                 stage.name(), e.what()));
      stage_ok = false;
    } catch (...) {
      inv->diags().Error({}, Fmt("internal error in stage %s", stage.name()));
      stage_ok = false;
    }

    s.ms = MsSince(t0);
    s.ran = !s.cached;
    s.ok = stage_ok && !inv->diags().HasErrors();
    s.ir_instrs_out = track_ir && inv->ir != nullptr ? CountInstrs(*inv->ir) : 0;
    inv->stats().stages.push_back(s);
    inv->stats().total_ms += s.ms;
    if (!s.ok) {
      return false;
    }
  }
  return true;
}

bool RunStandardPipeline(CompilerInvocation* inv, bool verify) {
  return PassManager::Standard(inv->config(), verify).Run(inv);
}

// ---- Batch compilation ----

std::vector<BatchOutcome> CompileBatch(const std::vector<BatchJob>& jobs,
                                       unsigned num_workers, ArtifactCache* cache) {
  std::vector<BatchOutcome> outcomes(jobs.size());
  ParallelFor(jobs.size(), num_workers, [&](size_t i) {
    const BatchJob& job = jobs[i];
    BatchOutcome& out = outcomes[i];
    out.label = job.label;
    out.invocation = std::make_unique<CompilerInvocation>(job.source, job.config);
    out.invocation->set_cache(cache);
    out.invocation->set_interfaces(job.interfaces, job.imports_fingerprint);
    out.invocation->set_deadline_ms(job.deadline_ms);
    if (job.object_only) {
      // Module object compile: the product is the invocation's Binary;
      // link/load/verify happen on the merged program (build_graph.h).
      const bool ok = PassManager::Object(job.config).Run(out.invocation.get());
      out.ok = ok && out.invocation->binary != nullptr;
      return;
    }
    const bool ok = RunStandardPipeline(out.invocation.get(), job.verify);
    if (ok) {
      out.program = out.invocation->TakeProgram();
    }
    out.ok = ok && out.program != nullptr;
  });
  return outcomes;
}

bool WantsVerify(const BuildConfig& config) {
  return config.codegen.ConfMode() && config.codegen.scheme != Scheme::kNone &&
         config.codegen.separate_stacks;
}

std::vector<BatchJob> PresetSweepJobs(const std::string& source, bool verify) {
  std::vector<BatchJob> jobs;
  for (const BuildPreset p : kAllBuildPresets) {
    BatchJob job;
    job.label = PresetName(p);
    job.source = source;
    job.config = BuildConfig::For(p);
    job.config.whole_program = true;  // sweep compiles are single-module
    job.verify = verify && WantsVerify(job.config);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace confllvm
