// Staged compilation pipeline (paper §5): the driver-level architecture that
// replaces the old monolithic Compile() body.
//
//   CompilerInvocation — one source × one BuildConfig. Owns the diagnostics
//     sink (or borrows the caller's), every intermediate artifact (AST,
//     TypedProgram, IrModule, Binary, LoadedProgram), and the per-stage
//     timing / IR-size statistics. Stages communicate exclusively through
//     the invocation, never through globals, so invocations are independent
//     and may run concurrently.
//
//   PassManager — an ordered list of Stage objects. The standard schedule is
//     Parse → Sema/QualInfer → IR-Gen → Opt (the registered FunctionPasses
//     selected by the config's OptLevel; see src/opt/passes.h) →
//     RegAlloc+Codegen → Link/Load, with an optional trailing Verify stage
//     (ConfVerify, §5.2). Custom schedules (ablations, stage reordering,
//     front-end-only runs) are built by appending stages manually.
//
//   CompileBatch — compiles N invocations on a thread pool with
//     per-invocation diagnostics and stats; results are positionally
//     deterministic and bit-identical to sequential compilation. Used by the
//     benches to build the eight §7.1 configurations concurrently.
//
//   ArtifactCache (src/driver/artifact_cache.h) — optional. When attached to
//     an invocation, every cacheable stage first consults the cache under its
//     content-addressed CacheKey; hits restore the cached artifact (the front
//     end by sharing it read-only, the backend by copying it), misses run the
//     stage and publish a snapshot. This is the incremental-compilation mode:
//     re-running with a changed config re-executes only the stages whose
//     keys changed.
#ifndef CONFLLVM_SRC_DRIVER_PIPELINE_H_
#define CONFLLVM_SRC_DRIVER_PIPELINE_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/confcc.h"
#include "src/verifier/verifier.h"

namespace confllvm {

class ArtifactCache;

// ---- Per-stage statistics ----

enum class StageId : uint8_t {
  kParse,
  kSema,     // type checking + qualifier inference (§5.1)
  kIrGen,
  kOpt,      // registered function passes (reduced-optimization model)
  kCodegen,  // taint-aware regalloc + instrumenting emission (§3-§5)
  kLoad,     // link + magic patching (§6)
  kVerify,   // ConfVerify over the loaded binary (§5.2); optional
  // Whole-image link over N module binaries. Not a PassManager stage: the
  // build scheduler drives it directly against the cache (the key chains
  // over the per-module Codegen keys). Appended after kVerify so the
  // numeric values of the single-module stages — which the disk tier
  // serializes — stay stable.
  kLink,
};

const char* StageName(StageId id);

struct StageStats {
  StageId id = StageId::kParse;
  const char* name = "";
  bool ran = false;
  bool ok = false;
  // Satisfied from the artifact cache: the stage did not execute; its output
  // was restored from a cached artifact (`ms` is the restore time).
  bool cached = false;
  double ms = 0;
  // IR instruction counts entering/leaving the stage; 0 for stages that run
  // before IR exists (parse/sema) or after it is consumed (load/verify).
  size_t ir_instrs_in = 0;
  size_t ir_instrs_out = 0;
};

// Everything one invocation learned about its own compilation: stage table,
// per-pass counters, solver counters, codegen counters.
struct PipelineStats {
  std::vector<StageStats> stages;      // in execution order
  std::vector<PassRunStats> passes;    // parallel to the scheduled pass list
  QualSolverStats solver;
  CodegenStats codegen;
  double total_ms = 0;

  const StageStats* Find(StageId id) const;
  // Renders the --time-passes table: one row per stage (name, ms, IR in/out)
  // followed by per-pass and solver/codegen counter lines.
  std::string ToTable() const;
};

// ---- Invocation context ----

class CompilerInvocation {
 public:
  // Owns its DiagEngine (batch use).
  CompilerInvocation(std::string source, BuildConfig config);
  // Borrows `diags` (legacy single-compile use); must outlive *this.
  CompilerInvocation(std::string source, BuildConfig config, DiagEngine* diags);

  const std::string& source() const { return source_; }
  // FNV-1a 64 content hash of the source, memoized: cache-key chains for
  // every stage build on this digest, so the source text is walked once per
  // invocation no matter how many keys are derived.
  uint64_t SourceHash() const;
  const BuildConfig& config() const { return config_; }
  DiagEngine& diags() { return *diags_; }
  const DiagEngine& diags() const { return *diags_; }
  PipelineStats& stats() { return stats_; }
  const PipelineStats& stats() const { return stats_; }

  // Incremental mode: attach a (caller-owned, possibly shared) artifact
  // cache. The pipeline then re-runs only the stages whose cache keys
  // changed relative to what the cache holds — e.g. re-codegen under a new
  // preset without re-parsing — and publishes what it does compute. Null
  // (the default) compiles cold with no caching.
  void set_cache(ArtifactCache* cache) { cache_ = cache; }
  ArtifactCache* cache() const { return cache_; }

  // Separate compilation: the interface set sema resolves `import "m"`
  // declarations against, plus a fingerprint over exactly the interfaces
  // this module's imports read (direct dependencies, in a canonical order —
  // computed by the build graph). The fingerprint chains into the Sema cache
  // key and everything downstream of it, which is what makes a dependency's
  // *signature* edit dirty this module while its *body* edits do not.
  void set_interfaces(const ModuleInterfaceSet* interfaces, uint64_t fingerprint) {
    interfaces_ = interfaces;
    imports_fingerprint_ = fingerprint;
  }
  const ModuleInterfaceSet* interfaces() const { return interfaces_; }
  uint64_t imports_fingerprint() const { return imports_fingerprint_; }

  // Per-job wall-clock deadline, measured from this call: PassManager::Run
  // checks it between stages and fails the invocation with a diagnostic
  // once it has passed — one pathological module times out on its own wave
  // entry instead of hanging a whole batch. 0 (the default) disables it.
  void set_deadline_ms(uint64_t ms) {
    has_deadline_ = ms != 0;
    if (has_deadline_) {
      deadline_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    }
  }
  bool DeadlineExpired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  // Intermediate artifacts, populated as stages run and retained so a failed
  // or partial invocation can be inspected by tests and tools. Exception:
  // the Sema stage hands the AST to its TypedProgram, so `ast` is null from
  // that stage onward. The front-end artifacts are immutable and may be
  // shared with the artifact cache and with other invocations; the Opt
  // stage optimizes a copy of `ir`, never the module it was handed.
  std::shared_ptr<const Program> ast;
  std::shared_ptr<const TypedProgram> typed;
  std::shared_ptr<const IrModule> ir;
  std::unique_ptr<Binary> binary;
  std::unique_ptr<LoadedProgram> prog;
  std::unique_ptr<VerifyResult> verify_result;  // set by the Verify stage

  // After a successful Load stage: wraps the loaded program in the public
  // CompiledProgram result type (moves `prog` out).
  std::unique_ptr<CompiledProgram> TakeProgram();

 private:
  std::string source_;
  BuildConfig config_;
  std::unique_ptr<DiagEngine> owned_diags_;
  DiagEngine* diags_;
  PipelineStats stats_;
  ArtifactCache* cache_ = nullptr;
  const ModuleInterfaceSet* interfaces_ = nullptr;
  uint64_t imports_fingerprint_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  mutable uint64_t source_hash_ = 0;
  mutable bool source_hash_valid_ = false;
};

// ---- Stages ----

// A pipeline stage. Stateless apart from construction-time configuration;
// reads and writes only through the invocation.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual StageId id() const = 0;
  virtual const char* name() const { return StageName(id()); }
  // Returns false to abort the pipeline (diagnostics explain why).
  virtual bool Run(CompilerInvocation* inv) = 0;
  // Content-addressed key for this stage's output: a hash chained over the
  // source text and exactly the config fields this stage and its upstream
  // prefix read. Two invocations with equal keys produce byte-identical
  // artifacts. Empty (the default) marks the stage uncacheable — it always
  // executes (Verify stays uncacheable on purpose: ConfVerify re-checks
  // every rebuild).
  virtual std::string CacheKey(const CompilerInvocation& inv) const {
    (void)inv;
    return {};
  }
};

class PassManager {
 public:
  PassManager() = default;
  PassManager(PassManager&&) = default;
  PassManager& operator=(PassManager&&) = default;

  // The standard ConfLLVM schedule for `config` (see file comment). When
  // `verify` is set, a ConfVerify stage is appended after Load.
  static PassManager Standard(const BuildConfig& config, bool verify = false);

  // Separate-compilation schedules. Object stops after Codegen (the module's
  // Binary is the product; the build graph links the modules and loads the
  // merged image). ParseOnly runs just the Parse stage — the build graph
  // uses it to discover import edges and extract interfaces, through the
  // same cache keys the later full compile will hit.
  static PassManager Object(const BuildConfig& config);
  static PassManager ParseOnly();

  void AddStage(std::unique_ptr<Stage> stage);
  size_t num_stages() const { return stages_.size(); }
  const Stage& stage(size_t i) const { return *stages_[i]; }

  // Runs the stages in order against `inv`, recording per-stage timing and
  // IR sizes into inv->stats(). Stops at the first stage that fails (or at
  // the first stage after which the invocation's DiagEngine holds errors)
  // and returns false.
  bool Run(CompilerInvocation* inv) const;

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
};

// Convenience: run PassManager::Standard over `inv`.
bool RunStandardPipeline(CompilerInvocation* inv, bool verify = false);

// The Codegen stage's content-addressed key for `inv` — the identity of the
// module's object binary. Exported for the build scheduler, which chains the
// link-stage key over every module's Codegen key.
std::string CodegenCacheKey(const CompilerInvocation& inv);

// Key for the linked image of a module set: chained over the per-module
// Codegen keys in graph order. Equal keys mean the same module binaries in
// the same order, hence a byte-identical linked image.
std::string LinkCacheKey(const std::vector<std::string>& module_codegen_keys);

// ---- Batch compilation ----

struct BatchJob {
  std::string label;  // e.g. preset name or file name (reporting only)
  std::string source;
  BuildConfig config;
  bool verify = false;
  // Separate compilation (set by the build scheduler): compile to a Binary
  // only (PassManager::Object) against `interfaces`, with the module's
  // import fingerprint chained into the cache keys. `verify` is ignored for
  // object jobs — ConfVerify runs on the *linked* image.
  bool object_only = false;
  const ModuleInterfaceSet* interfaces = nullptr;
  uint64_t imports_fingerprint = 0;
  // Per-job compile deadline (CompilerInvocation::set_deadline_ms); 0 = none.
  uint64_t deadline_ms = 0;
};

struct BatchOutcome {
  std::string label;
  bool ok = false;
  // Diagnostics, stats, and artifacts for this job; never null.
  std::unique_ptr<CompilerInvocation> invocation;
  // The compiled program; null when ok is false.
  std::unique_ptr<CompiledProgram> program;
};

// Compiles every job, `num_workers` at a time (0 = hardware concurrency),
// each with its own DiagEngine and PipelineStats. outcome[i] always
// corresponds to jobs[i], and every outcome is bit-identical to what a
// sequential compile of the same job produces.
//
// With a non-null `cache`, all jobs compile through the shared artifact
// cache: single-flight keyed lookups mean a preset sweep of one source runs
// Parse/Sema/IrGen exactly once and shares the cached front-end artifacts
// with the other jobs, without changing any output byte.
std::vector<BatchOutcome> CompileBatch(const std::vector<BatchJob>& jobs,
                                       unsigned num_workers = 0,
                                       ArtifactCache* cache = nullptr);

// True when `config` builds a binary ConfVerify is expected to accept: the
// ConfLLVM ABI with a bounds scheme and separate stacks. Base-like presets,
// the check-free ablations, and the single-stack OurMPX-Sep ablation
// (private data on the public stack by design) are outside the verifier's
// threat model. Shared by every sweep and both front doors so no two paths
// can gate differently.
bool WantsVerify(const BuildConfig& config);

// One BatchJob per BuildPreset for `source`, labelled with PresetName — the
// §7.1/§7.2 build-configuration sweep (confcc --preset=all), each configured
// by BuildConfig::ForWholeProgram. `verify` requests ConfVerify for every
// preset satisfying WantsVerify.
std::vector<BatchJob> PresetSweepJobs(const std::string& source,
                                      bool verify = false,
                                      bool all_private = false);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_DRIVER_PIPELINE_H_
