// Build graph + scheduler for separate compilation (ROADMAP "Multi-source
// batches"; paper §4/§6 deployment model).
//
//   BuildGraph — N named module sources. Finalize() parses every module
//     (through the shared ArtifactCache, so the later full compile restores
//     the same Parse artifact), extracts each module's exported interface
//     (src/sema/module_interface.h), resolves `import "m"` declarations to
//     dependency edges, rejects unknown modules and import cycles, and
//     topo-sorts the graph into *waves*: wave k holds every module whose
//     dependencies all live in waves < k.
//
//   BuildScheduler — compiles the waves in order, modules within a wave
//     concurrently on the CompileBatch thread pool, each as an *object*
//     compile (Parse → Sema → IrGen → Opt → Codegen; no load) keyed through
//     the cache with the module's imports fingerprint chained into Sema and
//     downstream keys. On a warm cache this gives exact incremental builds:
//     a body edit recompiles exactly the edited module (dependents' keys
//     are untouched — their imports fingerprint covers the dependency's
//     *interface*, not its body), while an exported-signature edit dirties
//     exactly the module and its direct importers. The per-module binaries
//     are then linked (src/isa/link.h), loaded, and — when requested —
//     ConfVerified as one merged image, so every cross-module call edge's
//     qualifier contract is re-checked after linking.
#ifndef CONFLLVM_SRC_DRIVER_BUILD_GRAPH_H_
#define CONFLLVM_SRC_DRIVER_BUILD_GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/isa/link.h"
#include "src/sema/module_interface.h"
#include "src/support/json.h"

namespace confllvm {

class BuildGraph {
 public:
  // False (with a diagnostic) on a duplicate module name.
  bool AddModule(const std::string& name, std::string source, DiagEngine* diags);

  // Parses every module (through `cache` when given, `num_workers` at a
  // time), extracts interfaces, builds dependency edges, and computes the
  // wave schedule. False on parse errors, unknown imports, self-imports, or
  // cycles. `config` supplies the parse-stage cache keying context and the
  // all-private default for interface extraction.
  bool Finalize(const BuildConfig& config, DiagEngine* diags,
                ArtifactCache* cache = nullptr, unsigned num_workers = 0);

  size_t num_modules() const { return modules_.size(); }
  const std::string& module_name(size_t i) const { return modules_[i].name; }
  const std::string& module_source(size_t i) const { return modules_[i].source; }
  // Direct dependencies (indices), in canonical (name-sorted) order.
  const std::vector<size_t>& deps(size_t i) const { return modules_[i].deps; }
  int ModuleIndex(const std::string& name) const;

  // Valid after Finalize().
  const std::vector<std::vector<size_t>>& waves() const { return waves_; }
  const ModuleInterfaceSet& interfaces() const { return interfaces_; }
  // FNV chain over the direct dependencies' names and interface
  // fingerprints — the value CompilerInvocation::set_interfaces wants.
  uint64_t ImportsFingerprint(size_t i) const {
    return modules_[i].imports_fingerprint;
  }

 private:
  struct Module {
    std::string name;
    std::string source;
    std::vector<size_t> deps;
    uint64_t imports_fingerprint = 0;
  };

  std::vector<Module> modules_;
  std::vector<std::vector<size_t>> waves_;
  ModuleInterfaceSet interfaces_;
  bool finalized_ = false;
};

// One module's compile outcome within a linked build. The invocation holds
// the Binary artifact, diagnostics, and per-stage stats (a cached backend
// shows stages with `cached` set — how the tests assert exact rebuild sets).
struct ModuleOutcome {
  std::string name;
  size_t wave = 0;
  bool ok = false;
  // Never compiled because a (transitive) dependency failed; the scheduler
  // records why in LinkedBuild.diags. `invocation` is null for skipped
  // modules.
  bool skipped = false;
  std::unique_ptr<CompilerInvocation> invocation;
};

// Per-module rows for the --graph-stats-json artifact.
struct BuildGraphStats {
  struct PerModule {
    std::string name;
    size_t wave = 0;
    bool ok = false;
    bool skipped = false;         // dependency failed; module never compiled
    bool codegen_cached = false;  // backend restored from the cache, not run
    double ms = 0;
  };
  size_t modules = 0;
  size_t waves = 0;
  size_t codegen_ran = 0;  // modules whose backend actually executed
  // Linked image restored from the cache (the link key over all module
  // Codegen keys hit) — LinkBinaries never ran; `link` is the producer's
  // snapshot.
  bool link_cached = false;
  std::vector<PerModule> per_module;
  LinkStats link;

  Json ToJson() const;
};

struct LinkedBuild {
  bool ok = false;
  std::vector<ModuleOutcome> modules;  // graph order
  std::unique_ptr<LoadedProgram> prog;  // linked + loaded merged image
  std::unique_ptr<VerifyResult> verify_result;  // set when verify requested
  BuildGraphStats stats;
  DiagEngine diags;  // link/load/verify diagnostics (per-module ones live in
                     // each outcome's invocation)
};

class BuildScheduler {
 public:
  struct Options {
    unsigned num_workers = 0;  // per-wave CompileBatch workers (0 = hw)
    bool verify = false;       // link-time ConfVerify on the merged image
    // Per-module compile deadline forwarded to every BatchJob (0 = none):
    // one hung or pathological module fails its own wave entry instead of
    // stalling the whole build.
    uint64_t deadline_ms = 0;
  };

  BuildScheduler(const BuildGraph* graph, BuildConfig config)
      : graph_(graph), config_(config) {}
  BuildScheduler(const BuildGraph* graph, BuildConfig config, Options opts)
      : graph_(graph), config_(config), opts_(opts) {}

  // Compiles, links, loads, and optionally verifies. The graph must be
  // finalized. Failure isolation: every wave still runs — a broken module
  // fails its own wave entry (with its diagnostics aggregated into
  // LinkedBuild.diags), only its transitive dependents are skipped, and
  // every independent module still compiles (warming the cache for the
  // fixed rebuild). Linking proceeds only when all modules compiled.
  LinkedBuild Run(ArtifactCache* cache = nullptr);

 private:
  const BuildGraph* graph_;
  BuildConfig config_;
  Options opts_;
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_DRIVER_BUILD_GRAPH_H_
