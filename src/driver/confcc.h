// confcc: the end-to-end compiler driver and the library's primary public
// API. Runs parse -> sema (qualifier inference) -> IR -> optimizations ->
// codegen (instrumentation) -> load (link + magic patch), under one of the
// paper's evaluation configurations (§7.1).
//
// Typical use:
//   DiagEngine diags;
//   auto cp = Compile(source, BuildConfig::For(BuildPreset::kOurMpx), &diags);
//   TrustedLib tlib;
//   Vm vm(cp->prog.get(), &tlib);
//   auto r = vm.Call("main", {});
#ifndef CONFLLVM_SRC_DRIVER_CONFCC_H_
#define CONFLLVM_SRC_DRIVER_CONFCC_H_

#include <memory>
#include <string>

#include "src/codegen/codegen.h"
#include "src/ir/ir.h"
#include "src/opt/passes.h"
#include "src/runtime/loader.h"
#include "src/runtime/trusted.h"
#include "src/sema/sema.h"
#include "src/vm/program.h"

namespace confllvm {

// The six SPEC configurations of §7.1 plus the two NGINX-only ablations of
// §7.2 (Our1Mem, OurMPX-Sep).
enum class BuildPreset : uint8_t {
  kBase,      // vanilla compiler, O2
  kBaseOA,    // vanilla compiler + ConfLLVM's allocator
  kOur1Mem,   // ConfLLVM pipeline, no instrumentation, shared T/U memory
  kOurBare,   // + separate T memory and stack switching
  kOurCFI,    // + taint-aware CFI
  kOurMpx,    // full ConfLLVM, MPX bounds
  kOurMpxSep, // full MPX instrumentation, single U stack (perf ablation)
  kOurSeg,    // full ConfLLVM, segmentation bounds
  // Constant-time family (not part of the paper's table): OurMPX/OurSeg plus
  // secret-branch linearization in Opt, the stricter ct sema rules, and the
  // verifier's ct taint checks on the emitted binary.
  kCtMpx,
  kCtSeg,
};

const char* PresetName(BuildPreset p);

// The preset PresetName(p) names, from either family; false for any other
// name. Shared by confcc's --preset and confccd's "preset" field.
bool ParsePresetName(const std::string& name, BuildPreset* out);

// All §7.1/§7.2 presets, in the table order (sweep helpers iterate this;
// deliberately excludes the ct family so the paper-replication sweeps and
// their baselines are unchanged).
inline constexpr BuildPreset kAllBuildPresets[] = {
    BuildPreset::kBase,      BuildPreset::kBaseOA, BuildPreset::kOur1Mem,
    BuildPreset::kOurBare,   BuildPreset::kOurCFI, BuildPreset::kOurMpx,
    BuildPreset::kOurMpxSep, BuildPreset::kOurSeg,
};

// The constant-time preset family (ct tests and the ct CI gate iterate this).
inline constexpr BuildPreset kCtBuildPresets[] = {
    BuildPreset::kCtMpx,
    BuildPreset::kCtSeg,
};

struct BuildConfig {
  BuildPreset preset = BuildPreset::kOurMpx;
  SemaOptions sema;
  OptLevel opt_level = OptLevel::kReduced;
  // Whole-program compile: no separately-compiled module will ever call into
  // this one, so interprocedural passes that rewrite call sites against
  // callee bodies (dead-argument elimination at kFull) are sound. Compile()
  // and the tools set it for single-module builds; BuildScheduler object
  // compiles leave it false. Part of the Opt cache key.
  bool whole_program = false;
  CodegenOptions codegen;
  LoadOptions load;
  AllocPolicy alloc_policy = AllocPolicy::kCustom;
  // Worker threads for function-sharded codegen emission (0 = hardware
  // concurrency). Pure parallelism knob: emission is per-function and the
  // layout pass is sequential, so the binary is bit-identical for any value
  // — which is also why this field is excluded from artifact-cache keys.
  // Drivers translating user input (which may be negative) should route it
  // through NormalizeJobCount() first, as confcc --jobs does.
  unsigned codegen_jobs = 1;

  static BuildConfig For(BuildPreset preset);
  // The config confcc and confccd compile a program under: For(preset) as a
  // whole program, with every unannotated value private (implicit flows
  // then only warn) when `all_private`. One rule for both front ends keeps
  // a request through the daemon byte-identical to the solo CLI. (A linked
  // build compiles each module under a copy BuildScheduler makes with
  // whole_program cleared.)
  static BuildConfig ForWholeProgram(BuildPreset preset, bool all_private);
};

struct CompiledProgram {
  std::unique_ptr<LoadedProgram> prog;
  BuildConfig config;
  CodegenStats codegen_stats;
  size_t qual_vars = 0;
  size_t qual_constraints = 0;
};

// Compiles MiniC source under `config` by running the standard staged
// pipeline (see src/driver/pipeline.h). Returns nullptr with diagnostics in
// `diags` on any front-end/type/qualifier error. When `stats` is non-null it
// receives the invocation's per-stage statistics. When `cache` is non-null
// the compile runs incrementally through the artifact cache: unchanged
// stages are restored from cached artifacts instead of re-executing.
struct PipelineStats;
class ArtifactCache;
std::unique_ptr<CompiledProgram> Compile(const std::string& source,
                                         const BuildConfig& config, DiagEngine* diags,
                                         PipelineStats* stats = nullptr,
                                         ArtifactCache* cache = nullptr);

// Convenience: compile + construct a trusted lib matching the config's
// allocator policy. (The Vm is constructed by the caller so tests can pass
// custom VmOptions.)
struct Session {
  std::unique_ptr<CompiledProgram> compiled;
  std::unique_ptr<TrustedLib> tlib;
  std::unique_ptr<Vm> vm;
};
std::unique_ptr<Session> MakeSession(const std::string& source, BuildPreset preset,
                                     DiagEngine* diags, VmOptions vm_opts = {});

// Wraps an already-compiled program (e.g. one CompileBatch outcome) in a
// runnable Session with a trusted lib matching its config.
std::unique_ptr<Session> MakeSessionFor(std::unique_ptr<CompiledProgram> compiled,
                                        VmOptions vm_opts = {});

// Clamps a requested worker count to something the thread-pool consumers
// (CompileBatch, BuildConfig::codegen_jobs / GenerateCode) can use: zero or
// negative requests clamp to hardware_concurrency() (min 1) and, when
// `warning` is non-null, explain the clamp so drivers can surface it as a
// diagnostic instead of silently misbehaving (a negative value parsed as
// unsigned used to wrap to ~4 billion workers).
unsigned NormalizeJobCount(long long requested, std::string* warning = nullptr);

// The per-preset output path `confcc --preset=all --emit-bin=base` writes:
// "<base>.<preset label>.bin". Factored out so tests can assert every preset
// lands in a distinct file and warm-cache reruns reproduce identical bytes.
std::string SweepEmitPath(const std::string& base, const std::string& label);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_DRIVER_CONFCC_H_
