#include "src/driver/confcc.h"

#include "src/driver/pipeline.h"
#include "src/support/parallel.h"
#include "src/support/strings.h"

namespace confllvm {

unsigned NormalizeJobCount(long long requested, std::string* warning) {
  if (requested > 0) {
    return static_cast<unsigned>(requested);
  }
  const unsigned hw = ResolveWorkerCount(0);
  if (warning != nullptr) {
    *warning = StrFormat("job count %lld clamped to hardware concurrency (%u)",
                         requested, hw);
  }
  return hw;
}

std::string SweepEmitPath(const std::string& base, const std::string& label) {
  return base + "." + label + ".bin";
}

const char* PresetName(BuildPreset p) {
  switch (p) {
    case BuildPreset::kBase: return "Base";
    case BuildPreset::kBaseOA: return "BaseOA";
    case BuildPreset::kOur1Mem: return "Our1Mem";
    case BuildPreset::kOurBare: return "OurBare";
    case BuildPreset::kOurCFI: return "OurCFI";
    case BuildPreset::kOurMpx: return "OurMPX";
    case BuildPreset::kOurMpxSep: return "OurMPX-Sep";
    case BuildPreset::kOurSeg: return "OurSeg";
    case BuildPreset::kCtMpx: return "ct-mpx";
    case BuildPreset::kCtSeg: return "ct-seg";
  }
  return "?";
}

bool ParsePresetName(const std::string& name, BuildPreset* out) {
  const auto find_in = [&](const auto& family) {
    for (const BuildPreset p : family) {
      if (name == PresetName(p)) {
        *out = p;
        return true;
      }
    }
    return false;
  };
  return find_in(kAllBuildPresets) || find_in(kCtBuildPresets);
}

BuildConfig BuildConfig::For(BuildPreset preset) {
  BuildConfig c;
  c.preset = preset;
  switch (preset) {
    case BuildPreset::kBase:
      c.opt_level = OptLevel::kFull;
      c.codegen = {};  // scheme none, no cfi, no chkstk
      c.codegen.emit_chkstk = false;
      c.codegen.separate_stacks = false;
      c.load.separate_t_memory = false;
      c.alloc_policy = AllocPolicy::kSystem;
      break;
    case BuildPreset::kBaseOA:
      c = For(BuildPreset::kBase);
      c.preset = preset;
      c.alloc_policy = AllocPolicy::kCustom;
      break;
    case BuildPreset::kOur1Mem:
      c.opt_level = OptLevel::kReduced;
      c.codegen.confllvm_abi = true;
      c.codegen.separate_stacks = false;
      c.load.separate_t_memory = false;
      break;
    case BuildPreset::kOurBare:
      c = For(BuildPreset::kOur1Mem);
      c.preset = preset;
      c.load.separate_t_memory = true;
      break;
    case BuildPreset::kOurCFI:
      c = For(BuildPreset::kOurBare);
      c.preset = preset;
      c.codegen.cfi = true;
      break;
    case BuildPreset::kOurMpx:
      c = For(BuildPreset::kOurCFI);
      c.preset = preset;
      c.codegen.scheme = Scheme::kMpx;
      c.codegen.separate_stacks = true;
      break;
    case BuildPreset::kOurMpxSep:
      c = For(BuildPreset::kOurMpx);
      c.preset = preset;
      c.codegen.separate_stacks = false;
      c.load.unified_bounds = true;
      break;
    case BuildPreset::kOurSeg:
      c = For(BuildPreset::kOurCFI);
      c.preset = preset;
      c.codegen.scheme = Scheme::kSeg;
      c.codegen.separate_stacks = true;
      break;
    case BuildPreset::kCtMpx:
      c = For(BuildPreset::kOurMpx);
      c.preset = preset;
      c.sema.ct = true;
      c.codegen.ct = true;
      break;
    case BuildPreset::kCtSeg:
      c = For(BuildPreset::kOurSeg);
      c.preset = preset;
      c.sema.ct = true;
      c.codegen.ct = true;
      break;
  }
  return c;
}

BuildConfig BuildConfig::ForWholeProgram(BuildPreset preset, bool all_private) {
  BuildConfig config = For(preset);
  config.sema.all_private = all_private;
  if (all_private) {
    config.sema.implicit_flows = ImplicitFlowMode::kWarn;
  }
  config.whole_program = true;
  return config;
}

std::unique_ptr<CompiledProgram> Compile(const std::string& source,
                                         const BuildConfig& config, DiagEngine* diags,
                                         PipelineStats* stats, ArtifactCache* cache) {
  // Compile() always produces a fully-loaded single-module program, so
  // whole-program interprocedural passes are sound here.
  BuildConfig cfg = config;
  cfg.whole_program = true;
  CompilerInvocation inv(source, cfg, diags);
  inv.set_cache(cache);
  const bool ok = RunStandardPipeline(&inv);
  if (stats != nullptr) {
    *stats = inv.stats();
  }
  if (!ok) {
    return nullptr;
  }
  return inv.TakeProgram();
}

std::unique_ptr<Session> MakeSessionFor(std::unique_ptr<CompiledProgram> compiled,
                                        VmOptions vm_opts) {
  if (compiled == nullptr) {
    return nullptr;
  }
  auto session = std::make_unique<Session>();
  session->compiled = std::move(compiled);
  TrustedOptions topts;
  topts.alloc_policy = session->compiled->config.alloc_policy;
  session->tlib = std::make_unique<TrustedLib>(topts);
  session->vm = std::make_unique<Vm>(session->compiled->prog.get(), session->tlib.get(),
                                     vm_opts);
  return session;
}

std::unique_ptr<Session> MakeSession(const std::string& source, BuildPreset preset,
                                     DiagEngine* diags, VmOptions vm_opts) {
  return MakeSessionFor(Compile(source, BuildConfig::For(preset), diags), vm_opts);
}

}  // namespace confllvm
