// Figure 5: execution time of SPEC-CPU-like kernels as a percentage of Base
// under the six §7.1 configurations. The paper reports OurMPX up to ~74%,
// OurSeg up to ~24.5% overhead, CFI (OurCFI - OurBare) averaging 3.62%, and
// BaseOA ~0 (sometimes negative).
#include "bench/bench_util.h"
#include "bench/workloads.h"

namespace confllvm {
namespace {

using bench::Pct;
using workloads::kNumSpecKernels;
using workloads::kSpecKernels;

constexpr BuildPreset kConfigs[] = {
    BuildPreset::kBase,   BuildPreset::kBaseOA, BuildPreset::kOurBare,
    BuildPreset::kOurCFI, BuildPreset::kOurMpx, BuildPreset::kOurSeg,
};

void PrintTable() {
  bench::PrintHeader("Figure 5: SPEC CPU kernels, % of Base (cycles)",
                     {"Base(Mcyc)", "BaseOA", "OurBare", "OurCFI", "OurMPX", "OurSeg"});
  double cfi_sum = 0;
  double mpx_max = 0;
  double seg_max = 0;
  int n = 0;
  // One shared artifact cache across the table: each kernel's six presets
  // share the Parse/Sema/IrGen prefix (output is byte-identical either way).
  ArtifactCache cache;
  for (int k = 0; k < kNumSpecKernels; ++k) {
    const auto& kernel = kSpecKernels[k];
    // Build all six §7.1 configurations of this kernel concurrently through
    // the pipeline's batch API, then run each on the VM.
    auto entries = bench::CompileSweep(
        kernel.source, std::vector<BuildPreset>(std::begin(kConfigs),
                                                std::end(kConfigs)),
        /*jobs=*/0, &cache);
    uint64_t cycles[6] = {};
    for (int c = 0; c < 6; ++c) {
      if (entries[c].session == nullptr) {
        return;
      }
      auto r = entries[c].session->vm->Call("main", {});
      if (!r.ok) {
        fprintf(stderr, "%s: main fault: %s\n", PresetName(kConfigs[c]),
                r.fault_msg.c_str());
        return;
      }
      cycles[c] = r.cycles;
    }
    printf("%-14s%12.2f", kernel.name, cycles[0] / 1e6);
    for (int c = 1; c < 6; ++c) {
      printf("%11.1f%%", Pct(cycles[c], cycles[0]));
    }
    printf("\n");
    cfi_sum += Pct(cycles[3], cycles[0]) - Pct(cycles[2], cycles[0]);
    mpx_max = std::max(mpx_max, Pct(cycles[4], cycles[0]) - 100.0);
    seg_max = std::max(seg_max, Pct(cycles[5], cycles[0]) - 100.0);
    ++n;
  }
  printf("\nCFI overhead (OurCFI-OurBare) average: %.2f%%  (paper: 3.62%%)\n",
         cfi_sum / n);
  printf("OurMPX max overhead: %.1f%%  (paper: up to 74.03%%)\n", mpx_max);
  printf("OurSeg max overhead: %.1f%%  (paper: up to 24.5%%)\n", seg_max);
}

}  // namespace
}  // namespace confllvm

int main() {
  confllvm::PrintTable();
  return 0;
}
