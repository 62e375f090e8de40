// Figure 7: average classification latency of the Privado-style NN inside
// the (simulated) enclave, as a percentage of Base, for Base / BaseOA /
// OurBare / OurCFI / OurMPX. The paper measures +26.87% for OurMPX — much
// lower than SPEC because the hot loop is FP-dominated and MPX checks
// dual-issue with FP arithmetic (§7.4).
#include "bench/bench_util.h"
#include "bench/workloads.h"

namespace confllvm {
namespace {

using bench::kClockHz;

constexpr BuildPreset kConfigs[] = {
    BuildPreset::kBase, BuildPreset::kBaseOA, BuildPreset::kOurBare,
    BuildPreset::kOurCFI, BuildPreset::kOurMpx,
};
constexpr int kImages = 8;

uint64_t ClassifyCycles(BuildPreset preset) {
  DiagEngine diags;
  auto s = MakeSession(workloads::kPrivado, preset, &diags);
  if (s == nullptr) {
    fprintf(stderr, "%s", diags.ToString().c_str());
    return 0;
  }
  if (!s->vm->Call("nn_init", {}).ok) {
    return 0;
  }
  uint64_t total = 0;
  for (int i = 0; i < kImages; ++i) {
    s->vm->Call("nn_stage_image", {static_cast<uint64_t>(i * 13 + 7)});
    auto r = s->vm->Call("nn_classify", {});
    if (!r.ok) {
      fprintf(stderr, "classify: %s\n", r.fault_msg.c_str());
      return 0;
    }
    total += r.cycles;
  }
  return total / kImages;
}

void PrintTable() {
  printf("\n== Figure 7: Privado classification latency, %% of Base ==\n");
  const uint64_t base = ClassifyCycles(BuildPreset::kBase);
  printf("%-10s %10.3f ms (absolute, simulated)\n", "Base",
         base / kClockHz * 1e3);
  for (int c = 1; c < 5; ++c) {
    const uint64_t cycles = ClassifyCycles(kConfigs[c]);
    printf("%-10s %10.1f%%\n", PresetName(kConfigs[c]), bench::Pct(cycles, base));
  }
  printf("(paper: OurMPX = 126.87%% of Base; checks masked by FP dual-issue)\n");
}

}  // namespace
}  // namespace confllvm

int main() {
  confllvm::PrintTable();
  return 0;
}
