// Figure 6: maximum sustained throughput of the mini-NGINX server as a
// percentage of Base, for response sizes 0..40 KB, under the six §7.2
// configurations. The paper reports 3.25-29.32% overhead, non-monotonic in
// file size (cache pressure from split stacks peaks around 10 KB), tending
// to zero for large responses as copy time outside U dominates.
#include "bench/bench_util.h"
#include "bench/workloads.h"

namespace confllvm {
namespace {

using bench::kClockHz;
using bench::RunOnce;

constexpr BuildPreset kConfigs[] = {
    BuildPreset::kBase,   BuildPreset::kOur1Mem,   BuildPreset::kOurBare,
    BuildPreset::kOurCFI, BuildPreset::kOurMpxSep, BuildPreset::kOurMpx,
};
constexpr int kSizesKb[] = {0, 1, 2, 5, 10, 20, 40};
constexpr int kRequests = 48;

double Throughput(BuildPreset preset, int size_kb) {
  auto setup = [size_kb](Session* s) {
    s->tlib->AddFile("f", std::string(static_cast<size_t>(size_kb) * 1024, 'x'));
    for (int i = 0; i < kRequests; ++i) {
      s->tlib->PushRx(0, "GET f\n");
    }
  };
  auto r = RunOnce(workloads::kNginx, preset, "server_run", {kRequests}, setup);
  if (!r.ok || r.ret != kRequests) {
    return 0;
  }
  return kRequests / (static_cast<double>(r.cycles) / kClockHz);
}

void PrintTable() {
  bench::PrintHeader(
      "Figure 6: NGINX max sustained throughput, % of Base",
      {"Base(req/s)", "Our1Mem", "OurBare", "OurCFI", "OurMPX-Sep", "OurMPX"});
  for (int size_kb : kSizesKb) {
    double tput[6] = {};
    for (int c = 0; c < 6; ++c) {
      tput[c] = Throughput(kConfigs[c], size_kb);
    }
    printf("%3d KB        %12.0f", size_kb, tput[0]);
    for (int c = 1; c < 6; ++c) {
      printf("%11.1f%%", tput[0] > 0 ? 100.0 * tput[c] / tput[0] : 0.0);
    }
    printf("\n");
  }
  printf("(paper: OurMPX overhead 3.25%%-29.32%%, non-monotonic, ->0 beyond ~40 KB)\n");
}

}  // namespace
}  // namespace confllvm

int main() {
  confllvm::PrintTable();
  return 0;
}
