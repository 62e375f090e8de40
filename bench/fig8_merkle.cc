// Figure 8: total time to verify-read a shared file through the Merkle
// integrity library, 1-6 threads on 4 cores, Base / OurSeg / OurMPX. The
// paper sees near-constant time up to 4 threads (linear scaling), a jump
// beyond the core count, OurSeg < 10% and OurMPX < 17% overhead throughout.
#include "bench/bench_util.h"
#include "bench/workloads.h"

namespace confllvm {
namespace {

constexpr int kBlocks = 512;

uint64_t WallCycles(BuildPreset preset, int nthreads) {
  DiagEngine diags;
  VmOptions opts;
  opts.num_cores = 4;
  auto s = MakeSession(workloads::kMerkle, preset, &diags, opts);
  if (s == nullptr) {
    fprintf(stderr, "%s", diags.ToString().c_str());
    return 0;
  }
  if (!s->vm->Call("merkle_build", {kBlocks}).ok) {
    return 0;
  }
  std::vector<Vm::ThreadSpec> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.push_back({"merkle_read_all", {static_cast<uint64_t>(t), kBlocks}});
  }
  auto r = s->vm->RunParallel(threads);
  if (!r.ok) {
    fprintf(stderr, "parallel run failed under %s\n", PresetName(preset));
    return 0;
  }
  for (const auto& t : r.per_thread) {
    if (t.ret != kBlocks) {
      fprintf(stderr, "integrity check failed\n");
      return 0;
    }
  }
  return r.wall_cycles;
}

void PrintTable() {
  bench::PrintHeader("Figure 8: Merkle-FS parallel read, % of Base (4 cores)",
                     {"Base(Mcyc)", "OurSeg", "OurMPX"});
  for (int threads = 1; threads <= 6; ++threads) {
    const uint64_t base = WallCycles(BuildPreset::kBase, threads);
    const uint64_t seg = WallCycles(BuildPreset::kOurSeg, threads);
    const uint64_t mpx = WallCycles(BuildPreset::kOurMpx, threads);
    printf("%d thread%s    %12.2f%11.1f%%%11.1f%%\n", threads,
           threads == 1 ? " " : "s", base / 1e6, bench::Pct(seg, base),
           bench::Pct(mpx, base));
  }
  printf("(paper: flat to 4 threads; OurSeg < 10%%, OurMPX < 17%%)\n");
}

}  // namespace
}  // namespace confllvm

int main() {
  confllvm::PrintTable();
  return 0;
}
