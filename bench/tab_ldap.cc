// §7.3 OpenLDAP experiments: query throughput, Base vs OurMPX, for queries
// on absent entries (paper: 26,254 -> 22,908 req/s, -12.74%) and present
// entries (29,698 -> 26,895 req/s, -9.44%). Misses do more work inside U,
// so they see the larger relative degradation.
#include "bench/bench_util.h"
#include "bench/workloads.h"

namespace confllvm {
namespace {

using bench::kClockHz;

constexpr int kEntries = 10000;
constexpr int kQueries = 400;

double Throughput(BuildPreset preset, bool hits, uint64_t* out_hits) {
  DiagEngine diags;
  auto s = MakeSession(workloads::kLdap, preset, &diags);
  if (s == nullptr) {
    fprintf(stderr, "%s", diags.ToString().c_str());
    return 0;
  }
  auto pop = s->vm->Call("ldap_populate", {kEntries});
  if (!pop.ok) {
    fprintf(stderr, "populate: %s\n", pop.fault_msg.c_str());
    return 0;
  }
  const uint64_t before = s->vm->stats().cycles;
  auto run = s->vm->Call("ldap_run", {kQueries, hits ? 1u : 0u});
  if (!run.ok) {
    fprintf(stderr, "run: %s\n", run.fault_msg.c_str());
    return 0;
  }
  *out_hits = run.ret;
  const uint64_t cycles = s->vm->stats().cycles - before;
  return kQueries / (static_cast<double>(cycles) / kClockHz);
}

void PrintTable() {
  printf("\n== §7.3 OpenLDAP throughput (req/s), %d entries, %d queries ==\n",
         kEntries, kQueries);
  for (bool hits : {false, true}) {
    uint64_t h0 = 0;
    uint64_t h1 = 0;
    const double base = Throughput(BuildPreset::kBase, hits, &h0);
    const double mpx = Throughput(BuildPreset::kOurMpx, hits, &h1);
    const double deg = base > 0 ? 100.0 * (base - mpx) / base : 0;
    printf("%-18s Base %10.0f   OurMPX %10.0f   degradation %5.2f%%  (paper: %s)\n",
           hits ? "existing entries" : "absent entries", base, mpx, deg,
           hits ? "9.44%" : "12.74%");
    if (hits && (h0 != kQueries || h1 != kQueries)) {
      printf("  WARNING: hit counts %llu/%llu\n", (unsigned long long)h0,
             (unsigned long long)h1);
    }
  }
}

}  // namespace
}  // namespace confllvm

int main() {
  confllvm::PrintTable();
  return 0;
}
