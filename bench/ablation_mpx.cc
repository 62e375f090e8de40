// Ablation of the §5.1 MPX optimizations: per-block check coalescing,
// guard-band displacement elision (register-form checks), and chkstk-based
// elision of stack-access checks. Each is toggled off individually on the
// OurMPX configuration; the table reports executed checks and cycles
// relative to the fully-optimized OurMPX.
#include "bench/bench_util.h"
#include "bench/workloads.h"

namespace confllvm {
namespace {

using workloads::kSpecKernels;

struct Variant {
  const char* name;
  void (*apply)(CodegenOptions*);
};

const Variant kVariants[] = {
    {"full-opt", [](CodegenOptions*) {}},
    {"no-coalesce", [](CodegenOptions* o) { o->mpx_coalesce = false; }},
    {"no-guard-disp", [](CodegenOptions* o) { o->mpx_guard_disp_opt = false; }},
    {"no-stack-elide", [](CodegenOptions* o) { o->mpx_elide_stack_checks = false; }},
};

struct Row {
  uint64_t cycles = 0;
  uint64_t checks = 0;
};

Row RunVariant(const char* src, const Variant& v) {
  BuildConfig cfg = BuildConfig::For(BuildPreset::kOurMpx);
  v.apply(&cfg.codegen);
  DiagEngine diags;
  auto compiled = Compile(src, cfg, &diags);
  Row row;
  if (compiled == nullptr) {
    fprintf(stderr, "%s", diags.ToString().c_str());
    return row;
  }
  TrustedOptions topts;
  TrustedLib tlib(topts);
  Vm vm(compiled->prog.get(), &tlib);
  auto r = vm.Call("main", {});
  if (!r.ok) {
    fprintf(stderr, "%s: %s\n", v.name, r.fault_msg.c_str());
    return row;
  }
  row.cycles = r.cycles;
  row.checks = vm.stats().check_instrs;
  return row;
}

void PrintTable() {
  printf("\n== Ablation: MPX check optimizations (paper §5.1), OurMPX config ==\n");
  printf("%-12s %-16s %14s %14s %10s\n", "kernel", "variant", "checks-run",
         "cycles", "vs full");
  const int kKernels[] = {0, 2, 4, 8};  // bzip2, mcf, hmmer, milc
  for (int k : kKernels) {
    Row full{};
    for (const Variant& v : kVariants) {
      Row row = RunVariant(kSpecKernels[k].source, v);
      if (std::string(v.name) == "full-opt") {
        full = row;
      }
      printf("%-12s %-16s %14llu %14llu %9.1f%%\n", kSpecKernels[k].name, v.name,
             static_cast<unsigned long long>(row.checks),
             static_cast<unsigned long long>(row.cycles),
             full.cycles > 0 ? 100.0 * row.cycles / full.cycles : 0.0);
    }
  }
}

}  // namespace
}  // namespace confllvm

int main() {
  confllvm::PrintTable();
  return 0;
}
