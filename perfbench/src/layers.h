// The traced layer walk: every workload's --trace 1 run calls the repo's
// layer functions itself, in pipeline order, and records one span per call:
//
//   Parse -> RunSema -> GenerateIr -> OptimizeModule -> GenerateCode ->
//   SerializeBinary/DeserializeBinary -> LoadBinary -> Verify ->
//   MakeSessionFor -> Vm::Call / Vm::RunParallel (ref, fast, trace engines)
//
// plus, for the 3-module LDAP split, BuildGraph/BuildScheduler and
// LinkBinaries, and for every program the disk-tier restart path. Counters
// come from the stats structs the calls already return. The walk fails an
// item when its binary is not byte-identical to the pipeline's output for the
// same source and preset, or when any engine's run differs from the others.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/corpus.h"

namespace perfbench {

struct WalkItem {
  Program program;
  BuildPreset preset = BuildPreset::kOurMpx;
  bool split = false;  // the 3-module LDAP split (program is a placeholder)
};

// Walks `items` plus the fixed rows every traced run carries (the LDAP split
// under OurMPX and OurSeg, and a merkle RunParallel row unless one is
// present). Each item runs once untraced and once traced; every run counts
// one attempt in `result`. Writes the spans to opts.spans_path and reports
// the walk metrics plus the tracing overhead (traced walk time over
// untraced, in percent).
void TracedWalk(const std::vector<WalkItem>& items, const Options& opts,
                Result* result);

// Measures the service layer in process: serves `items` through a
// ConfccdServer on a socket under opts.workdir (each source cold, then warm)
// and reports service.* metrics. Used by the compile and exec traced runs;
// the serve workload reads the same numbers from its daemon.
void ServiceProbe(const std::vector<WalkItem>& items, const Options& opts,
                  Result* result);

// Emits the service.* metrics from per-request samples.
void AddServiceMetrics(const std::vector<double>& pipeline_ms,
                       const std::vector<double>& outside_ms, double retries,
                       double rejects, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
