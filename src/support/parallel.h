// The one worker loop behind every parallel compile: batch jobs
// (CompileBatch), build-graph parses (BuildGraph::Finalize) and per-function
// code emission (GenerateCode).
#ifndef CONFLLVM_SRC_SUPPORT_PARALLEL_H_
#define CONFLLVM_SRC_SUPPORT_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace confllvm {

// The number of workers a request for `num_workers` runs: hardware
// concurrency for 0, and at least 1. ParallelFor, the serve scheduler and
// NormalizeJobCount all resolve their worker counts through it.
unsigned ResolveWorkerCount(unsigned num_workers);

// Calls fn(i) once for every i in [0, count). Runs
// ResolveWorkerCount(num_workers) workers, at most one per item: a single
// worker runs inline on the caller's thread, more are threads that pull
// indexes from a shared counter, so callers write results by index.
void ParallelFor(size_t count, unsigned num_workers,
                 const std::function<void(size_t)>& fn);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SUPPORT_PARALLEL_H_
