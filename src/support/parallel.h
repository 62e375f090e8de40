// The one worker loop behind every parallel compile: batch jobs
// (CompileBatch), build-graph parses (BuildGraph::Finalize) and per-function
// code emission (GenerateCode).
#ifndef CONFLLVM_SRC_SUPPORT_PARALLEL_H_
#define CONFLLVM_SRC_SUPPORT_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace confllvm {

// Calls fn(i) once for every i in [0, count). Runs `num_workers` workers
// (0 = hardware concurrency; at least 1, at most one per item): a single
// worker runs inline on the caller's thread, more are threads that pull
// indexes from a shared counter, so callers write results by index.
void ParallelFor(size_t count, unsigned num_workers,
                 const std::function<void(size_t)>& fn);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SUPPORT_PARALLEL_H_
