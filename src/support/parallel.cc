#include "src/support/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace confllvm {

void ParallelFor(size_t count, unsigned num_workers,
                 const std::function<void(size_t)>& fn) {
  const unsigned requested =
      num_workers != 0 ? num_workers : std::thread::hardware_concurrency();
  const size_t n = std::min<size_t>(std::max(requested, 1u), count);
  if (n <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace confllvm
