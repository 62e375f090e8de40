// Fair multi-tenant work scheduler for confccd (ARCHITECTURE.md "confccd
// service").
//
// Requests from many clients land on one shared worker pool. Fairness is
// strict round-robin *by client*: the scheduler keeps one FIFO queue per
// client and a rotation of clients with queued work; each worker takes the
// next client in rotation and runs exactly one of its tasks, so a tenant
// submitting 100 requests cannot starve one submitting 2 — the interleaving
// is A B A B ... regardless of arrival order or queue depth.
//
// Overload is handled by *rejecting at admission*, never by unbounded
// queueing: a per-client in-flight cap (queued + running) bounds any one
// tenant, and a global queue-depth cap bounds the daemon. Both rejections
// are synchronous and retryable — the server turns them into a `retry`
// response and the client backs off — so a saturated daemon stays
// responsive instead of accumulating latency.
#ifndef CONFLLVM_SRC_SERVICE_SCHEDULER_H_
#define CONFLLVM_SRC_SERVICE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/support/json.h"

namespace confllvm {

class ServeScheduler {
 public:
  struct Options {
    unsigned num_workers = 0;            // 0 = hardware concurrency
    size_t max_queue_depth = 64;         // queued (not yet running), global
    size_t max_inflight_per_client = 8;  // queued + running, per client
  };

  enum class Admit : uint8_t {
    kAccepted,
    kQueueFull,         // global backpressure — retryable
    kClientSaturated,   // per-client cap — retryable
    kStopped,           // scheduler is shutting down
  };

  struct Stats {
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t completed = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_client_cap = 0;
    uint64_t peak_queue_depth = 0;
    uint64_t clients_seen = 0;
    Json ToJson() const;
  };

  explicit ServeScheduler(Options opts);
  ~ServeScheduler();  // implies Stop()

  ServeScheduler(const ServeScheduler&) = delete;
  ServeScheduler& operator=(const ServeScheduler&) = delete;

  // Spawns the workers. Tasks submitted before Start queue up and run once
  // workers exist — which is also how the tests pin down the round-robin
  // order deterministically.
  void Start();

  // Drains every queued task, waits for running ones, joins the workers.
  // Idempotent. Submits racing with Stop are rejected with kStopped.
  void Stop();

  // Admission control + enqueue. On kAccepted the task will run exactly
  // once on some worker; any other value means the task was NOT queued.
  Admit Submit(const std::string& client, std::function<void()> task);

  Stats stats() const;
  const Options& options() const { return opts_; }

 private:
  struct ClientState {
    std::deque<std::function<void()>> queue;
    size_t inflight = 0;  // queued + running
  };

  void WorkerLoop();

  const Options opts_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::unordered_map<std::string, ClientState> clients_;
  // Clients with a non-empty queue, in rotation order. A client appears at
  // most once; workers pop the front, take one task, and re-append the
  // client while it still has queued work.
  std::deque<std::string> rotation_;
  size_t queued_total_ = 0;
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  Stats stats_;
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SERVICE_SCHEDULER_H_
