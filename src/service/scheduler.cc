#include "src/service/scheduler.h"

#include "src/support/parallel.h"

namespace confllvm {

Json ServeScheduler::Stats::ToJson() const {
  Json j = Json::Object();
  j.Set("submitted", Json::UInt(submitted));
  j.Set("accepted", Json::UInt(accepted));
  j.Set("completed", Json::UInt(completed));
  j.Set("rejected_queue_full", Json::UInt(rejected_queue_full));
  j.Set("rejected_client_cap", Json::UInt(rejected_client_cap));
  j.Set("peak_queue_depth", Json::UInt(peak_queue_depth));
  j.Set("clients_seen", Json::UInt(clients_seen));
  return j;
}

ServeScheduler::ServeScheduler(Options opts)
    : opts_([&opts] {
        opts.num_workers = ResolveWorkerCount(opts.num_workers);
        return opts;
      }()) {}

ServeScheduler::~ServeScheduler() { Stop(); }

void ServeScheduler::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) {
    return;
  }
  started_ = true;
  workers_.reserve(opts_.num_workers);
  for (unsigned i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ServeScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
  workers_.clear();
}

ServeScheduler::Admit ServeScheduler::Submit(const std::string& client,
                                             std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (stopping_) {
    return Admit::kStopped;
  }
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    it = clients_.emplace(client, ClientState{}).first;
    ++stats_.clients_seen;
  }
  ClientState& cs = it->second;
  // Per-client cap first: one saturated tenant gets its own rejection reason
  // even while the global queue has room.
  if (cs.inflight >= opts_.max_inflight_per_client) {
    ++stats_.rejected_client_cap;
    return Admit::kClientSaturated;
  }
  if (queued_total_ >= opts_.max_queue_depth) {
    ++stats_.rejected_queue_full;
    return Admit::kQueueFull;
  }
  cs.queue.push_back(std::move(task));
  ++cs.inflight;
  ++queued_total_;
  if (queued_total_ > stats_.peak_queue_depth) {
    stats_.peak_queue_depth = queued_total_;
  }
  if (cs.queue.size() == 1) {
    rotation_.push_back(client);
  }
  ++stats_.accepted;
  work_cv_.notify_one();
  return Admit::kAccepted;
}

ServeScheduler::Stats ServeScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ServeScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return queued_total_ > 0 || stopping_; });
    if (queued_total_ == 0) {
      // stopping_ && drained: running tasks belong to other workers; each
      // worker exits once the shared queue is dry.
      return;
    }
    // One task from the next client in rotation.
    const std::string client = rotation_.front();
    rotation_.pop_front();
    ClientState& cs = clients_[client];
    std::function<void()> task = std::move(cs.queue.front());
    cs.queue.pop_front();
    --queued_total_;
    if (!cs.queue.empty()) {
      rotation_.push_back(client);
    }
    lock.unlock();
    task();  // exceptions are the task wrapper's job (the server catches)
    lock.lock();
    --clients_[client].inflight;
    ++stats_.completed;
  }
}

}  // namespace confllvm
