// confccd: the long-running multi-tenant compile-and-run service
// (ARCHITECTURE.md "confccd service").
//
// One daemon process owns ONE ArtifactCache (memory tier, optional disk
// tier) and serves concurrent compile / link / execute requests from many
// clients over a local Unix stream socket, speaking the length-prefixed
// JSON protocol of src/service/protocol.h. Every request runs through the
// existing PassManager / BuildScheduler machinery against that shared
// cache, which is what extends single-flight dedup *across requests*: two
// clients compiling the same source at the same instant share one compute,
// and a warm daemon answers an unchanged compile from memory without
// running a single stage.
//
// Threading model: an accept-loop thread hands each connection to a reader
// thread; readers parse frames and submit compile/link/execute work to the
// shared ServeScheduler pool (control verbs — ping/stats/shutdown — answer
// inline). Responses are written under a per-connection write mutex, so
// pipelined requests from one client interleave safely. A client that
// disappears mid-request costs nothing but a failed send: guest execution
// runs under the VM deadline watchdog, and every worker-side failure is
// caught and answered (or dropped if the peer is gone) — never propagated
// into the pool.
//
// Fault-injection sites (src/support/fault_injection.h): `service.accept`
// drops a just-accepted connection, `service.read` severs a connection
// mid-stream, `service.dispatch` fails a dispatched request with a
// retryable `retry` status — the chaos tests drive all three.
#ifndef CONFLLVM_SRC_SERVICE_SERVER_H_
#define CONFLLVM_SRC_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/artifact_cache.h"
#include "src/service/protocol.h"
#include "src/service/scheduler.h"

namespace confllvm {

class ConfccdServer {
 public:
  struct Options {
    std::string socket_path;
    ServeScheduler::Options sched;
    size_t cache_bytes = 0;        // memory-tier cap (0 = unbounded)
    std::string cache_dir;         // non-empty: attach the disk tier here
    size_t cache_disk_bytes = 0;   // disk-tier cap (0 = unbounded)
    // Execute-verb VM watchdog: requests may lower it but never exceed
    // `max_deadline_ms` — one tenant's infinite loop halts with a deadline
    // fault instead of wedging a pool worker.
    uint64_t default_deadline_ms = 5000;
    uint64_t max_deadline_ms = 30000;
    // Per-invocation compile deadline (CompilerInvocation::set_deadline_ms).
    uint64_t compile_deadline_ms = 60000;
    unsigned build_jobs = 0;       // BuildScheduler workers per link request
    size_t max_frame_bytes = 16u << 20;
  };

  // Server-level counters (the `stats` verb's server_json).
  struct ServerStats {
    uint64_t connections_accepted = 0;
    uint64_t connections_dropped_inject = 0;  // service.accept fired
    uint64_t connections_closed = 0;
    uint64_t bad_frames = 0;      // oversized/torn frames (connection closed)
    uint64_t bad_requests = 0;    // valid frame, malformed JSON/verb
    uint64_t requests = 0;        // well-formed requests dispatched or inlined
    uint64_t responses_dropped = 0;  // peer gone before the response
    uint64_t injected_read_faults = 0;
    uint64_t injected_dispatch_faults = 0;
    Json ToJson() const;
  };

  explicit ConfccdServer(Options opts);
  ~ConfccdServer();  // implies Stop()

  ConfccdServer(const ConfccdServer&) = delete;
  ConfccdServer& operator=(const ConfccdServer&) = delete;

  // Binds + listens on options.socket_path (unlinking any stale socket
  // file), attaches the disk tier when configured, and spawns the scheduler
  // workers and the accept loop. False with a one-line reason in `err`.
  bool Start(std::string* err);

  // Asks the daemon to exit: WaitForShutdown() returns. Called by the
  // `shutdown` verb and by the daemon's signal handler. Does not tear down —
  // the owner calls Stop() (so in-flight responses still drain).
  void RequestShutdown();
  void WaitForShutdown();

  // Full teardown: closes the listener and every connection, drains the
  // worker pool, removes the socket file. Idempotent.
  void Stop();

  ArtifactCache& cache() { return cache_; }
  const ServeScheduler& scheduler() const { return sched_; }
  ServerStats server_stats() const;
  const Options& options() const { return opts_; }

 private:
  struct Connection {
    ~Connection();  // closes fd: the last reader/worker reference is gone
    int fd = -1;
    std::string default_client;  // "conn-<n>" when requests omit `client`
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  // Joins the readers that have left ReaderLoop, so a long-running daemon
  // holds one thread (and one stack mapping) per live connection only.
  void ReapFinishedReaders();
  // Bumps one ServerStats counter under stats_mu_.
  void Count(uint64_t ServerStats::*counter);
  // Sends `resp` as one frame; drops it (and marks the connection closed)
  // when the peer is gone.
  void SendResponse(const std::shared_ptr<Connection>& conn, const Json& resp);
  // Runs one well-formed request to a response. Pure request→response apart
  // from the shared cache (and RequestShutdown for the shutdown verb).
  Json Handle(const Json& req);

  // The one build behind compile, link and execute, against the shared
  // cache: `modules` (when non-null) through the build graph and
  // BuildScheduler, else the request's `source` through the standard
  // pipeline, under the request's preset and all_private. Returns the
  // response so far: status, error, diagnostics, then stages/total_ms for a
  // source or graph_json/link_cached for modules, and bin_hex when
  // `want_bin` asks. On success *out holds the program.
  Json Build(const Json& req, const Json* modules,
             std::unique_ptr<CompiledProgram>* out);
  Json HandleCompile(const Json& req);
  Json HandleLink(const Json& req);
  Json HandleExecute(const Json& req);
  Json HandleStats();

  const Options opts_;
  ArtifactCache cache_;
  ServeScheduler sched_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_conn_id_{1};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;
  std::vector<std::thread::id> finished_readers_;  // exited, not yet joined

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SERVICE_SERVER_H_
