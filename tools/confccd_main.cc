// confccd: the multi-tenant compile-and-run daemon (ARCHITECTURE.md
// "confccd service").
//
//   confccd --socket=PATH [--workers=N] [--cache-bytes=N] [--cache-dir=D]
//           [--cache-disk-bytes=N] [--max-queue-depth=N]
//           [--max-inflight-per-client=N] [--deadline-ms=N]
//           [--max-deadline-ms=N] [--build-jobs=N]
//           [--inject-faults=SPEC] [--inject-report=F]
//           [--cache-stats-json=F] [--sched-stats-json=F]
//
// Serves compile/link/execute requests from any number of `confcc
// --connect=PATH` clients (or anything speaking src/service/protocol.h)
// against ONE process-wide artifact cache: the daemon is what keeps the
// memory tier, single-flight dedup, and linked-image cache warm *across*
// invocations. Runs until SIGINT/SIGTERM or a `shutdown` request, then
// drains in-flight work, writes the requested stats sinks, and exits 0.
// The stop signals are taken by sigwait on one thread, never by a handler:
// RequestShutdown locks a mutex, which a handler must not do.
//
// Numeric flags take an unsigned integer (decimal, 0x hex or 0 octal); any
// other value exits 2 with the usage text before the daemon starts.
// --deadline-ms is the default execute watchdog (requests may lower it);
// --max-deadline-ms the hard ceiling no request can exceed. --inject-faults
// arms the deterministic fault injector (service.accept / service.read /
// service.dispatch are the service-tier sites; the CONFCC_INJECT_FAULTS
// environment variable is read first, the flag overrides it).
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "src/service/server.h"
#include "src/support/fault_injection.h"
#include "tools/cli.h"

using namespace confllvm;

namespace {

int Usage() {
  fprintf(stderr,
          "usage: confccd --socket=PATH [--workers=N] [--cache-bytes=N]\n"
          "               [--cache-dir=D] [--cache-disk-bytes=N]\n"
          "               [--max-queue-depth=N] [--max-inflight-per-client=N]\n"
          "               [--deadline-ms=N] [--max-deadline-ms=N]\n"
          "               [--build-jobs=N] [--inject-faults=SPEC]\n"
          "               [--inject-report=F] [--cache-stats-json=F]\n"
          "               [--sched-stats-json=F]\n");
  return 2;
}

int Main(int argc, char** argv) {
  ConfccdServer::Options opts;
  std::string cache_stats_json;
  std::string sched_stats_json;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--socket=", 0) == 0) {
      opts.socket_path = a.substr(9);
    } else if (a.rfind("--workers=", 0) == 0) {
      if (!cli::ParseFlag("--workers", a.substr(10), &opts.sched.num_workers)) {
        return Usage();
      }
    } else if (a.rfind("--cache-bytes=", 0) == 0) {
      if (!cli::ParseFlag("--cache-bytes", a.substr(14), &opts.cache_bytes)) {
        return Usage();
      }
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      opts.cache_dir = a.substr(12);
    } else if (a.rfind("--cache-disk-bytes=", 0) == 0) {
      if (!cli::ParseFlag("--cache-disk-bytes", a.substr(19),
                     &opts.cache_disk_bytes)) {
        return Usage();
      }
    } else if (a.rfind("--max-queue-depth=", 0) == 0) {
      if (!cli::ParseFlag("--max-queue-depth", a.substr(18),
                     &opts.sched.max_queue_depth)) {
        return Usage();
      }
    } else if (a.rfind("--max-inflight-per-client=", 0) == 0) {
      if (!cli::ParseFlag("--max-inflight-per-client", a.substr(26),
                     &opts.sched.max_inflight_per_client)) {
        return Usage();
      }
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      if (!cli::ParseFlag("--deadline-ms", a.substr(14),
                     &opts.default_deadline_ms)) {
        return Usage();
      }
    } else if (a.rfind("--max-deadline-ms=", 0) == 0) {
      if (!cli::ParseFlag("--max-deadline-ms", a.substr(18),
                     &opts.max_deadline_ms)) {
        return Usage();
      }
    } else if (a.rfind("--build-jobs=", 0) == 0) {
      if (!cli::ParseFlag("--build-jobs", a.substr(13), &opts.build_jobs)) {
        return Usage();
      }
    } else if (a.rfind("--inject-faults=", 0) == 0) {
      std::string err;
      if (!FaultInjector::Instance().Configure(a.substr(16), &err)) {
        fprintf(stderr, "confccd: bad --inject-faults spec: %s\n", err.c_str());
        return Usage();
      }
    } else if (a.rfind("--inject-report=", 0) == 0) {
      cli::g_inject_report = a.substr(16);
    } else if (a.rfind("--cache-stats-json=", 0) == 0) {
      cache_stats_json = a.substr(19);
    } else if (a.rfind("--sched-stats-json=", 0) == 0) {
      sched_stats_json = a.substr(19);
    } else {
      return Usage();
    }
  }
  if (opts.socket_path.empty()) {
    fprintf(stderr, "confccd: --socket=PATH is required\n");
    return Usage();
  }

  // Block the stop signals before Start so every daemon thread inherits the
  // mask; only `signal_thread` takes them, in sigwait.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  ConfccdServer server(opts);
  std::string err;
  if (!server.Start(&err)) {
    fprintf(stderr, "confccd: %s\n", err.c_str());
    return 1;
  }
  std::thread signal_thread([&server, stop_signals] {
    int sig = 0;
    sigwait(&stop_signals, &sig);
    server.RequestShutdown();
  });

  fprintf(stderr, "confccd: serving on %s (workers=%u, queue=%zu, "
          "per-client=%zu)\n",
          opts.socket_path.c_str(), server.scheduler().options().num_workers,
          opts.sched.max_queue_depth, opts.sched.max_inflight_per_client);
  server.WaitForShutdown();
  // After a `shutdown` request the signal thread still waits in sigwait;
  // wake it (a no-op when a signal already ended it).
  pthread_kill(signal_thread.native_handle(), SIGTERM);
  signal_thread.join();
  fprintf(stderr, "confccd: shutting down\n");
  server.Stop();

  // Final stats, written after the drain so the counters are complete. One
  // snapshot per sink, same discipline as confcc --cache-stats.
  int rc = 0;
  const CacheStats cs = server.cache().stats();
  fputs(cs.ToRow().c_str(), stderr);
  if (!cache_stats_json.empty() &&
      !cli::WriteSink(cache_stats_json, cs.ToJson().Dump(), "cache stats")) {
    rc = 1;
  }
  if (!sched_stats_json.empty() &&
      !cli::WriteSink(sched_stats_json,
                      server.scheduler().stats().ToJson().Dump(),
                      "sched stats")) {
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::RunTool("confccd", Main, argc, argv, "inject report");
}
