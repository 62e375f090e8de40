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
//
// Numeric flags take an unsigned integer (decimal, 0x hex or 0 octal); any
// other value exits 2 with the usage text before the daemon starts.
// --deadline-ms is the default execute watchdog (requests may lower it);
// --max-deadline-ms the hard ceiling no request can exceed. --inject-faults
// arms the deterministic fault injector (service.accept / service.read /
// service.dispatch are the service-tier sites; the CONFCC_INJECT_FAULTS
// environment variable is read first, the flag overrides it).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "src/service/server.h"
#include "src/support/fault_injection.h"
#include "src/support/strings.h"

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

// Parses a numeric flag's value into `*out`. A value that is not an
// unsigned integer, or that `T` cannot hold (--workers and --build-jobs are
// `unsigned`), gets a one-line diagnostic, and the caller exits with the
// usage text.
template <typename T>
bool ParseFlag(const char* flag, const std::string& value, T* out) {
  uint64_t v = 0;
  if (!ParseU64(value, &v) || static_cast<T>(v) != v) {
    fprintf(stderr, "confccd: bad %s '%s' (expected an unsigned integer)\n",
            flag, value.c_str());
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

std::string g_inject_report;

ConfccdServer* g_server = nullptr;

void OnSignal(int) {
  // Async-signal-safe: just flag the shutdown; main() does the teardown.
  if (g_server != nullptr) {
    g_server->RequestShutdown();
  }
}

bool WriteSink(const std::string& path, const std::string& text,
               const char* what) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    fprintf(stderr, "confccd: cannot write %s %s\n", what, path.c_str());
    return false;
  }
  out << text;
  return true;
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
      if (!ParseFlag("--workers", a.substr(10), &opts.sched.num_workers)) {
        return Usage();
      }
    } else if (a.rfind("--cache-bytes=", 0) == 0) {
      if (!ParseFlag("--cache-bytes", a.substr(14), &opts.cache_bytes)) {
        return Usage();
      }
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      opts.cache_dir = a.substr(12);
    } else if (a.rfind("--cache-disk-bytes=", 0) == 0) {
      if (!ParseFlag("--cache-disk-bytes", a.substr(19),
                     &opts.cache_disk_bytes)) {
        return Usage();
      }
    } else if (a.rfind("--max-queue-depth=", 0) == 0) {
      if (!ParseFlag("--max-queue-depth", a.substr(18),
                     &opts.sched.max_queue_depth)) {
        return Usage();
      }
    } else if (a.rfind("--max-inflight-per-client=", 0) == 0) {
      if (!ParseFlag("--max-inflight-per-client", a.substr(26),
                     &opts.sched.max_inflight_per_client)) {
        return Usage();
      }
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseFlag("--deadline-ms", a.substr(14),
                     &opts.default_deadline_ms)) {
        return Usage();
      }
    } else if (a.rfind("--max-deadline-ms=", 0) == 0) {
      if (!ParseFlag("--max-deadline-ms", a.substr(18),
                     &opts.max_deadline_ms)) {
        return Usage();
      }
    } else if (a.rfind("--build-jobs=", 0) == 0) {
      if (!ParseFlag("--build-jobs", a.substr(13), &opts.build_jobs)) {
        return Usage();
      }
    } else if (a.rfind("--inject-faults=", 0) == 0) {
      std::string err;
      if (!FaultInjector::Instance().Configure(a.substr(16), &err)) {
        fprintf(stderr, "confccd: bad --inject-faults spec: %s\n", err.c_str());
        return Usage();
      }
    } else if (a.rfind("--inject-report=", 0) == 0) {
      g_inject_report = a.substr(16);
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

  ConfccdServer server(opts);
  std::string err;
  if (!server.Start(&err)) {
    fprintf(stderr, "confccd: %s\n", err.c_str());
    return 1;
  }
  g_server = &server;
  signal(SIGINT, OnSignal);
  signal(SIGTERM, OnSignal);

  fprintf(stderr, "confccd: serving on %s (workers=%u, queue=%zu, "
          "per-client=%zu)\n",
          opts.socket_path.c_str(), server.scheduler().options().num_workers,
          opts.sched.max_queue_depth, opts.sched.max_inflight_per_client);
  server.WaitForShutdown();
  fprintf(stderr, "confccd: shutting down\n");
  server.Stop();
  g_server = nullptr;

  // Final stats, written after the drain so the counters are complete. One
  // snapshot per sink, same discipline as confcc --cache-stats.
  int rc = 0;
  const CacheStats cs = server.cache().stats();
  fputs(cs.ToRow().c_str(), stderr);
  if (!cache_stats_json.empty() &&
      !WriteSink(cache_stats_json, cs.ToJson(), "cache stats")) {
    rc = 1;
  }
  if (!sched_stats_json.empty() &&
      !WriteSink(sched_stats_json,
                 server.scheduler().stats().ToJson() + "\n", "sched stats")) {
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string env_err;
  if (!FaultInjector::Instance().ConfigureFromEnv(&env_err)) {
    fprintf(stderr, "confccd: bad CONFCC_INJECT_FAULTS: %s\n", env_err.c_str());
    return 2;
  }
  int rc;
  try {
    rc = Main(argc, argv);
  } catch (const std::exception& e) {
    fprintf(stderr, "confccd: fatal: %s\n", e.what());
    rc = 1;
  } catch (...) {
    fprintf(stderr, "confccd: fatal: unknown error\n");
    rc = 1;
  }
  if (!g_inject_report.empty()) {
    std::ofstream out(g_inject_report, std::ios::trunc);
    if (out) {
      out << FaultInjector::Instance().ReportJson();
    } else {
      fprintf(stderr, "confccd: cannot write %s\n", g_inject_report.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
