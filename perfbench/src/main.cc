// perfbench: the repo's benchmark (see perfbench/METRICS.md).
//
//   perfbench --workload compile|exec|serve --seed N --seconds S --trace 0|1
//             --workdir DIR [--confccd PATH] [--spans FILE]
//
// Prints report lines, then one JSON result line. perfbench/run.py builds
// this binary and the daemon and is the entry point users run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"

namespace {

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload compile|exec|serve --seed N --seconds S "
          "--trace 0|1 --workdir DIR [--confccd PATH] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  opts.workers = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--workdir") {
      opts.workdir = value;
    } else if (flag == "--confccd") {
      opts.confccd = value;
    } else if (flag == "--spans") {
      opts.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opts.workdir.empty() || opts.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(opts.workdir);

  perfbench::Result result;
  int rc = 0;
  try {
    if (opts.workload == "compile") {
      rc = perfbench::RunCompile(opts, &result);
    } else if (opts.workload == "exec") {
      rc = perfbench::RunExec(opts, &result);
    } else if (opts.workload == "serve" && !opts.confccd.empty()) {
      rc = perfbench::RunServe(opts, &result);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (rc != 0) {
    return rc;
  }
  perfbench::Report("error_rate %.6f (%llu of %llu operations failed)",
                    result.attempted == 0
                        ? 0.0
                        : static_cast<double>(result.failed) / result.attempted,
                    static_cast<unsigned long long>(result.failed),
                    static_cast<unsigned long long>(result.attempted));
  printf("%s\n", result.ToJson().c_str());
  return 0;
}
