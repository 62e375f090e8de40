// End-to-end regression tests for the confcc driver's failure behaviour,
// run against the real binary (CONFCC_PATH, injected by CMake): every
// operational failure — missing input, unreadable cache dir, malformed
// injection spec, malformed numeric flag, unknown engine or preset — exits
// nonzero with a one-line diagnostic, injected
// chaos never changes emitted bytes, and the injector's hit-count report
// lands where --inject-report points. A faulting guest gets a FAIL row in
// every sweep table, and a run without --engine uses the trace tier. The
// confccd daemon's numeric flags are checked the same way against its real
// binary (CONFCCD_PATH), and so are its startup line's worker count and its
// SIGTERM drain: stats sinks written, exit 0.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/support/json.h"

namespace fs = std::filesystem;
using confllvm::Json;

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

// Runs `cmd` through the shell, capturing both streams.
RunResult RunShell(const std::string& cmd) {
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) {
    return r;
  }
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

// Runs the real confcc with `args` through the shell (so env-var prefixes
// work), capturing both streams.
RunResult RunConfcc(const std::string& args, const std::string& env = "") {
  return RunShell(env + (env.empty() ? "" : " ") + CONFCC_PATH + " " + args +
                  " 2>&1");
}

// Runs the real confccd with `args`, capturing both streams. A daemon that
// accepts its flags serves until it is stopped, so the run is capped by
// `timeout`: a flag that should have been rejected fails the test with
// exit 124 instead of hanging it.
RunResult RunConfccd(const std::string& args) {
  return RunShell(std::string("timeout 10 ") + CONFCCD_PATH + " " + args +
                  " 2>&1");
}

struct TempDir {
  TempDir() {
    static std::atomic<int> counter{0};
    path = (fs::temp_directory_path() /
            ("confcc_cli_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string File(const std::string& name) const {
    return (fs::path(path) / name).string();
  }
  std::string path;
};

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// filename -> bytes for every regular file in `dir`.
std::map<std::string, std::string> DirContents(const std::string& dir) {
  std::map<std::string, std::string> m;
  for (const auto& de : fs::directory_iterator(dir)) {
    if (de.is_regular_file()) {
      m[de.path().filename().string()] = ReadFile(de.path().string());
    }
  }
  return m;
}

const char* kSource =
    "int main() { int s = 0; for (int i = 1; i <= 10; i = i + 1) "
    "{ s = s + i; } return s; }\n";

int CountLines(const std::string& s) {
  int lines = 0;
  for (const char c : s) {
    lines += c == '\n' ? 1 : 0;
  }
  return lines;
}

TEST(ConfccCli, MissingInputFileExitsNonzeroWithOneLineDiagnostic) {
  TempDir dir;
  const auto r = RunConfcc(dir.File("does_not_exist.mc"));
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("confcc: cannot open"), std::string::npos)
      << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
}

TEST(ConfccCli, UnreadableInputFileExitsNonzeroWithDiagnostic) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root ignores file permissions";
  }
  TempDir dir;
  const std::string src = dir.File("locked.mc");
  WriteFile(src, kSource);
  fs::permissions(fs::path(src), fs::perms::none);
  const auto r = RunConfcc(src);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("confcc: cannot open"), std::string::npos)
      << r.output;
}

TEST(ConfccCli, UncreatableCacheDirExitsNonzeroWithOneLineDiagnostic) {
  TempDir dir;
  const std::string src = dir.File("p.mc");
  WriteFile(src, kSource);
  // A path *through a regular file* can never be created as a directory —
  // works whether or not the test runs as root.
  const std::string blocker = dir.File("blocker");
  WriteFile(blocker, "not a directory\n");
  const auto r =
      RunConfcc("--cache-dir=" + blocker + "/cache " + src);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("confcc: cannot create cache dir"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
}

TEST(ConfccCli, MalformedInjectSpecExitsWithUsage) {
  TempDir dir;
  const std::string src = dir.File("p.mc");
  WriteFile(src, kSource);
  for (const char* bad : {"disk.read.open=p2.0", "disk.read.open", "seed="}) {
    SCOPED_TRACE(bad);
    const auto r =
        RunConfcc(std::string("--inject-faults=") + bad + " " + src);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("confcc: bad --inject-faults spec:"),
              std::string::npos)
        << r.output;
  }
}

TEST(ConfccCli, MalformedInjectEnvExitsWithDiagnostic) {
  TempDir dir;
  const std::string src = dir.File("p.mc");
  WriteFile(src, kSource);
  const auto r = RunConfcc(src, "CONFCC_INJECT_FAULTS=bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("confcc: bad CONFCC_INJECT_FAULTS:"),
            std::string::npos)
      << r.output;
}

// A malformed value is rejected before anything runs: exit 2, a one-line
// diagnostic naming the flag and the value, then the usage text (the way
// an unknown --engine is rejected).
void ExpectRejectedWithUsage(const std::string& flags,
                             const std::string& diagnostic) {
  TempDir dir;
  const std::string src = dir.File("p.mc");
  WriteFile(src, kSource);
  const auto r = RunConfcc(flags + " " + src);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_EQ(r.output.substr(0, r.output.find('\n')), diagnostic) << r.output;
  EXPECT_NE(r.output.find("\nusage: confcc"), std::string::npos) << r.output;
}

// Numeric flags parse the whole value as an unsigned integer: strtoull
// alone read "abc" as 0, "5s" as 5, "1M" as 1 and "-1" as 2^64-1.
TEST(ConfccCli, TraceThresholdRejectsNonNumericValue) {
  ExpectRejectedWithUsage(
      "--engine=trace --trace-threshold=abc",
      "confcc: bad --trace-threshold 'abc' (expected an unsigned integer)");
}

TEST(ConfccCli, DeadlineMsRejectsTrailingUnit) {
  ExpectRejectedWithUsage(
      "--deadline-ms=5s",
      "confcc: bad --deadline-ms '5s' (expected an unsigned integer)");
}

TEST(ConfccCli, CacheBytesRejectsSizeSuffix) {
  ExpectRejectedWithUsage(
      "--cache-bytes=1M",
      "confcc: bad --cache-bytes '1M' (expected an unsigned integer)");
}

TEST(ConfccCli, CacheDiskBytesRejectsNegativeValue) {
  ExpectRejectedWithUsage(
      "--cache-disk-bytes=-1",
      "confcc: bad --cache-disk-bytes '-1' (expected an unsigned integer)");
}

TEST(ConfccCli, ArgsRejectsNegativeElement) {
  ExpectRejectedWithUsage(
      "--args=1,-2",
      "confcc: bad --args element '-2' (expected an unsigned integer)");
}

// The ABI has four argument registers, so a fifth value could never reach
// the guest; it used to be dropped without a word.
TEST(ConfccCli, ArgsRejectsMoreThanFourValues) {
  ExpectRejectedWithUsage(
      "--args=1,2,3,4,5",
      "confcc: bad --args '1,2,3,4,5' (expected at most 4 values)");
}

TEST(ConfccCli, InjectSeedRejectsNegativeValue) {
  ExpectRejectedWithUsage("--inject-faults=seed=-1,disk.*=p0.05",
                          "confcc: bad --inject-faults spec: bad seed '-1'");
}

TEST(ConfccCli, UnknownEngineExitsWithUsage) {
  ExpectRejectedWithUsage(
      "--engine=turbo",
      "unknown engine 'turbo' (expected ref, fast or trace)");
}

TEST(ConfccCli, UnknownPresetExitsWithUsage) {
  ExpectRejectedWithUsage("--preset=OurMagic", "unknown preset 'OurMagic'");
}

// confccd's numeric flags follow the same rule: strtoul read "abc" as 0
// workers (hardware concurrency), "-1" as an unbounded cache and "5s" as a
// 5 ms deadline, and the daemon then served with them.
void ExpectConfccdRejectsWithUsage(const std::string& flag,
                                   const std::string& diagnostic) {
  TempDir dir;
  const auto r = RunConfccd("--socket=" + dir.File("d.sock") + " " + flag);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_EQ(r.output.substr(0, r.output.find('\n')), diagnostic) << r.output;
  EXPECT_NE(r.output.find("\nusage: confccd"), std::string::npos) << r.output;
}

TEST(ConfccdCli, WorkersRejectsNonNumericValue) {
  ExpectConfccdRejectsWithUsage(
      "--workers=abc",
      "confccd: bad --workers 'abc' (expected an unsigned integer)");
}

TEST(ConfccdCli, CacheBytesRejectsNegativeValue) {
  ExpectConfccdRejectsWithUsage(
      "--cache-bytes=-1",
      "confccd: bad --cache-bytes '-1' (expected an unsigned integer)");
}

TEST(ConfccdCli, DeadlineMsRejectsTrailingUnit) {
  ExpectConfccdRejectsWithUsage(
      "--deadline-ms=5s",
      "confccd: bad --deadline-ms '5s' (expected an unsigned integer)");
}

// --build-jobs is an `unsigned`: 2^32 used to truncate to 0 (hardware
// concurrency) instead of being refused.
TEST(ConfccdCli, BuildJobsRejectsValueAboveUintMax) {
  ExpectConfccdRejectsWithUsage(
      "--build-jobs=4294967296",
      "confccd: bad --build-jobs '4294967296' (expected an unsigned integer)");
}

TEST(ConfccCli, VmDeadlineFlagReportsDeadlineFault) {
  TempDir dir;
  const std::string src = dir.File("spin.mc");
  WriteFile(src,
            "int main() { int s = 0; for (int i = 0; i < 2000000000; "
            "i = i + 1) { s = s + i; } return s; }\n");
  const auto r = RunConfcc("--deadline-ms=25 " + src);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("faulted: deadline"), std::string::npos)
      << r.output;
}

// The CLI face of the chaos gate: a faulted cold→warm --preset=all sweep
// exits 0, emits byte-identical binaries to the fault-free sweep, and
// writes an injector hit-count report.
TEST(ConfccCli, InjectedDiskChaosKeepsSweepOutputsIdenticalAndWritesReport) {
  TempDir dir;
  const std::string src = dir.File("p.mc");
  WriteFile(src, kSource);

  // Fault-free reference sweep.
  const std::string ref_dir = dir.File("ref");
  fs::create_directories(ref_dir);
  auto r = RunConfcc("--preset=all --emit-bin=" + ref_dir + "/out " + src);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const auto ref = DirContents(ref_dir);
  ASSERT_FALSE(ref.empty());

  // Chaos sweeps, cold then warm, through one cache dir.
  const std::string cache_dir = dir.File("cache");
  const std::string report = dir.File("report.json");
  for (const char* round : {"cold", "warm"}) {
    SCOPED_TRACE(round);
    const std::string out_dir = dir.File(std::string("chaos_") + round);
    fs::create_directories(out_dir);
    r = RunConfcc("--inject-faults=seed=11,disk.*=p0.3 --inject-report=" +
                  report + " --cache-dir=" + cache_dir +
                  " --preset=all --emit-bin=" + out_dir + "/out " + src);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(DirContents(out_dir), ref);
  }

  // The report landed and names the disk sites.
  const std::string json = ReadFile(report);
  EXPECT_NE(json.find("\"seed\":11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sites\""), std::string::npos) << json;
  EXPECT_NE(json.find("disk."), std::string::npos) << json;
}

// --connect hands the cache tiers to the daemon, and its execute response
// carries none of the local-only outputs (trace and graph stats, stage
// table, disassembly, VM counters). Naming a client-local cache location or
// one of those outputs alongside it is a contradiction confcc must refuse
// in one line, before doing any work, rather than silently drop.
TEST(ConfccCli, ConnectConflictsWithLocalCacheFlags) {
  TempDir dir;
  const std::string src = dir.File("p.mc");
  WriteFile(src, kSource);

  for (const std::string flag :
       {"--cache-dir=" + dir.File("cache"), std::string("--cache-bytes=4096"),
        std::string("--incremental"),
        "--trace-stats-json=" + dir.File("ts.json"),
        "--graph-stats-json=" + dir.File("gs.json"),
        std::string("--time-passes"), std::string("--disasm"),
        std::string("--stats")}) {
    SCOPED_TRACE(flag);
    const auto r =
        RunConfcc("--connect=" + dir.File("no.sock") + " " + flag + " " + src);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("conflicts with --connect"), std::string::npos)
        << r.output;
    // One line, and it names the flag to drop.
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
        << r.output;
  }
}

// A failed module's errors reach the output once, through the linked
// build's own diagnostics (which name the module), not a second time from
// the module's invocation.
TEST(ConfccCli, LinkPrintsAFailedModulesErrorOnce) {
  TempDir dir;
  const std::string leaf = dir.File("leaf.mc");
  const std::string app = dir.File("app.mc");
  WriteFile(leaf, "int square(int x) { return x * undefined_name; }\n");
  WriteFile(app, "import \"leaf\";\nint main() { return square(6); }\n");
  const auto r = RunConfcc("--link " + leaf + " " + app);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string needle = "undeclared identifier 'undefined_name'";
  const size_t first = r.output.find(needle);
  ASSERT_NE(first, std::string::npos) << r.output;
  EXPECT_EQ(r.output.find(needle, first + 1), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("module 'leaf' failed to compile"), std::string::npos)
      << r.output;
}

// Without --engine, confcc runs the guest on the trace tier.
TEST(ConfccCli, DefaultEngineIsTrace) {
  TempDir dir;
  const std::string src = dir.File("p.mc");
  WriteFile(src, kSource);
  const auto r = RunConfcc("--time-passes " + src);
  EXPECT_EQ(r.exit_code, 55) << r.output;
  EXPECT_NE(r.output.find("\nvm engine: trace\n"), std::string::npos)
      << r.output;
}

// A preset whose guest faults gets a FAIL row in the local sweep tables, as
// it does through --connect: a source without `main` faults under all eight.
TEST(ConfccCli, LocalSweepsPrintAFailRowForEveryFaultingPreset) {
  TempDir dir;
  const std::string src = dir.File("helper.mc");
  WriteFile(src, "int helper() { return 3; }\n");
  const std::multiset<std::string> kPresets = {
      "Base",   "BaseOA", "Our1Mem",    "OurBare",
      "OurCFI", "OurMPX", "OurMPX-Sep", "OurSeg"};
  for (const std::string mode : {"", "--link "}) {
    SCOPED_TRACE(mode);
    const auto r = RunConfcc(mode + "--preset=all " + src);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    std::multiset<std::string> failed;
    std::istringstream lines(r.output);
    for (std::string line; std::getline(lines, line);) {
      std::istringstream row(line);
      std::string preset;
      std::string status;
      std::string rest;
      if (row >> preset >> status && status == "FAIL" && !(row >> rest)) {
        failed.insert(preset);
      }
    }
    EXPECT_EQ(failed, kPresets) << r.output;
  }
}

// No daemon at the socket: a one-line diagnostic and exit 1, not a hang or
// a silent local fallback (falling back would silently compile cold).
TEST(ConfccCli, ConnectToMissingDaemonFailsWithOneLine) {
  TempDir dir;
  const std::string src = dir.File("p.mc");
  WriteFile(src, kSource);

  const auto r = RunConfcc("--connect=" + dir.File("no.sock") + " " + src);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("cannot connect to daemon"), std::string::npos)
      << r.output;
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1) << r.output;
}

// Without --workers the daemon runs one worker per hardware thread, and its
// startup line reports that count rather than the 0 it was given.
TEST(ConfccdCli, StartupLineReportsTheWorkersItStarts) {
  TempDir dir;
  const std::string log = dir.File("confccd.log");
  const auto r = RunShell(
      std::string("timeout 20 ") + CONFCCD_PATH + " --socket=" +
      dir.File("d.sock") + " >" + log + " 2>&1 & pid=$!; "
      "for i in $(seq 1 200); do grep -q 'serving on' " + log +
      " && break; sleep 0.05; done; kill -TERM $pid; wait $pid; "
      "echo daemon=$?");
  const std::string out = ReadFile(log);
  EXPECT_NE(r.output.find("daemon=0\n"), std::string::npos) << r.output << out;
  const unsigned want = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_NE(out.find("(workers=" + std::to_string(want) + ","),
            std::string::npos)
      << out;
}

// SIGTERM drains the daemon: after serving one `confcc --connect` run it
// exits 0 and writes both stats sinks as parseable JSON whose counters
// account for that run.
TEST(ConfccdCli, SigtermDrainsAndWritesStatsSinks) {
  TempDir dir;
  const std::string src = dir.File("sum.mc");
  WriteFile(src, kSource);
  const std::string sock = dir.File("d.sock");
  const std::string log = dir.File("confccd.log");
  const std::string cache_json = dir.File("cache.json");
  const std::string sched_json = dir.File("sched.json");
  // The daemon announces itself once it listens; wait for that line, not
  // for the socket file (bind creates it before listen).
  const auto r = RunShell(
      std::string("timeout 20 ") + CONFCCD_PATH + " --socket=" + sock +
      " --cache-stats-json=" + cache_json + " --sched-stats-json=" +
      sched_json + " >" + log + " 2>&1 & pid=$!; "
      "for i in $(seq 1 200); do grep -q 'serving on' " + log +
      " && break; sleep 0.05; done; " + CONFCC_PATH + " --connect=" + sock +
      " " + src + " >/dev/null 2>&1; echo connect=$?; "
      "kill -TERM $pid; wait $pid; echo daemon=$?");
  EXPECT_NE(r.output.find("connect=55\n"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("daemon=0\n"), std::string::npos)
      << r.output << ReadFile(log);

  Json cache;
  Json sched;
  std::string err;
  ASSERT_TRUE(Json::Parse(ReadFile(cache_json), &cache, &err))
      << err << "\n" << ReadFile(log);
  ASSERT_TRUE(Json::Parse(ReadFile(sched_json), &sched, &err))
      << err << "\n" << ReadFile(log);
  EXPECT_EQ(sched.GetUInt("accepted"), 1u) << sched.Dump();
  EXPECT_EQ(sched.GetUInt("completed"), 1u) << sched.Dump();
  EXPECT_GT(cache.GetUInt("hits") + cache.GetUInt("misses"), 0u) << cache.Dump();
}

}  // namespace
