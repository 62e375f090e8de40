// Shared types for the perfbench harness: options, the result document,
// span recording, and small statistics helpers.
//
// The harness prints human-readable report lines on stdout and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// (--trace 0) report the end-to-end metrics; traced runs (--trace 1) report
// the per-layer metrics (see perfbench/METRICS.md).
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch directory owned by this run
  std::string confccd;  // path of the daemon binary (serve workload)
  std::string spans_path;  // traced runs write their span log here
  unsigned workers = 1;  // nproc
};

// The result document. `metrics` holds name -> (value, unit).
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;  // false on any output mismatch (also counted in failed)
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Counts one operation; a false `ok` is a failure.
  void Count(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  std::string ToJson() const;
};

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

// Nearest-rank percentile over a copy of `v` (p in [0, 1]); 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }
double GeoMean(const std::vector<double>& v);

// Host-speed calibration. The benchmark runs on shared VMs whose speed
// drifts: on the 4-vCPU VM it was tuned on, one exec pass took 0.87 s in one
// hour and 1.32 s in the next, with slow spells of ten seconds and more in
// between. The probe is a fixed loop (a multiply-xor hash over a 512 KiB
// table) that takes about kProbeRefMs on that VM when it is quiet. Measured
// times are reported scaled by kProbeRefMs / (probe time measured next to
// them, with the system under test idle): milliseconds at the reference
// host speed. Rates scale the other way. Report lines also print raw times.
// With `threads` > 1 the loop runs on that many threads at once (matching a
// workload that keeps every core busy) and the mean time is returned.
inline constexpr double kProbeRefMs = 10.0;
double HostProbeMs(unsigned threads);

// A short probe interleaved with the work itself, for workloads whose speed
// changes faster than a probe per pass can follow. The exec workload's pass
// time swung 20% between neighbouring seconds while the hash probe stayed
// flat; the VM is an interpreter, so this probe is one too: switch dispatch
// over a fixed op stream with loads and stores into a 2 MiB table, about
// kRunProbeRefMs on the 4-vCPU VM it was tuned on (0.8-1.1 ms as that VM's
// speed drifted). Timed right before every run of a pass and once after the
// last, it tracks the host closely enough that a pass's time over its
// probes' median spread 2-4% across 30-second stretches where raw pass times
// spread 14-20%.
inline constexpr double kRunProbeRefMs = 1.0;
double RunProbeMs();

// Samples stamped with the time they completed, plus host probes. The
// measured period is cut into windows of `window_s`; a statistic is
// computed per window (e.g. the median latency of the ops completing in it)
// and scaled by that window's probe (the median of the probes taken in it,
// else of all probes); the median over windows is reported. Samples
// completing after the period are dropped.
class Windowed {
 public:
  Windowed(Clock::time_point start, double seconds, double window_s);
  void Add(Clock::time_point done, double value);
  void AddProbe(Clock::time_point done, double probe_ms);
  // The same, for callers that run one window at a time.
  void AddTo(size_t window, double value);
  void AddProbeTo(size_t window, double probe_ms);
  // Median over windows of each window's percentile `p`, in reference ms.
  double Percentile(double p) const;
  // Median over windows of samples completed per second of reference time.
  double Rate() const;
  // Median over windows of count / sum of the window's values (the rate of
  // back-to-back operations whose values are their durations).
  double InverseMean() const;
  size_t size() const;
  // Median probe over the whole period (raw ms).
  double ProbeMs() const;

 private:
  // kProbeRefMs / probe for window `w`.
  double Scale(size_t w) const;
  size_t WindowOf(Clock::time_point t) const;

  Clock::time_point start_;
  double window_s_;
  std::vector<std::vector<double>> windows_;
  std::vector<std::vector<double>> probes_;
};

// VmHWM of `pid` (0 = this process) in MiB, from /proc/<pid>/status.
double PeakRssMb(pid_t pid = 0);

// Deterministic generator for seeded inputs (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t s_;
};

// In-memory span log. Each span names a layer call, its interval, the span
// that caused it, and the request (program) it belongs to; the log is
// written out once, after the run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;  // relative to the log's epoch
    double end_ms = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  // Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name, uint64_t request);
  void End(int idx);
  const std::vector<Span>& spans() const { return spans_; }

  // Per-name totals of self time (duration minus the time covered by
  // children) and call counts.
  struct Totals {
    double self_ms = 0;
    uint64_t calls = 0;
  };
  std::map<std::string, Totals> Summarize() const;
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log makes it a no-op (the untraced twin of a walk).
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, uint64_t request)
      : log_(log), idx_(log != nullptr ? log->Begin(name, request) : -1) {}
  ~Scope() {
    if (log_ != nullptr) {
      log_->End(idx_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

// Human-readable report line on stdout (never the last line).
void Report(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

int RunCompile(const Options& opts, Result* result);
int RunExec(const Options& opts, Result* result);
int RunServe(const Options& opts, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
