#include "perfbench/src/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct && failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + Num(vu.first) +
           ", \"unit\": \"" + JsonEscape(vu.second) + "\"}";
  }
  out += "}}";
  return out;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0;
  }
  double s = 0;
  for (const double x : v) {
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

namespace {

// One table per probe thread, allocated and touched once so no probe pays
// for page faults.
std::vector<uint64_t>& ProbeTable(size_t i) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::vector<uint64_t>>> tables;
  std::lock_guard<std::mutex> lock(mu);
  while (tables.size() <= i) {
    tables.push_back(std::make_unique<std::vector<uint64_t>>(1 << 16, 1));
  }
  return *tables[i];
}

double ProbeLoopMs(std::vector<uint64_t>& table) {
  const auto t0 = Clock::now();
  uint64_t h = 1469598103934665603ull;
  for (int round = 0; round < 150; ++round) {
    for (size_t i = 0; i < table.size(); ++i) {
      h = (h ^ table[(i * 7919) & (table.size() - 1)]) * 1099511628211ull;
      table[i] = h;
    }
  }
  const double ms = MsSince(t0);
  // Keep the loop observable so it is not folded away.
  if (h == 0) {
    Report("probe");
  }
  return ms;
}

}  // namespace

double HostProbeMs(unsigned threads) {
  std::vector<double> ms(std::max(1u, threads), 0);
  std::vector<std::vector<uint64_t>*> tables;
  for (size_t i = 0; i < ms.size(); ++i) {
    tables.push_back(&ProbeTable(i));
  }
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < ms.size(); ++i) {
    helpers.emplace_back([&ms, &tables, i] { ms[i] = ProbeLoopMs(*tables[i]); });
  }
  ms[0] = ProbeLoopMs(*tables[0]);
  for (std::thread& t : helpers) {
    t.join();
  }
  double sum = 0;
  for (const double m : ms) {
    sum += m;
  }
  return sum / static_cast<double>(ms.size());
}

double RunProbeMs() {
  constexpr size_t kOps = 4096;
  constexpr size_t kMemWords = size_t{1} << 18;  // 2 MiB
  static const std::vector<uint8_t> ops = [] {
    Rng rng(7);
    std::vector<uint8_t> v(kOps);
    for (uint8_t& op : v) {
      op = static_cast<uint8_t>(rng.Below(8));
    }
    return v;
  }();
  static std::vector<uint64_t> mem(kMemWords, 3);
  uint64_t reg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t pc = 0; pc < kOps; ++pc) {
      uint64_t& a = reg[pc & 7];
      const uint64_t b = reg[(pc * 5 + 3) & 7];
      switch (ops[pc]) {
        case 0: a += b; break;
        case 1: a ^= b >> 3; break;
        case 2: a *= b | 1; break;
        case 3: a = mem[b & (kMemWords - 1)]; break;
        case 4: mem[a & (kMemWords - 1)] = b; break;
        case 5: pc += a & 1; break;
        case 6: a = (a << 7) | (a >> 57); break;
        default: a -= b + 1; break;
      }
    }
  }
  const double ms = MsSince(t0);
  // Keep the loop observable so it is not folded away.
  if ((reg[0] ^ reg[5]) == 42) {
    Report("probe");
  }
  return ms;
}

Windowed::Windowed(Clock::time_point start, double seconds, double window_s)
    : start_(start),
      window_s_(window_s),
      windows_(std::max<size_t>(1, static_cast<size_t>(seconds / window_s))),
      probes_(windows_.size()) {}

size_t Windowed::WindowOf(Clock::time_point t) const {
  const double s = std::chrono::duration<double>(t - start_).count();
  return s < 0 ? windows_.size() : static_cast<size_t>(s / window_s_);
}

void Windowed::Add(Clock::time_point done, double value) { AddTo(WindowOf(done), value); }

void Windowed::AddProbe(Clock::time_point done, double probe_ms) {
  AddProbeTo(std::min(WindowOf(done), probes_.size() - 1), probe_ms);
}

void Windowed::AddTo(size_t window, double value) {
  if (window < windows_.size()) {
    windows_[window].push_back(value);
  }
}

void Windowed::AddProbeTo(size_t window, double probe_ms) {
  if (window < probes_.size()) {
    probes_[window].push_back(probe_ms);
  }
}

double Windowed::ProbeMs() const {
  std::vector<double> all;
  for (const std::vector<double>& p : probes_) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return Median(all);
}

double Windowed::Scale(size_t w) const {
  const double probe = probes_[w].empty() ? ProbeMs() : Median(probes_[w]);
  return probe > 0 ? kProbeRefMs / probe : 1;
}

double Windowed::Percentile(double p) const {
  std::vector<double> per_window;
  for (size_t w = 0; w < windows_.size(); ++w) {
    if (!windows_[w].empty()) {
      per_window.push_back(perfbench::Percentile(windows_[w], p) * Scale(w));
    }
  }
  return Median(per_window);
}

double Windowed::Rate() const {
  std::vector<double> per_window;
  for (size_t w = 0; w < windows_.size(); ++w) {
    per_window.push_back(static_cast<double>(windows_[w].size()) / window_s_ / Scale(w));
  }
  return Median(per_window);
}

double Windowed::InverseMean() const {
  std::vector<double> per_window;
  for (size_t w = 0; w < windows_.size(); ++w) {
    double sum = 0;
    for (const double v : windows_[w]) {
      sum += v;
    }
    if (sum > 0) {
      per_window.push_back(static_cast<double>(windows_[w].size()) / sum / Scale(w));
    }
  }
  return Median(per_window);
}

size_t Windowed::size() const {
  size_t n = 0;
  for (const std::vector<double>& w : windows_) {
    n += w.size();
  }
  return n;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

int SpanLog::Begin(const std::string& name, uint64_t request) {
  Span s;
  s.name = name;
  s.start_ms = MsSince(epoch_);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int idx) {
  spans_[idx].end_ms = MsSince(epoch_);
  if (!open_.empty() && open_.back() == idx) {
    open_.pop_back();
  }
}

std::map<std::string, SpanLog::Totals> SpanLog::Summarize() const {
  std::vector<double> child_ms(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[s.parent] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_ms - spans_[i].start_ms;
    Totals& t = out[spans_[i].name];
    t.self_ms += d - child_ms[i];
    ++t.calls;
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << JsonEscape(s.name)
        << "\", \"start_ms\": " << Num(s.start_ms) << ", \"end_ms\": " << Num(s.end_ms)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}"
        << (i + 1 == spans_.size() ? "\n" : ",\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void Report(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  vprintf(fmt, ap);
  va_end(ap);
  putchar('\n');
  fflush(stdout);
}

}  // namespace perfbench
