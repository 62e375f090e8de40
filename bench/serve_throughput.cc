// confccd load generator (the CI serve-gate's measurement half).
//
//   bench_serve_throughput --socket=PATH [--clients=N] [--variants=N]
//                          [--json=F] [--max-attempts=N]
//
// Drives a *running* confccd with N concurrent clients over a deterministic
// mixed workload: every serve kernel (bench/workloads_serve.cc) times
// `variants` edit-derived sources (the kernel's 990001 EDIT SLOT rewritten),
// sent as execute requests — an edit-recompile-run cycle per request. Each
// source slot is owned by TWO clients (slot%N and (slot+1)%N): tenants
// mostly compile their own code but every slot is still exercised by two
// distinct clients, so cross-client divergence is observable without the
// workload degenerating into N copies of one compile (which single-flight
// would collapse, measuring the dedup path instead of the cache). Two
// passes over the same per-client request lists:
//
//   cold — the daemon has never seen these sources; every distinct source
//          costs a full compile (concurrent duplicates share one compute
//          via single-flight).
//   warm — the identical lists again; an unchanged source is answered from
//          the daemon's memory tier without running a stage.
//
// Emits BENCH_serve.json: per-phase sustained req/s and p50/p99 latency,
// plus warm_over_cold_rps (the gate asserts >= 2) and `divergence` — the
// number of source slots where any owning client, in any phase, saw a
// result signature (ran_ok/ret/cycles/instrs/stdout) different from the
// first owner's cold run. Execution is deterministic, so divergence != 0
// means the daemon returned tenant-dependent results; exit is nonzero.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "src/service/client.h"
#include "src/service/protocol.h"

using namespace confllvm;

namespace {

struct PhaseResult {
  std::string name;
  double wall_ms = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t retries = 0;
  std::vector<double> latencies_ms;           // all clients pooled
  std::vector<std::vector<std::string>> sig;  // [client][request]
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// The request list: kernels x edit variants, in a fixed order every client
// shares. Variant 0 is the pristine kernel; variant v rewrites the EDIT
// SLOT literal to 990001+v (same width, still a benign modulus), which
// re-keys the whole stage chain exactly like a source edit.
std::vector<std::string> BuildSources(int variants) {
  std::vector<std::string> srcs;
  for (int k = 0; k < workloads::kNumServeKernels; ++k) {
    const std::string base = workloads::kServeKernels[k].source;
    for (int v = 0; v < variants; ++v) {
      std::string s = base;
      if (v != 0) {
        const size_t pos = s.find("990001");
        if (pos == std::string::npos) {
          fprintf(stderr, "serve_throughput: kernel %s lacks the edit slot\n",
                  workloads::kServeKernels[k].name);
          exit(2);
        }
        s.replace(pos, 6, std::to_string(990001 + v));
      }
      srcs.push_back(std::move(s));
    }
  }
  return srcs;
}

std::string Signature(const Json& resp) {
  return "ok=" + std::string(resp.GetBool("ran_ok") ? "1" : "0") +
         " ret=" + std::to_string(resp.GetUInt("ret")) +
         " cycles=" + std::to_string(resp.GetUInt("cycles")) +
         " instrs=" + std::to_string(resp.GetUInt("instrs")) +
         " out=" + resp.GetString("guest_stdout");
}

PhaseResult RunPhase(const std::string& name, const std::string& socket_path,
                     int clients, const std::vector<std::string>& sources,
                     const std::vector<std::vector<size_t>>& slots_of,
                     int max_attempts) {
  PhaseResult phase;
  phase.name = name;
  phase.sig.assign(clients, std::vector<std::string>(sources.size()));
  std::vector<std::vector<double>> lat(clients);
  std::vector<uint64_t> errors(clients, 0);
  std::vector<uint64_t> retries(clients, 0);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<size_t>& mine = slots_of[c];
      ConfccdClient cli;
      std::string err;
      if (!cli.Connect(socket_path, &err)) {
        fprintf(stderr, "client %d: %s\n", c, err.c_str());
        errors[c] = mine.size();
        return;
      }
      // Each client starts at its own offset so the tenants are genuinely
      // interleaved rather than marching through their lists in lockstep.
      for (size_t i = 0; i < mine.size(); ++i) {
        const size_t slot = mine[(i + static_cast<size_t>(c)) % mine.size()];
        Json req = Json::Object();
        req.Set("verb", Json::Str("execute"));
        req.Set("client", Json::Str("bench-" + std::to_string(c)));
        req.Set("source", Json::Str(sources[slot]));
        req.Set("verify", Json::Bool(true));
        Json resp;
        int req_retries = 0;
        const auto r0 = std::chrono::steady_clock::now();
        const bool ok =
            cli.CallWithRetry(req, &resp, &err, max_attempts, &req_retries);
        const auto r1 = std::chrono::steady_clock::now();
        retries[c] += static_cast<uint64_t>(req_retries);
        lat[c].push_back(
            std::chrono::duration<double, std::milli>(r1 - r0).count());
        if (!ok || resp.GetString("status") != "ok") {
          fprintf(stderr, "client %d slot %zu: %s\n%s", c, slot,
                  ok ? resp.GetString("error").c_str() : err.c_str(),
                  resp.GetString("diagnostics").c_str());
          ++errors[c];
          phase.sig[c][slot] = "ERROR";
          continue;
        }
        phase.sig[c][slot] = Signature(resp);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  phase.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  for (int c = 0; c < clients; ++c) {
    phase.requests += lat[c].size();
    phase.errors += errors[c];
    phase.retries += retries[c];
    phase.latencies_ms.insert(phase.latencies_ms.end(), lat[c].begin(),
                              lat[c].end());
  }
  return phase;
}

int Usage() {
  fprintf(stderr,
          "usage: bench_serve_throughput --socket=PATH [--clients=N]\n"
          "                              [--variants=N] [--json=F]\n"
          "                              [--max-attempts=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string json_path = "BENCH_serve.json";
  int clients = 8;
  int variants = 8;
  int max_attempts = 25;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--socket=", 0) == 0) {
      socket_path = a.substr(9);
    } else if (a.rfind("--clients=", 0) == 0) {
      clients = atoi(a.substr(10).c_str());
    } else if (a.rfind("--variants=", 0) == 0) {
      variants = atoi(a.substr(11).c_str());
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a.rfind("--max-attempts=", 0) == 0) {
      max_attempts = atoi(a.substr(15).c_str());
    } else {
      return Usage();
    }
  }
  if (socket_path.empty() || clients < 1 || variants < 1) {
    return Usage();
  }

  const std::vector<std::string> sources = BuildSources(variants);
  // Slot ownership: slot s belongs to clients s%N and (s+1)%N (deduped for
  // the degenerate 1-client case).
  std::vector<std::vector<size_t>> slots_of(clients);
  std::vector<std::vector<int>> owners_of(sources.size());
  for (size_t s = 0; s < sources.size(); ++s) {
    const int c0 = static_cast<int>(s % clients);
    const int c1 = static_cast<int>((s + 1) % clients);
    slots_of[c0].push_back(s);
    owners_of[s].push_back(c0);
    if (c1 != c0) {
      slots_of[c1].push_back(s);
      owners_of[s].push_back(c1);
    }
  }
  size_t per_phase = 0;
  for (const auto& v : slots_of) {
    per_phase += v.size();
  }
  printf("serve_throughput: %d clients, %zu distinct sources (%d kernels x "
         "%d variants), %zu requests/phase against %s\n",
         clients, sources.size(), workloads::kNumServeKernels, variants,
         per_phase, socket_path.c_str());

  std::vector<PhaseResult> phases;
  phases.push_back(
      RunPhase("cold", socket_path, clients, sources, slots_of, max_attempts));
  phases.push_back(
      RunPhase("warm", socket_path, clients, sources, slots_of, max_attempts));

  // Divergence: the first owner's cold signature is each slot's reference;
  // every owning client in every phase must match it.
  uint64_t divergence = 0;
  for (size_t slot = 0; slot < sources.size(); ++slot) {
    const std::string& ref = phases[0].sig[owners_of[slot][0]][slot];
    bool diverged = false;
    for (const PhaseResult& ph : phases) {
      for (const int c : owners_of[slot]) {
        if (ph.sig[c][slot] != ref) {
          fprintf(stderr,
                  "DIVERGENCE slot %zu: %s client %d\n  got  %s\n  want %s\n",
                  slot, ph.name.c_str(), c, ph.sig[c][slot].c_str(),
                  ref.c_str());
          diverged = true;
        }
      }
    }
    if (diverged) {
      ++divergence;
    }
  }

  Json phases_json = Json::Array();
  std::vector<double> rps(phases.size(), 0);
  for (size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& ph = phases[p];
    rps[p] = ph.wall_ms > 0 ? 1000.0 * ph.requests / ph.wall_ms : 0;
    const double p50 = Percentile(ph.latencies_ms, 0.50);
    const double p99 = Percentile(ph.latencies_ms, 0.99);
    Json row = Json::Object();
    row.Set("name", Json::Str(ph.name));
    row.Set("requests", Json::UInt(ph.requests));
    row.Set("wall_ms", Json::Double(ph.wall_ms));
    row.Set("rps", Json::Double(rps[p]));
    row.Set("p50_ms", Json::Double(p50));
    row.Set("p99_ms", Json::Double(p99));
    row.Set("errors", Json::UInt(ph.errors));
    row.Set("retries", Json::UInt(ph.retries));
    phases_json.Append(std::move(row));
    printf("%-5s %6llu req  %9.1f ms  %8.2f req/s  p50 %7.2f ms  p99 %7.2f "
           "ms  errors %llu  retries %llu\n",
           ph.name.c_str(), static_cast<unsigned long long>(ph.requests),
           ph.wall_ms, rps[p], p50, p99,
           static_cast<unsigned long long>(ph.errors),
           static_cast<unsigned long long>(ph.retries));
  }
  const double warm_over_cold = rps[0] > 0 ? rps[1] / rps[0] : 0;
  Json doc = Json::Object();
  doc.Set("bench", Json::Str("serve_throughput"));
  doc.Set("clients", Json::UInt(clients));
  doc.Set("distinct_sources", Json::UInt(sources.size()));
  doc.Set("phases", std::move(phases_json));
  doc.Set("warm_over_cold_rps", Json::Double(warm_over_cold));
  doc.Set("divergence", Json::UInt(divergence));

  std::ofstream out(json_path, std::ios::trunc);
  if (!out) {
    fprintf(stderr, "serve_throughput: cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << doc.Dump() << '\n';
  printf("warm/cold rps ratio: %.2f  divergence: %llu  -> %s\n",
         warm_over_cold, static_cast<unsigned long long>(divergence),
         json_path.c_str());

  uint64_t total_errors = 0;
  for (const PhaseResult& ph : phases) {
    total_errors += ph.errors;
  }
  return (divergence != 0 || total_errors != 0) ? 1 : 0;
}
