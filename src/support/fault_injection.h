// Deterministic, seed-driven fault injection (ROADMAP "resilience
// hardening"): a process-global registry of named injection sites that the
// stateful tiers (disk cache, pipeline, scheduler) consult at their failure
// points. Tests and CI chaos sweeps arm sites with per-site probability or
// nth-hit triggers; production runs leave the injector disabled, where a
// site check is one relaxed atomic load.
//
// Spec syntax (comma-separated clauses, `confcc --inject-faults=SPEC` or the
// CONFCC_INJECT_FAULTS environment variable):
//
//   seed=N                 PRNG seed for probability triggers (default 1)
//   <site>=pFLOAT          fire with probability FLOAT in [0,1] per hit
//   <site>=nCOUNT          fire exactly on the COUNTth hit (1-based)
//   <prefix>*=p.../n...    glob: arms every site matching the prefix
//
// e.g. --inject-faults=seed=42,disk.*=p0.05,pipeline.codegen=n1
//
// Determinism: each site draws from its own PRNG stream seeded by
// seed ^ hash(site), so a site's fire pattern is a pure function of (seed,
// its own hit ordinal) — independent of how other sites' hits interleave
// across threads. Reruns with the same seed and the same per-site hit counts
// reproduce the same faults exactly.
//
// Current site names (grep for InjectFault to confirm):
//   disk.read.open    entry-file open for a cache load
//   disk.read.data    entry-file read
//   disk.write.open   temp-file open for a cache store
//   disk.write.data   temp-file write/flush (an injected ENOSPC)
//   disk.write.rename temp->entry atomic publish
//   pipeline.<stage>  stage entry (fires as a stage-internal exception)
//   pipeline.stall.<stage>  stage entry; fires as a 20 ms stall (deadline
//                           testing), not a failure
#ifndef CONFLLVM_SRC_SUPPORT_FAULT_INJECTION_H_
#define CONFLLVM_SRC_SUPPORT_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace confllvm {

class FaultInjector {
 public:
  // The process-wide injector every injection site consults.
  static FaultInjector& Instance();

  // Parses and installs `spec` (see file comment), replacing any previous
  // configuration and zeroing all counters. False (with *error describing
  // the bad clause; configuration unchanged) on a malformed spec. An empty
  // spec disables injection.
  bool Configure(const std::string& spec, std::string* error);

  // Configure(getenv("CONFCC_INJECT_FAULTS")); no-op when unset/empty.
  // Returns false only on a malformed value.
  bool ConfigureFromEnv(std::string* error);

  // Disables every site and zeroes all counters.
  void Reset();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // The per-site check: records a hit and returns true when the armed
  // trigger fires. Always false (and unrecorded) while disabled — disabled
  // overhead is the one atomic load in the caller's `enabled()` guard.
  // Thread-safe.
  bool ShouldFail(const std::string& site);

  struct SiteCount {
    std::string site;
    uint64_t hits = 0;
    uint64_t fired = 0;
  };
  // Every site that recorded at least one hit since the last
  // Configure/Reset, name-sorted.
  std::vector<SiteCount> Report() const;
  // {"seed":N,"sites":[{"site":...,"hits":...,"fired":...},...]}
  Json ReportJson() const;

 private:
  struct Rule {
    std::string pattern;      // site name, or prefix when glob is set
    bool glob = false;        // pattern was written with a trailing '*'
    bool nth_mode = false;    // fire on the nth hit instead of by chance
    double probability = 0;
    uint64_t nth = 0;
  };
  struct SiteState {
    std::string site;
    const Rule* rule = nullptr;  // first matching rule; null = never fires
    uint64_t hits = 0;
    uint64_t fired = 0;
    uint64_t rng[4] = {};  // xoshiro256** state (seeded per site)
  };

  SiteState& StateFor(const std::string& site);  // requires mu_ held

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  uint64_t seed_ = 1;
  std::vector<Rule> rules_;
  std::vector<SiteState> sites_;  // few sites; linear scan is fine
};

// Convenience guard for injection sites: false (without touching the
// injector) when injection is globally disabled.
inline bool InjectFault(const std::string& site) {
  FaultInjector& fi = FaultInjector::Instance();
  return fi.enabled() && fi.ShouldFail(site);
}

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SUPPORT_FAULT_INJECTION_H_
