// The benchmark's programs: every MiniC program the repo carries (SPEC
// kernels, the four apps, the serve kernels, the ct kernels), the drivers
// that run them, and a 3-module split of the LDAP app that reaches the build
// graph and the linker.
#ifndef PERFBENCH_SRC_CORPUS_H_
#define PERFBENCH_SRC_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/build_graph.h"
#include "src/driver/confcc.h"
#include "src/driver/pipeline.h"

namespace perfbench {

using confllvm::BuildConfig;
using confllvm::BuildPreset;

// How a program is driven once it has a session.
enum class Drive : uint8_t {
  kMain,      // main()
  kNginx,     // 192 queued GET requests through server_run
  kLdapHit,   // 6000 entries, 6000 hit queries
  kLdapMiss,  // 6000 entries, 600 miss queries (referral-scan path)
  kPrivado,   // 8 staged images, one classification each
  kMerkle,    // 512-block tree, verify-read on 4 threads via RunParallel
  kCtKernel,  // kernel(secret, public)
};

struct Program {
  std::string name;
  std::string source;
  Drive drive = Drive::kMain;
  bool ct = false;  // compiled only under the ct presets
};

// Sources of the compile corpus, in a fixed order: 11 SPEC kernels, nginx,
// ldap, privado, merkle, the 4 serve kernels, then the 4 ct kernels.
std::vector<Program> CompileCorpus();

// Rows of the exec workload: the 11 SPEC mains, nginx, ldap hits, ldap
// misses, privado, merkle.
std::vector<Program> ExecRows();

// The serve kernels (each embeds the 990001 edit slot once).
std::vector<Program> ServeKernels();

// Rewrites a serve kernel's edit slot literal to `literal`.
std::string WithEditSlot(const std::string& source, uint64_t literal);

// Builds the 3-module split of the LDAP app (wire codec, directory store,
// driver) through BuildGraph + BuildScheduler.
confllvm::LinkedBuild BuildSplit(const BuildConfig& config, bool verify,
                                 confllvm::ArtifactCache* cache, unsigned workers);

// What a run of a program produced: the combined result of its measured
// calls. Runs are deterministic, so equal inputs give equal signatures.
struct Signature {
  bool ok = false;
  uint64_t ret = 0;
  uint64_t cycles = 0;
  uint64_t instrs = 0;
  uint64_t sent_hash = 0;  // FNV of everything sent on fd 1 (ldap checksum)
  bool operator==(const Signature& o) const {
    return ok == o.ok && ret == o.ret && cycles == o.cycles && instrs == o.instrs &&
           sent_hash == o.sent_hash;
  }
  bool operator!=(const Signature& o) const { return !(*this == o); }
};

// Drives `p` on a fresh session. `guest_ms` (optional) receives the wall
// time of the measured calls alone.
Signature DriveSession(const Program& p, confllvm::Session* s,
                       double* guest_ms = nullptr);

// Config used for every single-module compile (sweep compiles are
// whole-program, as PresetSweepJobs builds them).
BuildConfig ConfigFor(BuildPreset preset);

// Sweep jobs for one program: PresetSweepJobs for the paper presets, or the
// ct pair for a ct kernel. Always verified where WantsVerify holds.
std::vector<confllvm::BatchJob> SweepJobs(const Program& p);

uint64_t Fnv(const std::vector<uint8_t>& bytes);
uint64_t Fnv(const std::string& bytes);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CORPUS_H_
