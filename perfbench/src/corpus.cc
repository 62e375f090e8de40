#include "perfbench/src/corpus.h"

#include <iterator>

#include "bench/workloads.h"
#include "perfbench/src/bench.h"
#include "src/runtime/trusted.h"
#include "src/vm/vm.h"

namespace perfbench {

using namespace confllvm;

namespace {

constexpr int kNginxRequests = 192;
constexpr int kNginxFileBytes = 4096;
constexpr uint64_t kLdapEntries = 6000;
constexpr uint64_t kLdapHitQueries = 6000;
constexpr uint64_t kLdapMissQueries = 600;
constexpr int kPrivadoImages = 8;
constexpr uint64_t kMerkleBlocks = 512;
constexpr int kMerkleThreads = 4;
constexpr uint64_t kCtSecret = 42;
constexpr uint64_t kCtPublic = 7;

// The LDAP app split along its natural seams. Each module owns its globals
// (the linker keeps global storage module-local), so the LDAP driver module reaches the
// store and the codec only through exported functions. main() sends the same
// bytes and returns the same hit count as the monolithic kLdap.
const char kLdapStore[] = R"(
void decrypt(char *ct, private char *pt, int n);
int rand_pub();

struct entry { int key; int val; int next; };
struct entry g_entries[16384];
int g_buckets[1024];
int g_count;
int g_seed;
private char g_rootpw[64];

int ldap_bind(char *creds, int n) {
  decrypt(creds, g_rootpw, n);
  return 1;
}

int next_rand() {
  g_seed = (g_seed * 1103515245 + 12345) & 1073741823;
  return g_seed;
}

int ldap_populate(int n) {
  for (int b = 0; b < 1024; b = b + 1) { g_buckets[b] = -1; }
  g_count = 0;
  g_seed = 12345;
  char creds[32];
  for (int i = 0; i < 32; i = i + 1) { creds[i] = (char)(i * 3 + 1); }
  ldap_bind(creds, 32);
  for (int i = 0; i < n; i = i + 1) {
    int key = rand_pub() % 1000000;
    int b = key % 1024;
    g_entries[g_count].key = key;
    g_entries[g_count].val = i;
    g_entries[g_count].next = g_buckets[b];
    g_buckets[b] = g_count;
    g_count = g_count + 1;
  }
  return g_count;
}

int ldap_lookup(int key) {
  int e = g_buckets[key % 1024];
  int steps = 0;
  while (e >= 0) {
    steps = steps + 1;
    if (g_entries[e].key == key) { return g_entries[e].val; }
    e = g_entries[e].next;
  }
  int h = key;
  for (int i = 0; i < 256; i = i + 1) {
    h = (h + g_buckets[(h + i * 7) & 1023] + i) & 1048575;
  }
  return -1 - (h & 1);
}

int store_query_key(int want_hits) {
  int key = next_rand() % 1000000;
  if (want_hits == 1) {
    key = g_entries[next_rand() % g_count].key;
  }
  return key;
}
)";

const char kLdapWire[] = R"(
int send(int fd, char *buf, int n);

char g_req[64];
char g_resp[160];

int encode_request(int key) {
  g_req[0] = 'S'; g_req[1] = 'R'; g_req[2] = 'C'; g_req[3] = 'H';
  int p = 4;
  int k = key;
  for (int i = 0; i < 8; i = i + 1) {
    g_req[p] = (char)('0' + k % 10);
    k = k / 10;
    p = p + 1;
  }
  for (int i = 0; i < 20; i = i + 1) {
    g_req[p] = (char)('a' + (i + key) % 26);
    p = p + 1;
  }
  g_req[p] = 0;
  return p;
}

int parse_request(int n) {
  if (n < 12) { return -1; }
  if (g_req[0] != 'S') { return -1; }
  if (g_req[1] != 'R') { return -1; }
  if (g_req[2] != 'C') { return -1; }
  if (g_req[3] != 'H') { return -1; }
  int key = 0;
  int m = 1;
  for (int i = 0; i < 8; i = i + 1) {
    key = key + (g_req[4 + i] - '0') * m;
    m = m * 10;
  }
  return key;
}

int encode_response(int key, int v) {
  int p = 0;
  g_resp[p] = 'd'; p = p + 1;
  g_resp[p] = 'n'; p = p + 1;
  g_resp[p] = '='; p = p + 1;
  g_resp[p] = 'u'; p = p + 1;
  g_resp[p] = 'i'; p = p + 1;
  g_resp[p] = 'd'; p = p + 1;
  g_resp[p] = '='; p = p + 1;
  int k = key;
  for (int i = 0; i < 8; i = i + 1) {
    g_resp[p] = (char)('0' + k % 10);
    k = k / 10;
    p = p + 1;
  }
  for (int i = 0; i < 24; i = i + 1) {
    g_resp[p] = (char)('a' + (i * 7 + key) % 26);
    p = p + 1;
  }
  int val = v;
  if (val < 0) { val = 0 - val; }
  for (int i = 0; i < 8; i = i + 1) {
    g_resp[p] = (char)('0' + val % 10);
    val = val / 10;
    p = p + 1;
  }
  int ck = 0;
  for (int i = 0; i < p; i = i + 1) { ck = (ck + g_resp[i]) & 255; }
  g_resp[p] = (char)ck;
  p = p + 1;
  return p;
}

int wire_roundtrip(int key) {
  int rn = encode_request(key);
  return parse_request(rn);
}

int wire_reply(int key, int v) {
  int rl = encode_response(key, v);
  send(1, g_resp, rl);
  return rl;
}
)";

const char kLdapDriver[] = R"(
import "ldap_store";
import "ldap_wire";

int ldap_run(int nq, int want_hits) {
  int hits = 0;
  for (int q = 0; q < nq; q = q + 1) {
    int key = store_query_key(want_hits);
    int k2 = wire_roundtrip(key);
    if (k2 >= 0) {
      int v = ldap_lookup(k2);
      if (v >= 0) { hits = hits + 1; }
      wire_reply(k2, v);
    }
  }
  return hits;
}

int main() {
  ldap_populate(1000);
  return ldap_run(200, 1);
}
)";

void Accumulate(Signature* sig, const Vm::CallResult& r) {
  sig->ok = sig->ok && r.ok;
  sig->ret = sig->ret * 31 + r.ret;
  sig->cycles += r.cycles;
  sig->instrs += r.instrs;
}

}  // namespace

uint64_t Fnv(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char b : bytes) {
    h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

uint64_t Fnv(const std::vector<uint8_t>& bytes) {
  return Fnv(std::string(bytes.begin(), bytes.end()));
}

std::vector<Program> CompileCorpus() {
  std::vector<Program> out;
  for (int k = 0; k < workloads::kNumSpecKernels; ++k) {
    out.push_back({workloads::kSpecKernels[k].name, workloads::kSpecKernels[k].source,
                   Drive::kMain, false});
  }
  out.push_back({"nginx", workloads::kNginx, Drive::kMain, false});
  out.push_back({"ldap", workloads::kLdap, Drive::kMain, false});
  out.push_back({"privado", workloads::kPrivado, Drive::kMain, false});
  out.push_back({"merkle", workloads::kMerkle, Drive::kMain, false});
  for (const Program& p : ServeKernels()) {
    out.push_back(p);
  }
  for (int k = 0; k < workloads::kNumCtKernels; ++k) {
    out.push_back({std::string("ct-") + workloads::kCtKernels[k].name,
                   workloads::kCtKernels[k].source, Drive::kCtKernel, true});
  }
  return out;
}

std::vector<Program> ExecRows() {
  std::vector<Program> out;
  for (int k = 0; k < workloads::kNumSpecKernels; ++k) {
    out.push_back({workloads::kSpecKernels[k].name, workloads::kSpecKernels[k].source,
                   Drive::kMain, false});
  }
  out.push_back({"nginx", workloads::kNginx, Drive::kNginx, false});
  out.push_back({"ldap-hit", workloads::kLdap, Drive::kLdapHit, false});
  out.push_back({"ldap-miss", workloads::kLdap, Drive::kLdapMiss, false});
  out.push_back({"privado", workloads::kPrivado, Drive::kPrivado, false});
  out.push_back({"merkle", workloads::kMerkle, Drive::kMerkle, false});
  return out;
}

std::vector<Program> ServeKernels() {
  std::vector<Program> out;
  for (int k = 0; k < workloads::kNumServeKernels; ++k) {
    out.push_back({std::string("serve-") + workloads::kServeKernels[k].name,
                   workloads::kServeKernels[k].source, Drive::kMain, false});
  }
  return out;
}

std::string WithEditSlot(const std::string& source, uint64_t literal) {
  std::string s = source;
  const size_t pos = s.find("990001");
  if (pos != std::string::npos) {
    s.replace(pos, 6, std::to_string(literal));
  }
  return s;
}

BuildConfig ConfigFor(BuildPreset preset) {
  BuildConfig c = BuildConfig::For(preset);
  c.whole_program = true;
  return c;
}

std::vector<BatchJob> SweepJobs(const Program& p) {
  if (!p.ct) {
    return PresetSweepJobs(p.source, /*verify=*/true);
  }
  std::vector<BatchJob> jobs;
  for (const BuildPreset preset : kCtBuildPresets) {
    BatchJob job;
    job.label = PresetName(preset);
    job.source = p.source;
    job.config = ConfigFor(preset);
    job.verify = WantsVerify(job.config);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

LinkedBuild BuildSplit(const BuildConfig& config, bool verify, ArtifactCache* cache,
                       unsigned workers) {
  DiagEngine diags;
  BuildGraph graph;
  graph.AddModule("ldap_wire", kLdapWire, &diags);
  graph.AddModule("ldap_store", kLdapStore, &diags);
  graph.AddModule("ldap_app", kLdapDriver, &diags);
  if (!graph.Finalize(config, &diags, cache, workers)) {
    LinkedBuild failed;
    failed.diags.Error({}, "split finalize failed: " + diags.ToString());
    return failed;
  }
  BuildScheduler::Options sopts;
  sopts.num_workers = workers;
  sopts.verify = verify && WantsVerify(config);
  BuildScheduler sched(&graph, config, sopts);
  return sched.Run(cache);
}

Signature DriveSession(const Program& p, Session* s, double* guest_ms) {
  Signature sig;
  sig.ok = true;
  Vm& vm = *s->vm;
  TrustedLib& tlib = *s->tlib;
  auto measured = [&](auto&& body) {
    const auto t0 = Clock::now();
    body();
    if (guest_ms != nullptr) {
      *guest_ms = MsSince(t0);
    }
  };
  auto setup = [&](const char* fn, std::vector<uint64_t> args) {
    sig.ok = sig.ok && vm.Call(fn, args).ok;
  };
  switch (p.drive) {
    case Drive::kMain:
      measured([&] { Accumulate(&sig, vm.Call("main", {})); });
      break;
    case Drive::kNginx:
      tlib.AddFile("f", std::string(kNginxFileBytes, 'x'));
      for (int i = 0; i < kNginxRequests; ++i) {
        tlib.PushRx(0, "GET f\n");
      }
      setup("server_init", {});
      measured([&] { Accumulate(&sig, vm.Call("server_run", {kNginxRequests})); });
      break;
    case Drive::kLdapHit:
    case Drive::kLdapMiss: {
      const bool hit = p.drive == Drive::kLdapHit;
      setup("ldap_populate", {kLdapEntries});
      measured([&] {
        Accumulate(&sig, vm.Call("ldap_run", {hit ? kLdapHitQueries : kLdapMissQueries,
                                              hit ? 1u : 0u}));
      });
      break;
    }
    case Drive::kPrivado:
      setup("nn_init", {});
      measured([&] {
        for (int i = 0; i < kPrivadoImages; ++i) {
          Accumulate(&sig, vm.Call("nn_stage_image", {static_cast<uint64_t>(i * 13 + 7)}));
          Accumulate(&sig, vm.Call("nn_classify", {}));
        }
      });
      break;
    case Drive::kMerkle: {
      setup("merkle_build", {kMerkleBlocks});
      std::vector<Vm::ThreadSpec> threads;
      for (int t = 0; t < kMerkleThreads; ++t) {
        threads.push_back({"merkle_read_all", {static_cast<uint64_t>(t), kMerkleBlocks}});
      }
      measured([&] {
        const Vm::ParallelResult r = vm.RunParallel(threads);
        sig.ok = sig.ok && r.ok;
        sig.cycles = r.wall_cycles;
        for (const Vm::CallResult& c : r.per_thread) {
          sig.ok = sig.ok && c.ok && c.ret == kMerkleBlocks;
          sig.ret = sig.ret * 31 + c.ret;
          sig.instrs += c.instrs;
        }
      });
      break;
    }
    case Drive::kCtKernel:
      measured([&] { Accumulate(&sig, vm.Call("kernel", {kCtSecret, kCtPublic})); });
      break;
  }
  sig.sent_hash = Fnv(tlib.SentBytes(1));
  return sig;
}

}  // namespace perfbench
