// In-process end-to-end tests for the confccd service tier
// (src/service/): a real ConfccdServer on a real Unix socket, driven by
// real ConfccdClient connections — the same stack `confccd` + `confcc
// --connect` ship, minus process boundaries.
//
// The contracts under test:
//   - concurrent multi-tenant requests return byte-identical artifacts and
//     results to a solo (in-process pipeline) build of the same source;
//   - cross-request single-flight is observable in the shared cache's
//     stats (one producer, N-1 shared restores);
//   - linked images are cached across requests (satellite: link-stage
//     CacheKey chained over per-module codegen keys), and the link
//     response's graph stats stay valid JSON for any module name;
//   - an unknown engine or preset is an error response naming it;
//   - every verb keeps its response members and error strings, and a
//     failed linked build reports each module error once;
//   - backpressure rejections are retryable `retry` responses, per-client
//     cap before global queue cap, round-robin fairness across tenants;
//   - a client killed mid-request costs the daemon nothing but a dropped
//     response — the pool keeps serving;
//   - connection churn leaks no fds and no thread stacks, and a clean
//     disconnect is not a bad frame;
//   - under injected service.accept / service.read / service.dispatch
//     chaos, clients that retry still converge to correct results.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>  // mallopt
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "src/driver/confcc.h"
#include "src/driver/pipeline.h"
#include "src/isa/binary.h"
#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/service/scheduler.h"
#include "src/service/server.h"
#include "src/support/fault_injection.h"
#include "src/vm/vm.h"

namespace confllvm {
namespace {

namespace fs = std::filesystem;

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  // Keep it short: sun_path caps at ~108 bytes.
  return (fs::temp_directory_path() /
          ("confccd_t" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock"))
      .string();
}

// What the byte-identity contract compares: everything a tenant can
// observe about an execute response.
struct SoloResult {
  std::string bin_hex;
  bool ran_ok = false;
  uint64_t ret = 0;
  uint64_t cycles = 0;
  uint64_t instrs = 0;
  std::string guest_stdout;
};

// The solo-confcc reference: the exact compile+run path RunConnect would
// have taken without --connect (mirrors BuildConfig::ForWholeProgram).
SoloResult SoloExecute(const std::string& source, uint64_t deadline_ms) {
  BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  config.whole_program = true;
  CompilerInvocation inv(source, config);
  const bool verify = WantsVerify(config);
  EXPECT_TRUE(RunStandardPipeline(&inv, verify)) << inv.diags().ToString();
  auto compiled = inv.TakeProgram();
  SoloResult r;
  r.bin_hex = HexEncode(SerializeBinary(compiled->prog->binary));
  VmOptions vm_opts;
  vm_opts.deadline_ms = deadline_ms;
  auto session = MakeSessionFor(std::move(compiled), vm_opts);
  const Vm::CallResult cr = session->vm->Call("main", {});
  r.ran_ok = cr.ok;
  r.ret = cr.ret;
  r.cycles = cr.cycles;
  r.instrs = cr.instrs;
  r.guest_stdout = session->tlib->stdout_text();
  return r;
}

Json ExecuteRequest(const std::string& client_name, const std::string& source) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("execute"));
  req.Set("client", Json::Str(client_name));
  req.Set("source", Json::Str(source));
  req.Set("verify", Json::Bool(true));
  req.Set("want_bin", Json::Bool(true));
  return req;
}

std::string ResponseSignature(const Json& resp) {
  return std::string(resp.GetBool("ran_ok") ? "1" : "0") + "/" +
         std::to_string(resp.GetUInt("ret")) + "/" +
         std::to_string(resp.GetUInt("cycles")) + "/" +
         std::to_string(resp.GetUInt("instrs")) + "/" +
         resp.GetString("bin_hex") + "/" + resp.GetString("guest_stdout");
}

std::string SoloSignature(const SoloResult& s) {
  return std::string(s.ran_ok ? "1" : "0") + "/" + std::to_string(s.ret) +
         "/" + std::to_string(s.cycles) + "/" + std::to_string(s.instrs) +
         "/" + s.bin_hex + "/" + s.guest_stdout;
}

// A guest that spins until the VM deadline watchdog halts it.
constexpr char kSpinSrc[] =
    "int main() { int i = 1; while (i > 0) { i = 1; } return i; }";

constexpr char kQuickSrc[] = "int main() { return 7; }";

// ---- ServeScheduler unit coverage (no sockets) ----

TEST(ServeSchedulerTest, RoundRobinIsFairAcrossClients) {
  ServeScheduler::Options opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 64;
  opts.max_inflight_per_client = 8;
  ServeScheduler sched(opts);

  std::mutex mu;
  std::vector<std::string> order;
  // Submit-before-Start keeps the interleaving deterministic: the full
  // backlog is queued before the single worker exists.
  for (int i = 0; i < 3; ++i) {
    for (const char* client : {"a", "b", "c"}) {
      EXPECT_EQ(sched.Submit(client,
                             [&, client] {
                               std::lock_guard<std::mutex> lock(mu);
                               order.push_back(client);
                             }),
                ServeScheduler::Admit::kAccepted);
    }
  }
  sched.Start();
  sched.Stop();  // drains the queue before workers exit

  ASSERT_EQ(order.size(), 9u);
  // Strict rotation: one task per client per turn, regardless of backlog
  // shape at submit time.
  const std::vector<std::string> want = {"a", "b", "c", "a", "b",
                                         "c", "a", "b", "c"};
  EXPECT_EQ(order, want);
  EXPECT_EQ(sched.stats().completed, 9u);
  EXPECT_EQ(sched.stats().clients_seen, 3u);
}

TEST(ServeSchedulerTest, PerClientCapThenGlobalQueueCap) {
  ServeScheduler::Options opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 4;
  opts.max_inflight_per_client = 2;
  ServeScheduler sched(opts);
  const auto noop = [] {};

  EXPECT_EQ(sched.Submit("a", noop), ServeScheduler::Admit::kAccepted);
  EXPECT_EQ(sched.Submit("a", noop), ServeScheduler::Admit::kAccepted);
  // A tenant at its own cap is told so even though the queue has room.
  EXPECT_EQ(sched.Submit("a", noop), ServeScheduler::Admit::kClientSaturated);
  EXPECT_EQ(sched.Submit("b", noop), ServeScheduler::Admit::kAccepted);
  EXPECT_EQ(sched.Submit("b", noop), ServeScheduler::Admit::kAccepted);
  // Queue full: a fresh tenant is rejected globally.
  EXPECT_EQ(sched.Submit("c", noop), ServeScheduler::Admit::kQueueFull);

  const ServeScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.rejected_client_cap, 1u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.peak_queue_depth, 4u);

  sched.Start();
  sched.Stop();
  EXPECT_EQ(sched.stats().completed, 4u);
}

// ---- End-to-end over the socket ----

// A bare protocol-level connection (no ConfccdClient framing discipline);
// -1 on failure.
int RawConnect(const std::string& sock) {
  sockaddr_un addr;
  memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (sock.size() >= sizeof addr.sun_path) {
    return -1;
  }
  memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class ConfccdServiceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Reset(); }

  // Builds and starts a server; returns false on Start failure.
  std::unique_ptr<ConfccdServer> StartServer(ConfccdServer::Options opts) {
    if (opts.socket_path.empty()) {
      opts.socket_path = UniqueSocketPath();
    }
    auto server = std::make_unique<ConfccdServer>(std::move(opts));
    std::string err;
    EXPECT_TRUE(server->Start(&err)) << err;
    return server;
  }
};

TEST_F(ConfccdServiceTest, EightConcurrentClientsMatchSoloByteForByte) {
  // Mixed workload: two serve-bench kernels (large, library-backed) plus a
  // small one-liner, all through one daemon at once.
  const std::vector<std::string> sources = {
      workloads::kServeKernels[0].source,
      workloads::kServeKernels[1].source,
      kQuickSrc,
  };
  std::vector<SoloResult> solo;
  for (const std::string& src : sources) {
    solo.push_back(SoloExecute(src, 5000));
  }

  ConfccdServer::Options opts;
  opts.sched.num_workers = 4;
  auto server = StartServer(std::move(opts));

  constexpr int kClients = 8;
  std::vector<std::vector<std::string>> got(
      kClients, std::vector<std::string>(sources.size()));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ConfccdClient cli;
      std::string err;
      ASSERT_TRUE(cli.Connect(server->options().socket_path, &err)) << err;
      for (size_t s = 0; s < sources.size(); ++s) {
        // Interleave tenants across sources.
        const size_t slot = (s + static_cast<size_t>(c)) % sources.size();
        Json resp;
        ASSERT_TRUE(cli.CallWithRetry(
            ExecuteRequest("tenant-" + std::to_string(c), sources[slot]),
            &resp, &err))
            << err;
        ASSERT_EQ(resp.GetString("status"), "ok")
            << resp.GetString("error") << "\n"
            << resp.GetString("diagnostics");
        got[c][slot] = ResponseSignature(resp);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  server->Stop();

  for (int c = 0; c < kClients; ++c) {
    for (size_t s = 0; s < sources.size(); ++s) {
      EXPECT_EQ(got[c][s], SoloSignature(solo[s]))
          << "client " << c << " source " << s;
    }
  }
}

TEST_F(ConfccdServiceTest, CrossRequestSingleFlightIsObservableInCacheStats) {
  // Stall the (single-flight) parse stage so every concurrent duplicate
  // provably arrives while the producer is still inside the pipeline.
  std::string ferr;
  ASSERT_TRUE(FaultInjector::Instance().Configure("pipeline.stall.parse=p1.0",
                                                  &ferr))
      << ferr;

  ConfccdServer::Options opts;
  opts.sched.num_workers = 4;
  auto server = StartServer(std::move(opts));

  // A source unique to this test so the cache story is exactly: 8 identical
  // requests, zero prior state.
  const std::string source =
      "int main() { int s = 0; for (int i = 0; i < 9; i = i + 1) "
      "{ s = s + i * 3; } return s; }";

  constexpr int kClients = 8;
  std::vector<std::string> bins(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ConfccdClient cli;
      std::string err;
      ASSERT_TRUE(cli.Connect(server->options().socket_path, &err)) << err;
      Json resp;
      ASSERT_TRUE(cli.CallWithRetry(
          ExecuteRequest("tenant-" + std::to_string(c), source), &resp, &err))
          << err;
      ASSERT_EQ(resp.GetString("status"), "ok") << resp.GetString("error");
      bins[c] = resp.GetString("bin_hex");
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  const CacheStats stats = server->cache().stats();
  server->Stop();

  // One producer compiled; the other seven restored the finished Load
  // artifact — whole-pipeline dedup across requests from distinct
  // connections.
  const size_t load = static_cast<size_t>(StageId::kLoad);
  const size_t parse = static_cast<size_t>(StageId::kParse);
  EXPECT_EQ(stats.misses_by_stage[load], 1u);
  EXPECT_EQ(stats.misses_by_stage[parse], 1u);
  EXPECT_EQ(stats.hits_by_stage[load], 7u);
  // At least one duplicate arrived mid-compute and waited on the in-flight
  // producer instead of recomputing (the 20 ms parse stall guarantees the
  // window).
  EXPECT_GE(stats.shared_waits, 1u);

  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(bins[c], bins[0]) << "client " << c;
  }
  EXPECT_FALSE(bins[0].empty());
}

TEST_F(ConfccdServiceTest, LinkedImageIsCachedAcrossRequests) {
  ConfccdServer::Options opts;
  opts.sched.num_workers = 2;
  auto server = StartServer(std::move(opts));

  Json req = Json::Object();
  req.Set("verb", Json::Str("link"));
  req.Set("client", Json::Str("linker"));
  Json modules = Json::Array();
  Json leaf = Json::Object();
  leaf.Set("name", Json::Str("leaf"));
  leaf.Set("source", Json::Str("int square(int x) { return x * x; }"));
  modules.Append(std::move(leaf));
  Json app = Json::Object();
  app.Set("name", Json::Str("app"));
  app.Set("source",
          Json::Str("import \"leaf\";\nint main() { return square(6); }"));
  modules.Append(std::move(app));
  req.Set("modules", std::move(modules));
  req.Set("verify", Json::Bool(true));
  req.Set("want_bin", Json::Bool(true));

  ConfccdClient cli;
  std::string err;
  ASSERT_TRUE(cli.Connect(server->options().socket_path, &err)) << err;

  Json first;
  ASSERT_TRUE(cli.CallWithRetry(req, &first, &err)) << err;
  ASSERT_EQ(first.GetString("status"), "ok") << first.GetString("error");
  EXPECT_FALSE(first.GetBool("link_cached"));

  Json second;
  ASSERT_TRUE(cli.CallWithRetry(req, &second, &err)) << err;
  ASSERT_EQ(second.GetString("status"), "ok") << second.GetString("error");
  EXPECT_TRUE(second.GetBool("link_cached"));
  EXPECT_EQ(second.GetString("bin_hex"), first.GetString("bin_hex"));
  EXPECT_FALSE(first.GetString("bin_hex").empty());

  const CacheStats stats = server->cache().stats();
  const size_t link = static_cast<size_t>(StageId::kLink);
  EXPECT_EQ(stats.misses_by_stage[link], 1u);
  EXPECT_EQ(stats.hits_by_stage[link], 1u);
  server->Stop();
}

TEST_F(ConfccdServiceTest, LinkGraphJsonEscapesClientChosenModuleNames) {
  // The client names the modules, so the build-graph stats the link
  // response carries must stay valid JSON whatever the names hold, and give
  // every name back unchanged.
  const std::string odd = "le\"af\\x";
  ConfccdServer::Options opts;
  opts.sched.num_workers = 1;
  auto server = StartServer(std::move(opts));

  Json req = Json::Object();
  req.Set("verb", Json::Str("link"));
  Json modules = Json::Array();
  Json leaf = Json::Object();
  leaf.Set("name", Json::Str(odd));
  leaf.Set("source", Json::Str("int square(int x) { return x * x; }"));
  modules.Append(std::move(leaf));
  Json app = Json::Object();
  app.Set("name", Json::Str("app"));
  app.Set("source", Json::Str("int main() { return 6; }"));
  modules.Append(std::move(app));
  req.Set("modules", std::move(modules));

  ConfccdClient cli;
  std::string err;
  ASSERT_TRUE(cli.Connect(server->options().socket_path, &err)) << err;
  Json resp;
  ASSERT_TRUE(cli.CallWithRetry(req, &resp, &err)) << err;
  ASSERT_EQ(resp.GetString("status"), "ok") << resp.GetString("diagnostics");

  Json graph;
  ASSERT_TRUE(Json::Parse(resp.GetString("graph_json"), &graph, &err))
      << err << "\n" << resp.GetString("graph_json");
  const Json* detail = graph.Find("module_detail");
  ASSERT_NE(detail, nullptr);
  std::vector<std::string> names;
  for (const Json& m : detail->items()) {
    names.push_back(m.GetString("name"));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"app", odd}));
  server->Stop();
}

TEST_F(ConfccdServiceTest, UnknownEngineAndPresetAreNamedErrors) {
  // The daemon parses engine and preset names with the same functions as
  // confcc: an unknown one is a `status: error` response naming the value.
  ConfccdServer::Options opts;
  opts.sched.num_workers = 1;
  auto server = StartServer(std::move(opts));
  ConfccdClient cli;
  std::string err;
  ASSERT_TRUE(cli.Connect(server->options().socket_path, &err)) << err;

  Json bad_engine = ExecuteRequest("tenant", kQuickSrc);
  bad_engine.Set("engine", Json::Str("turbo"));
  Json bad_preset = ExecuteRequest("tenant", kQuickSrc);
  bad_preset.Set("preset", Json::Str("OurMagic"));
  Json bad_compile = Json::Object();
  bad_compile.Set("verb", Json::Str("compile"));
  bad_compile.Set("source", Json::Str(kQuickSrc));
  bad_compile.Set("preset", Json::Str("OurMagic"));
  const std::pair<Json, std::string> cases[] = {
      {bad_engine, "unknown engine 'turbo'"},
      {bad_preset, "unknown preset 'OurMagic'"},
      {bad_compile, "unknown preset 'OurMagic'"},
  };
  for (const auto& [req, msg] : cases) {
    SCOPED_TRACE(msg);
    Json resp;
    ASSERT_TRUE(cli.CallWithRetry(req, &resp, &err)) << err;
    EXPECT_EQ(resp.GetString("status"), "error");
    EXPECT_EQ(resp.GetString("error"), msg);
  }
  server->Stop();
}

Json Verb(const std::string& verb) {
  Json req = Json::Object();
  req.Set("verb", Json::Str(verb));
  return req;
}

Json With(Json req, const std::string& key, Json value) {
  req.Set(key, std::move(value));
  return req;
}

// A `modules` array of (name, source) pairs; an empty name is left out.
Json Modules(const std::vector<std::pair<std::string, std::string>>& mods) {
  Json arr = Json::Array();
  for (const auto& [name, source] : mods) {
    Json m = Json::Object();
    if (!name.empty()) {
      m.Set("name", Json::Str(name));
    }
    m.Set("source", Json::Str(source));
    arr.Append(std::move(m));
  }
  return arr;
}

constexpr char kLeafSrc[] = "int square(int x) { return x * x; }";
constexpr char kAppSrc[] = "import \"leaf\";\nint main() { return square(6); }";
constexpr char kBrokenLeafSrc[] =
    "int square(int x) { return x * undefined_name; }";

TEST_F(ConfccdServiceTest, EveryVerbKeepsItsMembersAndErrors) {
  // One source and one two-module set through every verb: the members each
  // response carries (at least these; a verb may gain members another verb
  // returns for the same kind of build), the one bin_hex every verb that
  // builds the same program returns, and every error string.
  ConfccdServer::Options opts;
  opts.sched.num_workers = 2;
  auto server = StartServer(std::move(opts));
  ConfccdClient cli;
  std::string err;
  ASSERT_TRUE(cli.Connect(server->options().socket_path, &err)) << err;

  const Json source = Json::Str(kQuickSrc);
  const Json modules = Modules({{"leaf", kLeafSrc}, {"app", kAppSrc}});
  auto build = [](const char* verb, const char* input, const Json& value) {
    return With(With(With(Verb(verb), input, value), "verify", Json::Bool(true)),
                "want_bin", Json::Bool(true));
  };
  auto args = [](std::vector<Json> items) {
    Json arr = Json::Array();
    for (Json& a : items) {
      arr.Append(std::move(a));
    }
    return arr;
  };
  const Json bad_preset = Json::Str("OurMagic");
  const std::string kArgsError =
      "execute: args must be an array of at most 4 unsigned integers";
  const std::vector<std::string> kRan = {"status", "ran_ok", "ret", "cycles",
                                         "instrs", "guest_stdout"};
  auto plus = [](std::vector<std::string> a, const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };

  struct Row {
    std::string name;
    Json req;
    std::string error;  // empty: status ok
    std::vector<std::string> members;
  };
  const std::vector<Row> rows = {
      {"compile source", build("compile", "source", source), "",
       {"status", "diagnostics", "stages", "total_ms", "code_words",
        "functions", "bin_hex"}},
      {"link modules", build("link", "modules", modules), "",
       {"status", "diagnostics", "graph_json", "link_cached", "bin_hex"}},
      {"execute source", build("execute", "source", source), "",
       plus({"diagnostics", "stages", "total_ms", "bin_hex"}, kRan)},
      {"execute modules", build("execute", "modules", modules), "",
       plus({"link_cached", "bin_hex"}, kRan)},
      {"execute source with four args",
       With(build("execute", "source", source), "args",
            args({Json::UInt(1), Json::UInt(2), Json::UInt(3), Json::UInt(4)})),
       "", plus({"diagnostics", "stages", "total_ms", "bin_hex"}, kRan)},

      {"compile unknown preset",
       With(build("compile", "source", source), "preset", bad_preset),
       "unknown preset 'OurMagic'", {"status", "error"}},
      {"link unknown preset",
       With(build("link", "modules", modules), "preset", bad_preset),
       "unknown preset 'OurMagic'", {"status", "error"}},
      {"execute source unknown preset",
       With(build("execute", "source", source), "preset", bad_preset),
       "unknown preset 'OurMagic'", {"status", "error"}},
      {"execute modules unknown preset",
       With(build("execute", "modules", modules), "preset", bad_preset),
       "unknown preset 'OurMagic'", {"status", "error"}},

      {"compile without source", Verb("compile"), "compile: missing source",
       {"status", "error"}},
      {"compile with only modules", build("compile", "modules", modules),
       "compile: missing source", {"status", "error"}},
      {"link without modules", Verb("link"), "link: missing modules",
       {"status", "error"}},
      {"link with only source", build("link", "source", source),
       "link: missing modules", {"status", "error"}},
      {"link with empty modules", build("link", "modules", Json::Array()),
       "link: missing modules", {"status", "error"}},
      {"execute without input", Verb("execute"),
       "execute: missing source or modules", {"status", "error"}},
      {"execute with empty modules", build("execute", "modules", Json::Array()),
       "link: missing modules", {"status", "error"}},

      {"link module without name",
       build("link", "modules", Modules({{"", kLeafSrc}, {"app", kAppSrc}})),
       "link: every module needs name and source", {"status", "error"}},
      {"execute module without name",
       build("execute", "modules", Modules({{"", kLeafSrc}, {"app", kAppSrc}})),
       "link: every module needs name and source", {"status", "error"}},
      {"link duplicate module",
       build("link", "modules", Modules({{"leaf", kLeafSrc}, {"leaf", kLeafSrc}})),
       "link: error: duplicate module 'leaf' in build graph\n",
       {"status", "error"}},
      {"link unknown import",
       build("link", "modules", Modules({{"app", kAppSrc}})),
       "link: graph finalize failed", {"status", "error", "diagnostics"}},
      {"execute unknown import",
       build("execute", "modules", Modules({{"app", kAppSrc}})),
       "link: graph finalize failed", {"status", "error", "diagnostics"}},

      {"compile failing source",
       build("compile", "source", Json::Str("int main() { return x; }")),
       "compilation failed",
       {"status", "error", "diagnostics", "stages", "total_ms"}},
      {"execute failing source",
       build("execute", "source", Json::Str("int main() { return x; }")),
       "compilation failed", {"status", "error", "diagnostics"}},
      {"link failing module",
       build("link", "modules",
             Modules({{"leaf", kBrokenLeafSrc}, {"app", kAppSrc}})),
       "link failed",
       {"status", "error", "diagnostics", "graph_json", "link_cached"}},
      {"execute failing module",
       build("execute", "modules",
             Modules({{"leaf", kBrokenLeafSrc}, {"app", kAppSrc}})),
       "link failed", {"status", "error", "diagnostics"}},
      {"link contract error",
       build("link", "modules",
             Modules({{"leaf", kLeafSrc},
                       {"app", "int square(int x) { return x; }\n"
                               "int main() { return square(6); }"}})),
       "link failed",
       {"status", "error", "diagnostics", "graph_json", "link_cached"}},

      {"execute five args",
       With(build("execute", "source", source), "args",
            args({Json::UInt(1), Json::UInt(2), Json::UInt(3), Json::UInt(4),
                  Json::UInt(5), Json::UInt(6)})),
       kArgsError, {"status", "error"}},
      {"execute string and negative args",
       With(build("execute", "source", source), "args",
            args({Json::Str("x"), Json::Int(-3)})),
       kArgsError, {"status", "error"}},
      {"execute args not an array",
       With(build("execute", "source", source), "args", Json::UInt(5)),
       kArgsError, {"status", "error"}},
  };

  std::map<std::string, Json> got;
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    Json resp;
    ASSERT_TRUE(cli.CallWithRetry(row.req, &resp, &err)) << err;
    EXPECT_EQ(resp.GetString("status"), row.error.empty() ? "ok" : "error")
        << resp.GetString("error") << "\n" << resp.GetString("diagnostics");
    EXPECT_EQ(resp.GetString("error"), row.error);
    for (const std::string& m : row.members) {
      EXPECT_NE(resp.Find(m), nullptr) << "missing member " << m;
    }
    got[row.name] = std::move(resp);
  }

  EXPECT_FALSE(got["compile source"].GetString("bin_hex").empty());
  EXPECT_EQ(got["execute source"].GetString("bin_hex"),
            got["compile source"].GetString("bin_hex"));
  EXPECT_FALSE(got["link modules"].GetString("bin_hex").empty());
  EXPECT_EQ(got["execute modules"].GetString("bin_hex"),
            got["link modules"].GetString("bin_hex"));
  EXPECT_EQ(got["execute source"].GetUInt("ret"), 7u);
  EXPECT_EQ(got["execute modules"].GetUInt("ret"), 36u);
  server->Stop();
}

TEST_F(ConfccdServiceTest, FailedLinkedBuildReportsEachModuleErrorOnce) {
  // A failed module's errors reach the response through the linked build's
  // own diagnostics, once, whichever verb built it.
  ConfccdServer::Options opts;
  opts.sched.num_workers = 1;
  auto server = StartServer(std::move(opts));
  ConfccdClient cli;
  std::string err;
  ASSERT_TRUE(cli.Connect(server->options().socket_path, &err)) << err;
  const std::string needle = "undeclared identifier 'undefined_name'";
  for (const char* verb : {"link", "execute"}) {
    SCOPED_TRACE(verb);
    Json resp;
    ASSERT_TRUE(cli.CallWithRetry(
        With(Verb(verb), "modules",
             Modules({{"leaf", kBrokenLeafSrc}, {"app", kAppSrc}})),
        &resp, &err))
        << err;
    EXPECT_EQ(resp.GetString("error"), "link failed");
    const std::string diags = resp.GetString("diagnostics");
    const size_t first = diags.find(needle);
    ASSERT_NE(first, std::string::npos) << diags;
    EXPECT_EQ(diags.find(needle, first + 1), std::string::npos) << diags;
  }
  server->Stop();
}

TEST_F(ConfccdServiceTest, BackpressureRejectsAreRetryable) {
  ConfccdServer::Options opts;
  opts.sched.num_workers = 1;
  opts.sched.max_queue_depth = 1;
  opts.sched.max_inflight_per_client = 1;
  opts.default_deadline_ms = 400;  // the spin guest occupies the worker
  auto server = StartServer(std::move(opts));
  const std::string sock = server->options().socket_path;

  // Tenant A wedges the single worker for ~400 ms (deadline-bounded spin).
  std::thread spinner([&] {
    ConfccdClient cli;
    std::string err;
    ASSERT_TRUE(cli.Connect(sock, &err)) << err;
    Json resp;
    Json req = Json::Object();
    req.Set("verb", Json::Str("execute"));
    req.Set("client", Json::Str("tenant-a"));
    req.Set("source", Json::Str(kSpinSrc));
    req.Set("deadline_ms", Json::UInt(400));
    ASSERT_TRUE(cli.Call(std::move(req), &resp, &err)) << err;
    EXPECT_EQ(resp.GetString("status"), "ok");
    EXPECT_FALSE(resp.GetBool("ran_ok"));  // the watchdog halted it
  });
  // Let the worker dequeue tenant-a's request.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Same tenant again: per-client in-flight cap, retryable.
  {
    ConfccdClient cli;
    std::string err;
    ASSERT_TRUE(cli.Connect(sock, &err)) << err;
    Json resp;
    ASSERT_TRUE(cli.Call(ExecuteRequest("tenant-a", kQuickSrc), &resp, &err))
        << err;
    EXPECT_EQ(resp.GetString("status"), "retry") << resp.Dump();
    EXPECT_NE(resp.GetString("error").find("in-flight"), std::string::npos)
        << resp.Dump();
  }

  // Tenant B fills the depth-1 queue...
  std::thread queued([&] {
    ConfccdClient cli;
    std::string err;
    ASSERT_TRUE(cli.Connect(sock, &err)) << err;
    Json resp;
    ASSERT_TRUE(cli.Call(ExecuteRequest("tenant-b", kQuickSrc), &resp, &err))
        << err;
    EXPECT_EQ(resp.GetString("status"), "ok") << resp.Dump();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ...so tenant C bounces off the global cap — but CallWithRetry rides the
  // retryable reject to an eventual success once the backlog drains.
  {
    ConfccdClient cli;
    std::string err;
    ASSERT_TRUE(cli.Connect(sock, &err)) << err;
    Json resp;
    ASSERT_TRUE(cli.Call(ExecuteRequest("tenant-c", kQuickSrc), &resp, &err))
        << err;
    EXPECT_EQ(resp.GetString("status"), "retry") << resp.Dump();
    EXPECT_NE(resp.GetString("error").find("queue full"), std::string::npos)
        << resp.Dump();

    int retries = 0;
    ASSERT_TRUE(cli.CallWithRetry(ExecuteRequest("tenant-c", kQuickSrc),
                                  &resp, &err, /*max_attempts=*/50, &retries))
        << err;
    EXPECT_EQ(resp.GetString("status"), "ok");
    EXPECT_EQ(resp.GetUInt("ret"), 7u);
  }

  spinner.join();
  queued.join();

  const ServeScheduler::Stats stats = server->scheduler().stats();
  EXPECT_GE(stats.rejected_client_cap, 1u);
  EXPECT_GE(stats.rejected_queue_full, 1u);
  server->Stop();
}

TEST_F(ConfccdServiceTest, KilledClientMidRequestDoesNotPoisonThePool) {
  ConfccdServer::Options opts;
  opts.sched.num_workers = 1;
  opts.default_deadline_ms = 300;
  auto server = StartServer(std::move(opts));
  const std::string sock = server->options().socket_path;

  // A raw connection: send an execute whose guest runs ~300 ms, then
  // vanish before the response.
  {
    const int fd = RawConnect(sock);
    ASSERT_GE(fd, 0);
    Json req = Json::Object();
    req.Set("verb", Json::Str("execute"));
    req.Set("client", Json::Str("ghost"));
    req.Set("source", Json::Str(kSpinSrc));
    req.Set("id", Json::UInt(1));
    ASSERT_TRUE(WriteFrame(fd, req.Dump()));
    ::close(fd);  // the tenant dies mid-request
  }

  // The worker finishes the orphaned request and discovers the peer is
  // gone at response time; nothing leaks into the pool.
  bool dropped = false;
  for (int i = 0; i < 200; ++i) {
    if (server->server_stats().responses_dropped >= 1) {
      dropped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(dropped);

  // The pool still serves the next tenant.
  ConfccdClient cli;
  std::string err;
  ASSERT_TRUE(cli.Connect(sock, &err)) << err;
  Json resp;
  ASSERT_TRUE(cli.CallWithRetry(ExecuteRequest("alive", kQuickSrc), &resp,
                                &err))
      << err;
  EXPECT_EQ(resp.GetString("status"), "ok");
  EXPECT_EQ(resp.GetUInt("ret"), 7u);
  server->Stop();
}

// Open file descriptors of this process (the iterator's own fd included,
// which is the same on every call).
size_t OpenFdCount() {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

// This process's virtual size from /proc/self/status, in bytes (0 if the
// line is missing). Every unjoined thread keeps its stack mapped, so
// thread leaks show up here even when the thread itself has exited.
uint64_t VmSizeBytes() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long long kib = 0;
  while (fgets(line, sizeof line, f) != nullptr) {
    if (sscanf(line, "VmSize: %llu kB", &kib) == 1) {
      break;
    }
  }
  fclose(f);
  return kib * 1024;
}

TEST_F(ConfccdServiceTest, ConnectionChurnLeaksNoFdsAndCountsOnlyTornFrames) {
  ConfccdServer::Options opts;
  opts.sched.num_workers = 1;
  auto server = StartServer(std::move(opts));
  const std::string sock = server->options().socket_path;
  const size_t fds_before = OpenFdCount();

  // Every thread that allocates may get its own C-library allocator arena,
  // 64 MiB of address space kept for the life of the process whatever
  // happens to the thread. Cap them so VmSize below tracks thread stacks.
#ifdef __GLIBC__
  mallopt(M_ARENA_MAX, 1);
#endif
  const uint64_t vm_size_before = VmSizeBytes();

  constexpr uint64_t kCycles = 200;
  Json ping = Json::Object();
  ping.Set("verb", Json::Str("ping"));
  for (uint64_t i = 0; i < kCycles; ++i) {
    ConfccdClient cli;
    std::string err;
    ASSERT_TRUE(cli.Connect(sock, &err)) << err;
    Json resp;
    ASSERT_TRUE(cli.Call(ping, &resp, &err)) << err;
    EXPECT_TRUE(resp.GetBool("pong"));
  }  // each client disconnects cleanly as it goes out of scope

  // Reader threads see each EOF asynchronously; wait for the teardowns.
  ConfccdServer::ServerStats stats;
  size_t fds_after = 0;
  for (int i = 0; i < 500; ++i) {
    stats = server->server_stats();
    fds_after = OpenFdCount();
    if (stats.connections_closed == kCycles && fds_after == fds_before) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fds_after, fds_before);
  EXPECT_EQ(stats.connections_accepted, kCycles);
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);
  EXPECT_EQ(stats.bad_frames, 0u);
  // Finished readers are joined as new connections arrive, so 200 cycles
  // leave a few thread stacks behind at most, not one per connection.
  const uint64_t vm_size_after = VmSizeBytes();
  ASSERT_GT(vm_size_before, 0u);
  EXPECT_LT(vm_size_after, vm_size_before + 64 * 1024 * 1024)
      << "VmSize grew from " << vm_size_before << " to " << vm_size_after;

  // A torn frame (the header promises 16 bytes, 3 arrive before the peer
  // closes) is still a bad frame.
  const int fd = RawConnect(sock);
  ASSERT_GE(fd, 0);
  const uint8_t torn[] = {16, 0, 0, 0, '{', '"', 'v'};
  ASSERT_EQ(::write(fd, torn, sizeof torn), static_cast<ssize_t>(sizeof torn));
  ::close(fd);
  for (int i = 0; i < 500 && server->server_stats().bad_frames == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->server_stats().bad_frames, 1u);
  server->Stop();
}

TEST_F(ConfccdServiceTest, ChaosServiceFaultsAreSurvivable) {
  const SoloResult solo = SoloExecute(kQuickSrc, 5000);

  // Deterministic nth-hit triggers on every service-tier site: the 2nd
  // accepted connection is dropped, the 5th frame read severs its
  // connection, the 3rd dispatched request fails retryably.
  std::string ferr;
  ASSERT_TRUE(FaultInjector::Instance().Configure(
      "service.accept=n2,service.read=n5,service.dispatch=n3", &ferr))
      << ferr;

  ConfccdServer::Options opts;
  opts.sched.num_workers = 2;
  auto server = StartServer(std::move(opts));

  // Fresh connection per request so the accept site gets traffic too.
  for (int i = 0; i < 12; ++i) {
    ConfccdClient cli;
    std::string err;
    Json resp;
    // Connect failures surface on the first Call (the daemon may drop us
    // right after accept); CallWithRetry reconnects through all of it.
    if (!cli.Connect(server->options().socket_path, &err)) {
      ADD_FAILURE() << err;
      continue;
    }
    ASSERT_TRUE(cli.CallWithRetry(
        ExecuteRequest("chaos-" + std::to_string(i % 3), kQuickSrc), &resp,
        &err, /*max_attempts=*/30))
        << "request " << i << ": " << err;
    ASSERT_EQ(resp.GetString("status"), "ok") << resp.GetString("error");
    EXPECT_EQ(ResponseSignature(resp), SoloSignature(solo)) << "request " << i;
  }

  const ConfccdServer::ServerStats stats = server->server_stats();
  EXPECT_EQ(stats.connections_dropped_inject, 1u);
  EXPECT_EQ(stats.injected_read_faults, 1u);
  EXPECT_EQ(stats.injected_dispatch_faults, 1u);
  server->Stop();
}

}  // namespace
}  // namespace confllvm
