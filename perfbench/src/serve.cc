// The `serve` workload: a confccd daemon with `workers` pool threads and a
// memory-tier cap small enough that edits evict, driven by this process
// over `workers` connections in a closed loop.
//
// Requests are verified executes cycling over the serve kernels x {OurMPX,
// OurSeg} x kWarmVariants edit-slot variants (all warmed during set-up).
// About one request in kEditEvery carries a seeded edit the daemon has never
// seen, which costs a cold compile, a cache insert, and evictions. Warm
// responses must match the set-up's reference-engine record; edit responses
// are checked after the timed window against an in-process compile and run
// of the edited source on the default engine.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/corpus.h"
#include "perfbench/src/layers.h"
#include "src/driver/artifact_cache.h"
#include "src/service/client.h"
#include "src/service/protocol.h"

extern char** environ;

namespace perfbench {

using namespace confllvm;

namespace {

constexpr int kSetupRepeats = 9;
constexpr double kWindowSeconds = 2.0;
constexpr int kWarmVariants = 8;
constexpr uint64_t kEditEvery = 32;
constexpr double kCapOverWarmSet = 1.25;
constexpr BuildPreset kServePresets[] = {BuildPreset::kOurMpx, BuildPreset::kOurSeg};

// One request's program: kernel x preset x edit-slot literal.
struct Variant {
  size_t kernel = 0;
  BuildPreset preset = BuildPreset::kOurMpx;
  uint64_t literal = 990001;
};

uint64_t WarmLiteral(int v) { return 990001 + static_cast<uint64_t>(v); }

// The n-th edit literal of a run: distinct for every n < 800000 (104729 is
// prime and coprime to 800000) and disjoint from the warm literals.
uint64_t EditLiteral(uint64_t seed, uint64_t n) {
  return 100000 + (seed * 7919 + n * 104729) % 800000;
}

Signature ReferenceRun(const std::vector<Program>& kernels, const Variant& v,
                       ArtifactCache* cache, VmEngine engine = VmEngine::kRef) {
  DiagEngine diags;
  Program p = kernels[v.kernel];
  p.source = WithEditSlot(p.source, v.literal);
  auto cp = Compile(p.source, ConfigFor(v.preset), &diags, nullptr, cache);
  if (cp == nullptr) {
    return {};
  }
  VmOptions vo;
  vo.engine = engine;
  auto session = MakeSessionFor(std::move(cp), vo);
  Signature sig = DriveSession(p, session.get());
  sig.sent_hash = Fnv(std::string());  // execute responses carry no channel bytes
  return sig;
}

Signature FromResponse(const Json& resp) {
  Signature s;
  s.ok = resp.GetString("status") == "ok" && resp.GetBool("ran_ok");
  s.ret = resp.GetUInt("ret");
  s.cycles = resp.GetUInt("cycles");
  s.instrs = resp.GetUInt("instrs");
  s.sent_hash = Fnv(std::string());  // execute responses carry no channel bytes
  return s;
}

Json ExecuteRequest(const std::vector<Program>& kernels, const Variant& v, int client) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("execute"));
  req.Set("client", Json::Str("bench-" + std::to_string(client)));
  req.Set("source", Json::Str(WithEditSlot(kernels[v.kernel].source, v.literal)));
  req.Set("preset", Json::Str(PresetName(v.preset)));
  req.Set("verify", Json::Bool(true));
  return req;
}

// The daemon child process; terminated and reaped on destruction.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const Options& opts, const std::string& socket, size_t cache_bytes) {
    std::vector<std::string> args = {
        opts.confccd, "--socket=" + socket, "--workers=" + std::to_string(opts.workers),
        "--cache-bytes=" + std::to_string(cache_bytes)};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, opts.confccd.c_str(), nullptr, nullptr, argv.data(), environ) !=
        0) {
      pid_ = -1;
      return false;
    }
    // Ready once it answers a ping.
    for (int attempt = 0; attempt < 5000; ++attempt) {
      ConfccdClient cli;
      std::string err;
      Json resp;
      Json ping = Json::Object();
      ping.Set("verb", Json::Str("ping"));
      if (cli.Connect(socket, &err) && cli.Call(ping, &resp, &err) &&
          resp.GetBool("pong")) {
        return true;
      }
      usleep(1000);
    }
    return false;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

Json StatsSnapshot(const std::string& socket) {
  ConfccdClient cli;
  std::string err;
  Json req = Json::Object();
  req.Set("verb", Json::Str("stats"));
  Json resp;
  Json out = Json::Object();
  if (!cli.Connect(socket, &err) || !cli.Call(req, &resp, &err)) {
    return out;
  }
  for (const char* key : {"cache_json", "sched_json"}) {
    Json doc;
    if (Json::Parse(resp.GetString(key), &doc, &err)) {
      out.Set(key, doc);
    }
  }
  return out;
}

double StatDelta(const Json& before, const Json& after, const char* doc, const char* key) {
  const Json* b = before.Find(doc);
  const Json* a = after.Find(doc);
  if (a == nullptr || b == nullptr) {
    return 0;
  }
  return static_cast<double>(a->GetUInt(key)) - static_cast<double>(b->GetUInt(key));
}

struct Sample {
  size_t warm = 0;  // index into the warm set (the variant edits start from)
  Variant variant;
  bool edit = false;
  bool ok = false;
  double rtt_ms = 0;
  size_t epoch = 0;
  double total_ms = 0;    // the response's pipeline total_ms
  double restore_ms = 0;  // cached stage rows
  int retries = 0;
  Signature sig;
};

// Sends every warm variant once, spread over `clients` connections.
bool WarmUp(const std::vector<Program>& kernels, const std::vector<Variant>& warm,
            const std::vector<Signature>& oracle, const std::string& socket,
            unsigned clients) {
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ConfccdClient cli;
      std::string err;
      if (!cli.Connect(socket, &err)) {
        ok = false;
        return;
      }
      for (size_t i = next++; i < warm.size(); i = next++) {
        Json resp;
        const bool sent = cli.CallWithRetry(ExecuteRequest(kernels, warm[i], c), &resp,
                                            &err, 25, nullptr);
        if (!sent || FromResponse(resp) != oracle[i]) {
          ok = false;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return ok;
}

}  // namespace

int RunServe(const Options& opts, Result* result) {
  const std::vector<Program> kernels = ServeKernels();
  std::vector<Variant> warm;
  for (size_t k = 0; k < kernels.size(); ++k) {
    for (const BuildPreset preset : kServePresets) {
      for (int v = 0; v < kWarmVariants; ++v) {
        warm.push_back({k, preset, WarmLiteral(v)});
      }
    }
  }

  // Reference record of the warm set (ref engine, in process); its retained
  // bytes size the daemon's memory tier.
  std::vector<Signature> oracle;
  ArtifactCache ref_cache;
  for (const Variant& v : warm) {
    oracle.push_back(ReferenceRun(kernels, v, &ref_cache));
    result->Count(oracle.back().ok);
  }
  const size_t cap =
      static_cast<size_t>(static_cast<double>(ref_cache.stats().bytes_retained) *
                          kCapOverWarmSet);
  // Base vs OurMPX / OurSeg of the pristine kernels: the simulated overhead.
  std::vector<double> mpx_ratio;
  std::vector<double> seg_ratio;
  double code_words = 0;
  for (size_t k = 0; k < kernels.size(); ++k) {
    const Signature base = ReferenceRun(kernels, {k, BuildPreset::kBase, 990001}, &ref_cache);
    const Signature mpx = ReferenceRun(kernels, {k, BuildPreset::kOurMpx, 990001}, &ref_cache);
    const Signature seg = ReferenceRun(kernels, {k, BuildPreset::kOurSeg, 990001}, &ref_cache);
    result->Count(base.ok && mpx.ok && seg.ok && mpx.ret == base.ret && seg.ret == base.ret);
    mpx_ratio.push_back(static_cast<double>(mpx.cycles) / base.cycles);
    seg_ratio.push_back(static_cast<double>(seg.cycles) / base.cycles);
    DiagEngine diags;
    auto cp = Compile(kernels[k].source, ConfigFor(BuildPreset::kOurMpx), &diags, nullptr,
                      &ref_cache);
    code_words += cp != nullptr ? static_cast<double>(cp->prog->binary.code.size()) : 0;
  }

  // Set-up: start the daemon and warm it, repeated; the last one serves.
  const std::string socket = opts.workdir + "/confccd.sock";
  Daemon daemon;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    daemon.Stop();
    const double scale = kProbeRefMs / HostProbeMs(opts.workers);
    const auto t0 = Clock::now();
    const bool up = daemon.Start(opts, socket, cap);
    const bool warmed = up && WarmUp(kernels, warm, oracle, socket, opts.workers);
    setup_s.push_back(MsSince(t0) / 1e3 * scale);
    result->Count(warmed);
    if (!warmed) {
      Report("serve: daemon set-up failed");
      return 1;
    }
  }
  Report("serve: %zu warm variants, memory tier capped at %zu bytes, setup %.3f s",
         warm.size(), cap, Median(setup_s));

  const Json before = StatsSnapshot(socket);
  std::atomic<uint64_t> edits_issued{0};
  std::vector<std::vector<Sample>> per_client(opts.workers);
  // The timed period runs in epochs of kWindowSeconds: all clients send in a
  // closed loop until the epoch ends, then the host probe runs while the
  // daemon is idle. Each epoch is one statistics window.
  const size_t epochs = std::max<size_t>(1, static_cast<size_t>(opts.seconds / kWindowSeconds));
  Windowed all_w(Clock::now(), opts.seconds, kWindowSeconds);
  Windowed edit_w(Clock::now(), opts.seconds, kWindowSeconds);
  std::vector<std::unique_ptr<ConfccdClient>> clients;
  std::vector<Rng> rngs;
  std::vector<size_t> cursors;
  for (unsigned c = 0; c < opts.workers; ++c) {
    std::string err;
    clients.push_back(std::make_unique<ConfccdClient>());
    clients.back()->Connect(socket, &err);
    rngs.emplace_back(opts.seed * 1000003 + c);
    cursors.push_back(rngs.back().Below(warm.size()));  // seeded client offset
  }
  const auto start = Clock::now();
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto epoch_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(kWindowSeconds));
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < opts.workers; ++c) {
      threads.emplace_back([&, c] {
        std::string err;
        while (Clock::now() < epoch_end) {
          Sample s;
          s.epoch = epoch;
          s.warm = cursors[c];
          s.variant = warm[s.warm];
          cursors[c] = (cursors[c] + 1) % warm.size();
          if (rngs[c].Below(kEditEvery) == 0) {
            s.edit = true;
            s.variant.literal = EditLiteral(opts.seed, edits_issued++);
          }
          Json resp;
          const auto r0 = Clock::now();
          const bool sent = clients[c]->CallWithRetry(ExecuteRequest(kernels, s.variant, c),
                                                      &resp, &err, 25, &s.retries);
          s.rtt_ms = MsSince(r0);
          s.sig = FromResponse(resp);
          s.ok = sent && s.sig.ok;
          if (const Json* t = resp.Find("total_ms")) {
            s.total_ms = t->AsDouble();
          }
          if (const Json* stages = resp.Find("stages")) {
            for (const Json& row : stages->items()) {
              s.restore_ms += row.GetBool("cached") ? row.Find("ms")->AsDouble() : 0;
            }
          }
          per_client[c].push_back(s);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    const double probe = HostProbeMs(opts.workers);
    all_w.AddProbeTo(epoch, probe);
    edit_w.AddProbeTo(epoch, probe);
  }
  const double elapsed_s = MsSince(start) / 1e3;
  const Json after = StatsSnapshot(socket);
  const double peak_rss = PeakRssMb(daemon.pid());
  daemon.Stop();

  // Check every response: warm ones against the record, edits against an
  // in-process run of the edited source (in parallel, after the window).
  std::vector<Sample*> samples;
  std::vector<Sample*> edits;
  for (auto& list : per_client) {
    for (Sample& s : list) {
      samples.push_back(&s);
      if (s.edit) {
        edits.push_back(&s);
      }
    }
  }
  for (Sample* s : samples) {
    if (!s->edit) {
      s->ok = s->ok && s->sig == oracle[s->warm];
    }
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < opts.workers; ++c) {
    threads.emplace_back([&] {
      ArtifactCache cache;
      for (size_t i = next++; i < edits.size(); i = next++) {
        Sample* s = edits[i];
        s->ok = s->ok && s->sig == ReferenceRun(kernels, s->variant, &cache, VmOptions{}.engine);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<double> all_ms;
  std::vector<double> edit_ms;
  std::vector<double> pipeline_ms;
  std::vector<double> outside_ms;
  std::vector<double> restore_ms;
  double retries = 0;
  for (const Sample* s : samples) {
    result->Count(s->ok);
    all_ms.push_back(s->rtt_ms);
    all_w.AddTo(s->epoch, s->rtt_ms);
    if (s->edit) {
      edit_ms.push_back(s->rtt_ms);
      edit_w.AddTo(s->epoch, s->rtt_ms);
    }
    pipeline_ms.push_back(s->total_ms);
    outside_ms.push_back(s->rtt_ms - s->total_ms);
    restore_ms.push_back(s->restore_ms);
    retries += s->retries;
  }
  Report("serve: host probe %.2f ms (reference %.1f ms)", all_w.ProbeMs(), kProbeRefMs);
  Report("serve: %zu requests in %.2f s (%zu edits, %.2f%% of requests), p50 %.3f ms, "
         "p99 %.3f ms, edit p50 %.3f ms",
         samples.size(), elapsed_s, edits.size(),
         samples.empty() ? 0.0 : 100.0 * edits.size() / samples.size(),
         Percentile(all_ms, 0.5), Percentile(all_ms, 0.99), Percentile(edit_ms, 0.5));

  if (opts.trace) {
    const double hits = StatDelta(before, after, "cache_json", "hits");
    const double misses = StatDelta(before, after, "cache_json", "misses");
    result->Set("driver.cache_hit_ratio", hits + misses == 0 ? 0 : hits / (hits + misses),
                "ratio");
    result->Set("driver.restore_ms", Median(restore_ms), "ms");
    result->Set("driver.shared_waits", StatDelta(before, after, "cache_json", "shared_waits"),
                "count");
    result->Set("driver.evictions", StatDelta(before, after, "cache_json", "evictions"),
                "count");
    result->Set("driver.disk_hits", StatDelta(before, after, "cache_json", "disk_hits"),
                "count");
    result->Set("driver.disk_stores", StatDelta(before, after, "cache_json", "disk_stores"),
                "count");
    AddServiceMetrics(pipeline_ms, outside_ms, retries,
                      StatDelta(before, after, "sched_json", "rejected_queue_full") +
                          StatDelta(before, after, "sched_json", "rejected_client_cap"),
                      result);
    // In-process replay of a sample: one warm variant and one edit per
    // kernel x preset, through the public layer calls.
    std::vector<WalkItem> items;
    for (size_t k = 0; k < kernels.size(); ++k) {
      for (const BuildPreset preset : kServePresets) {
        for (const uint64_t literal : {WarmLiteral(0), EditLiteral(opts.seed, k)}) {
          Program p = kernels[k];
          p.source = WithEditSlot(p.source, literal);
          items.push_back({p, preset});
        }
      }
    }
    TracedWalk(items, opts, result);
    return 0;
  }

  result->Set("setup_s", Median(setup_s), "s");
  result->Set("peak_rss_mb", peak_rss, "MB");
  result->Set("ops_per_s", all_w.Rate(), "1/s");
  result->Set("p50_ms", all_w.Percentile(0.5), "ms");
  result->Set("p99_ms", all_w.Percentile(0.99), "ms");
  result->Set("secondary_p50_ms", edit_w.Percentile(0.5), "ms");
  result->Set("code_words", code_words, "words");
  result->Set("sim_overhead_mpx_pct", (GeoMean(mpx_ratio) - 1) * 100, "%");
  result->Set("sim_overhead_seg_pct", (GeoMean(seg_ratio) - 1) * 100, "%");
  return 0;
}

}  // namespace perfbench
