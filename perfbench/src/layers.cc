#include "perfbench/src/layers.h"

#include <filesystem>
#include <memory>

#include "bench/workloads.h"
#include "src/codegen/codegen.h"
#include "src/driver/artifact_cache.h"
#include "src/ir/irgen.h"
#include "src/isa/binary.h"
#include "src/isa/link.h"
#include "src/lang/parser.h"
#include "src/opt/passes.h"
#include "src/runtime/loader.h"
#include "src/sema/sema.h"
#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/service/server.h"
#include "src/verifier/verifier.h"
#include "src/vm/trace_tier.h"
#include "src/vm/vm.h"

namespace perfbench {

using namespace confllvm;

namespace {

constexpr VmEngine kEngines[3] = {VmEngine::kRef, VmEngine::kFast, VmEngine::kTrace};
constexpr const char* kEngineNames[3] = {"ref", "fast", "trace"};
constexpr int kFast = 1;
constexpr int kTrace = 2;

// Counters gathered by a traced walk.
struct WalkCounters {
  double qual_constraints = 0;
  double worklist_pops = 0;
  double ir_instrs = 0;
  double opt_invocations = 0;
  double opt_changed = 0;
  double ir_instrs_out = 0;
  double code_words = 0;
  double bnd_emitted = 0;
  double bnd_coalesced = 0;
  double private_spills = 0;
  double verified_instrs = 0;
  double trusted_calls = 0;
  double trusted_cycles = 0;
  double check_instrs = 0;
  double cfi_instrs = 0;
  double cache_miss_cycles = 0;
  double promoted_blocks = 0;
  double entry_bails = 0;
  double trace_instrs = 0;
  double sim_instrs_trace = 0;
  double guest_ms[3] = {0, 0, 0};      // ref, fast, trace
  double guest_instrs[3] = {0, 0, 0};
  double parallel_ms = 0;  // RunParallel rows, fast engine
  double parallel_instrs = 0;
  std::vector<double> disk_restore_ms;
};

// The pipeline's own output for one item, compiled cold through a cache
// with a disk tier and then rebuilt by a fresh cache opened on that disk
// tier (the `confcc --cache-dir` restart path; the restart's wall time less
// its Verify stage is one disk-restore sample). Returns the serialized
// binary, empty on failure or when the two builds differ.
std::vector<uint8_t> PipelineBytes(const std::string& source, const BuildConfig& config,
                                   const std::string& disk_dir, WalkCounters* c) {
  std::vector<uint8_t> bytes[2];
  for (int pass = 0; pass < 2; ++pass) {
    ArtifactCache cache;
    if (!cache.AttachDiskTier({disk_dir, 0})) {
      return {};
    }
    CompilerInvocation inv(source, config);
    inv.set_cache(&cache);
    const auto t0 = Clock::now();
    if (!RunStandardPipeline(&inv, WantsVerify(config))) {
      return {};
    }
    if (pass == 1) {
      const StageStats* verify = inv.stats().Find(StageId::kVerify);
      c->disk_restore_ms.push_back(MsSince(t0) - (verify != nullptr ? verify->ms : 0));
    }
    bytes[pass] = SerializeBinary(inv.TakeProgram()->prog->binary);
  }
  return bytes[0] == bytes[1] ? bytes[0] : std::vector<uint8_t>{};
}

// Serialization round trip, three loads, ConfVerify, and one session per
// engine. `expected` is the pipeline's serialized output for the same
// program; the loaded binary must match it byte for byte, and every engine
// must produce the same signature.
bool RunBinary(const Binary& bin, const BuildConfig& config, const Program& program,
               const std::vector<uint8_t>& expected, uint64_t req, SpanLog* log,
               WalkCounters* c, Signature* sig_out) {
  bool ok = true;
  std::vector<uint8_t> blob;
  {
    Scope s(log, "isa.serialize", req);
    blob = SerializeBinary(bin);
  }
  Binary round;
  bool decoded = false;
  {
    Scope s(log, "isa.deserialize", req);
    decoded = DeserializeBinary(blob, &round);
  }
  ok = ok && decoded && SerializeBinary(round) == blob;

  DiagEngine diags;
  std::unique_ptr<LoadedProgram> progs[3];
  for (auto& prog : progs) {
    Scope s(log, "runtime.load", req);
    prog = LoadBinary(bin, config.load, &diags);
  }
  for (const auto& prog : progs) {
    if (prog == nullptr) {
      return false;
    }
  }
  if (WantsVerify(config)) {
    VerifyResult vr;
    {
      Scope s(log, "verifier", req);
      vr = Verify(*progs[0]);
    }
    ok = ok && vr.ok;
    c->verified_instrs += static_cast<double>(vr.instructions);
  }
  ok = ok && SerializeBinary(progs[0]->binary) == expected;

  Signature sigs[3];
  for (int e = 0; e < 3; ++e) {
    auto cp = std::make_unique<CompiledProgram>();
    cp->prog = std::move(progs[e]);
    cp->config = config;
    VmOptions vo;
    vo.engine = kEngines[e];
    std::unique_ptr<Session> session;
    {
      Scope s(log, std::string("vm.session_setup.") + kEngineNames[e], req);
      session = MakeSessionFor(std::move(cp), vo);
    }
    double guest_ms = 0;
    {
      Scope s(log, std::string("vm.call.") + kEngineNames[e], req);
      sigs[e] = DriveSession(program, session.get(), &guest_ms);
    }
    c->guest_ms[e] += guest_ms;
    c->guest_instrs[e] += static_cast<double>(sigs[e].instrs);
    const VmStats& st = session->vm->stats();
    if (e == kFast) {
      c->trusted_calls += static_cast<double>(st.trusted_calls);
      c->trusted_cycles += static_cast<double>(st.trusted_cycles);
      c->check_instrs += static_cast<double>(st.check_instrs);
      c->cfi_instrs += static_cast<double>(st.cfi_instrs);
      c->cache_miss_cycles += static_cast<double>(st.cache_miss_cycles);
      if (program.drive == Drive::kMerkle) {
        c->parallel_ms += guest_ms;
        c->parallel_instrs += static_cast<double>(sigs[e].instrs);
      }
    }
    if (e == kTrace && session->vm->trace_tier() != nullptr) {
      const TraceTierStats ts = session->vm->trace_tier()->Telemetry();
      c->promoted_blocks += static_cast<double>(ts.promoted_blocks);
      c->entry_bails += static_cast<double>(ts.entry_bails);
      c->trace_instrs += static_cast<double>(ts.trace_instrs);
      c->sim_instrs_trace += static_cast<double>(st.instrs);
    }
  }
  ok = ok && sigs[0].ok && sigs[0] == sigs[1] && sigs[0] == sigs[2];
  *sig_out = sigs[0];
  return ok;
}

bool WalkProgram(const WalkItem& item, uint64_t req, const std::string& disk_dir,
                 SpanLog* log, WalkCounters* c) {
  Scope root(log, "walk", req);
  const BuildConfig config = ConfigFor(item.preset);
  const std::vector<uint8_t> expected =
      PipelineBytes(item.program.source, config, disk_dir, c);
  if (expected.empty()) {
    return false;
  }
  DiagEngine diags;
  std::unique_ptr<confllvm::Program> ast;
  {
    Scope s(log, "lang.parse", req);
    ast = Parse(item.program.source, &diags);
  }
  if (ast == nullptr || diags.HasErrors()) {
    return false;
  }
  std::unique_ptr<TypedProgram> typed;
  {
    Scope s(log, "sema", req);
    typed = RunSema(std::move(ast), config.sema, &diags);
  }
  if (typed == nullptr) {
    return false;
  }
  c->qual_constraints += static_cast<double>(typed->solver_stats.constraints);
  c->worklist_pops += static_cast<double>(typed->solver_stats.worklist_pops);
  std::unique_ptr<IrModule> ir;
  {
    Scope s(log, "ir.irgen", req);
    ir = GenerateIr(*typed, &diags);
  }
  if (ir == nullptr) {
    return false;
  }
  c->ir_instrs += static_cast<double>(CountInstrs(*ir));
  PassPipelineOptions popts;
  popts.level = config.opt_level;
  popts.ct = config.sema.ct;
  popts.whole_program = config.whole_program;
  std::vector<PassRunStats> passes;
  {
    Scope s(log, "opt", req);
    OptimizeModule(ir.get(), popts, &passes);
  }
  for (const PassRunStats& p : passes) {
    c->opt_invocations += static_cast<double>(p.invocations);
    c->opt_changed += static_cast<double>(p.changed);
  }
  c->ir_instrs_out += static_cast<double>(CountInstrs(*ir));
  CodegenStats cg;
  Binary bin;
  {
    Scope s(log, "codegen", req);
    bin = GenerateCode(*ir, config.codegen, &diags, &cg, config.codegen_jobs);
  }
  if (diags.HasErrors()) {
    return false;
  }
  c->code_words += static_cast<double>(cg.code_words);
  c->bnd_emitted += static_cast<double>(cg.bnd_checks_emitted);
  c->bnd_coalesced += static_cast<double>(cg.bnd_checks_coalesced);
  c->private_spills += static_cast<double>(cg.private_spills);
  Signature sig;
  return RunBinary(bin, config, item.program, expected, req, log, c, &sig);
}

// The split LDAP program: BuildGraph + BuildScheduler (with link-time
// verify), then LinkBinaries over the scheduler's module objects, which
// must reproduce the scheduler's image. Its main() must return the same
// hit count and send the same bytes as the monolithic LDAP app.
bool WalkSplit(BuildPreset preset, uint64_t req, unsigned workers, SpanLog* log,
               WalkCounters* c) {
  Scope root(log, "walk", req);
  const BuildConfig config = ConfigFor(preset);
  ArtifactCache cache;
  const LinkedBuild build = [&] {
    Scope s(log, "driver.build_graph", req);
    return BuildSplit(config, /*verify=*/true, &cache, workers);
  }();
  if (!build.ok) {
    return false;
  }
  const std::vector<uint8_t> expected = SerializeBinary(build.prog->binary);
  std::vector<const Binary*> bins;
  for (const ModuleOutcome& mo : build.modules) {
    bins.push_back(mo.invocation->binary.get());
  }
  DiagEngine diags;
  std::unique_ptr<Binary> linked;
  {
    Scope s(log, "isa.link", req);
    linked = LinkBinaries(bins, &diags);
  }
  if (linked == nullptr) {
    return false;
  }
  const Program split{"ldap-split", "", Drive::kMain, false};
  Signature sig;
  bool ok = RunBinary(*linked, config, split, expected, req, log, c, &sig);

  DiagEngine mono_diags;
  auto mono = Compile(workloads::kLdap, config, &mono_diags);
  if (mono == nullptr) {
    return false;
  }
  auto session = MakeSessionFor(std::move(mono));
  const Signature mono_sig = DriveSession(split, session.get());
  return ok && mono_sig.ok && sig.ret == mono_sig.ret && sig.sent_hash == mono_sig.sent_hash;
}

double MeanSelf(const std::map<std::string, SpanLog::Totals>& sums, const std::string& name) {
  auto it = sums.find(name);
  return it == sums.end() || it->second.calls == 0
             ? 0
             : it->second.self_ms / static_cast<double>(it->second.calls);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

bool WalkOne(const WalkItem& item, uint64_t req, const std::string& disk_dir,
             unsigned workers, SpanLog* log, WalkCounters* c) {
  const bool ok = item.split ? WalkSplit(item.preset, req, workers, log, c)
                             : WalkProgram(item, req, disk_dir, log, c);
  if (!ok) {
    Report("walk: %s/%s FAILED", item.program.name.c_str(), PresetName(item.preset));
  }
  return ok;
}

std::vector<WalkItem> WithFixedRows(std::vector<WalkItem> items) {
  bool parallel = false;
  for (const WalkItem& item : items) {
    parallel = parallel || item.program.drive == Drive::kMerkle;
  }
  if (!parallel) {
    for (const Program& row : ExecRows()) {
      if (row.drive == Drive::kMerkle) {
        items.push_back({row, BuildPreset::kOurMpx, false});
      }
    }
  }
  const Program split{"ldap-split", "", Drive::kMain, false};
  items.push_back({split, BuildPreset::kOurMpx, true});
  items.push_back({split, BuildPreset::kOurSeg, true});
  return items;
}

// Emits the per-layer metrics derived from the walk's spans and counters.
void AddWalkMetrics(const SpanLog& log, const WalkCounters& c, Result* r) {
  const auto sums = log.Summarize();
  r->Set("lang.parse_ms", MeanSelf(sums, "lang.parse"), "ms");
  r->Set("sema.ms", MeanSelf(sums, "sema"), "ms");
  r->Set("sema.qual_constraints", c.qual_constraints, "count");
  r->Set("sema.worklist_pops", c.worklist_pops, "count");
  r->Set("ir.irgen_ms", MeanSelf(sums, "ir.irgen"), "ms");
  r->Set("ir.instrs", c.ir_instrs, "count");
  r->Set("opt.ms", MeanSelf(sums, "opt"), "ms");
  r->Set("opt.changed_ratio", Ratio(c.opt_changed, c.opt_invocations), "ratio");
  r->Set("opt.ir_instrs_out", c.ir_instrs_out, "count");
  r->Set("codegen.ms", MeanSelf(sums, "codegen"), "ms");
  r->Set("codegen.code_words", c.code_words, "words");
  r->Set("codegen.bnd_checks_emitted", c.bnd_emitted, "count");
  r->Set("codegen.bnd_checks_coalesced", c.bnd_coalesced, "count");
  r->Set("codegen.private_spills", c.private_spills, "count");
  r->Set("isa.link_ms", MeanSelf(sums, "isa.link"), "ms");
  r->Set("isa.serialize_ms", MeanSelf(sums, "isa.serialize"), "ms");
  r->Set("isa.deserialize_ms", MeanSelf(sums, "isa.deserialize"), "ms");
  r->Set("runtime.load_ms", MeanSelf(sums, "runtime.load"), "ms");
  r->Set("runtime.trusted_calls", c.trusted_calls, "count");
  r->Set("runtime.trusted_cycles", c.trusted_cycles, "cycles");
  r->Set("verifier.ms", MeanSelf(sums, "verifier"), "ms");
  const auto vit = sums.find("verifier");
  r->Set("verifier.instrs_per_ms",
         Ratio(c.verified_instrs, vit == sums.end() ? 0 : vit->second.self_ms),
         "instrs/ms");
  r->Set("driver.build_graph_ms", MeanSelf(sums, "driver.build_graph"), "ms");
  r->Set("driver.disk_restore_ms", Median(c.disk_restore_ms), "ms");
  for (int e = 0; e < 3; ++e) {
    const std::string name = kEngineNames[e];
    r->Set("vm.session_setup_ms." + name, MeanSelf(sums, "vm.session_setup." + name), "ms");
    r->Set("vm.guest_mips." + name, Ratio(c.guest_instrs[e], c.guest_ms[e] * 1e3), "MIPS");
  }
  r->Set("vm.call_ms", MeanSelf(sums, "vm.call.fast"), "ms");
  r->Set("vm.parallel_mips", Ratio(c.parallel_instrs, c.parallel_ms * 1e3), "MIPS");
  r->Set("vm.trace.promoted_blocks", c.promoted_blocks, "count");
  r->Set("vm.trace.entry_bails", c.entry_bails, "count");
  r->Set("vm.trace.coverage", Ratio(c.trace_instrs, c.sim_instrs_trace), "ratio");
  r->Set("vm.check_instrs", c.check_instrs, "count");
  r->Set("vm.cfi_instrs", c.cfi_instrs, "count");
  r->Set("vm.cache_miss_cycles", c.cache_miss_cycles, "cycles");
}

}  // namespace

void TracedWalk(const std::vector<WalkItem>& workload_items, const Options& opts,
                Result* result) {
  const std::vector<WalkItem> items = WithFixedRows(workload_items);
  const std::string disk_dir = opts.workdir + "/walk-disk";
  std::filesystem::remove_all(disk_dir);
  SpanLog log;
  WalkCounters counters;
  WalkCounters untraced_counters;
  double traced_ms = 0;
  double untraced_ms = 0;
  // Each item runs untraced and traced back to back, alternating which
  // goes first, so warm-up favours neither side of the overhead figure.
  for (size_t i = 0; i < items.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (i + k) % 2 == 1;
      const auto t0 = Clock::now();
      result->Count(WalkOne(items[i], i + 1, disk_dir, opts.workers,
                            traced ? &log : nullptr,
                            traced ? &counters : &untraced_counters));
      (traced ? traced_ms : untraced_ms) += MsSince(t0);
    }
  }
  std::filesystem::remove_all(disk_dir);
  if (!opts.spans_path.empty() && !log.WriteJson(opts.spans_path)) {
    Report("cannot write %s", opts.spans_path.c_str());
  }
  AddWalkMetrics(log, counters, result);
  result->Set("trace.overhead_pct", (Ratio(traced_ms, untraced_ms) - 1) * 100, "%");
  Report("layer walk: %zu items, %zu spans, untraced %.1f ms, traced %.1f ms", items.size(),
         log.spans().size(), untraced_ms, traced_ms);
}

void AddServiceMetrics(const std::vector<double>& pipeline_ms,
                       const std::vector<double>& outside_ms, double retries,
                       double rejects, Result* result) {
  result->Set("service.pipeline_ms", Median(pipeline_ms), "ms");
  result->Set("service.outside_pipeline_ms", Median(outside_ms), "ms");
  result->Set("service.retries", retries, "count");
  result->Set("service.rejects", rejects, "count");
}

void ServiceProbe(const std::vector<WalkItem>& items, const Options& opts, Result* result) {
  ConfccdServer::Options so;
  so.socket_path = opts.workdir + "/probe.sock";
  so.sched.num_workers = opts.workers;
  ConfccdServer server(so);
  std::string err;
  if (!server.Start(&err)) {
    Report("service probe: %s", err.c_str());
    result->Count(false);
    return;
  }
  ConfccdClient client;
  if (!client.Connect(so.socket_path, &err)) {
    Report("service probe: %s", err.c_str());
    result->Count(false);
    server.Stop();
    return;
  }
  std::vector<double> pipeline_ms;
  std::vector<double> outside_ms;
  double retries = 0;
  for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
    for (const WalkItem& item : items) {
      Json req = Json::Object();
      req.Set("verb", Json::Str("execute"));
      req.Set("source", Json::Str(item.program.source));
      req.Set("preset", Json::Str(PresetName(item.preset)));
      req.Set("verify", Json::Bool(true));
      if (item.program.drive == Drive::kCtKernel) {
        req.Set("entry", Json::Str("kernel"));
        Json args = Json::Array();
        args.Append(Json::UInt(42));
        args.Append(Json::UInt(7));
        req.Set("args", std::move(args));
      }
      Json resp;
      int req_retries = 0;
      const auto t0 = Clock::now();
      const bool sent = client.CallWithRetry(req, &resp, &err, 25, &req_retries);
      const double rtt = MsSince(t0);
      retries += req_retries;
      const bool ok = sent && resp.GetString("status") == "ok" && resp.GetBool("ran_ok");
      result->Count(ok);
      if (ok) {
        const Json* total = resp.Find("total_ms");
        const double total_ms = total != nullptr ? total->AsDouble() : 0;
        pipeline_ms.push_back(total_ms);
        outside_ms.push_back(rtt - total_ms);
      }
    }
  }
  client.Close();
  const ServeScheduler::Stats ss = server.scheduler().stats();
  server.Stop();
  AddServiceMetrics(pipeline_ms, outside_ms, retries,
                    static_cast<double>(ss.rejected_queue_full + ss.rejected_client_cap),
                    result);
}

}  // namespace perfbench
