#include "src/driver/build_graph.h"

#include <algorithm>

#include "src/driver/artifact_cache.h"
#include "src/runtime/loader.h"
#include "src/support/bytes.h"
#include "src/support/parallel.h"
#include "src/support/strings.h"
#include "src/verifier/verifier.h"

namespace confllvm {

bool BuildGraph::AddModule(const std::string& name, std::string source,
                           DiagEngine* diags) {
  if (finalized_) {
    diags->Error(SourceLoc{}, "build graph already finalized");
    return false;
  }
  if (name.empty()) {
    diags->Error(SourceLoc{}, "module name cannot be empty");
    return false;
  }
  if (ModuleIndex(name) >= 0) {
    diags->Error(SourceLoc{},
                 StrFormat("duplicate module '%s' in build graph", name.c_str()));
    return false;
  }
  modules_.push_back({name, std::move(source), {}, 0});
  return true;
}

int BuildGraph::ModuleIndex(const std::string& name) const {
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (modules_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool BuildGraph::Finalize(const BuildConfig& config, DiagEngine* diags,
                          ArtifactCache* cache, unsigned num_workers) {
  if (finalized_) {
    diags->Error(SourceLoc{}, "build graph already finalized");
    return false;
  }
  if (modules_.empty()) {
    diags->Error(SourceLoc{}, "build graph has no modules");
    return false;
  }

  // 1. Parse every module concurrently through the cache; the later object
  // compile restores the identical Parse artifact instead of re-lexing.
  std::vector<std::unique_ptr<CompilerInvocation>> parses(modules_.size());
  ParallelFor(modules_.size(), num_workers, [&](size_t i) {
    parses[i] = std::make_unique<CompilerInvocation>(modules_[i].source, config);
    parses[i]->set_cache(cache);
    PassManager::ParseOnly().Run(parses[i].get());
  });

  bool ok = true;
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (parses[i]->ast == nullptr || parses[i]->diags().HasErrors()) {
      diags->Error(SourceLoc{},
                   StrFormat("module '%s' failed to parse:", modules_[i].name.c_str()));
      diags->Append(parses[i]->diags());
      ok = false;
    }
  }
  if (!ok) {
    return false;
  }

  // 2. Interfaces and dependency edges.
  for (size_t i = 0; i < modules_.size(); ++i) {
    interfaces_.Add(ExtractModuleInterface(*parses[i]->ast, modules_[i].name,
                                           config.sema.all_private));
  }
  for (size_t i = 0; i < modules_.size(); ++i) {
    for (const ImportDecl& id : parses[i]->ast->imports) {
      const int dep = ModuleIndex(id.module);
      if (dep < 0) {
        diags->Error(id.loc,
                     StrFormat("module '%s' imports unknown module '%s'",
                               modules_[i].name.c_str(), id.module.c_str()));
        ok = false;
        continue;
      }
      if (static_cast<size_t>(dep) == i) {
        diags->Error(id.loc, StrFormat("module '%s' imports itself",
                                       modules_[i].name.c_str()));
        ok = false;
        continue;
      }
      modules_[i].deps.push_back(static_cast<size_t>(dep));
    }
    // Canonical order + dedup (sema separately rejects duplicate import
    // declarations; the graph just needs a stable fingerprint basis).
    auto& d = modules_[i].deps;
    std::sort(d.begin(), d.end(), [this](size_t a, size_t b) {
      return modules_[a].name < modules_[b].name;
    });
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }
  if (!ok) {
    return false;
  }

  // 3. Imports fingerprint: direct dependencies' names + interface
  // fingerprints, in canonical order. Body edits leave it unchanged;
  // exported-signature edits change the dependency's interface fingerprint
  // and therefore every direct importer's sema key.
  for (Module& m : modules_) {
    uint64_t h = Fnv1a64(nullptr, 0);  // offset basis
    for (const size_t dep : m.deps) {
      const std::string& dep_name = modules_[dep].name;
      h = Fnv1a64(reinterpret_cast<const uint8_t*>(dep_name.data()),
                  dep_name.size(), h);
      const uint64_t fp = interfaces_.Find(dep_name)->Fingerprint();
      h = Fnv1a64(reinterpret_cast<const uint8_t*>(&fp), sizeof fp, h);
    }
    m.imports_fingerprint = h;
  }

  // 4. Wave schedule (Kahn layers). Anything left unplaced is on a cycle.
  std::vector<size_t> indegree(modules_.size(), 0);
  std::vector<std::vector<size_t>> dependents(modules_.size());
  for (size_t i = 0; i < modules_.size(); ++i) {
    indegree[i] = modules_[i].deps.size();
    for (const size_t dep : modules_[i].deps) {
      dependents[dep].push_back(i);
    }
  }
  std::vector<bool> placed(modules_.size(), false);
  std::vector<size_t> frontier;
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (indegree[i] == 0) {
      frontier.push_back(i);
    }
  }
  size_t total_placed = 0;
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end());
    waves_.push_back(frontier);
    std::vector<size_t> next_frontier;
    for (const size_t i : frontier) {
      placed[i] = true;
      ++total_placed;
      for (const size_t d : dependents[i]) {
        if (--indegree[d] == 0) {
          next_frontier.push_back(d);
        }
      }
    }
    frontier = std::move(next_frontier);
  }
  if (total_placed != modules_.size()) {
    std::string cycle;
    for (size_t i = 0; i < modules_.size(); ++i) {
      if (!placed[i]) {
        if (!cycle.empty()) {
          cycle += ", ";
        }
        cycle += modules_[i].name;
      }
    }
    diags->Error(SourceLoc{},
                 StrFormat("import cycle among modules: %s", cycle.c_str()));
    return false;
  }

  finalized_ = true;
  return true;
}

// ---- Scheduler ----

Json BuildGraphStats::ToJson() const {
  Json link_json = Json::Object();
  link_json.Set("code_words", Json::UInt(link.code_words));
  link_json.Set("functions", Json::UInt(link.functions));
  link_json.Set("resolved_call_sites", Json::UInt(link.resolved_call_sites));
  link_json.Set("contract_checks", Json::UInt(link.contract_checks));
  Json detail = Json::Array();
  for (const PerModule& m : per_module) {
    Json row = Json::Object();
    row.Set("name", Json::Str(m.name));
    row.Set("wave", Json::UInt(m.wave));
    row.Set("ok", Json::Bool(m.ok));
    row.Set("skipped", Json::Bool(m.skipped));
    row.Set("codegen_cached", Json::Bool(m.codegen_cached));
    row.Set("ms", Json::Double(m.ms));
    detail.Append(std::move(row));
  }
  Json j = Json::Object();
  j.Set("modules", Json::UInt(modules));
  j.Set("waves", Json::UInt(waves));
  j.Set("codegen_ran", Json::UInt(codegen_ran));
  j.Set("link_cached", Json::Bool(link_cached));
  j.Set("link", std::move(link_json));
  j.Set("module_detail", std::move(detail));
  return j;
}

LinkedBuild BuildScheduler::Run(ArtifactCache* cache) {
  LinkedBuild out;
  out.modules.resize(graph_->num_modules());
  out.stats.modules = graph_->num_modules();
  out.stats.waves = graph_->waves().size();
  // Name every outcome up front so the stats rows of modules in waves that
  // never ran (an earlier wave failed) still carry their identity.
  for (size_t w = 0; w < graph_->waves().size(); ++w) {
    for (const size_t i : graph_->waves()[w]) {
      out.modules[i].name = graph_->module_name(i);
      out.modules[i].wave = w;
    }
  }

  // 1. Compile wave by wave; modules within a wave run concurrently on the
  // batch pool, all through the shared cache. Failure isolation: a broken
  // module fails only its own wave entry — its transitive dependents are
  // skipped with a diagnostic, every independent module still compiles, and
  // all waves run to completion so a partial build warms the cache for the
  // fixed rebuild.
  std::vector<char> failed(graph_->num_modules(), 0);
  bool compile_ok = true;
  for (size_t w = 0; w < graph_->waves().size(); ++w) {
    const std::vector<size_t>& wave = graph_->waves()[w];
    std::vector<size_t> runnable;
    runnable.reserve(wave.size());
    for (const size_t i : wave) {
      size_t bad_dep = graph_->num_modules();
      for (const size_t dep : graph_->deps(i)) {
        if (failed[dep]) {
          bad_dep = dep;
          break;
        }
      }
      if (bad_dep != graph_->num_modules()) {
        failed[i] = 1;
        compile_ok = false;
        out.modules[i].skipped = true;
        out.diags.Error(
            SourceLoc{},
            StrFormat("module '%s' skipped: dependency '%s' failed to compile",
                      graph_->module_name(i).c_str(),
                      graph_->module_name(bad_dep).c_str()));
        continue;
      }
      runnable.push_back(i);
    }
    if (runnable.empty()) {
      continue;
    }
    std::vector<BatchJob> jobs;
    jobs.reserve(runnable.size());
    for (const size_t i : runnable) {
      BatchJob job;
      job.label = graph_->module_name(i);
      job.source = graph_->module_source(i);
      job.config = config_;
      // Object compiles feed the linker: other modules call into this one,
      // so whole-program call-site rewrites (dead-arg elim) are unsound.
      job.config.whole_program = false;
      job.object_only = true;
      job.interfaces = &graph_->interfaces();
      job.imports_fingerprint = graph_->ImportsFingerprint(i);
      job.deadline_ms = opts_.deadline_ms;
      jobs.push_back(std::move(job));
    }
    std::vector<BatchOutcome> outcomes =
        CompileBatch(jobs, opts_.num_workers, cache);
    for (size_t k = 0; k < runnable.size(); ++k) {
      ModuleOutcome& mo = out.modules[runnable[k]];
      mo.ok = outcomes[k].ok;
      mo.invocation = std::move(outcomes[k].invocation);
      if (!mo.ok) {
        failed[runnable[k]] = 1;
        compile_ok = false;
        // Aggregate the module's own diagnostics so a caller reading only
        // LinkedBuild.diags sees every failure, attributed to its module.
        out.diags.Error(SourceLoc{},
                        StrFormat("module '%s' failed to compile:",
                                  mo.name.c_str()));
        if (mo.invocation != nullptr) {
          out.diags.Append(mo.invocation->diags());
        }
      }
    }
  }

  // Per-module stats rows (also for partially-built graphs).
  for (const ModuleOutcome& mo : out.modules) {
    BuildGraphStats::PerModule pm;
    pm.name = mo.name;
    pm.wave = mo.wave;
    pm.ok = mo.ok;
    pm.skipped = mo.skipped;
    if (mo.invocation != nullptr) {
      const StageStats* cg = mo.invocation->stats().Find(StageId::kCodegen);
      pm.codegen_cached = cg != nullptr && cg->cached;
      if (mo.ok && cg != nullptr && !cg->cached) {
        ++out.stats.codegen_ran;
      }
      pm.ms = mo.invocation->stats().total_ms;
    }
    out.stats.per_module.push_back(std::move(pm));
  }
  if (!compile_ok) {
    return out;
  }

  // 2. Link the per-module binaries in graph order — through the cache when
  // one is attached. The link key chains over every module's Codegen key in
  // graph order, so a warm build (or daemon) relinks only when some module's
  // object genuinely changed. The concatenated key manifest travels as the
  // artifact's source text, extending the 64-bit key chain's collision
  // guard: a colliding key can waste a lookup, never substitute another
  // module set's image.
  std::vector<const Binary*> bins;
  bins.reserve(out.modules.size());
  for (const ModuleOutcome& mo : out.modules) {
    bins.push_back(mo.invocation->binary.get());
  }
  std::unique_ptr<Binary> linked;
  if (cache != nullptr) {
    std::vector<std::string> codegen_keys;
    codegen_keys.reserve(out.modules.size());
    for (const ModuleOutcome& mo : out.modules) {
      codegen_keys.push_back(CodegenCacheKey(*mo.invocation));
    }
    const std::string key = LinkCacheKey(codegen_keys);
    const std::string manifest = Join(codegen_keys, "\n");
    std::shared_ptr<const StageArtifact> hit =
        cache->Acquire(key, StageId::kLink);
    if (hit != nullptr && hit->binary != nullptr && hit->source != nullptr &&
        *hit->source == manifest) {
      linked = std::make_unique<Binary>(*hit->binary);
      out.stats.link = hit->link;
      out.stats.link_cached = true;
    } else if (hit != nullptr) {
      // Key collision (artifact present, manifest differs): link cold. No
      // producer registration is held, so nothing to publish or abandon.
      linked = LinkBinaries(bins, &out.diags, &out.stats.link);
    } else {
      // Producer for this key: must Put or Abandon, even on unwind.
      bool settled = false;
      try {
        linked = LinkBinaries(bins, &out.diags, &out.stats.link);
        if (linked != nullptr) {
          StageArtifact a;
          a.stage = StageId::kLink;
          a.binary = std::make_shared<const Binary>(*linked);
          a.link = out.stats.link;
          a.source = std::make_shared<const std::string>(manifest);
          a.bytes = ApproxBytes(*a.binary) + manifest.size();
          cache->Put(key, std::move(a));
        } else {
          cache->Abandon(key);
        }
        settled = true;
      } catch (...) {
        if (!settled) {
          cache->Abandon(key);
        }
        throw;
      }
    }
  } else {
    linked = LinkBinaries(bins, &out.diags, &out.stats.link);
  }
  if (linked == nullptr) {
    return out;
  }

  // 3. Load the merged image.
  out.prog = LoadBinary(std::move(*linked), config_.load, &out.diags);
  if (out.prog == nullptr) {
    return out;
  }

  // 4. Link-time ConfVerify: re-check the whole merged image — including
  // every cross-module call edge's taints against the callee's entry magic —
  // so a module whose interface was forged after sema is rejected here even
  // if it slipped past the linker's metadata check.
  if (opts_.verify) {
    out.verify_result = std::make_unique<VerifyResult>(Verify(*out.prog));
    if (!out.verify_result->ok) {
      for (const std::string& e : out.verify_result->errors) {
        out.diags.Error(SourceLoc{}, "confverify: " + e);
      }
      return out;
    }
  }

  out.ok = true;
  return out;
}

}  // namespace confllvm
