#include "src/driver/artifact_cache.h"

#include <algorithm>

#include "src/driver/disk_cache.h"
#include "src/support/strings.h"
#include "src/vm/exec_image.h"

namespace confllvm {

namespace {

// The disk tier is best-effort by contract, and two of its three call sites
// are delicate: Acquire holds an in-flight producer registration across the
// disk read (an escaping exception would strand every waiter on that key
// forever — the caller's ProducerGuard is only installed after Acquire
// returns), and Put runs after the memory publish (an escaping exception
// would crash a compile that already succeeded). The tier catches its own
// failure modes internally; these wrappers are the belt-and-braces layer
// that turns anything it missed (bad_alloc in a path string, a throwing
// filesystem call) into a plain miss / failed store / zero evictions.

DiskCacheTier::LoadResult SafeDiskLoad(DiskCacheTier* tier,
                                       const std::string& key) {
  try {
    return tier->Load(key);
  } catch (...) {
    return {};
  }
}

bool SafeDiskStore(DiskCacheTier* tier, const std::string& key,
                   const StageArtifact& artifact) {
  try {
    return tier->Store(key, artifact);
  } catch (...) {
    return false;
  }
}

size_t SafeDiskEvict(DiskCacheTier* tier) {
  try {
    return tier->EvictToCap();
  } catch (...) {
    return 0;
  }
}

size_t ApproxBytes(const TypeSyntax* t);
size_t ApproxBytes(const Expr* e);
size_t ApproxBytes(const Stmt* s);

size_t ApproxBytes(const TypeSyntax* t) {
  if (t == nullptr) {
    return 0;
  }
  size_t n = sizeof(TypeSyntax) + t->pointers.size() + t->array_dims.size() * 8;
  n += ApproxBytes(t->fn_ret.get());
  for (const auto& p : t->fn_params) {
    n += ApproxBytes(p.get());
  }
  return n;
}

size_t ApproxBytes(const Expr* e) {
  if (e == nullptr) {
    return 0;
  }
  size_t n = sizeof(Expr) + e->str_value.size() + e->name.size();
  n += ApproxBytes(e->lhs.get()) + ApproxBytes(e->rhs.get());
  for (const auto& a : e->args) {
    n += ApproxBytes(a.get());
  }
  n += ApproxBytes(e->type_syntax.get());
  return n;
}

size_t ApproxBytes(const Stmt* s) {
  if (s == nullptr) {
    return 0;
  }
  size_t n = sizeof(Stmt) + s->decl_name.size();
  n += ApproxBytes(s->expr.get()) + ApproxBytes(s->decl_init.get()) +
       ApproxBytes(s->cond.get()) + ApproxBytes(s->step.get());
  n += ApproxBytes(s->decl_type.get());
  n += ApproxBytes(s->for_init.get()) + ApproxBytes(s->then_stmt.get()) +
       ApproxBytes(s->else_stmt.get()) + ApproxBytes(s->body.get());
  for (const auto& sub : s->stmts) {
    n += ApproxBytes(sub.get());
  }
  return n;
}

}  // namespace

size_t ApproxBytes(const Program& p) {
  size_t n = sizeof(Program);
  for (const StructDecl& sd : p.structs) {
    n += sizeof(StructDecl);
    for (const FieldDecl& f : sd.fields) {
      n += sizeof(FieldDecl) + ApproxBytes(f.type.get());
    }
  }
  for (const GlobalDecl& g : p.globals) {
    n += sizeof(GlobalDecl) + ApproxBytes(g.type.get()) + ApproxBytes(g.init.get());
  }
  for (const FuncDecl& f : p.functions) {
    n += sizeof(FuncDecl) + ApproxBytes(f.ret_type.get()) + ApproxBytes(f.body.get());
    for (const ParamDecl& pd : f.params) {
      n += sizeof(ParamDecl) + ApproxBytes(pd.type.get());
    }
  }
  return n;
}

size_t ApproxBytes(const TypedProgram& tp) {
  size_t n = ApproxBytes(*tp.ast);
  n += tp.owned_symbols.size() * sizeof(Symbol);
  n += tp.expr_info.size() * (sizeof(const Expr*) + sizeof(ExprInfo));
  n += tp.decl_sym.size() * (sizeof(const Stmt*) + sizeof(Symbol*));
  n += tp.functions.size() * sizeof(FunctionSema);
  return n;
}

size_t ApproxBytes(const IrModule& m) {
  size_t n = sizeof(IrModule);
  for (const IrFunction& f : m.functions) {
    n += sizeof(IrFunction) + f.vregs.size() * sizeof(VRegInfo) +
         f.slots.size() * sizeof(FrameSlot);
    for (const BasicBlock& bb : f.blocks) {
      n += sizeof(BasicBlock) + bb.instrs.size() * sizeof(Instr);
    }
  }
  for (const IrGlobal& g : m.globals) {
    n += sizeof(IrGlobal) + g.init.size() + g.relocs.size() * 12;
  }
  n += m.imports.size() * sizeof(IrImport);
  return n;
}

size_t ApproxBytes(const Binary& b) {
  size_t n = sizeof(Binary) + b.code.size() * 8;
  n += b.functions.size() * sizeof(BinFunction);
  for (const BinGlobal& g : b.globals) {
    n += sizeof(BinGlobal) + g.init.size();
  }
  n += b.imports.size() * sizeof(BinImport);
  n += b.magic_sites.size() * sizeof(MagicSite);
  n += b.global_refs.size() * sizeof(GlobalRef);
  return n;
}

// Includes the ExecImage the program's slot can come to hold: a restore's
// first fast or trace Vm attaches it to the cached master, so charging it at
// Put keeps max_bytes a bound whether or not an image was ever built.
size_t ApproxBytes(const LoadedProgram& p) {
  return ApproxBytes(p.binary) + p.decoded.size() * sizeof(DecodedSlot) +
         p.global_addr.size() * 8 + sizeof(RegionMap) + ExecImageBytes(p);
}

uint64_t CacheStats::PrefixShares() const {
  return hits_by_stage[static_cast<size_t>(StageId::kParse)] +
         hits_by_stage[static_cast<size_t>(StageId::kSema)] +
         hits_by_stage[static_cast<size_t>(StageId::kIrGen)];
}

std::string CacheStats::ToRow() const {
  std::string row = StrFormat(
      "  cache: hits=%llu misses=%llu bytes=%zu prefix-shares=%llu "
      "evictions=%llu\n",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), bytes_retained,
      static_cast<unsigned long long>(PrefixShares()),
      static_cast<unsigned long long>(evictions));
  // Link-stage counters appear only when the build graph consulted the
  // linked-image cache, so single-module runs keep the legacy output.
  const size_t link_idx = static_cast<size_t>(StageId::kLink);
  if (hits_by_stage[link_idx] != 0 || misses_by_stage[link_idx] != 0) {
    row += StrFormat(
        "  link:  hits=%llu misses=%llu\n",
        static_cast<unsigned long long>(hits_by_stage[link_idx]),
        static_cast<unsigned long long>(misses_by_stage[link_idx]));
  }
  // Nonzero disk counters mean a disk tier was consulted; memory-only runs
  // keep the legacy single-row output.
  if (disk_hits != 0 || disk_misses != 0 || disk_stores != 0 ||
      disk_evictions != 0 || disk_invalid != 0) {
    row += StrFormat(
        "  disk:  hits=%llu misses=%llu stores=%llu evictions=%llu "
        "invalid=%llu\n",
        static_cast<unsigned long long>(disk_hits),
        static_cast<unsigned long long>(disk_misses),
        static_cast<unsigned long long>(disk_stores),
        static_cast<unsigned long long>(disk_evictions),
        static_cast<unsigned long long>(disk_invalid));
  }
  // The degradation ladder's own line: only when the tier actually hit
  // trouble, so healthy runs keep the familiar two-row output.
  if (disk_retries != 0 || disk_io_failures != 0 || disk_store_failures != 0 ||
      disk_breaker_opens != 0 || disk_breaker_short_circuits != 0 ||
      disk_breaker_probes != 0 || disk_breaker_open) {
    row += StrFormat(
        "  disk-resilience: retries=%llu io-failures=%llu "
        "store-failures=%llu breaker(opens=%llu short-circuits=%llu "
        "probes=%llu state=%s)\n",
        static_cast<unsigned long long>(disk_retries),
        static_cast<unsigned long long>(disk_io_failures),
        static_cast<unsigned long long>(disk_store_failures),
        static_cast<unsigned long long>(disk_breaker_opens),
        static_cast<unsigned long long>(disk_breaker_short_circuits),
        static_cast<unsigned long long>(disk_breaker_probes),
        disk_breaker_open ? "open" : "closed");
  }
  return row;
}

Json CacheStats::ToJson() const {
  const size_t link = static_cast<size_t>(StageId::kLink);
  const std::pair<const char*, uint64_t> counters[] = {
      {"hits", hits}, {"misses", misses}, {"shared_waits", shared_waits},
      {"insertions", insertions}, {"evictions", evictions},
      {"bytes_retained", bytes_retained}, {"prefix_shares", PrefixShares()},
      {"link_hits", hits_by_stage[link]}, {"link_misses", misses_by_stage[link]},
      {"disk_hits", disk_hits}, {"disk_misses", disk_misses},
      {"disk_stores", disk_stores}, {"disk_evictions", disk_evictions},
      {"disk_invalid", disk_invalid}, {"disk_retries", disk_retries},
      {"disk_io_failures", disk_io_failures},
      {"disk_store_failures", disk_store_failures},
      {"disk_breaker_opens", disk_breaker_opens},
      {"disk_breaker_short_circuits", disk_breaker_short_circuits},
      {"disk_breaker_probes", disk_breaker_probes}};
  Json j = Json::Object();
  for (const auto& [name, value] : counters) {
    j.Set(name, Json::UInt(value));
  }
  j.Set("disk_breaker_open", Json::Bool(disk_breaker_open));
  Json hits_json = Json::Array();
  Json misses_json = Json::Array();
  for (size_t i = 0; i < kNumStages; ++i) {
    hits_json.Append(Json::UInt(hits_by_stage[i]));
    misses_json.Append(Json::UInt(misses_by_stage[i]));
  }
  j.Set("hits_by_stage", std::move(hits_json));
  j.Set("misses_by_stage", std::move(misses_json));
  return j;
}

ArtifactCache::ArtifactCache(size_t max_bytes) : max_bytes_(max_bytes) {}

ArtifactCache::~ArtifactCache() = default;

bool ArtifactCache::AttachDiskTier(DiskCacheOptions options) {
  auto tier = std::make_unique<DiskCacheTier>(std::move(options));
  if (!tier->ok()) {
    return false;
  }
  disk_ = std::move(tier);
  return true;
}

std::shared_ptr<const StageArtifact> ArtifactCache::PromoteFromDiskLocked(
    const std::string& key, StageId stage,
    std::shared_ptr<const StageArtifact> artifact) {
  Entry& e = entries_[key];
  if (e.artifact != nullptr) {
    // Another thread published while this one was reading the disk; its
    // artifact is equivalent (same key, validated same source) — share it
    // and drop the duplicate. Still a disk hit: the I/O served this lookup.
    artifact = e.artifact;
    e.tick = ++tick_;
  } else {
    // Fills either a fresh slot (Probe path) or an in-flight producer slot
    // this thread registered in Acquire; waiters wake to the artifact.
    e.artifact = artifact;
    e.in_flight = false;
    e.tick = ++tick_;
    stats_.bytes_retained += artifact->bytes;
    ++stats_.insertions;
    // May evict `e` itself when the artifact alone exceeds the cap — do not
    // touch the entry reference past this point.
    EvictLockedToCap();
    cv_.notify_all();
  }
  ++stats_.hits;
  ++stats_.hits_by_stage[StageIndex(stage)];
  ++stats_.disk_hits;
  return artifact;
}

std::shared_ptr<const StageArtifact> ArtifactCache::Probe(const std::string& key,
                                                          StageId stage) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.artifact == nullptr) {
        // In flight: a producer in this process is computing (or reading the
        // disk tier) right now — stay non-blocking and report a miss; the
        // caller's Acquire will wait it out.
        return nullptr;
      }
      it->second.tick = ++tick_;
      ++stats_.hits;
      ++stats_.hits_by_stage[StageIndex(stage)];
      return it->second.artifact;
    }
    if (disk_ == nullptr || !DiskCacheTier::WantsStage(stage)) {
      return nullptr;
    }
  }
  // Memory miss on a disk-cacheable stage: consult the disk tier outside the
  // lock (file I/O must not stall unrelated keys). Concurrent probes of the
  // same key may both read the file; PromoteFromDiskLocked dedups the
  // in-memory publication.
  DiskCacheTier::LoadResult r = SafeDiskLoad(disk_.get(), key);
  std::lock_guard<std::mutex> lock(mu_);
  if (r.artifact == nullptr) {
    ++stats_.disk_misses;
    if (r.invalid) {
      ++stats_.disk_invalid;
    }
    return nullptr;
  }
  return PromoteFromDiskLocked(key, stage, std::move(r.artifact));
}

std::shared_ptr<const StageArtifact> ArtifactCache::Acquire(const std::string& key,
                                                            StageId stage,
                                                            bool skip_disk) {
  std::unique_lock<std::mutex> lock(mu_);
  bool waited = false;
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      // Memory miss: register the caller as producer, then give the disk
      // tier one shot before conceding the compute. The registration stays
      // in place during the disk read, so concurrent same-key Acquires wait
      // rather than re-reading the file — single-flight covers the disk
      // exactly as it covers the compute.
      Entry e;
      e.in_flight = true;
      entries_.emplace(key, std::move(e));
      if (!skip_disk && disk_ != nullptr && DiskCacheTier::WantsStage(stage)) {
        lock.unlock();
        DiskCacheTier::LoadResult r = SafeDiskLoad(disk_.get(), key);
        lock.lock();
        if (r.artifact != nullptr) {
          // Not a producer after all: publish and return like a hit. The
          // caller must NOT Put/Abandon.
          return PromoteFromDiskLocked(key, stage, std::move(r.artifact));
        }
        ++stats_.disk_misses;
        if (r.invalid) {
          ++stats_.disk_invalid;
        }
      }
      ++stats_.misses;
      ++stats_.misses_by_stage[StageIndex(stage)];
      return nullptr;
    }
    if (it->second.artifact != nullptr) {
      it->second.tick = ++tick_;
      ++stats_.hits;
      ++stats_.hits_by_stage[StageIndex(stage)];
      return it->second.artifact;
    }
    // In flight: wait for the producer to Put or Abandon, then re-examine.
    // One shared cv serves every key, so a waiter can wake on unrelated
    // Puts; count the *acquire* as shared once, not each spurious wakeup.
    if (!waited) {
      ++stats_.shared_waits;
      waited = true;
    }
    cv_.wait(lock);
  }
}

void ArtifactCache::Put(const std::string& key, StageArtifact artifact) {
  std::shared_ptr<const StageArtifact> published;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[key];
    const size_t bytes = artifact.bytes;
    if (e.artifact != nullptr) {
      // Replacing an equivalent artifact a concurrent disk-tier promotion
      // published into this producer's slot; swap the byte accounting.
      stats_.bytes_retained -= e.artifact->bytes;
    }
    published = std::make_shared<const StageArtifact>(std::move(artifact));
    e.artifact = published;
    e.in_flight = false;
    e.tick = ++tick_;
    stats_.bytes_retained += bytes;
    ++stats_.insertions;
    EvictLockedToCap();
    cv_.notify_all();
  }
  // Persist to the disk tier outside the lock (waiters are already awake and
  // unrelated keys must not stall on file I/O); fold the accounting back in
  // under the lock so stats() snapshots stay coherent.
  if (disk_ != nullptr && DiskCacheTier::WantsStage(published->stage)) {
    const bool stored = SafeDiskStore(disk_.get(), key, *published);
    const size_t evicted = stored ? SafeDiskEvict(disk_.get()) : 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (stored) {
      ++stats_.disk_stores;
    }
    stats_.disk_evictions += evicted;
  }
}

void ArtifactCache::Abandon(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.artifact == nullptr) {
    entries_.erase(it);
  }
  // A waiter (if any) retries, finds no entry, and becomes the producer.
  cv_.notify_all();
}

void ArtifactCache::EvictLockedToCap() {
  if (max_bytes_ == 0) {
    return;
  }
  while (stats_.bytes_retained > max_bytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.artifact == nullptr) {
        continue;  // in flight — a producer owns this slot
      }
      if (victim == entries_.end() || it->second.tick < victim->second.tick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) {
      return;  // nothing evictable
    }
    stats_.bytes_retained -= victim->second.artifact->bytes;
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

CacheStats ArtifactCache::stats() const {
  // One snapshot under the mutex: every counter mutation (including the
  // disk-tier accounting, which is folded in post-I/O) happens under mu_, so
  // the copy is internally coherent — hits always equals the sum of
  // hits_by_stage, bytes_retained matches the retained entries, and a reader
  // racing live compiles can never observe a torn struct. Guarded by
  // ArtifactCache.StatsSnapshotIsCoherentUnderConcurrentCompiles.
  CacheStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  // The tier's resilience counters live behind the tier's own mutex (they
  // are mutated mid-I/O, outside mu_); merge a snapshot of them here. They
  // are monotonic, so the merged struct is still a consistent point-in-time
  // view of each counter even though the two locks are taken in sequence.
  if (disk_ != nullptr) {
    const DiskCacheTier::ResilienceStats rs = disk_->resilience();
    out.disk_retries = rs.retries;
    out.disk_io_failures = rs.io_failures;
    out.disk_store_failures = rs.store_failures;
    out.disk_breaker_opens = rs.breaker_opens;
    out.disk_breaker_short_circuits = rs.breaker_short_circuits;
    out.disk_breaker_probes = rs.breaker_probes;
    out.disk_breaker_open = rs.breaker_open;
  }
  return out;
}

}  // namespace confllvm
