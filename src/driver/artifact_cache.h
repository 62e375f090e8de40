// Content-addressed cache of staged compilation artifacts.
//
// Every cacheable Stage derives a CacheKey from a content hash of the source
// plus exactly the BuildConfig fields the stage (and its upstream prefix)
// reads, so artifacts are shared whenever the inputs genuinely coincide:
// the Parse/Sema/IrGen prefix is identical across the whole eight-preset
// §7.1 sweep, the Opt artifact is shared per OptLevel, and only
// Codegen/Load differ per instrumentation config. The cache is the engine
// behind both warm rebuilds (an unchanged stage is restored from its cached
// artifact) and CompileBatch front-end sharing. Front-end artifacts (AST,
// TypedProgram, IR) are immutable and restored by sharing the pointer, so
// one cached front end serves every invocation that hits it; the Binary and
// the LoadedProgram are copied into each restoring invocation.
//
// Concurrency: all operations are thread-safe. Lookups are *single-flight*
// (RestoreOrProduce) — when several batch workers miss on the same key
// simultaneously, exactly one becomes the producer and computes while the
// rest block until the artifact lands. That is what guarantees
// "Parse/Sema/IrGen run once per source" even though all eight preset jobs
// start at the same instant.
//
// Eviction: least-recently-used under an optional byte cap. Entries store
// rough byte estimates; readers holding a shared_ptr keep an evicted
// artifact alive until they finish restoring from it. A Load artifact's
// program shares its ExecImage slot (src/vm/program.h) with every restore,
// so the first fast or trace Vm on any restore builds the one image all of
// them run; its estimate charges that image up front, and a restored
// program keeps the image alive after the artifact itself is evicted.
//
// Disk tier (src/driver/disk_cache.h): an optional persistent tier under the
// in-memory store. Lookups are two-tier — memory, then disk, then compute —
// with single-flight preserved on the Acquire path: the disk consult happens
// while the caller holds the producer registration, so concurrent same-key
// Acquires resolve to exactly one disk read or one compute per process.
// (Probe stays non-blocking and registration-free, so concurrent probes of
// one absent key may each read the entry file; the in-memory publication is
// deduplicated, the reads are merely redundant I/O.) Disk entries
// are validated end to end (format version, toolchain fingerprint, key,
// payload checksum, source text); anything unreadable, stale, or corrupt
// degrades to a cache miss and is quarantined — never a crash or a wrong
// artifact.
//
// ConfVerify is deliberately *not* cached: a verified-at-some-point binary
// is not a verified binary. The Verify stage re-runs on every rebuild, warm
// or cold, matching the paper's distrust-the-compiler posture.
#ifndef CONFLLVM_SRC_DRIVER_ARTIFACT_CACHE_H_
#define CONFLLVM_SRC_DRIVER_ARTIFACT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/driver/pipeline.h"
#include "src/isa/link.h"
#include "src/support/json.h"

namespace confllvm {

class DiskCacheTier;

// Configuration for the persistent disk tier (ArtifactCache::AttachDiskTier,
// `confcc --cache-dir`). `max_bytes` caps the total size of entry files in
// `dir`; the cap is enforced after every store by evicting
// least-recently-used entries (mtime order; loads touch their entry).
// 0 = unbounded.
struct DiskCacheOptions {
  std::string dir;
  size_t max_bytes = 0;
};

// Aggregate cache counters. Per-stage arrays are indexed by StageId.
//
// Every field is guarded by the cache's single mutex — including the disk_*
// counters, whose underlying file I/O runs outside the lock but whose
// accounting is folded back in under it. ArtifactCache::stats() copies the
// whole struct under that lock, so one snapshot is always internally
// coherent (hits == sum of hits_by_stage, etc.); consumers that render the
// counters more than once (`confcc --cache-stats` + --cache-stats-json) must
// take one snapshot and reuse it rather than re-reading live state.
struct CacheStats {
  static constexpr size_t kNumStages = 8;  // incl. the build graph's kLink

  uint64_t hits = 0;    // lookups served from a stored artifact (any tier)
  uint64_t misses = 0;  // lookups that made the caller the producer
  uint64_t shared_waits = 0;  // hits that waited on an in-flight producer
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t bytes_retained = 0;  // current artifact bytes (post-eviction)

  uint64_t hits_by_stage[kNumStages] = {};
  uint64_t misses_by_stage[kNumStages] = {};

  // Disk-tier counters (all zero when no tier is attached). A disk hit also
  // counts in `hits`/`hits_by_stage` — it served the lookup — and in
  // `insertions` for the in-memory promotion; disk_misses counts only
  // lookups that actually consulted the disk tier (stage is disk-cacheable
  // and memory missed).
  uint64_t disk_hits = 0;
  uint64_t disk_misses = 0;
  uint64_t disk_stores = 0;     // entry files written (temp + atomic rename)
  uint64_t disk_evictions = 0;  // entry files removed by the byte cap
  uint64_t disk_invalid = 0;    // corrupt/stale entries quarantined on read

  // Disk-tier resilience counters (DiskCacheTier::ResilienceStats, merged in
  // by stats()): the degradation ladder's own report. Nonzero values mean
  // the tier hit trouble and degraded gracefully rather than failing the
  // build — visible here precisely so degradation is never silent.
  uint64_t disk_retries = 0;         // I/O re-attempts after a failed attempt
  uint64_t disk_io_failures = 0;     // operations that failed after all retries
  uint64_t disk_store_failures = 0;  // stores lost to I/O errors or the breaker
  uint64_t disk_breaker_opens = 0;
  uint64_t disk_breaker_short_circuits = 0;  // ops skipped while breaker open
  uint64_t disk_breaker_probes = 0;          // self-healing probes let through
  bool disk_breaker_open = false;            // breaker state at snapshot time

  // Hits on the Parse/Sema/IrGen prefix: how many stage executions batch
  // mode avoided by sharing the front end.
  uint64_t PrefixShares() const;

  // Renders the `confcc --cache-stats` row appended to the --time-passes
  // table: hits, misses, bytes retained, prefix-share count, plus a disk
  // line whenever the disk tier was consulted.
  std::string ToRow() const;

  // Every counter as one JSON object (the --cache-stats-json sinks and the
  // `stats` verb's cache_json).
  Json ToJson() const;
};

// One stage's cached output. Exactly the artifact member matching `stage` is
// set; the stats snapshots carry the counters a warm build could no longer
// recompute (the solver ran in a skipped stage).
struct StageArtifact {
  StageId stage = StageId::kParse;
  std::shared_ptr<const Program> ast;            // kParse
  std::shared_ptr<const TypedProgram> typed;     // kSema
  std::shared_ptr<const IrModule> ir;            // kIrGen / kOpt
  std::shared_ptr<const Binary> binary;          // kCodegen / kLink
  std::shared_ptr<const LoadedProgram> prog;     // kLoad (+ shared image slot)
  QualSolverStats solver;   // valid from kSema onward
  CodegenStats codegen;     // valid from kCodegen onward
  LinkStats link;           // kLink only
  // Every diagnostic the producing pipeline emitted from its start through
  // this stage (warnings/notes only — errors abandon instead of publishing).
  // Compilation is deterministic, so this list is a function of the key and
  // each stage's list extends its predecessor's; restores replay exactly
  // the not-yet-seen tail so warm builds report the same warnings cold
  // builds do.
  std::vector<Diagnostic> diags;
  // The producer's exact source text. Keys are 64-bit FNV chains — fast but
  // not collision-resistant — so every restore compares this against the
  // consuming invocation's source and treats a mismatch as a miss: a key
  // collision can waste a lookup, never substitute another program's
  // artifacts.
  std::shared_ptr<const std::string> source;
  size_t bytes = 0;         // rough retained-size estimate

  bool ProducedFrom(const std::string& text) const {
    return source != nullptr && *source == text;
  }
};

class ArtifactCache {
 public:
  // `max_bytes` caps retained artifact bytes (LRU eviction); 0 = unbounded.
  explicit ArtifactCache(size_t max_bytes = 0);
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  // Attaches the persistent disk tier rooted at options.dir (created,
  // recursively, if absent). Returns false — leaving the cache memory-only —
  // when the directory cannot be created or written. Not thread-safe: call
  // before the cache is shared. Multiple processes may attach caches to one
  // directory concurrently; the temp-file + atomic-rename write discipline
  // keeps readers from ever observing a torn entry.
  bool AttachDiskTier(DiskCacheOptions options);
  const DiskCacheTier* disk_tier() const { return disk_.get(); }

  // Non-blocking lookup; null on miss or while the key is still in flight.
  // Counts a hit (and refreshes LRU) only when an artifact is returned —
  // probing misses are free, so speculative deepest-artifact probes don't
  // distort the accounting (disk consults, which do real I/O, are always
  // counted). `stage` attributes the hit in the per-stage counters.
  std::shared_ptr<const StageArtifact> Probe(const std::string& key, StageId stage);

  // The single-flight producer protocol, which every cached computation
  // (the pipeline's stages, the build scheduler's link) goes through. An
  // artifact published for `key` and produced from `source` is handed to
  // `restore`, possibly after waiting out a concurrent producer, and the
  // call returns true. Otherwise `compute` runs and returns the artifact to
  // publish, or nothing when it failed. An artifact present for `key` but
  // produced from other text is a 64-bit key collision: the slot belongs to
  // that other input, so `compute` runs and its result is dropped. A
  // producer's registration is published or abandoned even when `compute`
  // throws, so no waiter blocks forever. `skip_disk` is Acquire's.
  template <typename Restore, typename Compute>
  bool RestoreOrProduce(const std::string& key, StageId stage,
                        const std::string& source, Restore&& restore,
                        Compute&& compute, bool skip_disk = false) {
    const std::shared_ptr<const StageArtifact> hit =
        Acquire(key, stage, skip_disk);
    if (hit != nullptr && hit->ProducedFrom(source)) {
      restore(*hit);
      return true;
    }
    if (hit != nullptr) {
      compute();
      return false;
    }
    try {
      std::optional<StageArtifact> artifact = compute();
      if (artifact.has_value()) {
        Put(key, std::move(*artifact));
      } else {
        Abandon(key);
      }
    } catch (...) {
      Abandon(key);
      throw;
    }
    return false;
  }

  // Coherent point-in-time snapshot of every counter, taken under the cache
  // mutex. Callers that render the counters more than once (text row + JSON)
  // must reuse one snapshot; two calls bracketing live compiles may differ.
  CacheStats stats() const;
  size_t max_bytes() const { return max_bytes_; }

 private:
  // Single-flight lookup. Returns the artifact, blocking while another
  // thread computes it. On a true miss the caller is registered as the
  // producer and null is returned: the caller MUST follow up with Put (on
  // success) or Abandon (on failure) for this key. `skip_disk` suppresses
  // the disk-tier consult — set it when the caller itself just Probed this
  // key and disk-missed (the pipeline's deepest-artifact walk), so a cold
  // compile doesn't pay, or count, the same miss twice. Worst case of a
  // stale skip (another process stored the entry in the microseconds since
  // the probe) is one redundant compute of an identical artifact.
  std::shared_ptr<const StageArtifact> Acquire(const std::string& key, StageId stage,
                                               bool skip_disk = false);

  // Publishes the producer's artifact and wakes waiters. May immediately
  // evict older entries (or, if `artifact` alone exceeds the cap, the new
  // entry itself) to honour max_bytes.
  void Put(const std::string& key, StageArtifact artifact);

  // Releases a producer registration without publishing; one waiter (if
  // any) is promoted to producer and retries.
  void Abandon(const std::string& key);

  struct Entry {
    std::shared_ptr<const StageArtifact> artifact;  // null while in flight
    bool in_flight = false;
    uint64_t tick = 0;  // LRU stamp
  };

  static size_t StageIndex(StageId id) { return static_cast<size_t>(id); }
  void EvictLockedToCap();
  // Installs a disk-loaded artifact into `entries_` under the lock, counting
  // the disk hit + promotion. Safe against every interleaving: fills an
  // in-flight producer slot (waiters wake to the artifact) and defers to an
  // artifact another thread published first.
  std::shared_ptr<const StageArtifact> PromoteFromDiskLocked(
      const std::string& key, StageId stage,
      std::shared_ptr<const StageArtifact> artifact);

  const size_t max_bytes_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Entry> entries_;
  uint64_t tick_ = 0;
  CacheStats stats_;
  std::unique_ptr<DiskCacheTier> disk_;
};

// Rough retained-size estimators used for Entry byte accounting (exposed for
// the eviction tests).
size_t ApproxBytes(const Program& p);
size_t ApproxBytes(const TypedProgram& tp);
size_t ApproxBytes(const IrModule& m);
size_t ApproxBytes(const Binary& b);
size_t ApproxBytes(const LoadedProgram& p);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_DRIVER_ARTIFACT_CACHE_H_
