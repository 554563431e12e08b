//===----------------------------------------------------------------------===//
///
/// \file
/// The content-addressed artifact cache behind the compile service.
///
/// Jobs arriving at a compile service overwhelmingly repeat — the same
/// stdlib and corpus units recompiled on every request — so the biggest
/// lever on served-traffic cost is not compiling faster but not
/// compiling at all. The cache maps a JobKey (the 128-bit content
/// fingerprint of sources + cache-relevant options + pipeline kind, see
/// driver/Batch.h) to a copy of the finished BatchResult: the rendered
/// dump, rendered diagnostics, error flag, timings, and the simulated
/// HeapStats snapshot. A BatchResult never holds context-owned data
/// (trees, bytecode, symbols), so a hit is replayed without touching a
/// CompilerContext at all, which is what makes it cheap.
///
/// Replay is byte-exact: the stored payload is precisely what the
/// service's miss path produced, so a cache-hit drain is
/// byte-identical to a cache-disabled run (pinned by CompileServiceTest
/// at several worker counts). Error results are cached and replay too —
/// diagnostics are deterministic text.
///
/// Capacity is bounded by CacheConfig::MaxBytes with strict LRU
/// eviction: every insert that would exceed the cap evicts from the cold
/// end first, so bytes() <= MaxBytes holds after every operation. All
/// operations are mutex-guarded; they run once per *job*, never on a
/// per-allocation or per-node path.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_DRIVER_ARTIFACTCACHE_H
#define MPC_DRIVER_ARTIFACTCACHE_H

#include "driver/Batch.h"

#include <list>
#include <mutex>
#include <unordered_map>

namespace mpc {

/// Artifact-cache tuning knobs (a ServiceConfig member).
struct CacheConfig {
  /// Consult/install at all. Off: every job compiles (the baseline the
  /// byte-equality tests compare against).
  bool Enabled = true;
  /// Total payload budget; strict LRU eviction keeps bytes() <= MaxBytes.
  /// An artifact larger than the whole budget is never inserted.
  size_t MaxBytes = 64ull << 20;
};

/// What the cache stores and replays: a finished BatchResult, copied
/// whole. Its per-request fields (DequeueSeq, Timings.QueueWaitSec) are
/// overwritten by the service on every delivery, replays included.
using CachedArtifact = BatchResult;

/// Mutex-guarded JobKey -> CachedArtifact map with byte accounting and
/// capped LRU eviction.
class ArtifactCache {
public:
  explicit ArtifactCache(CacheConfig Config = CacheConfig());
  ArtifactCache(const ArtifactCache &) = delete;
  ArtifactCache &operator=(const ArtifactCache &) = delete;

  /// On hit, copies the payload into \p Out, freshens the entry's LRU
  /// position, and returns true. Counts a hit or a miss either way.
  ///
  /// Integrity check before replay: the stored payload's recomputed byte
  /// size must match the size accounted at insert time. A mismatch means
  /// the entry was corrupted in place (a stray write, a buggy in-place
  /// mutation); replaying it would serve wrong bytes silently, so the
  /// entry is dropped, IntegrityRejects counts it, and the lookup
  /// degrades to a miss — the job recompiles and reinstalls.
  bool lookup(const JobKey &Key, CachedArtifact &Out);

  /// Installs \p Artifact under \p Key (replacing any previous entry),
  /// then evicts cold entries until bytes() <= MaxBytes. Skipped — and
  /// counted as rejected — when the artifact alone exceeds MaxBytes.
  void insert(const JobKey &Key, CachedArtifact Artifact);

  /// Lifetime counters plus current occupancy (snapshot under the lock).
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    uint64_t RejectedInserts = 0;
    /// Entries dropped at lookup because their stored payload no longer
    /// matched its accounted size (see lookup()).
    uint64_t IntegrityRejects = 0;
    uint64_t Bytes = 0;   // current payload bytes held
    uint64_t Entries = 0; // current entry count
  };
  Stats stats() const;

  size_t bytes() const;
  size_t entries() const;
  const CacheConfig &config() const { return Cfg; }

  /// The byte charge an artifact contributes to MaxBytes: payload strings
  /// plus the fixed per-entry footprint.
  static size_t artifactBytes(const CachedArtifact &Artifact);

  /// Test hook: mutates \p Key's stored payload in place WITHOUT fixing
  /// the byte accounting, simulating in-cache corruption. Returns false
  /// when the key is absent. Production code never calls this.
  bool corruptEntryForTest(const JobKey &Key);

private:
  struct Entry {
    JobKey Key;
    CachedArtifact Artifact;
    size_t Bytes = 0;
  };
  using LruList = std::list<Entry>;

  void evictToCapLocked();

  mutable std::mutex M;
  CacheConfig Cfg;
  LruList Lru; // front = hottest, back = next to evict
  std::unordered_map<JobKey, LruList::iterator, JobKeyHasher> Index;
  size_t BytesHeld = 0;
  uint64_t NumHits = 0;
  uint64_t NumMisses = 0;
  uint64_t NumInsertions = 0;
  uint64_t NumEvictions = 0;
  uint64_t NumRejected = 0;
  uint64_t NumIntegrityRejects = 0;
};

} // namespace mpc

#endif // MPC_DRIVER_ARTIFACTCACHE_H
