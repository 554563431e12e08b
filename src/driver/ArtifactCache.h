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
/// driver/Batch.h) to a finished BatchResult: the rendered dump, rendered
/// diagnostics, error flag, timings, and the simulated HeapStats
/// snapshot. A BatchResult never holds context-owned data (trees,
/// bytecode, symbols), so a hit is replayed without touching a
/// CompilerContext at all, which is what makes it cheap.
///
/// Stored format. The two texts, nearly all of an artifact's bytes
/// (typed-tree dumps compress about 11x), are kept as one zlib stream at
/// Z_BEST_SPEED: the dump followed by the diagnostics, with both raw
/// lengths recorded beside it. The scalar fields are kept as they are.
/// insert() compresses before it takes the cache mutex; a hit copies
/// the stream under the mutex and inflates it after releasing it, so
/// neither deflate nor inflate ever runs under the lock.
///
/// Replay is byte-exact: the inflated texts are precisely what the
/// service's miss path produced, so a cache-hit drain is byte-identical
/// to a cache-disabled run (pinned by CompileServiceTest at several
/// worker counts). Error results are cached and replay too —
/// diagnostics are deterministic text.
///
/// Integrity gate. A stream that fails to inflate (zlib's format checks
/// and its Adler-32 trailer), leaves input unconsumed, or inflates to a
/// length other than the recorded one is never replayed: the lookup
/// counts an integrity reject, drops the entry and degrades to a miss,
/// so the job recompiles and reinstalls a good copy.
///
/// Capacity is bounded by CacheConfig::MaxBytes, charged with the
/// stored size (the compressed stream plus the fixed per-entry
/// footprint), with strict LRU eviction: every insert that would exceed
/// the cap evicts from the cold end first, so bytes() <= MaxBytes holds
/// after every operation. Operations run once per *job*, never on a
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
  /// Total stored-byte budget; strict LRU eviction keeps
  /// bytes() <= MaxBytes. An artifact whose stored size alone exceeds
  /// the budget is never inserted.
  size_t MaxBytes = 64ull << 20;
};

/// What the cache replays: a finished BatchResult. Its per-request
/// field (Timings.QueueWaitSec) is overwritten by the
/// service on every delivery, replays included.
using CachedArtifact = BatchResult;

/// Mutex-guarded JobKey -> compressed artifact map with byte accounting
/// and capped LRU eviction.
class ArtifactCache {
public:
  explicit ArtifactCache(CacheConfig Config = CacheConfig());
  ArtifactCache(const ArtifactCache &) = delete;
  ArtifactCache &operator=(const ArtifactCache &) = delete;

  /// On hit, inflates the payload into \p Out, freshens the entry's LRU
  /// position, and returns true. Counts a hit or a miss either way. A
  /// stored stream that fails the integrity gate (see the file comment)
  /// is dropped and counted in IntegrityRejects, and the lookup is a
  /// miss.
  bool lookup(const JobKey &Key, CachedArtifact &Out);

  /// Compresses \p Artifact and installs it under \p Key (replacing any
  /// previous entry), then evicts cold entries until bytes() <= MaxBytes.
  /// Skipped — and counted as rejected — when the stored artifact alone
  /// exceeds MaxBytes.
  void insert(const JobKey &Key, CachedArtifact Artifact);

  /// Lifetime counters plus current occupancy (snapshot under the lock).
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    uint64_t RejectedInserts = 0;
    /// Entries dropped at lookup because their stored stream failed the
    /// integrity gate.
    uint64_t IntegrityRejects = 0;
    uint64_t Bytes = 0;    // current stored bytes, the MaxBytes charge
    uint64_t RawBytes = 0; // uncompressed DiagText + DumpText held
    uint64_t Entries = 0;  // current entry count
  };
  Stats stats() const;

  size_t bytes() const;
  size_t entries() const;
  const CacheConfig &config() const { return Cfg; }

  /// How corruptEntryForTest damages a stored stream.
  enum class Corruption {
    Append,   // grow the stream by a few bytes
    FlipByte, // invert one byte in the middle, size unchanged
  };

  /// Test hook: damages \p Key's stored stream in place WITHOUT fixing
  /// the byte accounting, simulating in-cache corruption. Returns false
  /// when the key is absent. Production code never calls this.
  bool corruptEntryForTest(const JobKey &Key, Corruption How);

private:
  struct Entry {
    JobKey Key;
    /// The artifact with empty DiagText and DumpText.
    CachedArtifact Meta;
    /// zlib stream of DumpText followed by DiagText.
    std::string Stream;
    size_t DumpSize = 0;
    size_t DiagSize = 0;
    size_t Bytes = 0; // MaxBytes charge
  };
  using LruList = std::list<Entry>;

  void eraseLocked(LruList::iterator It);
  void evictToCapLocked();

  mutable std::mutex M;
  CacheConfig Cfg;
  LruList Lru; // front = hottest, back = next to evict
  std::unordered_map<JobKey, LruList::iterator, JobKeyHasher> Index;
  size_t BytesHeld = 0;
  size_t RawBytesHeld = 0;
  uint64_t NumHits = 0;
  uint64_t NumMisses = 0;
  uint64_t NumInsertions = 0;
  uint64_t NumEvictions = 0;
  uint64_t NumRejected = 0;
  uint64_t NumIntegrityRejects = 0;
};

} // namespace mpc

#endif // MPC_DRIVER_ARTIFACTCACHE_H
