//===----------------------------------------------------------------------===//
// Artifact-cache tests: the content-addressed JobKey derivation and the
// LRU-bounded ArtifactCache.
//
//   * JobKey audit: every cache-relevant CompilerOptions field flips the
//     key; the explicitly cache-irrelevant field (SlabHeap) does not;
//     sources, unit order, pipeline kind, and the dump request all key.
//     (The field-count tripwire itself is a static_assert in Batch.cpp —
//     it fails the *build* when CompilerOptions changes unaudited.)
//   * Cache mechanics: roundtrip, LRU freshening and eviction order,
//     bytes() <= MaxBytes after every operation under a churn stream,
//     error-caching policy, oversize rejection, racing-insert replace.
//===----------------------------------------------------------------------===//

#include "driver/ArtifactCache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mpc;

namespace {

BatchJob baseJob() {
  BatchJob J;
  J.Sources.push_back({"a.scala", "class A { def f(): Int = 1 }"});
  J.Sources.push_back({"b.scala", "class B { def g(): Int = 2 }"});
  J.Kind = PipelineKind::StandardFused;
  J.WantDump = true;
  return J;
}

TEST(JobKey, StableForEqualJobs) {
  EXPECT_EQ(jobKeyFor(baseJob()), jobKeyFor(baseJob()));
}

TEST(JobKey, SourceTextNameOrderAndCountAllKey) {
  JobKey Base = jobKeyFor(baseJob());

  BatchJob Edit = baseJob();
  Edit.Sources[1].Text += " "; // one-byte edit in one unit
  EXPECT_NE(jobKeyFor(Edit), Base);

  BatchJob Rename = baseJob();
  Rename.Sources[0].FileName = "a2.scala";
  EXPECT_NE(jobKeyFor(Rename), Base);

  BatchJob Swapped = baseJob();
  std::swap(Swapped.Sources[0], Swapped.Sources[1]);
  EXPECT_NE(jobKeyFor(Swapped), Base); // unit order assigns file ids

  BatchJob Fewer = baseJob();
  Fewer.Sources.pop_back();
  EXPECT_NE(jobKeyFor(Fewer), Base);
}

TEST(JobKey, EveryCacheRelevantOptionFlipsTheKey) {
  JobKey Base = jobKeyFor(baseJob());
  auto WithOptions = [](void (*Tweak)(CompilerOptions &)) {
    BatchJob J;
    J.Sources.push_back({"a.scala", "class A { def f(): Int = 1 }"});
    J.Sources.push_back({"b.scala", "class B { def g(): Int = 2 }"});
    J.WantDump = true;
    Tweak(J.Options);
    return jobKeyFor(J);
  };
  // The cache-relevant list from the Batch.cpp audit, one flip each.
  EXPECT_NE(WithOptions([](CompilerOptions &O) { O.FuseMiniphases = false; }),
            Base);
  EXPECT_NE(WithOptions([](CompilerOptions &O) { O.CheckTrees = true; }),
            Base);
  EXPECT_NE(WithOptions([](CompilerOptions &O) { O.AlwaysCopy = true; }),
            Base);
  EXPECT_NE(WithOptions([](CompilerOptions &O) { O.IdentitySkip = false; }),
            Base);
  EXPECT_NE(WithOptions([](CompilerOptions &O) { O.SubtreePruning = false; }),
            Base);
  EXPECT_NE(
      WithOptions([](CompilerOptions &O) { O.Strategy = FusionStrategy::Naive; }),
      Base);
}

TEST(JobKey, SlabHeapIsExplicitlyCacheIrrelevant) {
  // The slab backend moves real bytes only; simulated stats and rendered
  // output are byte-identical (pinned by SlabAllocatorTest), so both
  // settings intentionally share one cache entry.
  BatchJob NoSlab = baseJob();
  NoSlab.Options.SlabHeap = false;
  EXPECT_EQ(jobKeyFor(NoSlab), jobKeyFor(baseJob()));
}

TEST(JobKey, PipelineKindAndDumpRequestKey) {
  JobKey Base = jobKeyFor(baseJob());
  BatchJob Unfused = baseJob();
  Unfused.Kind = PipelineKind::StandardUnfused;
  EXPECT_NE(jobKeyFor(Unfused), Base);
  BatchJob Legacy = baseJob();
  Legacy.Kind = PipelineKind::Legacy;
  EXPECT_NE(jobKeyFor(Legacy), Base);
  BatchJob NoDump = baseJob();
  NoDump.WantDump = false; // DumpText payload differs -> must not alias
  EXPECT_NE(jobKeyFor(NoDump), Base);
}

//===----------------------------------------------------------------------===//
// ArtifactCache mechanics
//===----------------------------------------------------------------------===//

JobKey keyOf(uint64_t I) { return JobKey{fingerprintUInt(I)}; }

CachedArtifact artifactOf(const std::string &Dump, bool HadErrors = false) {
  CachedArtifact A;
  A.DumpText = Dump;
  A.DiagText = HadErrors ? "error: synthetic\n" : "";
  A.HadErrors = HadErrors;
  A.Heap.AllocatedBytes = Dump.size();
  return A;
}

TEST(ArtifactCache, InsertLookupRoundtrip) {
  ArtifactCache Cache;
  CachedArtifact In = artifactOf("dump-a");
  In.Timings.FrontendSec = 0.5;
  Cache.insert(keyOf(1), In);

  CachedArtifact Out;
  ASSERT_TRUE(Cache.lookup(keyOf(1), Out));
  EXPECT_EQ(Out.DumpText, "dump-a");
  EXPECT_EQ(Out.DiagText, "");
  EXPECT_FALSE(Out.HadErrors);
  EXPECT_EQ(Out.Heap.AllocatedBytes, In.Heap.AllocatedBytes);
  EXPECT_DOUBLE_EQ(Out.Timings.FrontendSec, 0.5);

  CachedArtifact Absent;
  EXPECT_FALSE(Cache.lookup(keyOf(2), Absent));
  ArtifactCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_GT(S.Bytes, 0u);
}

TEST(ArtifactCache, LruEvictsColdestFirstAndLookupFreshens) {
  CacheConfig Cfg;
  // Room for roughly three entries of this payload size.
  size_t PerEntry = ArtifactCache::artifactBytes(artifactOf(std::string(1000, 'x')));
  Cfg.MaxBytes = 3 * PerEntry;
  ArtifactCache Cache(Cfg);
  Cache.insert(keyOf(1), artifactOf(std::string(1000, 'a')));
  Cache.insert(keyOf(2), artifactOf(std::string(1000, 'b')));
  Cache.insert(keyOf(3), artifactOf(std::string(1000, 'c')));
  // Freshen 1; inserting 4 must now evict 2 (the coldest), not 1.
  CachedArtifact Out;
  ASSERT_TRUE(Cache.lookup(keyOf(1), Out));
  Cache.insert(keyOf(4), artifactOf(std::string(1000, 'd')));
  EXPECT_TRUE(Cache.lookup(keyOf(1), Out));
  EXPECT_FALSE(Cache.lookup(keyOf(2), Out));
  EXPECT_TRUE(Cache.lookup(keyOf(3), Out));
  EXPECT_TRUE(Cache.lookup(keyOf(4), Out));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
}

TEST(ArtifactCache, ChurnStreamPinsBytesUnderMaxBytes) {
  CacheConfig Cfg;
  Cfg.MaxBytes = 64 * 1024;
  ArtifactCache Cache(Cfg);
  // A churn stream with varying payload sizes, re-touching a hot subset:
  // the byte cap must hold after EVERY operation, and hot keys survive.
  for (uint64_t I = 0; I < 500; ++I) {
    Cache.insert(keyOf(I), artifactOf(std::string(256 + (I * 37) % 4096, 'p')));
    CachedArtifact Out;
    Cache.lookup(keyOf(I / 2), Out); // freshen an older key
    ASSERT_LE(Cache.bytes(), Cfg.MaxBytes) << "after insert " << I;
  }
  ArtifactCache::Stats S = Cache.stats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_GT(S.Entries, 0u);
  EXPECT_LE(S.Bytes, Cfg.MaxBytes);
  // The most recent insert is always resident.
  CachedArtifact Out;
  EXPECT_TRUE(Cache.lookup(keyOf(499), Out));
}

TEST(ArtifactCache, ErrorCachingPolicy) {
  // Error artifacts are cached (diagnostics replay deterministically).
  ArtifactCache Caching;
  Caching.insert(keyOf(1), artifactOf("bad", /*HadErrors=*/true));
  CachedArtifact Out;
  ASSERT_TRUE(Caching.lookup(keyOf(1), Out));
  EXPECT_TRUE(Out.HadErrors);
  EXPECT_EQ(Out.DiagText, "error: synthetic\n");
  EXPECT_EQ(Caching.stats().RejectedInserts, 0u);
}

TEST(ArtifactCache, OversizeArtifactNeverInserted) {
  CacheConfig Cfg;
  Cfg.MaxBytes = 1024;
  ArtifactCache Cache(Cfg);
  Cache.insert(keyOf(1), artifactOf(std::string(4096, 'x')));
  CachedArtifact Out;
  EXPECT_FALSE(Cache.lookup(keyOf(1), Out));
  EXPECT_EQ(Cache.bytes(), 0u);
  EXPECT_EQ(Cache.stats().RejectedInserts, 1u);
  // And it must not have evicted residents to make room it can't use.
  Cache.insert(keyOf(2), artifactOf("small"));
  Cache.insert(keyOf(3), artifactOf(std::string(4096, 'y')));
  EXPECT_TRUE(Cache.lookup(keyOf(2), Out));
}

TEST(ArtifactCache, DuplicateInsertReplacesInPlace) {
  // Two workers racing the same key: second insert replaces, bytes stay
  // accounted, entry count stays 1.
  ArtifactCache Cache;
  Cache.insert(keyOf(1), artifactOf(std::string(100, 'a')));
  size_t BytesFirst = Cache.bytes();
  Cache.insert(keyOf(1), artifactOf(std::string(500, 'b')));
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_GT(Cache.bytes(), BytesFirst);
  CachedArtifact Out;
  ASSERT_TRUE(Cache.lookup(keyOf(1), Out));
  EXPECT_EQ(Out.DumpText, std::string(500, 'b'));
  EXPECT_EQ(Cache.stats().Insertions, 1u);
}

TEST(ArtifactCache, CorruptedEntryDegradesToMissAndIsDropped) {
  // Integrity gate: an entry whose stored payload no longer matches its
  // accounted byte size must never replay. It degrades to a miss, is
  // counted, and is dropped so the next compile reinstalls a good copy.
  ArtifactCache Cache;
  Cache.insert(keyOf(1), artifactOf("pristine"));
  Cache.insert(keyOf(2), artifactOf("bystander"));
  size_t BytesBefore = Cache.bytes();
  ASSERT_TRUE(Cache.corruptEntryForTest(keyOf(1)));

  CachedArtifact Out;
  EXPECT_FALSE(Cache.lookup(keyOf(1), Out));
  ArtifactCache::Stats S = Cache.stats();
  EXPECT_EQ(S.IntegrityRejects, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Entries, 1u); // corrupted entry evicted, bystander intact
  EXPECT_LT(Cache.bytes(), BytesBefore);
  EXPECT_TRUE(Cache.lookup(keyOf(2), Out));
  EXPECT_EQ(Out.DumpText, "bystander");

  // A fresh insert under the same key serves again — self-healing.
  Cache.insert(keyOf(1), artifactOf("pristine"));
  ASSERT_TRUE(Cache.lookup(keyOf(1), Out));
  EXPECT_EQ(Out.DumpText, "pristine");
  EXPECT_EQ(Cache.stats().IntegrityRejects, 1u);

  // Corrupting a nonexistent key is a no-op.
  EXPECT_FALSE(Cache.corruptEntryForTest(keyOf(99)));
}

} // namespace
