//===----------------------------------------------------------------------===//
// Artifact-cache tests: the content-addressed JobKey derivation and the
// LRU-bounded ArtifactCache.
//
//   * JobKey audit: every cache-relevant CompilerOptions field flips the
//     key; the explicitly cache-irrelevant field (SlabHeap) does not;
//     sources, unit order, pipeline kind, and the dump request all key.
//     (The field-count tripwire itself is a static_assert in Batch.cpp —
//     it fails the *build* when CompilerOptions changes unaudited.)
//   * Cache mechanics: roundtrip (including empty, 1 MB and non-ASCII
//     payloads through the compressed store), LRU freshening and
//     eviction order, bytes() <= MaxBytes after every operation under a
//     churn stream, error-caching policy, oversize rejection,
//     racing-insert replace, and the integrity gate on appended and
//     flipped stored bytes. The cap is charged with stored (compressed)
//     bytes, so the cases that size a cap from a payload use seeded
//     incompressible payloads: their stored size tracks their length.
//===----------------------------------------------------------------------===//

#include "driver/ArtifactCache.h"

#include <gtest/gtest.h>

#include <iterator>
#include <random>
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
  EXPECT_NE(WithOptions([](CompilerOptions &O) { O.CheckTrees = true; }),
            Base);
  EXPECT_NE(WithOptions([](CompilerOptions &O) { O.IdentitySkip = false; }),
            Base);
  EXPECT_NE(WithOptions([](CompilerOptions &O) { O.SubtreePruning = false; }),
            Base);
  EXPECT_NE(
      WithOptions([](CompilerOptions &O) { O.Strategy = FusionStrategy::Naive; }),
      Base);
  // Derived from Kind: compileProgram overwrites them, so they share a key.
  EXPECT_EQ(WithOptions([](CompilerOptions &O) { O.FuseMiniphases = false; }),
            Base);
  EXPECT_EQ(WithOptions([](CompilerOptions &O) { O.AlwaysCopy = true; }),
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

/// \p N seeded pseudo-random bytes: zlib cannot shrink them, so their
/// stored size is their length plus a few bytes of framing.
std::string noiseOf(size_t N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::string S(N, '\0');
  for (char &C : S)
    C = static_cast<char>(Rng());
  return S;
}

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

TEST(ArtifactCache, PayloadsRoundTripByteExactThroughTheCompressedStore) {
  std::string Binary;
  for (int I = 0; I < 4096; ++I)
    Binary += static_cast<char>(I % 256); // every byte value, NUL included
  std::string Dump1M;
  while (Dump1M.size() < (1u << 20))
    Dump1M += "class C" + std::to_string(Dump1M.size()) + " { def f(): Int }\n";
  Dump1M.resize(1u << 20);
  struct Case {
    std::string Dump, Diag;
  } Cases[] = {
      {"", ""},                          // nothing at all
      {"", "error: only diagnostics\n"}, // empty dump
      {"dump only", ""},                 // empty diagnostics
      {Dump1M, "warning: big\n"},        // 1 MB dump
      // UTF-8 text, then every byte value
      {"\xc3\xa9t\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x8c\xb3", Binary},
  };
  ArtifactCache Cache;
  uint64_t Raw = 0;
  for (size_t I = 0; I < std::size(Cases); ++I) {
    CachedArtifact In = artifactOf(Cases[I].Dump);
    In.DiagText = Cases[I].Diag;
    Cache.insert(keyOf(I), In);
    Raw += Cases[I].Dump.size() + Cases[I].Diag.size();
  }
  for (size_t I = 0; I < std::size(Cases); ++I) {
    CachedArtifact Out;
    ASSERT_TRUE(Cache.lookup(keyOf(I), Out)) << "case " << I;
    EXPECT_EQ(Out.DumpText, Cases[I].Dump) << "case " << I;
    EXPECT_EQ(Out.DiagText, Cases[I].Diag) << "case " << I;
  }
  ArtifactCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, std::size(Cases));
  EXPECT_EQ(S.IntegrityRejects, 0u);
  EXPECT_EQ(S.RawBytes, Raw);
  // The 1 MB dump is repetitive text: the charge is its stored size.
  EXPECT_LT(S.Bytes * 4, S.RawBytes);
}

TEST(ArtifactCache, LruEvictsColdestFirstAndLookupFreshens) {
  // Incompressible payloads of one length all store at one size; probe it.
  auto Payload = [](uint64_t Seed) { return artifactOf(noiseOf(1000, Seed)); };
  size_t PerEntry;
  {
    ArtifactCache Probe;
    Probe.insert(keyOf(0), Payload(0));
    PerEntry = Probe.bytes();
  }
  CacheConfig Cfg;
  // Room for three entries of this payload size, not four.
  Cfg.MaxBytes = 3 * PerEntry + PerEntry / 2;
  ArtifactCache Cache(Cfg);
  Cache.insert(keyOf(1), Payload(1));
  Cache.insert(keyOf(2), Payload(2));
  Cache.insert(keyOf(3), Payload(3));
  // Freshen 1; inserting 4 must now evict 2 (the coldest), not 1.
  CachedArtifact Out;
  ASSERT_TRUE(Cache.lookup(keyOf(1), Out));
  Cache.insert(keyOf(4), Payload(4));
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
    Cache.insert(keyOf(I), artifactOf(noiseOf(256 + (I * 37) % 4096, I)));
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
  Cache.insert(keyOf(1), artifactOf(noiseOf(4096, 1)));
  CachedArtifact Out;
  EXPECT_FALSE(Cache.lookup(keyOf(1), Out));
  EXPECT_EQ(Cache.bytes(), 0u);
  EXPECT_EQ(Cache.stats().RejectedInserts, 1u);
  // And it must not have evicted residents to make room it can't use.
  Cache.insert(keyOf(2), artifactOf("small"));
  Cache.insert(keyOf(3), artifactOf(noiseOf(4096, 3)));
  EXPECT_TRUE(Cache.lookup(keyOf(2), Out));
}

TEST(ArtifactCache, DuplicateInsertReplacesInPlace) {
  // Two workers racing the same key: second insert replaces, bytes stay
  // accounted, entry count stays 1.
  ArtifactCache Cache;
  Cache.insert(keyOf(1), artifactOf(noiseOf(100, 1)));
  size_t BytesFirst = Cache.bytes();
  Cache.insert(keyOf(1), artifactOf(noiseOf(500, 2)));
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_GT(Cache.bytes(), BytesFirst);
  CachedArtifact Out;
  ASSERT_TRUE(Cache.lookup(keyOf(1), Out));
  EXPECT_EQ(Out.DumpText, noiseOf(500, 2));
  EXPECT_EQ(Cache.stats().Insertions, 1u);
}

TEST(ArtifactCache, CorruptedEntryDegradesToMissAndIsDropped) {
  // Integrity gate: an entry whose stored stream was damaged — grown
  // behind the accounting's back, or one byte flipped in place at the
  // same size — must never replay. It degrades to a miss, is counted,
  // and is dropped so the next compile reinstalls a good copy.
  using C = ArtifactCache::Corruption;
  for (C How : {C::Append, C::FlipByte}) {
    SCOPED_TRACE(How == C::Append ? "appended" : "flipped");
    ArtifactCache Cache;
    Cache.insert(keyOf(1), artifactOf("pristine"));
    Cache.insert(keyOf(2), artifactOf("bystander"));
    size_t BytesBefore = Cache.bytes();
    ASSERT_TRUE(Cache.corruptEntryForTest(keyOf(1), How));

    CachedArtifact Out;
    EXPECT_FALSE(Cache.lookup(keyOf(1), Out));
    ArtifactCache::Stats S = Cache.stats();
    EXPECT_EQ(S.IntegrityRejects, 1u);
    EXPECT_EQ(S.Misses, 1u);
    EXPECT_EQ(S.Hits, 0u);
    EXPECT_EQ(S.Entries, 1u); // corrupted entry evicted, bystander intact
    EXPECT_LT(Cache.bytes(), BytesBefore);
    EXPECT_EQ(S.RawBytes, std::string("bystander").size());
    EXPECT_TRUE(Cache.lookup(keyOf(2), Out));
    EXPECT_EQ(Out.DumpText, "bystander");

    // A fresh insert under the same key serves again — self-healing.
    Cache.insert(keyOf(1), artifactOf("pristine"));
    ASSERT_TRUE(Cache.lookup(keyOf(1), Out));
    EXPECT_EQ(Out.DumpText, "pristine");
    EXPECT_EQ(Cache.stats().IntegrityRejects, 1u);

    // Corrupting a nonexistent key is a no-op.
    EXPECT_FALSE(Cache.corruptEntryForTest(keyOf(99), How));
  }
}

} // namespace
