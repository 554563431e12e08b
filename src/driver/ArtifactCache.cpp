#include "driver/ArtifactCache.h"

using namespace mpc;

ArtifactCache::ArtifactCache(CacheConfig Config) : Cfg(Config) {}

size_t ArtifactCache::artifactBytes(const CachedArtifact &Artifact) {
  return sizeof(Entry) + Artifact.DiagText.size() + Artifact.DumpText.size();
}

bool ArtifactCache::lookup(const JobKey &Key, CachedArtifact &Out) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++NumMisses;
    return false;
  }
  // Integrity gate: the payload's recomputed size must equal the size
  // accounted when it was stored. Anything that mutated the entry in
  // place desynchronizes the two, and a payload we can't vouch for must
  // not replay — drop it and degrade to a miss (the caller recompiles).
  Entry &E = *It->second;
  if (artifactBytes(E.Artifact) != E.Bytes) {
    ++NumIntegrityRejects;
    ++NumMisses;
    BytesHeld -= E.Bytes;
    Lru.erase(It->second);
    Index.erase(It);
    return false;
  }
  ++NumHits;
  // Freshen: move the entry to the hot end of the LRU list.
  Lru.splice(Lru.begin(), Lru, It->second);
  Out = E.Artifact;
  return true;
}

bool ArtifactCache::corruptEntryForTest(const JobKey &Key) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Key);
  if (It == Index.end())
    return false;
  // Grow the payload behind the accounting's back — exactly the
  // desynchronization the lookup-time integrity check exists to catch.
  It->second->Artifact.DumpText += "<corrupted>";
  return true;
}

void ArtifactCache::insert(const JobKey &Key, CachedArtifact Artifact) {
  size_t Bytes = artifactBytes(Artifact);
  std::lock_guard<std::mutex> Lock(M);
  if (Bytes > Cfg.MaxBytes) {
    ++NumRejected;
    return;
  }
  auto It = Index.find(Key);
  if (It != Index.end()) {
    // Replace in place (two racing workers compiled the same key; the
    // payloads are byte-identical by construction, so either wins).
    BytesHeld -= It->second->Bytes;
    It->second->Artifact = std::move(Artifact);
    It->second->Bytes = Bytes;
    BytesHeld += Bytes;
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    Lru.push_front(Entry{Key, std::move(Artifact), Bytes});
    Index.emplace(Key, Lru.begin());
    BytesHeld += Bytes;
    ++NumInsertions;
  }
  evictToCapLocked();
}

void ArtifactCache::evictToCapLocked() {
  while (BytesHeld > Cfg.MaxBytes) {
    Entry &Cold = Lru.back();
    BytesHeld -= Cold.Bytes;
    Index.erase(Cold.Key);
    Lru.pop_back();
    ++NumEvictions;
  }
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  Stats S;
  S.Hits = NumHits;
  S.Misses = NumMisses;
  S.Insertions = NumInsertions;
  S.Evictions = NumEvictions;
  S.RejectedInserts = NumRejected;
  S.IntegrityRejects = NumIntegrityRejects;
  S.Bytes = BytesHeld;
  S.Entries = Lru.size();
  return S;
}

size_t ArtifactCache::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return BytesHeld;
}

size_t ArtifactCache::entries() const {
  std::lock_guard<std::mutex> Lock(M);
  return Lru.size();
}
