#include "driver/ArtifactCache.h"

#include <zlib.h>

#include <iterator>
#include <new>

using namespace mpc;

namespace {

/// One zlib stream (level Z_BEST_SPEED) of \p Dump followed by \p Diag.
std::string deflateTexts(const std::string &Dump, const std::string &Diag) {
  std::string Raw;
  Raw.reserve(Dump.size() + Diag.size());
  Raw += Dump;
  Raw += Diag;
  uLongf Len = compressBound(Raw.size());
  std::string Buf(Len, '\0');
  if (compress2(reinterpret_cast<Bytef *>(Buf.data()), &Len,
                reinterpret_cast<const Bytef *>(Raw.data()), Raw.size(),
                Z_BEST_SPEED) != Z_OK)
    throw std::bad_alloc(); // the only failure with a bound-sized buffer
  // An exact-size copy: the bound-sized buffer would hold the slack.
  return std::string(Buf.data(), Len);
}

/// Inflates \p Stream into Out's DumpText and DiagText. False unless the
/// stream is intact, fully consumed, and inflates to exactly
/// \p DumpSize + \p DiagSize bytes.
bool inflateTexts(const std::string &Stream, size_t DumpSize,
                  size_t DiagSize, CachedArtifact &Out) {
  std::string Raw(DumpSize + DiagSize, '\0');
  uLongf RawLen = Raw.size();
  uLong StreamLen = Stream.size();
  // With a zero-length destination zlib inflates into a one-byte buffer
  // of its own, so the empty payload needs no special case.
  if (uncompress2(reinterpret_cast<Bytef *>(Raw.data()), &RawLen,
                  reinterpret_cast<const Bytef *>(Stream.data()),
                  &StreamLen) != Z_OK ||
      RawLen != Raw.size() || StreamLen != Stream.size())
    return false;
  Out.DiagText.assign(Raw, DumpSize, DiagSize);
  Raw.resize(DumpSize);
  Out.DumpText = std::move(Raw);
  return true;
}

} // namespace

ArtifactCache::ArtifactCache(CacheConfig Config) : Cfg(Config) {}

bool ArtifactCache::lookup(const JobKey &Key, CachedArtifact &Out) {
  std::string Stream;
  size_t DumpSize, DiagSize;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Index.find(Key);
    if (It == Index.end()) {
      ++NumMisses;
      return false;
    }
    const Entry &E = *It->second;
    Out = E.Meta;
    Stream = E.Stream;
    DumpSize = E.DumpSize;
    DiagSize = E.DiagSize;
    // Freshen: move the entry to the hot end of the LRU list.
    Lru.splice(Lru.begin(), Lru, It->second);
  }
  bool Intact = inflateTexts(Stream, DumpSize, DiagSize, Out);
  std::lock_guard<std::mutex> Lock(M);
  if (Intact) {
    ++NumHits;
    return true;
  }
  // A payload we can't vouch for must not replay: drop it (unless a
  // concurrent insert already replaced it with different bytes) and
  // degrade to a miss — the caller recompiles and reinstalls.
  ++NumIntegrityRejects;
  ++NumMisses;
  auto It = Index.find(Key);
  if (It != Index.end() && It->second->Stream == Stream)
    eraseLocked(It->second);
  return false;
}

bool ArtifactCache::corruptEntryForTest(const JobKey &Key, Corruption How) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Key);
  if (It == Index.end())
    return false;
  std::string &Stream = It->second->Stream;
  switch (How) {
  case Corruption::Append:
    Stream += "<corrupted>";
    break;
  case Corruption::FlipByte:
    Stream[Stream.size() / 2] ^= char(0xFF);
    break;
  }
  return true;
}

void ArtifactCache::insert(const JobKey &Key, CachedArtifact Artifact) {
  Entry E;
  E.Key = Key;
  E.Stream = deflateTexts(Artifact.DumpText, Artifact.DiagText);
  E.DumpSize = Artifact.DumpText.size();
  E.DiagSize = Artifact.DiagText.size();
  E.Bytes = sizeof(Entry) + E.Stream.size();
  // Free the raw texts: the metadata keeps no buffer of them (assigning
  // an empty string would keep the capacity).
  std::string().swap(Artifact.DumpText);
  std::string().swap(Artifact.DiagText);
  E.Meta = std::move(Artifact);
  std::lock_guard<std::mutex> Lock(M);
  if (E.Bytes > Cfg.MaxBytes) {
    ++NumRejected;
    return;
  }
  auto It = Index.find(Key);
  if (It != Index.end()) {
    // Replace (two racing workers compiled the same key; the payloads
    // are byte-identical by construction, so either wins).
    eraseLocked(It->second);
  } else {
    ++NumInsertions;
  }
  BytesHeld += E.Bytes;
  RawBytesHeld += E.DumpSize + E.DiagSize;
  Lru.push_front(std::move(E));
  Index.emplace(Key, Lru.begin());
  evictToCapLocked();
}

void ArtifactCache::eraseLocked(LruList::iterator It) {
  BytesHeld -= It->Bytes;
  RawBytesHeld -= It->DumpSize + It->DiagSize;
  Index.erase(It->Key);
  Lru.erase(It);
}

void ArtifactCache::evictToCapLocked() {
  while (BytesHeld > Cfg.MaxBytes) {
    eraseLocked(std::prev(Lru.end()));
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
  S.RawBytes = RawBytesHeld;
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
