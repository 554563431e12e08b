//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters in the spirit of LLVM's Statistic class. Phases bump
/// counters (nodes visited, trees rebuilt, hooks executed...) and benchmarks
/// read them back to explain measured effects.
///
/// The compile service adds a two-level scheme: each worker thread owns a
/// StatsSheaf (a locally buffered counter block) and the service merges
/// the sheaves into one StatsRegistry when results are drained, so the
/// per-job hot path never contends on a shared counter map.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_SUPPORT_STATISTICS_H
#define MPC_SUPPORT_STATISTICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace mpc {

class OStream;

/// A bag of named uint64 counters. Not thread-safe; within one compiler
/// run counters are bumped by a single thread (per-worker accumulation
/// goes through StatsSheaf below).
class StatsRegistry {
public:
  uint64_t &counter(const std::string &Key) { return Counters[Key]; }

  void add(const std::string &Key, uint64_t Delta) { Counters[Key] += Delta; }

  uint64_t get(const std::string &Key) const {
    auto It = Counters.find(Key);
    return It == Counters.end() ? 0 : It->second;
  }

  void clear() { Counters.clear(); }

  /// Adds every counter of \p Other into this registry.
  void merge(const StatsRegistry &Other) {
    for (const auto &[Key, Value] : Other.Counters)
      Counters[Key] += Value;
  }

  /// Prints "key = value" lines sorted by key.
  void print(OStream &OS) const;

  /// Like print, restricted to counters whose key starts with \p Prefix
  /// (e.g. "fusion." for the fused-traversal counters).
  void printPrefixed(OStream &OS, const std::string &Prefix) const;

private:
  std::map<std::string, uint64_t> Counters;
};

/// Per-worker counter block of the compile service. A worker bumps its
/// own sheaf without contending with other workers (the tiny mutex is
/// only ever shared with the drainer, which runs once per drain, not per
/// counter); drainInto() moves the accumulated deltas into the service's
/// registry and empties the sheaf so repeated drains never double-count.
class StatsSheaf {
public:
  void add(const std::string &Key, uint64_t Delta) {
    std::lock_guard<std::mutex> Lock(M);
    Local.add(Key, Delta);
  }

  /// Adds every counter of \p Registry (e.g. a finished job's context
  /// stats) into the sheaf.
  void merge(const StatsRegistry &Registry) {
    std::lock_guard<std::mutex> Lock(M);
    Local.merge(Registry);
  }

  /// Moves the buffered deltas into \p Out and resets the sheaf.
  void drainInto(StatsRegistry &Out) {
    std::lock_guard<std::mutex> Lock(M);
    Out.merge(Local);
    Local.clear();
  }

private:
  mutable std::mutex M;
  StatsRegistry Local;
};

} // namespace mpc

#endif // MPC_SUPPORT_STATISTICS_H
