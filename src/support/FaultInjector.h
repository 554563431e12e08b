//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seeded fault injection for the compile service's
/// robustness tests.
///
/// Production infrastructure is only as trustworthy as its failure paths,
/// and failure paths are exactly the code that benign workloads never
/// execute. This file plants *fault points* at the spots the service's
/// fault-containment story depends on:
///
///   - SlabPageAlloc    SlabAllocator::takePage — acquiring a 64 KiB slab
///                      page fails with std::bad_alloc;
///   - SlabFallbackAlloc the oversize/system path of
///                      SlabAllocator::allocate fails with std::bad_alloc;
///   - PagePoolTake     PagePool::take skips its warm list and hands out
///                      a fresh page even when warm ones are available
///                      (exercises the fresh-mapping path);
///   - FrontendEntry    the per-source frontend loop;
///   - PhaseEntry       the transformation pipeline, once per phase group
///                      per unit;
///   - NetTornWrite     the server's non-blocking send — only a prefix
///                      of the frame is queued and the connection closes
///                      once it is flushed (the peer observes a truncated
///                      frame followed by EOF);
///   - NetReadDelay     src/net's recvSome, which clients use — the read
///                      is delayed by a configured amount (how tests build
///                      slow clients without depending on machine speed);
///   - NetDisconnect    read-chunk boundaries in the server's reactor —
///                      the connection is dropped abruptly,
///                      orphaning any in-flight job (disconnect-mid-job;
///                      the client sees an unannounced close and must
///                      reconnect and retry).
///
/// The stage sites (FrontendEntry/PhaseEntry) can throw an InjectedFault
/// or sleep for a configured delay — the latter is how tests make a job
/// slow enough to blow a deadline without depending on machine speed.
///
/// Decisions are *deterministic*: the N-th arrival at a site fires iff a
/// hash of (seed, site, N) falls under the site's configured rate, so a
/// failing run replays exactly from its seed (with one worker the whole
/// schedule is reproducible; with many, the set of firing arrivals is
/// fixed even though which job absorbs each arrival depends on
/// scheduling). All state is atomic — fault points race freely.
///
/// Cost when disabled: a single relaxed atomic load of a null pointer per
/// fault point — no injector object exists unless a test installs one
/// (see ScopedFaultInjector), so production runs pay one predictable
/// branch.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_SUPPORT_FAULTINJECTOR_H
#define MPC_SUPPORT_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>

namespace mpc {

/// Thrown by a firing stage fault point. The compile service's worker
/// firewall turns it (like any other exception) into a Faulted result.
class InjectedFault : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Every fault point in the codebase. Each site keeps its own arrival
/// counter, so rates are independent.
enum class FaultSite : unsigned {
  SlabPageAlloc,
  SlabFallbackAlloc,
  PagePoolTake,
  FrontendEntry,
  PhaseEntry,
  NetTornWrite,
  NetReadDelay,
  NetDisconnect,
};
inline constexpr unsigned NumFaultSites = 8;

/// What to inject, and how often. Rates are per-arrival probabilities in
/// [0, 1]; 0 disables the site.
struct FaultConfig {
  /// Seed of the deterministic decision hash.
  uint64_t Seed = 1;
  /// SlabPageAlloc: probability a slab-page acquisition throws bad_alloc.
  double PageAllocFailRate = 0;
  /// SlabFallbackAlloc: probability an oversize/system-path allocation
  /// throws bad_alloc.
  double FallbackAllocFailRate = 0;
  /// PagePoolTake: probability a page-source take skips the warm list.
  double PoolTakeMissRate = 0;
  /// FrontendEntry/PhaseEntry: probability of throwing InjectedFault.
  double StageThrowRate = 0;
  /// FrontendEntry/PhaseEntry: probability of sleeping StageDelayMicros.
  double StageDelayRate = 0;
  unsigned StageDelayMicros = 0;
  /// Test hook run at every FrontendEntry/PhaseEntry arrival (before the
  /// throw/delay decisions). Lets a test gate a worker on a condition
  /// variable to build deterministic queue states. Must be thread-safe.
  std::function<void(FaultSite)> StageHook;
  /// NetTornWrite: probability one server frame is cut short and its
  /// connection closed (the peer sees a truncated frame, then EOF).
  double TornWriteRate = 0;
  /// NetReadDelay: probability one recvSome() sleeps NetReadDelayMicros
  /// before reading (deterministic slow-client construction).
  double NetReadDelayRate = 0;
  unsigned NetReadDelayMicros = 0;
  /// NetDisconnect: probability a read-chunk boundary in the server
  /// drops the connection abruptly, orphaning any in-flight job.
  double NetDisconnectRate = 0;
};

/// The injector: deterministic per-site decisions plus counters of what
/// actually fired (tests assert against these, not against luck).
class FaultInjector {
public:
  explicit FaultInjector(FaultConfig Config) : Cfg(std::move(Config)) {}
  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  /// SlabAllocator::takePage fault point; true = throw bad_alloc.
  bool failPageAlloc() {
    bool Fire = decide(FaultSite::SlabPageAlloc, Cfg.PageAllocFailRate);
    if (Fire)
      ++NumPageAllocFailures;
    return Fire;
  }

  /// SlabAllocator::allocate oversize-path fault point.
  bool failFallbackAlloc() {
    bool Fire =
        decide(FaultSite::SlabFallbackAlloc, Cfg.FallbackAllocFailRate);
    if (Fire)
      ++NumFallbackFailures;
    return Fire;
  }

  /// PagePool::take fault point; true = hand out a fresh page.
  bool missPoolTake() {
    bool Fire = decide(FaultSite::PagePoolTake, Cfg.PoolTakeMissRate);
    if (Fire)
      ++NumPoolMisses;
    return Fire;
  }

  /// Stage fault point (FrontendEntry or PhaseEntry): runs the test hook,
  /// may sleep, may throw InjectedFault. Defined in FaultInjector.cpp.
  void stagePoint(FaultSite Site);

  /// Server send fault point; true = cut the frame short and hang up.
  bool tearWrite() {
    bool Fire = decide(FaultSite::NetTornWrite, Cfg.TornWriteRate);
    if (Fire)
      ++NumTornWrites;
    return Fire;
  }

  /// recvSome fault point: may sleep NetReadDelayMicros. Defined in
  /// FaultInjector.cpp (it needs <thread>).
  void readDelayPoint();

  /// Server read-chunk fault point; true = drop the connection now.
  bool dropConnection() {
    bool Fire = decide(FaultSite::NetDisconnect, Cfg.NetDisconnectRate);
    if (Fire)
      ++NumDisconnects;
    return Fire;
  }

  /// What actually fired so far (all monotone).
  struct Stats {
    uint64_t PageAllocFailures = 0;
    uint64_t FallbackFailures = 0;
    uint64_t PoolMisses = 0;
    uint64_t StageThrows = 0;
    uint64_t StageDelays = 0;
    uint64_t TornWrites = 0;
    uint64_t ReadDelays = 0;
    uint64_t Disconnects = 0;
  };
  Stats stats() const {
    Stats S;
    S.PageAllocFailures = NumPageAllocFailures.load();
    S.FallbackFailures = NumFallbackFailures.load();
    S.PoolMisses = NumPoolMisses.load();
    S.StageThrows = NumStageThrows.load();
    S.StageDelays = NumStageDelays.load();
    S.TornWrites = NumTornWrites.load();
    S.ReadDelays = NumReadDelays.load();
    S.Disconnects = NumDisconnects.load();
    return S;
  }

  const FaultConfig &config() const { return Cfg; }

private:
  /// The N-th arrival at \p Site fires iff hash(Seed, Site, N) < Rate.
  bool decide(FaultSite Site, double Rate);

  FaultConfig Cfg;
  std::atomic<uint64_t> Arrivals[NumFaultSites] = {};
  std::atomic<uint64_t> NumPageAllocFailures{0};
  std::atomic<uint64_t> NumFallbackFailures{0};
  std::atomic<uint64_t> NumPoolMisses{0};
  std::atomic<uint64_t> NumStageThrows{0};
  std::atomic<uint64_t> NumStageDelays{0};
  std::atomic<uint64_t> NumTornWrites{0};
  std::atomic<uint64_t> NumReadDelays{0};
  std::atomic<uint64_t> NumDisconnects{0};
};

namespace detail {
/// Null in production; set only while a ScopedFaultInjector is alive.
extern std::atomic<FaultInjector *> GFaultInjector;
} // namespace detail

/// The installed injector, or null (the common case — one relaxed load).
inline FaultInjector *activeFaultInjector() {
  return detail::GFaultInjector.load(std::memory_order_acquire);
}

/// RAII installation for tests: constructs the injector, publishes it to
/// every fault point, and withdraws it on destruction. Install before
/// starting the threads whose faults you want (publication is
/// release/acquire, but a mid-run install makes arrival counts
/// schedule-dependent). Only one may be alive at a time (asserted).
class ScopedFaultInjector {
public:
  explicit ScopedFaultInjector(FaultConfig Config);
  ~ScopedFaultInjector();
  ScopedFaultInjector(const ScopedFaultInjector &) = delete;
  ScopedFaultInjector &operator=(const ScopedFaultInjector &) = delete;

  FaultInjector &injector() { return FI; }

private:
  FaultInjector FI;
};

/// Stage fault-point helper for the frontend loop and the pipeline: the
/// one-branch fast path lives here, everything else in the injector.
inline void faultStagePoint(FaultSite Site) {
  if (FaultInjector *FI = activeFaultInjector())
    FI->stagePoint(Site);
}

} // namespace mpc

#endif // MPC_SUPPORT_FAULTINJECTOR_H
