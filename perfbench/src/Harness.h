//===----------------------------------------------------------------------===//
///
/// \file
/// Harness arithmetic shared by the three workloads and pinned by
/// tests/HarnessTest.cpp: percentiles and the tail rule, open-loop lag
/// accounting, work-unit arithmetic, and the result record every workload
/// fills in. Kept free of compiler headers so the self-tests exercise
/// exactly the code the benchmark runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

inline double secBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Linear-interpolated percentile of ascending \p Sorted (the estimator
/// numpy and Python's statistics module call "inclusive"). 0 when empty.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = P / 100.0 * double(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - double(Lo);
  if (Frac == 0)
    return Sorted[Lo];
  return Sorted[Lo] * (1 - Frac) + Sorted[Hi] * Frac;
}

inline double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentileSorted(V, 50);
}

/// A tail statistic together with the percentile it was taken at.
struct TailStat {
  double Percentile = 50;
  double Value = 0;
  size_t Samples = 0;
  /// Samples strictly above the percentile's rank.
  size_t Beyond = 0;
};

/// The fixed ladder of conventional percentiles the tail rule climbs. A
/// coarse fixed ladder (not "n - 10 over n") keeps the reported
/// percentile the same across runs whose sample counts differ, so a
/// faster program is never charged with a higher percentile just because
/// it finished more requests.
inline const std::vector<double> &tailLadder() {
  static const std::vector<double> Ladder = {50, 75, 90, 95, 99, 99.9};
  return Ladder;
}

/// The tail rule: the highest ladder percentile that still has at least
/// \p MinBeyond samples beyond it, i.e. n * (1 - p/100) >= MinBeyond.
/// With too few samples for even the median, the median is reported.
inline TailStat tailStat(std::vector<double> Samples, size_t MinBeyond = 10) {
  std::sort(Samples.begin(), Samples.end());
  TailStat T;
  T.Samples = Samples.size();
  const double N = double(Samples.size());
  for (double P : tailLadder())
    // The epsilon absorbs binary rounding of the ladder fractions (e.g.
    // 1000 * 0.01 must count as 10 samples, not 9.999...).
    if (N * (1.0 - P / 100.0) + 1e-9 >= double(MinBeyond))
      T.Percentile = P;
  T.Value = percentileSorted(Samples, T.Percentile);
  T.Beyond = static_cast<size_t>(
      std::floor(N * (1.0 - T.Percentile / 100.0) + 1e-9));
  return T;
}

/// One open-loop arrival: due at \p Scheduled, actually sent at \p Sent
/// (the generator may run late when every connection is busy), answered
/// at \p Done.
struct OpenLoopTimes {
  Clock::time_point Scheduled, Sent, Done;
};

/// How late the generator sent the request (never negative: a request
/// sent early is a generator bug the caller must not hide, so early
/// sends clamp to zero lag rather than crediting the latency).
inline double lagMs(const OpenLoopTimes &T) {
  return std::max(0.0, msBetween(T.Scheduled, T.Sent));
}

/// Open-loop latency: measured from the scheduled send time, so a stall
/// that delays later sends is charged to every request it delays.
inline double openLoopLatencyMs(const OpenLoopTimes &T) {
  return msBetween(T.Scheduled, T.Done);
}

/// Time of arrival \p Index on a fixed-rate schedule starting at \p T0.
inline Clock::time_point scheduledAt(Clock::time_point T0, uint64_t Index,
                                     double RatePerSec) {
  return T0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(double(Index) / RatePerSec));
}

/// run-vm: how many runMain calls a request makes so that its guest work
/// reaches \p Budget oracle instructions (at least one call).
inline uint64_t vmRepsFor(uint64_t Budget, uint64_t OracleSteps) {
  if (OracleSteps == 0)
    return 1;
  return std::max<uint64_t>(1, (Budget + OracleSteps - 1) / OracleSteps);
}

/// One timed request as every workload records it.
struct RequestRecord {
  double LatencyMs = 0;
  /// Work units this request completes when it succeeds.
  double Work = 0;
  bool Ok = true;
};

/// Failed requests count as missing any latency limit: they enter the
/// latency distribution as +infinity.
inline std::vector<double> latenciesOf(const std::vector<RequestRecord> &Rs) {
  std::vector<double> L;
  L.reserve(Rs.size());
  for (const RequestRecord &R : Rs)
    L.push_back(R.Ok ? R.LatencyMs : std::numeric_limits<double>::infinity());
  return L;
}

/// Closed-loop throughput: work of the successful requests over the time
/// spent inside timed requests.
inline double closedLoopThroughput(const std::vector<RequestRecord> &Rs) {
  double Work = 0, Ms = 0;
  for (const RequestRecord &R : Rs) {
    Ms += R.LatencyMs;
    if (R.Ok)
      Work += R.Work;
  }
  return Ms > 0 ? Work / (Ms / 1000.0) : 0;
}

/// Open-loop throughput: requests that succeeded within \p LimitMs, per
/// second of the schedule's wall time.
inline double openLoopThroughput(const std::vector<RequestRecord> &Rs,
                                 double LimitMs, double WallSec) {
  double Work = 0;
  for (const RequestRecord &R : Rs)
    if (R.Ok && R.LatencyMs <= LimitMs)
      Work += R.Work;
  return WallSec > 0 ? Work / WallSec : 0;
}

/// Tracing cost in percent: p50 latency of traced requests against that
/// of untraced requests of the same run (0 without a baseline).
inline double overheadPct(const std::vector<double> &TracedMs,
                          const std::vector<double> &UntracedMs) {
  double Untraced = median(UntracedMs);
  return Untraced > 0 ? 100.0 * (median(TracedMs) / Untraced - 1.0) : 0;
}

/// Fresh-name suffix -> ordinal of first appearance.
using FreshNameMap = std::unordered_map<uint64_t, uint32_t>;

/// Rewrites every fresh-name suffix "$<digits>" in \p S to "$<k>", k the
/// order in which that number first appeared under \p Map. Fused and
/// unfused pipelines draw fresh names from one counter in different
/// orders (a fused block interleaves its phases node by node), so their
/// outputs agree byte for byte only after this renumbering.
inline std::string canonicalFreshNames(const std::string &S,
                                       FreshNameMap &Map) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size();) {
    char C = S[I++];
    Out += C;
    if (C != '$' || I >= S.size() || S[I] < '0' || S[I] > '9')
      continue;
    uint64_t N = 0;
    while (I < S.size() && S[I] >= '0' && S[I] <= '9')
      N = N * 10 + uint64_t(S[I++] - '0');
    auto It = Map.try_emplace(N, static_cast<uint32_t>(Map.size())).first;
    Out += std::to_string(It->second);
  }
  return Out;
}

/// What a workload run hands back to main().
struct WorkloadResult {
  std::vector<RequestRecord> Requests;
  double Throughput = 0;
  double PeakRssMb = 0;
  std::vector<double> SetupSec;
  /// False when a correctness check failed outside the per-request
  /// records (e.g. a reference program's expected output).
  bool ChecksOk = true;
  /// Per-layer metrics (traced runs): name -> value.
  std::map<std::string, double> Layers;
};

/// Number of failed requests.
inline size_t failedCount(const std::vector<RequestRecord> &Rs) {
  size_t N = 0;
  for (const RequestRecord &R : Rs)
    N += R.Ok ? 0 : 1;
  return N;
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
