//===----------------------------------------------------------------------===//
//
// Self-tests of the benchmark's harness logic: the tail-percentile rule,
// self-time subtraction, open-loop lag accounting, the work-unit
// arithmetic and the fresh-name renumbering of the fused-vs-unfused
// check. perfbench/run.py runs this binary after every build and
// refuses to benchmark when it fails. Exit code 0 = all checks passed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What) {
  if (!Cond) {
    std::printf("FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> ramp(size_t N) {
  std::vector<double> V;
  for (size_t I = 0; I < N; ++I)
    V.push_back(double(N - I)); // descending: the rule must sort
  return V;
}

void testTailRule() {
  // n * (1 - p/100) >= 10 picks the highest ladder step.
  check(tailStat(ramp(1000)).Percentile == 99, "n=1000 -> p99");
  check(tailStat(ramp(1000)).Beyond == 10, "n=1000 -> 10 beyond");
  check(tailStat(ramp(999)).Percentile == 95, "n=999 -> p95");
  check(tailStat(ramp(200)).Percentile == 95, "n=200 -> p95");
  check(tailStat(ramp(199)).Percentile == 90, "n=199 -> p90");
  check(tailStat(ramp(100)).Percentile == 90, "n=100 -> p90");
  check(tailStat(ramp(10000)).Percentile == 99.9, "n=10000 -> p99.9");
  check(tailStat(ramp(5)).Percentile == 50, "tiny sample -> median");
  // The value is the interpolated percentile of the sorted samples.
  TailStat T = tailStat(ramp(101)); // values 1..101
  check(T.Percentile == 90 && near(T.Value, 91), "p90 of 1..101 is 91");
  check(near(percentileSorted({1, 2, 3, 4}, 50), 2.5), "interpolated median");
  // Failed requests enter as +inf and so land beyond every percentile.
  std::vector<RequestRecord> Rs(100, RequestRecord{5, 1, true});
  Rs[0].Ok = false;
  std::vector<double> L = latenciesOf(Rs);
  check(std::isinf(*std::max_element(L.begin(), L.end())),
        "failed request counts as +inf latency");
  check(near(median(L), 5), "one failure does not move the median");
}

void testSelfTime() {
  Tracer T;
  uint32_t N = T.nameId("x");
  // Parent [0,100] with children [10,30], [20,50] (overlapping: counted
  // once) and [90,120] (clipped to the parent): covered = 40 + 10.
  int32_t P = T.add(N, 0, 100, -1, 1);
  int32_t C1 = T.add(N, 10, 30, P, 1);
  T.add(N, 20, 50, P, 1);
  T.add(N, 90, 120, P, 1);
  // A grandchild is subtracted from its own parent only.
  T.add(N, 12, 18, C1, 1);
  std::vector<int64_t> Self = selfTimesNs(T.spans());
  check(Self[0] == 50, "parent self time subtracts the union of children");
  check(Self[1] == 14, "child self time subtracts its own child");
  check(Self[4] == 6, "leaf self time is its duration");
  // Per-request totals sum repeated spans of one name.
  Tracer U;
  uint32_t A = U.nameId("a");
  U.add(A, 0, 1'000'000, -1, 7);
  U.add(A, 0, 2'000'000, -1, 7);
  U.add(A, 0, 5'000'000, -1, 8);
  auto Per = perRequestMs(U.spans(), A);
  check(near(Per[7], 3) && near(Per[8], 5), "per-request span totals");
}

void testOpenLoopLag() {
  Clock::time_point T0 = Clock::now();
  // The schedule is absolute: arrival i is due at T0 + i/rate.
  check(scheduledAt(T0, 40, 80.0) - T0 == std::chrono::milliseconds(500),
        "arrival 40 at 80/s is due after 500 ms");
  OpenLoopTimes OnTime{T0, T0, T0 + std::chrono::milliseconds(7)};
  check(near(lagMs(OnTime), 0), "on-time send has no lag");
  check(near(openLoopLatencyMs(OnTime), 7), "on-time latency = service");
  // Sent 30 ms late behind a stall: the lag is charged to the latency.
  OpenLoopTimes Late{T0, T0 + std::chrono::milliseconds(30),
                     T0 + std::chrono::milliseconds(37)};
  check(near(lagMs(Late), 30), "late send lag");
  check(near(openLoopLatencyMs(Late), 37), "latency counts from schedule");
  OpenLoopTimes Early{T0 + std::chrono::milliseconds(5), T0,
                      T0 + std::chrono::milliseconds(8)};
  check(near(lagMs(Early), 0), "early send clamps to zero lag");
}

void testWorkUnits() {
  check(vmRepsFor(1'000'000, 300'000) == 4, "reps round up to the budget");
  check(vmRepsFor(1'000'000, 250'000) == 4, "exact budget");
  check(vmRepsFor(1'000'000, 5'000'000) == 1, "at least one run");
  check(vmRepsFor(1'000'000, 0) == 1, "zero-step program still runs once");
  // Closed loop: work of successful requests over time in requests.
  std::vector<RequestRecord> Rs = {{100, 5000, true}, {300, 5000, true}};
  check(near(closedLoopThroughput(Rs), 25000), "10000 lines in 0.4 s");
  Rs[1].Ok = false;
  check(near(closedLoopThroughput(Rs), 12500),
        "a failed request's time counts, its work does not");
  // Open loop: successful requests within the limit, per wall second.
  std::vector<RequestRecord> Os = {
      {20, 1, true}, {99, 1, true}, {101, 1, true}, {5, 1, false}};
  check(near(openLoopThroughput(Os, 100, 2.0), 1.0),
        "over-limit and failed requests do no work");
  // Tracing cost: traced p50 against the untraced p50 of the same run.
  check(near(overheadPct({11, 10, 12}, {10, 9, 11}), 10), "10% cost");
  check(near(overheadPct({5}, {}), 0), "no baseline -> 0");
}

void testFreshNameCanonicalization() {
  // Two alpha-equivalent dumps whose fresh names were numbered in a
  // different order agree after renumbering; a real difference survives.
  FreshNameMap A, B, C;
  std::string X = canonicalFreshNames("ValDef bias$2254\nIdent sel$674 bias$2254", A);
  std::string Y = canonicalFreshNames("ValDef bias$2335\nIdent sel$687 bias$2335", B);
  std::string Z = canonicalFreshNames("ValDef bias$2335\nIdent sel$687 bias$687", C);
  check(X == Y, "renumbered fresh names agree");
  check(X != Z, "a different binding structure still differs");
  check(X == "ValDef bias$0\nIdent sel$1 bias$0", "first-appearance order");
  FreshNameMap D;
  check(canonicalFreshNames("a$ $x $", D) == "a$ $x $", "bare dollars kept");
}

} // namespace

int main() {
  testTailRule();
  testSelfTime();
  testOpenLoopLag();
  testWorkUnits();
  testFreshNameCanonicalization();
  if (Failures) {
    std::printf("harness self-test: %d failures\n", Failures);
    return 1;
  }
  std::printf("harness self-test: all checks passed\n");
  return 0;
}
