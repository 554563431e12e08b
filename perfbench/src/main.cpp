//===----------------------------------------------------------------------===//
//
// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <compile-cold|serve-mixed|run-vm> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints a machine header, the workload's own report lines, and as the
// last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}, metrics as name -> value. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics the
// workload measured and write a Chrome trace. run.py adds the units and
// the layers a workload bypasses from BENCHMARK.json.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <compile-cold|serve-mixed|run-vm> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
}

/// A JSON number with all its digits; non-finite values (a failed
/// request in a percentile) become a large sentinel JSON can carry.
std::string num(double V) {
  if (!std::isfinite(V))
    V = 1e12;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

void addMetric(std::string &Out, const std::string &Name, double Value) {
  if (Out.back() != '{')
    Out += ", ";
  Out += "\"" + Name + "\": " + num(Value);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload;
  RunConfig Cfg;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      Workload = Val;
    } else if (Key == "--seed") {
      Cfg.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = End && *End == 0;
    } else if (Key == "--seconds") {
      Cfg.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = End && *End == 0 && Cfg.Seconds > 0;
    } else if (Key == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      Cfg.Trace = Val == "1";
    } else if (Key == "--trace-out") {
      Cfg.TracePath = Val;
    } else {
      usage();
      return 2;
    }
  }
  if (Argc % 2 != 1 || Workload.empty() || !HaveSeed || !HaveSeconds ||
      !HaveTrace) {
    usage();
    return 2;
  }
  if (Cfg.TracePath.empty())
    Cfg.TracePath = "trace-" + Workload + ".json";

  // Noise hygiene: the thread budget is the host's core count, never a
  // library default (LoadGen's 8 connections, Threads = 0).
  Cfg.Nproc = std::max(1u, std::thread::hardware_concurrency());
  Cfg.MachineJson = std::string("{\"nproc\":") + std::to_string(Cfg.Nproc) +
                    ",\"compiler\":\"" PERFBENCH_COMPILER
                    "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}";
  std::printf("machine: nproc=%u compiler=%s build=%s\n", Cfg.Nproc,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              Workload.c_str(), (unsigned long long)Cfg.Seed, Cfg.Seconds,
              Cfg.Trace ? 1 : 0);
  std::fflush(stdout);

  WorkloadResult R;
  if (Workload == "compile-cold")
    R = runCompileCold(Cfg);
  else if (Workload == "serve-mixed")
    R = runServeMixed(Cfg);
  else if (Workload == "run-vm")
    R = runRunVm(Cfg);
  else {
    usage();
    return 2;
  }

  size_t Attempted = R.Requests.size();
  size_t Failed = failedCount(R.Requests);
  bool Correct = R.ChecksOk && Failed == 0 && Attempted > 0;

  std::string Metrics = "{";
  if (!Cfg.Trace) {
    std::vector<double> Lat = latenciesOf(R.Requests);
    // The tail is printed for the reader but is not a metric: on
    // serve-mixed it swung by more than any allowed bound between runs of
    // the same code (see README.md).
    TailStat Tail = tailStat(Lat);
    std::printf("latency: p50 over %zu samples; tail p%g = %.4f ms with %zu "
                "samples beyond it\n",
                Tail.Samples, Tail.Percentile, Tail.Value, Tail.Beyond);
    addMetric(Metrics, "latency_p50_ms", median(Lat));
    addMetric(Metrics, "throughput", R.Throughput);
    addMetric(Metrics, "peak_rss_mb", R.PeakRssMb);
    addMetric(Metrics, "setup_s", median(R.SetupSec));
  } else {
    for (const auto &[Name, Value] : R.Layers)
      addMetric(Metrics, Name, Value);
    std::printf("trace: %s (tracing cost %+.2f%% of p50 latency, "
                "residual p50 %.4f ms per request)\n",
                Cfg.TracePath.c_str(), R.Layers["trace.overhead_pct"],
                R.Layers["trace.residual_ms"]);
  }
  Metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", Attempted, Failed, Metrics.c_str());
  return 0;
}
