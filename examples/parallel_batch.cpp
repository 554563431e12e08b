//===----------------------------------------------------------------------===//
// Parallel batch compilation: the paper's evaluation setting ("batch
// compilation in a big project", §5.2) driven through the compileBatch
// API. Twelve generated code bases are compiled across a worker pool;
// compiler instances share nothing, so the speedup is near-linear until
// memory bandwidth saturates. The typed tree dumps of the serial and the
// parallel run must be byte-identical; the program exits 1 if they differ.
//
//   $ ./examples/parallel_batch [threads]
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "support/Timer.h"
#include "workload/ProgramGenerator.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace mpc;

namespace {

std::vector<BatchJob> makeJobs() {
  std::vector<BatchJob> Jobs;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    WorkloadProfile P = Seed % 2 ? stdlibProfile(0.05) : dottyProfile(0.05);
    P.Seed = Seed;
    BatchJob J;
    J.Sources = generateWorkload(P);
    J.Kind = PipelineKind::StandardFused;
    J.WantDump = true;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

/// Compiles the job set on \p Threads workers; returns the wall time and
/// appends every job's tree dump to \p Dumps.
double timeBatch(unsigned Threads, std::string *Dumps) {
  std::vector<BatchJob> Jobs = makeJobs();
  Timer T;
  std::vector<BatchResult> Results = compileBatch(std::move(Jobs), Threads);
  double Sec = T.elapsedSeconds();
  for (BatchResult &R : Results) {
    if (R.HadErrors) {
      std::printf("unexpected errors:\n%s\n", R.DiagText.c_str());
      std::exit(1);
    }
    *Dumps += R.DumpText;
  }
  return Sec;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Threads = argc > 1 ? std::atoi(argv[1]) : 4;
  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("compiling 12 generated code bases (fused pipeline), "
              "%u hardware threads available\n\n",
              Cores);

  std::string DumpSerial, DumpParallel;
  double Serial = timeBatch(1, &DumpSerial);
  double Parallel = timeBatch(Threads, &DumpParallel);

  std::printf("  serial   (1 worker):  %6.3fs\n", Serial);
  std::printf("  parallel (%u workers): %6.3fs   speedup %.2fx\n", Threads,
              Parallel, Serial / Parallel);
  if (Cores <= 1)
    std::printf("  (single-core machine: correctness is exercised, "
                "speedup is not expected)\n");
  if (DumpSerial != DumpParallel) {
    std::printf("MISMATCH: outputs differ between serial and parallel!\n");
    return 1;
  }
  std::printf("  outputs identical: %zu bytes of typed tree dumps both ways\n",
              DumpSerial.size());
  return 0;
}
