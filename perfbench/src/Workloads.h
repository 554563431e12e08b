//===----------------------------------------------------------------------===//
///
/// \file
/// The three benchmark workloads and the helpers they share. Each
/// workload sets itself up (several times, reporting every set-up time),
/// measures for the configured number of seconds, then checks every
/// output it produced against an independent reference.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"
#include "Trace.h"

#include "backend/Bytecode.h"
#include "core/CompilerContext.h"
#include "support/Fingerprint.h"

#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its Chrome trace.
  std::string TracePath;
  /// Machine header, recorded in the trace file.
  std::string MachineJson;
  unsigned Nproc = 1;
};

WorkloadResult runCompileCold(const RunConfig &Cfg);
WorkloadResult runServeMixed(const RunConfig &Cfg);
WorkloadResult runRunVm(const RunConfig &Cfg);

/// Set-up repetitions per run: setup_s is their median, so one or two
/// slow set-ups (page faults, a noisy neighbour) do not move the metric.
constexpr unsigned SetupRepeats = 5;

/// splitmix64 of (seed, stream): independent, reproducible sub-seeds.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// Order-sensitive fingerprint of generated bytecode. Symbols enter by
/// full name (not address or id) with fresh names renumbered, so a fused
/// and an unfused compile of one program agree exactly when their code
/// does up to fresh-name numbering.
mpc::Fingerprint fingerprintProgram(const mpc::Program &Prog);

/// Fingerprint of the typed dumps of lowered units (the service's
/// WantDump text), fresh names renumbered as above.
mpc::Fingerprint fingerprintUnits(const std::vector<mpc::CompilationUnit> &Us);

/// Fills the tracing-derived layer metrics shared by every workload:
/// trace.residual_ms (p50 over traced requests of the request span's
/// self time, i.e. time no layer span covers), trace.overhead_pct (the
/// tracing cost the workload measured) and trace.spans_per_request.
void reportTraceSummary(const std::vector<const Tracer *> &Tracers,
                        const std::string &RootName, double OverheadPct,
                        WorkloadResult &R);

/// Writes the Chrome trace of a traced run; returns false on I/O error.
bool writeTrace(const RunConfig &Cfg, const std::string &Workload,
                const std::vector<const Tracer *> &Tracers);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
