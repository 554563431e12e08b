//===----------------------------------------------------------------------===//
//
// mpc_load_client: open-loop load generator against a running
// mpc_served instance.
//
//   mpc_load_client --port N [--rps R] [--requests N] [--connections N]
//                   [--seed N] [--scale F] [--variants N]
//                   [--deadline-ms N]
//
// --rps 0 (the default) runs closed-loop as fast as the connection pool
// allows — that measures the saturation ceiling; positive --rps offers a
// fixed open-loop arrival schedule and reports p50/p95/p99 end-to-end
// latency plus the server-reported queue-wait split.
//
// Numeric values are checked (ToolFlags.h): --port 1..65535,
// --connections 1..256, --requests up to 10^7 (the latency samples are
// reserved up front), --variants 1..1024 (each is generated up front),
// --scale in [0.01, 10]; a value that does not parse or is out of range
// exits 2 before any connection opens.
//
//===----------------------------------------------------------------------===//

#include "ToolFlags.h"

#include "net/LoadGen.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace mpc::net;
using namespace mpc::tools;

namespace {

constexpr uint64_t MaxRequests = 10'000'000;
constexpr uint64_t MaxVariants = 1024;
/// At 0.01 stdlibProfile asks for units of about 85 lines; much below
/// that a unit is little more than its driver object, and the requests
/// would time the wire and the queue rather than the compiler.
constexpr double MinScale = 0.01;

} // namespace

int main(int Argc, char **Argv) {
  LoadGenConfig Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--port")
      Cfg.Port = static_cast<uint16_t>(
          uintFlag(Argc, Argv, I, "--port", 1, UINT16_MAX));
    else if (A == "--rps")
      Cfg.Rps = realFlag(Argc, Argv, I, "--rps", 0, 1e6);
    else if (A == "--requests")
      Cfg.NumRequests = uintFlag(Argc, Argv, I, "--requests", 0, MaxRequests);
    else if (A == "--connections")
      Cfg.Connections = static_cast<unsigned>(
          uintFlag(Argc, Argv, I, "--connections", 1, MaxThreads));
    else if (A == "--seed")
      Cfg.Seed = uintFlag(Argc, Argv, I, "--seed", 0, UINT64_MAX);
    else if (A == "--scale")
      Cfg.SourceScale = realFlag(Argc, Argv, I, "--scale", MinScale, 10);
    else if (A == "--variants")
      Cfg.Variants = static_cast<unsigned>(
          uintFlag(Argc, Argv, I, "--variants", 1, MaxVariants));
    else if (A == "--deadline-ms")
      Cfg.DeadlineMillis =
          uintFlag(Argc, Argv, I, "--deadline-ms", 0, UINT32_MAX);
    else {
      std::fprintf(stderr, "mpc_load_client: unknown flag '%s'\n",
                   A.c_str());
      return 2;
    }
  }
  if (Cfg.Port == 0) {
    std::fprintf(stderr, "mpc_load_client: --port is required\n");
    return 2;
  }

  LoadGenReport Rep = runLoadGen(Cfg);
  std::printf("%s\n", formatReport(Rep).c_str());
  // Transport-level failure of every request = the server was not there.
  return Rep.Completed > 0 ? 0 : 1;
}
