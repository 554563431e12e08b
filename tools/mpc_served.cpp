//===----------------------------------------------------------------------===//
//
// mpc_served: the long-lived compile server binary.
//
//   mpc_served [--port N] [--threads N] [--queue-depth N]
//              [--policy reject|shed] [--max-inflight N]
//              [--idle-timeout-ms N] [--cache-mb N]
//
// Prints "listening on 127.0.0.1:<port>" once the socket is bound (with
// --port 0 the kernel picks the port — that line is how a harness learns
// it). SIGTERM/SIGINT trigger the graceful drain: stop accepting, answer
// every admitted job (or RetryAfter), Goodbye on every connection, then
// exit 0. The drain contract is what the tier-1 smoke test pins.
//
// Numeric values are checked (ToolFlags.h): --port 0..65535, --threads
// 0..256 (0 = one per core), and a value that does not parse or is out
// of range exits 2 before the server starts.
//
//===----------------------------------------------------------------------===//

#include "ToolFlags.h"

#include "net/Server.h"

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace mpc;
using namespace mpc::net;
using namespace mpc::tools;

namespace {

// Self-pipe: the handler only writes one byte; all real shutdown work
// happens on the main thread, where it is allowed to take locks.
int SignalPipe[2] = {-1, -1};

void onSignal(int) {
  uint8_t B = 1;
  ssize_t Ignored = ::write(SignalPipe[1], &B, 1);
  (void)Ignored;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerConfig Cfg;
  Cfg.Service.Threads = 2;
  Cfg.Service.MaxQueueDepth = 64;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--port") {
      Cfg.Port = static_cast<uint16_t>(
          uintFlag(Argc, Argv, I, "--port", 0, UINT16_MAX));
    } else if (A == "--threads") {
      Cfg.Service.Threads = static_cast<unsigned>(
          uintFlag(Argc, Argv, I, "--threads", 0, MaxThreads));
    } else if (A == "--queue-depth") {
      Cfg.Service.MaxQueueDepth = static_cast<size_t>(
          uintFlag(Argc, Argv, I, "--queue-depth", 0, SIZE_MAX));
    } else if (A == "--policy") {
      std::string P = flagValue(Argc, Argv, I, "--policy");
      if (P == "reject")
        Cfg.Service.Policy = QueuePolicy::RejectNewest;
      else if (P == "shed")
        Cfg.Service.Policy = QueuePolicy::ShedOldest;
      else {
        std::fprintf(stderr, "mpc_served: unknown policy '%s'\n",
                     P.c_str());
        return 2;
      }
    } else if (A == "--max-inflight") {
      Cfg.MaxInFlightPerConn = static_cast<uint32_t>(
          uintFlag(Argc, Argv, I, "--max-inflight", 1, UINT32_MAX));
    } else if (A == "--idle-timeout-ms") {
      Cfg.IdleTimeoutMs = static_cast<int>(
          uintFlag(Argc, Argv, I, "--idle-timeout-ms", 0, INT_MAX));
    } else if (A == "--cache-mb") {
      Cfg.Service.Cache.MaxBytes =
          uintFlag(Argc, Argv, I, "--cache-mb", 0, SIZE_MAX >> 20) << 20;
    } else {
      std::fprintf(stderr, "mpc_served: unknown flag '%s'\n", A.c_str());
      return 2;
    }
  }

  if (::pipe(SignalPipe) != 0) {
    std::fprintf(stderr, "mpc_served: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  CompileServer Server(Cfg);
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "mpc_served: start failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u\n", unsigned(Server.port()));
  std::fflush(stdout);

  // Park until a signal arrives (EINTR restarts are expected here).
  uint8_t B = 0;
  for (;;) {
    ssize_t N = ::read(SignalPipe[0], &B, 1);
    if (N == 1)
      break;
    if (N < 0 && errno == EINTR)
      continue;
    break; // pipe broken — treat as shutdown
  }

  std::printf("draining\n");
  std::fflush(stdout);
  Server.requestDrain();
  Server.waitDrained();

  ServerStats St = Server.snapshot();
  std::printf("drained: %llu conns, %llu admitted, %llu responses, "
              "%llu retry-after, %llu protocol-errors, %llu orphaned\n",
              static_cast<unsigned long long>(St.ConnectionsAccepted),
              static_cast<unsigned long long>(St.RequestsAdmitted),
              static_cast<unsigned long long>(St.ResponsesSent),
              static_cast<unsigned long long>(St.RetryAfterSent),
              static_cast<unsigned long long>(St.ProtocolErrors),
              static_cast<unsigned long long>(St.OrphanedResults));
  std::fflush(stdout);
  return 0;
}
