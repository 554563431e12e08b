//===----------------------------------------------------------------------===//
///
/// \file
/// Dependency-light POSIX TCP plumbing: RAII fd ownership, a loopback
/// listener, and the timeout-bounded whole-buffer send and chunk receive
/// that clients use. Everything returns status codes — no exceptions
/// cross this layer, so every failure can become "close and account".
///
/// recvSome() hosts the NetReadDelay fault site (a deterministic slow
/// peer), so the wire tests replay slow-client schedules from a seed.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_NET_SOCKET_H
#define MPC_NET_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace mpc {
namespace net {

/// Owning file-descriptor handle (move-only).
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  Socket(Socket &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Socket &operator=(Socket &&O) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
  ~Socket() { close(); }

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Closes the fd. Idempotent.
  void close();

private:
  int Fd = -1;
};

/// Creates a non-blocking loopback listener. \p Port 0 picks an
/// ephemeral port; on success \p Port holds the actual bound port.
/// Invalid Socket + \p Err on failure.
Socket listenTcp(uint16_t &Port, std::string &Err, int Backlog = 64);

/// Accepts one pending connection as a non-blocking socket. Invalid
/// Socket when none is pending (errno EAGAIN) or the accept fails (errno
/// says why, e.g. EMFILE).
Socket acceptConn(int ListenFd);

/// Connects to 127.0.0.1:\p Port with a bounded wait.
Socket connectTcp(uint16_t Port, int TimeoutMs, std::string &Err);

/// Outcome of one bounded receive.
enum class RecvStatus : uint8_t {
  Data,    ///< >=1 byte arrived
  Timeout, ///< nothing within TimeoutMs
  Closed,  ///< orderly EOF from the peer
  Error,   ///< socket error (connection reset, bad fd, ...)
};

/// Reads at most \p Cap bytes within \p TimeoutMs (-1 = wait forever).
/// Hosts the NetReadDelay fault site.
RecvStatus recvSome(int Fd, uint8_t *Buf, size_t Cap, size_t &Got,
                    int TimeoutMs);

/// Writes the whole buffer, polling for writability between partial
/// writes; fails (false) if any single wait exceeds \p TimeoutMs — the
/// slow-client guard: a peer that stops reading cannot pin the writer
/// for longer than the timeout. Writes with SIGPIPE suppressed.
bool sendAll(int Fd, const uint8_t *Buf, size_t Len, int TimeoutMs);

/// Bounded poll for readability. Returns +1 readable, 0 timeout,
/// -1 error/hangup-with-nothing-readable.
int waitReadable(int Fd, int TimeoutMs);

} // namespace net
} // namespace mpc

#endif // MPC_NET_SOCKET_H
