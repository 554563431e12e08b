#include "net/Socket.h"

#include "support/FaultInjector.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mpc;
using namespace mpc::net;

Socket &Socket::operator=(Socket &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    O.Fd = -1;
  }
  return *this;
}

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

namespace {

sockaddr_in loopbackAddr(uint16_t Port) {
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  return Addr;
}

} // namespace

Socket net::listenTcp(uint16_t &Port, std::string &Err, int Backlog) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return Socket();
  }
  Socket S(Fd);
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr = loopbackAddr(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = std::string("bind: ") + std::strerror(errno);
    return Socket();
  }
  if (::listen(Fd, Backlog) != 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    return Socket();
  }
  // Non-blocking: an accept loop drains the backlog until EAGAIN.
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL, 0) | O_NONBLOCK);
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    Err = std::string("getsockname: ") + std::strerror(errno);
    return Socket();
  }
  Port = ntohs(Addr.sin_port);
  return S;
}

Socket net::acceptConn(int ListenFd) {
  int Fd = ::accept(ListenFd, nullptr, nullptr);
  if (Fd < 0)
    return Socket();
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  // Non-blocking: callers own all waiting via poll, which is what makes
  // timeouts real.
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  return Socket(Fd);
}

Socket net::connectTcp(uint16_t Port, int TimeoutMs, std::string &Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return Socket();
  }
  Socket S(Fd);
  // Non-blocking connect so the bound is honored even when the listener
  // has a full backlog.
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  sockaddr_in Addr = loopbackAddr(Port);
  int RC = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  if (RC != 0 && errno != EINPROGRESS) {
    Err = std::string("connect: ") + std::strerror(errno);
    return Socket();
  }
  if (RC != 0) {
    pollfd PFD{Fd, POLLOUT, 0};
    int PR = ::poll(&PFD, 1, TimeoutMs);
    if (PR <= 0) {
      Err = PR == 0 ? "connect: timed out" : "connect: poll failed";
      return Socket();
    }
    int SoErr = 0;
    socklen_t Len = sizeof(SoErr);
    ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &Len);
    if (SoErr != 0) {
      Err = std::string("connect: ") + std::strerror(SoErr);
      return Socket();
    }
  }
  // Stay non-blocking: sendAll/recvSome own all waiting via poll.
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return S;
}

int net::waitReadable(int Fd, int TimeoutMs) {
  pollfd PFD{Fd, POLLIN, 0};
  int RC = ::poll(&PFD, 1, TimeoutMs);
  if (RC == 0)
    return 0;
  if (RC < 0)
    return -1;
  if (PFD.revents & (POLLIN | POLLHUP))
    return 1; // readable, possibly a pending EOF — read() will tell
  return -1;
}

RecvStatus net::recvSome(int Fd, uint8_t *Buf, size_t Cap, size_t &Got,
                         int TimeoutMs) {
  Got = 0;
  if (FaultInjector *FI = activeFaultInjector())
    FI->readDelayPoint();
  int RC = waitReadable(Fd, TimeoutMs);
  if (RC == 0)
    return RecvStatus::Timeout;
  if (RC < 0)
    return RecvStatus::Error;
  ssize_t N = ::recv(Fd, Buf, Cap, 0);
  if (N > 0) {
    Got = static_cast<size_t>(N);
    return RecvStatus::Data;
  }
  if (N == 0)
    return RecvStatus::Closed;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
    return RecvStatus::Timeout;
  return RecvStatus::Error;
}

bool net::sendAll(int Fd, const uint8_t *Buf, size_t Len, int TimeoutMs) {
  size_t At = 0;
  while (At < Len) {
    ssize_t N = ::send(Fd, Buf + At, Len - At, MSG_NOSIGNAL);
    if (N > 0) {
      At += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: a peer that stopped reading. Wait bounded —
      // a slow client cannot pin this thread past the timeout.
      pollfd PFD{Fd, POLLOUT, 0};
      int RC = ::poll(&PFD, 1, TimeoutMs);
      if (RC <= 0 || (PFD.revents & (POLLERR | POLLHUP)))
        return false;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}
