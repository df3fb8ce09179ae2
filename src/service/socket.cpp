#include "service/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "service/chaos.hpp"

namespace ft::service {

bool is_transport_code(const std::string& code) noexcept {
  return code == "io" || code == "timeout" || code == "connect" ||
         code == "draining" || code == "fleet";
}

bool is_bounce_code(const std::string& code) noexcept {
  return code == "overloaded" || code == "deadline";
}

namespace {

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw ServiceError("bad_address",
                       "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Frames are written as single sends and every exchange is strictly
/// request -> response, so Nagle buys nothing and its delayed-ACK
/// interaction would add tens of milliseconds per round-trip.
void disable_nagle(int fd) {
  const int yes = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
}

sockaddr_in tcp_sockaddr(const Address& address) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(address.port));
  if (::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr) != 1) {
    throw ServiceError("bad_address",
                       "not a numeric IPv4 host: " + address.host);
  }
  return addr;
}

}  // namespace

Address Address::parse(const std::string& spec) {
  Address address;
  if (spec.rfind("unix:", 0) == 0) {
    address.is_unix = true;
    address.path = spec.substr(5);
    if (address.path.empty()) {
      throw ServiceError("bad_address", "empty unix socket path");
    }
    return address;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    address.is_unix = false;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.find_last_of(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw ServiceError("bad_address",
                         "expected tcp:host:port, got '" + spec + "'");
    }
    address.host = rest.substr(0, colon);
    char* end = nullptr;
    const long port = std::strtol(rest.c_str() + colon + 1, &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      throw ServiceError("bad_address",
                         "bad tcp port in '" + spec + "'");
    }
    address.port = static_cast<int>(port);
    return address;
  }
  throw ServiceError(
      "bad_address",
      "expected unix:PATH or tcp:host:port, got '" + spec + "'");
}

std::string Address::display() const {
  if (is_unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect(const Address& address,
                       chaos::ChaosEngine* chaos) {
  if (chaos != nullptr && chaos->should_fail_connect()) {
    throw ServiceError("connect", "cannot connect to " +
                                      address.display() +
                                      ": injected chaos dial failure");
  }
  const int fd =
      ::socket(address.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ServiceError("connect", "socket(): " + std::string(
                                      std::strerror(errno)));
  }
  Socket socket(fd);
  int rc;
  if (address.is_unix) {
    const sockaddr_un addr = unix_sockaddr(address.path);
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    // An EINTR'd connect may have completed in the background; the
    // retry then reports EISCONN, which IS success.
    if (rc != 0 && errno == EISCONN) rc = 0;
  } else {
    const sockaddr_in addr = tcp_sockaddr(address);
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0 && errno == EISCONN) rc = 0;
    if (rc == 0) disable_nagle(fd);
  }
  if (rc != 0) {
    throw ServiceError("connect", "cannot connect to " +
                                      address.display() + ": " +
                                      std::strerror(errno));
  }
  return socket;
}

void Socket::set_nonblocking() noexcept {
  if (fd_ >= 0) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), address_(std::move(other.address_)) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    address_ = std::move(other.address_);
    other.fd_ = -1;
  }
  return *this;
}

Listener Listener::bind(const Address& address) {
  const int fd =
      ::socket(address.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ServiceError("bind", "socket(): " + std::string(
                                   std::strerror(errno)));
  }
  Listener listener;
  listener.fd_ = fd;
  listener.address_ = address;
  int rc;
  if (address.is_unix) {
    ::unlink(address.path.c_str());  // replace a stale socket file
    const sockaddr_un addr = unix_sockaddr(address.path);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr));
  } else {
    const int yes = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
    const sockaddr_in addr = tcp_sockaddr(address);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr));
  }
  if (rc != 0 || ::listen(fd, 64) != 0) {
    throw ServiceError("bind", "cannot listen on " + address.display() +
                                   ": " + std::strerror(errno));
  }
  if (!address.is_unix) {
    // Read back the ephemeral port for tcp:host:0.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      listener.address_.port = ntohs(bound.sin_port);
    }
  }
  return listener;
}

Socket Listener::accept_within(int timeout_ms) {
  if (fd_ < 0) return Socket();
  // Absolute deadline: EINTR (a signal storm, a profiler tick) retries
  // the poll with the REMAINING budget, never a fresh one. The old
  // code treated poll()==-1 as a timeout, so one stray signal made an
  // accept loop drop a pending connection on the floor.
  using clock = std::chrono::steady_clock;
  const bool unbounded = timeout_ms < 0;
  const clock::time_point deadline =
      clock::now() + std::chrono::milliseconds(unbounded ? 0 : timeout_ms);
  for (;;) {
    int budget = -1;
    if (!unbounded) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - clock::now());
      budget = static_cast<int>(std::max<long long>(left.count(), 0));
    }
    pollfd entry{fd_, POLLIN, 0};
    const int ready = ::poll(&entry, 1, budget);
    if (ready == 0) return Socket();  // genuine timeout
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Socket();
    }
    int fd;
    do {
      fd = ::accept(fd_, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) {
      // ECONNABORTED (peer gave up while queued) and friends: the
      // listener itself is fine, wait for the next connection.
      if (errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      return Socket();
    }
    if (!address_.is_unix) disable_nagle(fd);
    return Socket(fd);
  }
}

Socket Listener::accept_nonblocking() {
  if (fd_ < 0) return Socket();
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Socket();
  if (!address_.is_unix) disable_nagle(fd);
  return Socket(fd);
}

void Listener::set_nonblocking() noexcept {
  if (fd_ >= 0) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (address_.is_unix && !address_.path.empty()) {
      ::unlink(address_.path.c_str());
    }
  }
}

void ignore_sigpipe() noexcept {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction current{};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler != SIG_DFL) {
      return;  // the application chose its own handler; respect it
    }
    struct sigaction ignore{};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    (void)::sigaction(SIGPIPE, &ignore, nullptr);
  });
}

}  // namespace ft::service
