// Minimal RAII stream-socket layer for the evaluation service.
// Addresses are spelled "unix:/path/to.sock" or "tcp:host:port"
// (numeric IPv4 only - the daemon is a LAN/localhost service, so no
// DNS dependency). Listener::accept_within polls, so an accept loop
// can interleave idle-timeout checks without signals.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ft::service {

namespace chaos {
class ChaosEngine;
}

/// Service-layer failure with a stable machine-readable code (the same
/// codes travel in wire error frames: "bad_frame", "overloaded", ...).
class ServiceError : public std::runtime_error {
 public:
  ServiceError(std::string code, const std::string& what)
      : std::runtime_error(what), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// The one classification of ServiceError codes that callers act on.
/// Transport: the endpoint, the path to it, or the whole fleet cannot
/// serve right now ("io", "timeout", "connect", "draining", "fleet").
/// "draining" belongs here: the daemon announced it is going away,
/// which for routing is the same as already being gone.
[[nodiscard]] bool is_transport_code(const std::string& code) noexcept;
/// Bounce: a healthy endpoint refused this one request - backpressure
/// ("overloaded") or server-side queue-age expiry ("deadline").
[[nodiscard]] bool is_bounce_code(const std::string& code) noexcept;

struct Address {
  bool is_unix = true;
  std::string path;  ///< unix socket path
  std::string host;  ///< numeric IPv4 for tcp
  int port = 0;

  /// Parses "unix:PATH" or "tcp:host:port"; throws ServiceError
  /// ("bad_address") otherwise.
  [[nodiscard]] static Address parse(const std::string& spec);
  [[nodiscard]] std::string display() const;
};

/// Move-only owner of one connected stream socket.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to a listening service; throws ServiceError ("connect").
  /// A non-null chaos engine may fail the dial (same error), which is
  /// how seeded runs exercise down-endpoint handling.
  [[nodiscard]] static Socket connect(const Address& address,
                                      chaos::ChaosEngine* chaos = nullptr);

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// O_NONBLOCK, for event-loop ownership (the epoll server must
  /// never let one slow peer block the loop thread).
  void set_nonblocking() noexcept;
  /// Wakes any thread blocked in recv() on this socket.
  void shutdown_both() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Move-only owner of one bound+listening socket. Unlinks its unix
/// path on close.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens; throws ServiceError ("bind"). A stale unix
  /// socket file is replaced. tcp port 0 binds an ephemeral port
  /// (readback via address()).
  [[nodiscard]] static Listener bind(const Address& address);

  /// Accepts one connection, waiting at most `timeout_ms`; returns an
  /// invalid Socket on timeout or when the listener was closed. EINTR
  /// (in the poll or the accept) retries against the SAME absolute
  /// deadline - a signal storm cannot extend the wait.
  [[nodiscard]] Socket accept_within(int timeout_ms);

  /// Accepts without waiting; invalid Socket when nothing is pending.
  /// Pair with set_nonblocking() + an epoll registration on fd().
  [[nodiscard]] Socket accept_nonblocking();

  /// Raw fd for event-loop registration (epoll_ctl).
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void set_nonblocking() noexcept;

  [[nodiscard]] const Address& address() const noexcept { return address_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
  Address address_;
};

/// One-time process-wide SIG_IGN for SIGPIPE. Every service-layer send
/// already passes MSG_NOSIGNAL; this is the belt-and-braces layer for
/// anything else that may ever write to a dead peer (called from
/// Server::start and service::connect). Idempotent and thread-safe;
/// never overrides a handler the application installed itself.
void ignore_sigpipe() noexcept;

}  // namespace ft::service
