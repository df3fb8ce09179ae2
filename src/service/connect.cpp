#include "service/connect.hpp"

#include <algorithm>

#include "service/framing.hpp"

namespace ft::service {

namespace {

[[noreturn]] void throw_error_frame(const ErrorFrame& error) {
  throw ServiceError(error.code.empty() ? "error" : error.code,
                     "ftuned refused: " + error.code +
                         (error.detail.empty() ? "" : ": " + error.detail));
}

}  // namespace

Session connect(const Endpoint& endpoint, const ConnectOptions& options) {
  // Even with MSG_NOSIGNAL on every framed send, a raced close can
  // still deliver SIGPIPE through auxiliary paths; one process-wide
  // SIG_IGN makes "peer died mid-write" always an EPIPE errno.
  ignore_sigpipe();
  Session session;
  session.transport_ = options.transport;
  session.chaos_ = chaos::make_engine(options.transport.chaos);
  session.socket_ =
      Socket::connect(endpoint.address, session.chaos_.get());
  const int timeout_ms = options.transport.io_timeout_ms();

  HelloFrame hello;
  hello.program = options.workspace.program;
  hello.arch = options.workspace.arch;
  hello.personality =
      options.workspace.personality == compiler::Personality::kGcc
          ? "gcc"
          : "icc";
  hello.options = options.workspace.options;
  hello.caps.framings = options.framings;
  // binary is the mandatory fallback: offering it last means "the CRC
  // trailer if you can, plain binary otherwise", and guarantees the
  // negotiation never dead-ends.
  if (std::find(hello.caps.framings.begin(), hello.caps.framings.end(),
                Framing::kBinary) == hello.caps.framings.end()) {
    hello.caps.framings.push_back(Framing::kBinary);
  }
  std::string payload;
  encode_hello_frame(Framing::kBinary, hello, &payload);
  if (!write_frame(session.socket_.fd(), payload, timeout_ms,
                   session.chaos_.get())) {
    throw ServiceError("connect",
                       "cannot send hello to " + endpoint.spec);
  }

  const FrameStatus status =
      read_frame(session.socket_.fd(), &payload, kDefaultMaxFrameBytes,
                 timeout_ms, session.chaos_.get());
  if (status == FrameStatus::kTimeout) {
    throw ServiceError("timeout",
                       "handshake with " + endpoint.spec + " timed out");
  }
  if (status != FrameStatus::kOk) {
    throw ServiceError("connect",
                       "connection closed during handshake with " +
                           endpoint.spec);
  }

  AnyFrame reply;
  std::string error;
  const DecodeStatus decoded =
      decode_frame(Framing::kBinary, payload, &reply, &error);
  if (decoded == DecodeStatus::kOk && reply.kind == FrameKind::kError) {
    throw_error_frame(reply.error);
  }
  if (decoded != DecodeStatus::kOk ||
      reply.kind != FrameKind::kWelcome) {
    throw ServiceError("bad_frame",
                       "expected a welcome frame: " + error);
  }
  // The server's pick is binding, but it must be something we offered:
  // anything else means the peer is broken, and switching to a framing
  // we never asked for would desynchronize the stream.
  if (std::find(hello.caps.framings.begin(), hello.caps.framings.end(),
                reply.welcome.framing) == hello.caps.framings.end()) {
    throw ServiceError("bad_frame",
                       "server picked a framing that was not offered");
  }
  session.welcome_ = std::move(reply.welcome);
  session.framing_ = session.welcome_.framing;
  return session;
}

}  // namespace ft::service
