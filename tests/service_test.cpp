// Tests for the ftuned evaluation service: frame codec round-trips
// (every frame type, bit-exact doubles), length-prefixed framing over
// a socketpair, live-server error semantics, a >=1000-frame garbage
// fuzz that must leave the daemon serving, and the property the whole
// subsystem rests on - remote tuning runs are bit-identical to
// in-process ones, faults and all.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/funcy_tuner.hpp"
#include "core/serialization.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "service/client.hpp"
#include "service/fleet.hpp"
#include "service/framing.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"

namespace ft::service {
namespace {

// --- frame helpers ----------------------------------------------------------

/// Decodes one payload, expecting a clean decode.
AnyFrame decode_ok(const std::string& payload,
                   Framing framing = Framing::kBinary) {
  AnyFrame frame;
  std::string error;
  EXPECT_EQ(decode_frame(framing, payload, &frame, &error),
            DecodeStatus::kOk)
      << error;
  return frame;
}

// Plain-binary payloads (the handshake framing and the default
// session framing).
std::string hello_frame(const HelloFrame& hello) {
  std::string out;
  encode_hello_frame(Framing::kBinary, hello, &out);
  return out;
}

std::string welcome_frame(const WelcomeFrame& welcome) {
  std::string out;
  encode_welcome_frame(Framing::kBinary, welcome, &out);
  return out;
}

/// A single evaluation on the wire: an eval_batch of one.
std::string eval_frame(std::uint64_t seq, const core::EvalRequest& request) {
  std::string out;
  encode_eval_batch_frame(Framing::kBinary, seq, {&request, 1}, &out);
  return out;
}

std::string result_frame(std::uint64_t seq,
                         const core::EvalResponse& response) {
  std::string out;
  encode_result_batch_frame(Framing::kBinary, seq, {&response, 1}, &out);
  return out;
}

std::string eval_batch_frame(std::uint64_t seq,
                             const std::vector<core::EvalRequest>& requests) {
  std::string out;
  encode_eval_batch_frame(Framing::kBinary, seq, requests, &out);
  return out;
}

std::string ping_frame(std::uint64_t seq) {
  std::string out;
  encode_ping_frame(Framing::kBinary, seq, &out);
  return out;
}

std::string bye_frame() {
  std::string out;
  encode_bye_frame(Framing::kBinary, &out);
  return out;
}

core::EvalRequest make_request() {
  core::EvalRequest request;
  request.assignment.loop_cvs = {
      flags::CompilationVector({0, 3, 255, 17}),
      flags::CompilationVector({1, 1, 2}),
  };
  request.assignment.nonloop_cv = flags::CompilationVector({9, 0, 7});
  request.rep_base = (1ull << 40) + 12345;
  request.repetitions = 7;
  request.instrumented = true;
  request.noise = false;
  request.aggregate = machine::Aggregation::kTrimmedMean;
  return request;
}

void expect_request_eq(const core::EvalRequest& got,
                       const core::EvalRequest& want) {
  EXPECT_EQ(got.assignment.loop_cvs, want.assignment.loop_cvs);
  EXPECT_EQ(got.assignment.nonloop_cv, want.assignment.nonloop_cv);
  EXPECT_EQ(got.rep_base, want.rep_base);
  EXPECT_EQ(got.repetitions, want.repetitions);
  EXPECT_EQ(got.instrumented, want.instrumented);
  EXPECT_EQ(got.noise, want.noise);
  EXPECT_EQ(got.aggregate, want.aggregate);
}

core::EvalResponse make_ok_response() {
  core::EvalResponse response;
  machine::RunResult& result = response.outcome.result;
  result.end_to_end = 3.141592653589793;
  result.loop_seconds = {1.0 / 3.0, 0.1, 4.450147717014403e-308};
  double loops = 0.0;
  for (const double s : result.loop_seconds) loops += s;
  // The wire never carries derived_nonloop; the decoder recomputes it
  // the same way the engine does.
  result.derived_nonloop_seconds = result.end_to_end - loops;
  result.stddev = 0.0078125;
  response.outcome.attempts = 2;
  response.served_by = core::EvalServedBy::kCacheHit;
  response.modules_compiled = 5;
  return response;
}

TEST(Protocol, WelcomeArchsRoundTrip) {
  WelcomeFrame welcome;
  welcome.session = 7;
  welcome.max_batch = 8;
  welcome.caps.archs = {"AMD Opteron", "Intel Broadwell"};
  EXPECT_EQ(decode_ok(welcome_frame(welcome)).welcome.caps.archs,
            welcome.caps.archs);

  // A welcome advertising no archs decodes as an empty served set.
  WelcomeFrame bare;
  bare.session = 1;
  bare.max_batch = 4;
  EXPECT_TRUE(decode_ok(welcome_frame(bare)).welcome.caps.archs.empty());
}

TEST(Protocol, DecodersRejectMalformedFrames) {
  AnyFrame frame;
  std::string error;
  const auto expect_malformed = [&](const std::string& payload,
                                    const char* what) {
    error.clear();
    EXPECT_EQ(decode_frame(Framing::kBinary, payload, &frame, &error),
              DecodeStatus::kMalformed)
        << what;
    EXPECT_FALSE(error.empty()) << what;
  };

  // A hello that stops after its header lacks every field.
  HelloFrame hello;
  hello.workspace.program = "CL";
  hello.workspace.arch = "broadwell";
  const std::string valid_hello = hello_frame(hello);
  expect_malformed(valid_hello.substr(0, 9), "hello header only");
  HelloFrame nameless = hello;
  nameless.workspace.program.clear();
  expect_malformed(hello_frame(nameless), "hello without a program");
  // HelloFrame cannot name another personality; splice one into the
  // wire string (u32 length + bytes) where "icc" travels.
  std::string clang = valid_hello;
  const std::string icc("\x03\0\0\0icc", 7);
  ASSERT_NE(clang.find(icc), std::string::npos);
  clang.replace(clang.find(icc), icc.size(),
                std::string("\x05\0\0\0clang", 9));
  expect_malformed(clang, "hello with an unknown personality");

  // An eval whose request stops inside its loop CVs (header, batch
  // count, loop count, then two bytes of the first CV's length).
  const std::string eval = eval_frame(1, make_request());
  expect_malformed(eval.substr(0, 9 + 4 + 4 + 2), "truncated loop CV");
  // A request whose aggregation byte names no aggregation.
  std::string bad_agg = eval;
  bad_agg.back() = '\x07';
  expect_malformed(bad_agg, "unknown aggregation");

  // A result flagged ok that carries no measurements.
  std::string result = result_frame(1, make_ok_response());
  expect_malformed(result.substr(0, 9 + 4 + 1 + 4 + 8 + 1),
                   "ok result without measurements");
  // A failed result naming a fault kind this build does not know.
  core::EvalResponse failed;
  failed.outcome.error.kind = core::EvalFault::kCompileFailure;
  failed.outcome.error.detail = "x";
  result = result_frame(1, failed);
  const std::string kind(core::to_string(failed.outcome.error.kind));
  const std::size_t at = result.find(kind);
  ASSERT_NE(at, std::string::npos);
  result[at] = '#';
  expect_malformed(result, "unknown fault kind");
}

// --- framing over a socketpair ----------------------------------------------

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

TEST(Framing, RoundTripsPayloads) {
  SocketPair pair;
  ASSERT_TRUE(write_frame(pair.fds[0], R"({"type":"ping","seq":"1"})"));
  ASSERT_TRUE(write_frame(pair.fds[0], ""));  // empty payload is legal
  std::string payload;
  EXPECT_EQ(read_frame(pair.fds[1], &payload), FrameStatus::kOk);
  EXPECT_EQ(payload, R"({"type":"ping","seq":"1"})");
  EXPECT_EQ(read_frame(pair.fds[1], &payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "");
}

TEST(Framing, LargePayloadRoundTrips) {
  SocketPair pair;
  // Bigger than a socket buffer, so both sides must loop on partial
  // reads/writes; a writer thread keeps the pipe draining.
  const std::string big(512 * 1024, 'x');
  std::thread writer(
      [&] { EXPECT_TRUE(write_frame(pair.fds[0], big)); });
  std::string payload;
  EXPECT_EQ(read_frame(pair.fds[1], &payload), FrameStatus::kOk);
  writer.join();
  EXPECT_EQ(payload, big);
}

TEST(Framing, OversizedDeclaredLengthIsRefusedBeforeAllocation) {
  SocketPair pair;
  ASSERT_TRUE(write_frame(pair.fds[0], std::string(64, 'x')));
  std::string payload;
  EXPECT_EQ(read_frame(pair.fds[1], &payload, /*max_bytes=*/16),
            FrameStatus::kTooLarge);
}

TEST(Framing, TornFrameIsDetected) {
  SocketPair pair;
  const unsigned char prefix[4] = {0, 0, 0, 100};  // declares 100 bytes
  ASSERT_EQ(send(pair.fds[0], prefix, 4, 0), 4);
  ASSERT_EQ(send(pair.fds[0], "abc", 3, 0), 3);
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  std::string payload;
  EXPECT_EQ(read_frame(pair.fds[1], &payload), FrameStatus::kTorn);
}

TEST(Framing, CleanEofIsClosed) {
  SocketPair pair;
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  std::string payload;
  EXPECT_EQ(read_frame(pair.fds[1], &payload), FrameStatus::kClosed);
}

TEST(Framing, ReadDeadlineFiresOnSilentPeer) {
  SocketPair pair;
  std::string payload;
  // Nothing sent at all: the deadline, not EOF, ends the read.
  EXPECT_EQ(read_frame(pair.fds[1], &payload, kDefaultMaxFrameBytes,
                       /*timeout_ms=*/50),
            FrameStatus::kTimeout);
  // Worse: a prefix arrives, then the peer stalls mid-frame. The
  // deadline spans the whole frame, so this times out too instead of
  // blocking in the payload read.
  const unsigned char prefix[4] = {0, 0, 0, 8};
  ASSERT_EQ(send(pair.fds[0], prefix, 4, 0), 4);
  EXPECT_EQ(read_frame(pair.fds[1], &payload, kDefaultMaxFrameBytes,
                       /*timeout_ms=*/50),
            FrameStatus::kTimeout);
}

TEST(Framing, WriteDeadlineFiresWhenPeerStopsDraining) {
  SocketPair pair;
  // Nobody reads fds[1], so once both socket buffers fill the write
  // must hit its deadline rather than block forever.
  const std::string big(8 * 1024 * 1024, 'x');
  EXPECT_FALSE(write_frame(pair.fds[0], big, /*timeout_ms=*/100));
}

// --- live server ------------------------------------------------------------

ServerOptions test_server_options() {
  ServerOptions options;
  options.listen = "tcp:127.0.0.1:0";  // ephemeral: parallel-test safe
  return options;
}

/// A hello for `program` on `arch` under `options` (icc personality,
/// binary framing).
ConnectOptions workspace_hello(const std::string& program,
                               const std::string& arch,
                               const core::FuncyTunerOptions& options,
                               const ClientOptions& transport = {}) {
  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{program, arch, compiler::Personality::kIcc, options};
  connect_options.transport = transport;
  return connect_options;
}

/// Writes `frame`, reads one reply, decodes it as plain binary.
/// Raw-socket counterpart of Client for the error-path tests.
AnyFrame roundtrip(int fd, const std::string& frame) {
  EXPECT_TRUE(write_frame(fd, frame));
  std::string payload;
  EXPECT_EQ(read_frame(fd, &payload), FrameStatus::kOk);
  return decode_ok(payload);
}

/// Connects and handshakes a raw session for program CL on broadwell.
/// The hello offers only the baseline, so the session stays plain
/// binary.
Socket greet(const Server& server) {
  Socket socket = Socket::connect(server.address());
  HelloFrame hello;
  hello.workspace.program = "CL";
  hello.workspace.arch = "broadwell";
  const AnyFrame reply = roundtrip(socket.fd(), hello_frame(hello));
  EXPECT_EQ(reply.kind, FrameKind::kWelcome);
  EXPECT_EQ(reply.welcome.framing, Framing::kBinary);
  return socket;
}

core::EvalRequest valid_request() {
  core::EvalRequest request;
  const flags::FlagSpace space = flags::icc_space();
  request.assignment = compiler::ModuleAssignment::uniform(
      space.default_cv(), programs::by_name("CL").loops().size());
  return request;
}

TEST(Server, RejectsUnknownProgramAndArchitecture) {
  Server server(test_server_options());
  server.start();
  {
    Socket socket = Socket::connect(server.address());
    HelloFrame hello;
    hello.workspace.program = "no-such-benchmark";
    hello.workspace.arch = "broadwell";
    const AnyFrame reply = roundtrip(socket.fd(), hello_frame(hello));
    ASSERT_EQ(reply.kind, FrameKind::kError);
    EXPECT_EQ(reply.error.code, "unknown_program");
    EXPECT_TRUE(reply.error.fatal);
  }
  {
    Socket socket = Socket::connect(server.address());
    HelloFrame hello;
    hello.workspace.program = "CL";
    hello.workspace.arch = "m68k";
    const AnyFrame reply = roundtrip(socket.fd(), hello_frame(hello));
    ASSERT_EQ(reply.kind, FrameKind::kError);
    EXPECT_EQ(reply.error.code, "unknown_architecture");
  }
  server.stop();
}

TEST(Server, RejectsUnsupportedProtocolVersion) {
  Server server(test_server_options());
  server.start();
  HelloFrame hello;
  hello.workspace.program = "CL";
  hello.workspace.arch = "broadwell";
  hello.caps.protocol = 999;
  {
    Socket socket = Socket::connect(server.address());
    const AnyFrame reply = roundtrip(socket.fd(), hello_frame(hello));
    ASSERT_EQ(reply.kind, FrameKind::kError);
    EXPECT_EQ(reply.error.code, "unsupported_version");
    EXPECT_TRUE(reply.error.fatal);
  }
  {
    // The version leads the hello: a skewed peer whose hello lays out
    // the rest differently (here: nothing after the version) is still
    // refused as unsupported_version, not as a malformed bad_request.
    Socket socket = Socket::connect(server.address());
    const AnyFrame reply =
        roundtrip(socket.fd(), hello_frame(hello).substr(0, 9 + 4));
    ASSERT_EQ(reply.kind, FrameKind::kError);
    EXPECT_EQ(reply.error.code, "unsupported_version");
    EXPECT_TRUE(reply.error.fatal);
  }
  server.stop();
}

TEST(Server, RefusesAProtocolTwoHello) {
  // Protocol 2 still had single-request eval/result frames; a peer
  // speaking it must be refused at the handshake, not mid-run.
  Server server(test_server_options());
  server.start();
  Socket socket = Socket::connect(server.address());
  HelloFrame hello;
  hello.workspace.program = "CL";
  hello.workspace.arch = "broadwell";
  hello.caps.protocol = 2;
  const AnyFrame reply = roundtrip(socket.fd(), hello_frame(hello));
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "unsupported_version");
  EXPECT_TRUE(reply.error.fatal);
  server.stop();
}

TEST(Server, JsonHelloFromAProtocolOnePeerGetsAFatalErrorAndAClose) {
  // What a peer from before the binary handshake sends: a JSON hello.
  // It must earn a structured refusal and a hangup, not a hang.
  Server server(test_server_options());
  server.start();
  Socket socket = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(
      socket.fd(),
      R"({"type":"hello","protocol":1,"program":"CL","arch":"broadwell"})"));
  std::string payload;
  ASSERT_EQ(read_frame(socket.fd(), &payload, kDefaultMaxFrameBytes, 5000),
            FrameStatus::kOk);
  const AnyFrame reply = decode_ok(payload);
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "unsupported_version");
  EXPECT_TRUE(reply.error.fatal);
  const FrameStatus after =
      read_frame(socket.fd(), &payload, kDefaultMaxFrameBytes, 5000);
  EXPECT_TRUE(after == FrameStatus::kClosed || after == FrameStatus::kTorn)
      << "the daemon must hang up after a fatal handshake error";
  server.stop();
}

TEST(Server, GarbagePayloadIsNonFatalButOversizedFrameHangsUp) {
  ServerOptions options = test_server_options();
  options.max_frame_bytes = 4096;
  Server server(options);
  server.start();
  Socket socket = greet(server);

  // An empty payload: framing stays synchronized, session survives.
  AnyFrame reply = roundtrip(socket.fd(), "");
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "bad_frame");
  EXPECT_FALSE(reply.error.fatal);
  // Unknown frame tag: refused per-frame, session survives.
  reply = roundtrip(socket.fd(), std::string("\x7f", 1) + "launch");
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "bad_request");
  EXPECT_FALSE(reply.error.fatal);
  // A known tag with a truncated body: refused with its seq.
  reply = roundtrip(socket.fd(), eval_frame(9, valid_request()).substr(0, 20));
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "bad_request");
  EXPECT_EQ(reply.error.seq, 9u);
  EXPECT_FALSE(reply.error.fatal);
  // ...still serving:
  const AnyFrame pong = roundtrip(socket.fd(), ping_frame(5));
  EXPECT_EQ(pong.kind, FrameKind::kPong);
  EXPECT_EQ(pong.seq, 5u);

  // Oversized frame: stream unsynchronized -> fatal error, then EOF.
  reply = roundtrip(socket.fd(), std::string(8192, ' '));
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "oversized_frame");
  EXPECT_TRUE(reply.error.fatal);
  // Hang-up may surface as a clean FIN or (when the server closes with
  // our unread payload still in flight) a TCP reset; either way, no
  // further frame is served.
  std::string payload;
  EXPECT_NE(read_frame(socket.fd(), &payload), FrameStatus::kOk);
  server.stop();
}

TEST(Server, OverloadedRefusalIsRetryable) {
  ServerOptions options = test_server_options();
  options.max_inflight = 0;  // every admission must be refused
  Server server(options);
  server.start();
  Socket socket = greet(server);
  const AnyFrame reply = roundtrip(socket.fd(), eval_frame(11, valid_request()));
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "overloaded");
  EXPECT_EQ(reply.error.seq, 11u);
  EXPECT_TRUE(reply.error.retryable);
  EXPECT_FALSE(reply.error.fatal);
  // The refusal is per-frame: the session still answers pings.
  EXPECT_EQ(roundtrip(socket.fd(), ping_frame(12)).kind, FrameKind::kPong);
  EXPECT_EQ(server.stats().overloads, 1u);
  server.stop();
}

TEST(Server, DefaultOptionsServeAPaperScaleBatch) {
  // A CFR campaign at the paper's budget sends 1000-request batches;
  // a default daemon must admit one whole instead of refusing it as
  // overloaded, so the default max_inflight must cover a full batch.
  Server server(test_server_options());
  server.start();
  Socket socket = greet(server);
  std::vector<core::EvalRequest> batch(1000, valid_request());
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].rep_base = i;
  const AnyFrame reply = roundtrip(socket.fd(), eval_batch_frame(3, batch));
  ASSERT_EQ(reply.kind, FrameKind::kResultBatch);
  EXPECT_EQ(reply.responses.size(), batch.size());
  EXPECT_EQ(server.stats().overloads, 0u);
  server.stop();
}

TEST(Server, BatchBeyondMaxBatchIsRefused) {
  ServerOptions options = test_server_options();
  options.max_batch = 2;
  Server server(options);
  server.start();
  Socket socket = greet(server);
  const std::vector<core::EvalRequest> requests(3, valid_request());
  const AnyFrame reply = roundtrip(socket.fd(), eval_batch_frame(4, requests));
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "bad_request");
  EXPECT_FALSE(reply.error.fatal);
  server.stop();
}

TEST(Server, ServesEvalAndBatchFrames) {
  Server server(test_server_options());
  server.start();
  Socket socket = greet(server);
  const AnyFrame single = roundtrip(socket.fd(), eval_frame(1, valid_request()));
  ASSERT_EQ(single.kind, FrameKind::kResultBatch);
  ASSERT_EQ(single.responses.size(), 1u);
  EXPECT_TRUE(single.responses[0].ok());
  EXPECT_GT(single.responses[0].seconds(), 0.0);

  std::vector<core::EvalRequest> batch(4, valid_request());
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].rep_base = i;
  const AnyFrame reply = roundtrip(socket.fd(), eval_batch_frame(2, batch));
  ASSERT_EQ(reply.kind, FrameKind::kResultBatch);
  const std::vector<core::EvalResponse>& responses = reply.responses;
  ASSERT_EQ(responses.size(), 4u);
  // Identical assignments under different noise keys: all valid, not
  // all equal (the noise model is keyed by rep_base).
  EXPECT_NE(responses[0].outcome.result.end_to_end,
            responses[1].outcome.result.end_to_end);
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.evaluations, 5u);
  EXPECT_EQ(stats.batch_frames, 2u);  // the single eval is a batch of one
  server.stop();
}

TEST(Client, SurfacesServerRefusalsAsServiceErrors) {
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  EXPECT_THROW(
      {
        try {
          (void)Client::connect(
              Endpoint::parse(server.address().display()),
              workspace_hello("no-such-benchmark", "broadwell", options));
        } catch (const ServiceError& error) {
          EXPECT_EQ(error.code(), "unknown_program");
          throw;
        }
      },
      ServiceError);
  server.stop();
}

TEST(Client, PingAndBatchedCalls) {
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  std::shared_ptr<Client> client =
      Client::connect(Endpoint::parse(server.address().display()),
                      workspace_hello("CL", "broadwell", options));
  client->ping();
  EXPECT_GT(client->max_batch(), 0u);
  std::vector<core::EvalRequest> requests(3, valid_request());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].rep_base = 100 + i;
  }
  const std::vector<core::EvalResponse> responses =
      client->call_many(requests);
  ASSERT_EQ(responses.size(), 3u);
  for (const core::EvalResponse& response : responses) {
    EXPECT_TRUE(response.ok());
  }
  const core::EvalResponse solo = client->call(requests[0]);
  // Same request, same noise key: the remote measurement is
  // reproducible down to the bit.
  EXPECT_EQ(solo.outcome.result.end_to_end,
            responses[0].outcome.result.end_to_end);
  server.stop();
}

TEST(Server, ArchRestrictedDaemonRefusesAndAdvertises) {
  ServerOptions options = test_server_options();
  options.archs = {"opteron"};
  Server server(options);
  server.start();
  {
    // A hello for an arch outside the served set is a fatal refusal
    // with its own code, so fleet connect() can tell "wrong daemon
    // for this cell" apart from "daemon is broken".
    Socket socket = Socket::connect(server.address());
    HelloFrame hello;
    hello.workspace.program = "CL";
    hello.workspace.arch = "broadwell";
    const AnyFrame reply = roundtrip(socket.fd(), hello_frame(hello));
    ASSERT_EQ(reply.kind, FrameKind::kError);
    EXPECT_EQ(reply.error.code, "unsupported_architecture");
    EXPECT_TRUE(reply.error.fatal);
  }
  {
    Socket socket = Socket::connect(server.address());
    HelloFrame hello;
    hello.workspace.program = "CL";
    hello.workspace.arch = "opteron";
    const AnyFrame reply = roundtrip(socket.fd(), hello_frame(hello));
    ASSERT_EQ(reply.kind, FrameKind::kWelcome);
    // The served set is advertised canonicalized to display names.
    EXPECT_EQ(reply.welcome.caps.archs,
              std::vector<std::string>{machine::opteron().name});
  }
  server.stop();
}

TEST(Client, HandshakeTimesOutAgainstSilentListener) {
  // A "daemon" that accepts the connection and then never says a word:
  // without deadlines the handshake read would hang forever.
  Listener listener = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    std::vector<Socket> held;  // keep accepted sockets open, say nothing
    while (!stop.load()) {
      Socket session = listener.accept_within(20);
      if (session.valid()) held.push_back(std::move(session));
    }
  });
  core::FuncyTunerOptions options;
  ClientOptions client_options;
  client_options.io_timeout_seconds = 0.2;
  try {
    (void)Client::connect(
        Endpoint::parse(listener.address().display()),
        workspace_hello("CL", "broadwell", options, client_options));
    FAIL() << "handshake against a silent daemon must time out";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "timeout");
  }
  stop.store(true);
  acceptor.join();
}

TEST(Client, CallTimesOutWhenDaemonGoesSilentMidSession) {
  // Fake daemon: greets properly, then swallows the next frame without
  // answering. The client's per-frame deadline must turn that into a
  // clean retryable transport error.
  Listener listener = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
  std::thread fake_daemon([&] {
    Socket session = listener.accept_within(5000);
    ASSERT_TRUE(session.valid());
    std::string payload;
    ASSERT_EQ(read_frame(session.fd(), &payload), FrameStatus::kOk);
    WelcomeFrame welcome;
    welcome.session = 1;
    welcome.max_batch = 64;
    ASSERT_TRUE(write_frame(session.fd(), welcome_frame(welcome)));
    (void)read_frame(session.fd(), &payload);  // eat the ping, go silent
    (void)read_frame(session.fd(), &payload);  // wait for the hangup
  });
  core::FuncyTunerOptions options;
  ClientOptions client_options;
  client_options.io_timeout_seconds = 0.2;
  std::shared_ptr<Client> client = Client::connect(
      Endpoint::parse(listener.address().display()),
      workspace_hello("CL", "broadwell", options, client_options));
  try {
    client->ping();
    FAIL() << "ping into the void must time out";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "timeout");
  }
  fake_daemon.join();
}

TEST(Client, OverloadRetryIsBoundedAndSurfacesCleanly) {
  ServerOptions server_options = test_server_options();
  server_options.max_inflight = 0;  // permanently overloaded
  Server server(server_options);
  server.start();
  core::FuncyTunerOptions options;
  ClientOptions client_options;
  client_options.overload_max_attempts = 3;
  client_options.overload_base_sleep_ms = 1.0;  // keep the test fast
  std::shared_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()),
      workspace_hello("CL", "broadwell", options, client_options));
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)client->call(valid_request());
    FAIL() << "a permanently overloaded daemon must yield an error";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "overloaded");
  }
  // Bounded: exactly max_attempts refusals reached the server, and the
  // client gave up in bounded time instead of spinning forever.
  EXPECT_EQ(server.stats().overloads, 3u);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  server.stop();
}

// --- the headline property: remote == local, bit for bit --------------------

std::string tune_json(const std::string& algorithm,
                      const core::FuncyTunerOptions& options,
                      const Server* server,
                      core::TuningResult* result_out = nullptr) {
  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  if (server != nullptr) {
    // What `--remote ADDR` attaches: a fleet of one.
    tuner.evaluator().set_backend(
        FleetBackend::connect({server->address().display()},
                              workspace_hello("CL", "broadwell", options)));
  }
  const core::TuningResult result = tuner.run(algorithm);
  if (result_out != nullptr) *result_out = result;
  return core::tuning_result_json(result, tuner.space(), tuner.program());
}

TEST(Service, RemoteTuningIsBitIdenticalToLocal) {
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  options.samples = 25;
  options.seed = 11;
  core::TuningResult local_result, remote_result;
  const std::string local = tune_json("cfr", options, nullptr, &local_result);
  const std::string remote =
      tune_json("cfr", options, &server, &remote_result);
  EXPECT_EQ(local, remote);
  EXPECT_EQ(local_result.speedup, remote_result.speedup);
  EXPECT_EQ(local_result.evaluations, remote_result.evaluations);
  const Server::Stats stats = server.stats();
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_GT(stats.batch_frames, 0u);
  // Coalescing actually happened: some frame carried several requests
  // (a lone evaluation is a frame of its own).
  EXPECT_LT(stats.batch_frames, stats.evaluations);
  server.stop();
}

TEST(Fallback, DrainingHelloDegradesToLocalBitIdentically) {
  // Fake daemon mid-drain: it refuses the hello with retryable
  // "draining". A fleet of one with fallback must degrade to
  // in-process evaluation instead of failing the run.
  Listener listener = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
  std::thread fake_daemon([&] {
    Socket session = listener.accept_within(5000);
    ASSERT_TRUE(session.valid());
    std::string payload;
    ASSERT_EQ(read_frame(session.fd(), &payload), FrameStatus::kOk);
    encode_error_frame(Framing::kBinary,
                       ErrorFrame{"draining", "shutting down", 0, true},
                       &payload);
    ASSERT_TRUE(write_frame(session.fd(), payload));
  });
  core::FuncyTunerOptions options;
  options.samples = 15;
  options.seed = 21;
  FleetOptions fleet_options;
  fleet_options.fallback_local = true;
  fleet_options.probe_interval_seconds = 0.0;  // the fake greets once
  std::shared_ptr<FleetBackend> backend;
  EXPECT_NO_THROW(backend = FleetBackend::connect(
                      {listener.address().display()},
                      workspace_hello("CL", "broadwell", options),
                      fleet_options));
  fake_daemon.join();
  ASSERT_NE(backend, nullptr);

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  tuner.evaluator().set_backend(backend);
  const core::TuningResult result = tuner.run("cfr");
  EXPECT_EQ(tune_json("cfr", options, nullptr),
            core::tuning_result_json(result, tuner.space(), tuner.program()));
  EXPECT_GT(backend->stats().fallback_batches, 0u);
}

TEST(Service, RemoteTuningIsBitIdenticalUnderFaultInjection) {
  // The resilience split in one test: fault decisions, retries and
  // quarantine run CLIENT-side; the daemon's engine carries the same
  // FaultConfig so engine-keyed outlier spikes reproduce. If any of
  // that bookkeeping leaked server-side, these strings would differ.
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  options.samples = 30;
  options.seed = 5;
  options.faults.rate = 0.25;
  EXPECT_EQ(tune_json("cfr", options, nullptr),
            tune_json("cfr", options, &server));
  server.stop();
}

TEST(Service, DaemonSideCacheStaysBitIdentical) {
  ServerOptions server_options = test_server_options();
  server_options.cache_entries = 4096;
  Server server(server_options);
  server.start();
  core::FuncyTunerOptions options;
  options.samples = 20;
  options.seed = 3;
  const std::string first = tune_json("cfr", options, &server);
  const std::string second = tune_json("cfr", options, &server);
  EXPECT_EQ(first, second);
  // The second client's identical requests were served from the
  // daemon's raw-result cache, not re-measured.
  EXPECT_GT(server.stats().cache_hits, 0u);
  EXPECT_EQ(first, tune_json("cfr", options, nullptr));
  server.stop();
}

// --- the fleet: N daemons, one backend, same bits ---------------------------

/// `count` live servers on ephemeral ports plus their address list.
struct FleetServers {
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::string> addresses;

  explicit FleetServers(std::size_t count,
                        const ServerOptions& base = test_server_options()) {
    for (std::size_t i = 0; i < count; ++i) {
      servers.push_back(std::make_unique<Server>(base));
      servers.back()->start();
      addresses.push_back(servers.back()->address().display());
    }
  }
  ~FleetServers() {
    for (auto& server : servers) server->stop();  // stop() is idempotent
  }

  [[nodiscard]] std::size_t total_evaluations() const {
    std::size_t total = 0;
    for (const auto& server : servers) total += server->stats().evaluations;
    return total;
  }
};

/// tune_json's fleet twin: tunes CL on broadwell through a FleetBackend
/// over `addresses`.
std::string fleet_tune_json(const std::string& algorithm,
                            const core::FuncyTunerOptions& options,
                            const std::vector<std::string>& addresses,
                            FleetBackend::Stats* stats_out = nullptr) {
  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  std::shared_ptr<FleetBackend> fleet = FleetBackend::connect(
      addresses, workspace_hello("CL", "broadwell", options));
  FleetBackend* raw = fleet.get();
  tuner.evaluator().set_backend(std::move(fleet));
  const core::TuningResult result = tuner.run(algorithm);
  if (stats_out != nullptr) *stats_out = raw->stats();
  return core::tuning_result_json(result, tuner.space(), tuner.program());
}

TEST(Fleet, ThreeDaemonsAreBitIdenticalToOneAndToLocal) {
  ServerOptions base = test_server_options();
  base.max_batch = 7;  // force several chunks per batch
  FleetServers fleet(3, base);
  core::FuncyTunerOptions options;
  options.samples = 25;
  options.seed = 11;
  const std::string local = tune_json("cfr", options, nullptr);
  const std::string single =
      tune_json("cfr", options, fleet.servers[0].get());
  FleetBackend::Stats stats;
  const std::string sharded =
      fleet_tune_json("cfr", options, fleet.addresses, &stats);
  EXPECT_EQ(local, single);
  EXPECT_EQ(local, sharded);
  EXPECT_GT(stats.batches_dispatched, 0u);
  // Some batch spanned several chunks, so the other endpoints got
  // worker threads beside the caller's...
  EXPECT_GT(stats.helper_threads, 0u);
  // ...and with every chunk queued on the home endpoint, they must
  // have pulled work over.
  EXPECT_GT(stats.chunks_stolen, 0u);
  EXPECT_EQ(stats.endpoints_drained, 0u);
}

TEST(Fleet, StaysBitIdenticalUnderFaultInjectionAndDaemonCaches) {
  ServerOptions base = test_server_options();
  base.max_batch = 9;
  base.cache_entries = 4096;
  FleetServers fleet(3, base);
  core::FuncyTunerOptions options;
  options.samples = 30;
  options.seed = 5;
  options.faults.rate = 0.25;
  const std::string local = tune_json("cfr", options, nullptr);
  // Client-side fault bookkeeping + daemon-side caches, spread over
  // three daemons: still the same bytes, run after run.
  EXPECT_EQ(local, fleet_tune_json("cfr", options, fleet.addresses));
  EXPECT_EQ(local, fleet_tune_json("cfr", options, fleet.addresses));
  std::size_t cache_hits = 0;
  for (const auto& server : fleet.servers) {
    cache_hits += server->stats().cache_hits;
  }
  EXPECT_GT(cache_hits, 0u);
}

TEST(Fleet, SurvivesDaemonDeathMidRunBitIdentically) {
  ServerOptions base = test_server_options();
  base.max_batch = 4;  // many chunks, so the death lands mid-batch
  FleetServers fleet(3, base);
  core::FuncyTunerOptions options;
  options.samples = 40;
  options.seed = 7;
  const std::string local = tune_json("cfr", options, nullptr);

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      fleet.addresses, workspace_hello("CL", "broadwell", options));
  // The home endpoint serves first while healthy, so killing it is the
  // worst case: its queue and inflight chunks must all re-dispatch.
  const std::string home = backend->home_address();
  std::size_t home_index = fleet.addresses.size();
  for (std::size_t i = 0; i < fleet.addresses.size(); ++i) {
    if (fleet.addresses[i] == home) home_index = i;
  }
  ASSERT_LT(home_index, fleet.addresses.size());
  tuner.evaluator().set_backend(backend);

  std::atomic<bool> killed{false};
  std::thread killer([&] {
    // Wait until the home daemon has served a frame, then yank it.
    // Every evaluation, the one-request O3 baseline included, travels
    // as a chunk of an eval_batch, so a death at any later point
    // re-dispatches at least one chunk.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (fleet.servers[home_index]->stats().batch_frames == 0) {
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    fleet.servers[home_index]->stop();
    killed.store(true);
  });
  const core::TuningResult result = tuner.run("cfr");
  killer.join();
  ASSERT_TRUE(killed.load()) << "home daemon never served anything";
  EXPECT_EQ(local,
            core::tuning_result_json(result, tuner.space(), tuner.program()));
  EXPECT_GE(backend->stats().endpoints_drained, 1u);
  EXPECT_GE(backend->stats().redispatches, 1u);
  EXPECT_LE(backend->alive_count(), 2u);
  // The survivors picked up the orphaned work.
  EXPECT_GT(fleet.servers[(home_index + 1) % 3]->stats().evaluations +
                fleet.servers[(home_index + 2) % 3]->stats().evaluations,
            0u);
}

TEST(Fleet, SingleRunFailsOverFromAStoppedHomeBitIdentically) {
  FleetServers fleet(3);
  core::FuncyTunerOptions options;
  FleetOptions fleet_options;
  // No probe: the stopped home must be found by the run itself, so the
  // failover goes through chunk re-dispatch.
  fleet_options.probe_interval_seconds = 0.0;
  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      fleet.addresses, workspace_hello("CL", "broadwell", options),
      fleet_options);
  std::size_t home_index = fleet.addresses.size();
  for (std::size_t i = 0; i < fleet.addresses.size(); ++i) {
    if (fleet.addresses[i] == backend->home_address()) home_index = i;
  }
  ASSERT_LT(home_index, fleet.addresses.size());

  const core::EvalRequest request = valid_request();
  const core::EvalBackend::RawResult healthy =
      backend->run(request.assignment, request.run_options());
  EXPECT_EQ(fleet.servers[home_index]->stats().evaluations, 1u);

  fleet.servers[home_index]->stop();
  const core::EvalBackend::RawResult survived =
      backend->run(request.assignment, request.run_options());
  EXPECT_EQ(healthy.result.end_to_end, survived.result.end_to_end);
  EXPECT_EQ(healthy.result.loop_seconds, survived.result.loop_seconds);
  EXPECT_EQ(fleet.total_evaluations(), 2u);

  const FleetBackend::Stats stats = backend->stats();
  EXPECT_GE(stats.redispatches, 1u);
  EXPECT_GE(stats.endpoints_drained, 1u);
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_EQ(stats.fallback_evals, 0u);
  // A single evaluation is served by the calling thread alone, failover
  // included.
  EXPECT_EQ(stats.helper_threads, 0u);

  // A batch of several chunks does share the work with helper threads.
  std::vector<core::EvalRequest> batch(8, request);
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].rep_base = i;
  EXPECT_EQ(backend->run_many(batch).size(), batch.size());
  EXPECT_GT(backend->stats().helper_threads, 0u);
}

TEST(Fleet, ConnectRequiresAtLeastOneServingEndpoint) {
  ServerOptions base = test_server_options();
  base.archs = {"opteron"};
  FleetServers fleet(1, base);
  core::FuncyTunerOptions options;
  try {
    (void)FleetBackend::connect(fleet.addresses,
                                workspace_hello("CL", "broadwell", options));
    FAIL() << "no endpoint serves broadwell";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "fleet");
  }
}

TEST(Fleet, TunersSharingAWorkspaceShareAHome) {
  // Schedule knobs (budget, reporting reps, retries, algorithm knobs)
  // never change what a daemon measures, so they must not move the
  // workspace to another daemon's warm caches.
  FleetServers fleet(3);
  core::FuncyTunerOptions base;
  base.seed = 9;
  std::vector<core::FuncyTunerOptions> variants(8, base);
  variants[1].samples = 25;
  variants[2].samples = 500;
  variants[3].final_reps = 3;
  variants[4].hot_threshold = 0.05;
  variants[5].retry.max_retries = 5;
  variants[6].retry.eval_timeout_seconds = 100.0;
  variants[7].algorithm_options["cfr"] = {"--top-x=5"};
  const auto home_of = [&](const std::string& arch,
                           const core::FuncyTunerOptions& options) {
    return FleetBackend::connect(fleet.addresses,
                                 workspace_hello("CL", arch, options))
        ->home_address();
  };
  const std::string home = home_of("broadwell", base);
  for (std::size_t i = 1; i < variants.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(home_of("broadwell", variants[i]), home);
  }
  // The CLI key and the display name spell one architecture.
  EXPECT_EQ(home_of("Intel Broadwell", base), home);
}

TEST(Fleet, HeterogeneousCampaignPinsCellsToServingDaemons) {
  // One daemon per architecture; each refuses the other two archs, so
  // connect-time filtering is what routes every campaign cell.
  const std::vector<std::string> arch_keys = {"opteron", "sandybridge",
                                              "broadwell"};
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::string> addresses;
  for (const std::string& arch : arch_keys) {
    ServerOptions options = test_server_options();
    options.archs = {arch};
    servers.push_back(std::make_unique<Server>(options));
    servers.back()->start();
    addresses.push_back(servers.back()->address().display());
  }

  // Sanity: a broadwell workspace keeps exactly the broadwell daemon.
  {
    core::FuncyTunerOptions options;
    std::unique_ptr<FleetBackend> backend = FleetBackend::connect(
        addresses, workspace_hello("CL", "broadwell", options));
    EXPECT_EQ(backend->endpoint_count(), 1u);
    EXPECT_EQ(backend->home_address(), addresses[2]);
  }

  core::CampaignOptions campaign_options;
  campaign_options.tuner.samples = 12;
  campaign_options.tuner.seed = 9;
  campaign_options.algorithms = {"cfr"};
  const std::vector<ir::Program> grid_programs = {programs::by_name("CL")};
  const std::vector<machine::Architecture> grid_archs = {
      machine::opteron(), machine::sandy_bridge(), machine::broadwell()};

  core::Campaign local(grid_programs, grid_archs, campaign_options);
  local.run();

  campaign_options.backend_factory =
      make_fleet_backend_factory(addresses, {}, {});
  core::Campaign remote(grid_programs, grid_archs, campaign_options);
  remote.run();

  EXPECT_EQ(core::campaign_json(remote), core::campaign_json(local));
  // Every daemon really did serve its own architecture's cell.
  for (std::size_t i = 0; i < servers.size(); ++i) {
    EXPECT_GT(servers[i]->stats().evaluations, 0u)
        << arch_keys[i] << " daemon sat idle";
  }
  for (auto& server : servers) server->stop();
}

TEST(Service, IdleTimeoutShutsTheServerDown) {
  ServerOptions options = test_server_options();
  options.idle_timeout_seconds = 0.3;
  Server server(options);
  server.start();
  {
    Socket socket = greet(server);
    EXPECT_EQ(roundtrip(socket.fd(), ping_frame(1)).kind, FrameKind::kPong);
    ASSERT_TRUE(write_frame(socket.fd(), bye_frame()));
  }
  server.wait();  // must return on its own - no stop() call
  EXPECT_FALSE(server.running());
}

// --- fuzz: the daemon survives >=1000 hostile frames ------------------------

TEST(ServiceFuzz, ThousandGarbageFramesLeaveTheDaemonServing) {
  ServerOptions server_options = test_server_options();
  server_options.max_frame_bytes = 4096;
  Server server(server_options);
  server.start();
  std::mt19937_64 rng(20260807);  // deterministic corpus
  std::size_t frames_sent = 0;

  // Phase 1: one long-lived session eats garbage payloads (valid
  // framing, hostile content): random byte soup, and eval frames cut
  // short with one byte flipped. A payload that happens to decode as a
  // valid frame is re-rolled, so the corpus is garbage by construction.
  // Every one must earn a non-fatal error frame; interleaved pings
  // prove the session keeps serving.
  const std::string valid = eval_frame(1, valid_request());
  AnyFrame probe;
  std::string probe_error;
  const auto garbage = [&] {
    for (;;) {
      std::string payload;
      if (rng() % 2 == 0) {
        payload.assign(rng() % 64, '\0');
        for (char& byte : payload) byte = static_cast<char>(rng() & 0xff);
      } else {
        payload = valid.substr(0, 1 + rng() % (valid.size() - 1));
        payload[rng() % payload.size()] ^= static_cast<char>(1 + rng() % 255);
      }
      if (decode_frame(Framing::kBinary, payload, &probe, &probe_error) !=
          DecodeStatus::kOk) {
        return payload;
      }
    }
  };
  {
    Socket socket = greet(server);
    for (int i = 0; i < 700; ++i) {
      const AnyFrame reply = roundtrip(socket.fd(), garbage());
      ++frames_sent;
      ASSERT_EQ(reply.kind, FrameKind::kError) << "frame " << i;
      ASSERT_FALSE(reply.error.fatal) << "frame " << i;
      if (i % 100 == 0) {
        ASSERT_EQ(roundtrip(socket.fd(), ping_frame(1)).kind,
                  FrameKind::kPong);
        ++frames_sent;
      }
    }
  }

  // Phase 2: hostile connections - truncated handshakes, oversized
  // declared lengths, raw garbage. The server must shed every one
  // without wedging the accept loop.
  for (int i = 0; i < 320; ++i) {
    Socket socket = Socket::connect(server.address());
    switch (i % 4) {
      case 0: {  // garbage hello payload
        std::string payload(1 + rng() % 32, '\0');
        for (char& byte : payload) {
          byte = static_cast<char>(rng() & 0xff);
        }
        ASSERT_TRUE(write_frame(socket.fd(), payload));
        break;
      }
      case 1: {  // oversized declared length
        const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
        ASSERT_EQ(send(socket.fd(), prefix, 4, 0), 4);
        break;
      }
      case 2: {  // torn frame: declare 64 bytes, send 5, hang up
        const unsigned char prefix[4] = {0, 0, 0, 64};
        ASSERT_EQ(send(socket.fd(), prefix, 4, 0), 4);
        ASSERT_EQ(send(socket.fd(), "trunc", 5, 0), 5);
        break;
      }
      case 3: {  // a well-formed frame that is not a hello
        ASSERT_TRUE(write_frame(socket.fd(), ping_frame(1)));
        break;
      }
    }
    ++frames_sent;
    socket.close();
  }
  EXPECT_GE(frames_sent, 1000u);

  // The daemon is still accepting, greeting and evaluating, and
  // stop() joining every session thread proves none leaked.
  core::FuncyTunerOptions options;
  std::shared_ptr<Client> client =
      Client::connect(Endpoint::parse(server.address().display()),
                      workspace_hello("CL", "broadwell", options));
  client->ping();
  const core::EvalResponse response = client->call(valid_request());
  EXPECT_TRUE(response.ok());
  EXPECT_TRUE(server.running());
  EXPECT_GE(server.stats().sessions_accepted, 322u);
  client.reset();
  server.stop();
  EXPECT_FALSE(server.running());
}

// --- binary framing: every frame type round-trips bit-exactly ---------------

TEST(Binary, HelloRoundTripIsBitExact) {
  HelloFrame hello;
  WorkspaceSpec& in = hello.workspace;
  in.program = "LULESH";
  in.arch = "sandybridge";
  in.personality = compiler::Personality::kGcc;
  in.options.seed = 0x0123456789abcdefull;
  in.options.noise_sigma_rel = 0.1 + 0.2;  // not exactly 0.3
  in.options.attribution_sigma = 1e-17;
  in.options.faults.rate = 1.0 / 3.0;
  in.options.faults.seed = 0xffffffffffffffffull;
  in.options.faults.compile_share = 0.7;
  in.options.faults.crash_share = 0.2;
  in.options.faults.timeout_share = 0.1;
  in.options.faults.outlier_rate = 0.015625;
  in.options.faults.outlier_min_scale = 1.5;
  in.options.faults.outlier_max_scale = 9.999999999999998;
  hello.caps.max_frame_bytes = 123456789;

  const AnyFrame frame = decode_ok(hello_frame(hello));
  ASSERT_EQ(frame.kind, FrameKind::kHello);
  const WorkspaceSpec& out = frame.hello.workspace;
  EXPECT_EQ(frame.hello.caps.protocol, kProtocolVersion);
  EXPECT_EQ(out.program, in.program);
  EXPECT_EQ(out.arch, in.arch);
  EXPECT_EQ(out.personality, in.personality);
  EXPECT_EQ(out.options.seed, in.options.seed);
  // Doubles travel as raw IEEE-754 bit patterns: equality is exact by
  // construction, no decimal round-trip argument required.
  EXPECT_EQ(out.options.noise_sigma_rel, in.options.noise_sigma_rel);
  EXPECT_EQ(out.options.attribution_sigma, in.options.attribution_sigma);
  EXPECT_EQ(out.options.faults.rate, in.options.faults.rate);
  EXPECT_EQ(out.options.faults.seed, in.options.faults.seed);
  EXPECT_EQ(out.options.faults.compile_share,
            in.options.faults.compile_share);
  EXPECT_EQ(out.options.faults.crash_share, in.options.faults.crash_share);
  EXPECT_EQ(out.options.faults.timeout_share,
            in.options.faults.timeout_share);
  EXPECT_EQ(out.options.faults.outlier_rate,
            in.options.faults.outlier_rate);
  EXPECT_EQ(out.options.faults.outlier_min_scale,
            in.options.faults.outlier_min_scale);
  EXPECT_EQ(out.options.faults.outlier_max_scale,
            in.options.faults.outlier_max_scale);
  EXPECT_EQ(frame.hello.caps.framings, hello.caps.framings);
  EXPECT_EQ(frame.hello.caps.max_frame_bytes, hello.caps.max_frame_bytes);
}

TEST(Binary, WelcomeRoundTrip) {
  WelcomeFrame welcome;
  welcome.session = 0xdeadbeefcafef00dull;
  welcome.max_batch = 512;
  welcome.framing = Framing::kBinary;
  welcome.caps.archs = {"AMD Opteron", "Intel Broadwell"};
  const AnyFrame frame = decode_ok(welcome_frame(welcome));
  ASSERT_EQ(frame.kind, FrameKind::kWelcome);
  EXPECT_EQ(frame.welcome.server, "ftuned");
  EXPECT_EQ(frame.welcome.session, welcome.session);
  EXPECT_EQ(frame.welcome.max_batch, welcome.max_batch);
  EXPECT_EQ(frame.welcome.framing, Framing::kBinary);
  EXPECT_EQ(frame.welcome.caps.framings, welcome.caps.framings);
  EXPECT_EQ(frame.welcome.caps.archs, welcome.caps.archs);
}

TEST(Binary, HandshakeCarriesBinaryCrc32) {
  // A hello offering the CRC trailer and a welcome binding it must
  // both survive the codec: the handshake is what turns the trailer on.
  HelloFrame hello;
  hello.workspace.program = "CL";
  hello.workspace.arch = "broadwell";
  hello.caps.framings = {Framing::kBinaryCrc, Framing::kBinary};
  EXPECT_EQ(decode_ok(hello_frame(hello)).hello.caps.framings,
            hello.caps.framings);

  WelcomeFrame welcome;
  welcome.session = 3;
  welcome.max_batch = 64;
  welcome.framing = Framing::kBinaryCrc;
  welcome.caps.framings = {Framing::kBinary, Framing::kBinaryCrc};
  const AnyFrame frame = decode_ok(welcome_frame(welcome));
  ASSERT_EQ(frame.kind, FrameKind::kWelcome);
  EXPECT_EQ(frame.welcome.framing, Framing::kBinaryCrc);
  EXPECT_EQ(frame.welcome.caps.framings, welcome.caps.framings);
}

TEST(Binary, ErrorRoundTrip) {
  const ErrorFrame error_frame{"overloaded", "max_inflight \"quoted\"\n",
                               42, true, false};
  std::string payload;
  encode_error_frame(Framing::kBinary, error_frame, &payload);
  const AnyFrame frame = decode_ok(payload);
  ASSERT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.error.code, error_frame.code);
  EXPECT_EQ(frame.error.detail, error_frame.detail);
  EXPECT_EQ(frame.error.seq, 42u);
  EXPECT_TRUE(frame.error.retryable);
  EXPECT_FALSE(frame.error.fatal);
}

TEST(Binary, EvalAndBatchRoundTrip) {
  const core::EvalRequest request = make_request();
  std::string payload = eval_frame(17, request);
  AnyFrame frame = decode_ok(payload);
  ASSERT_EQ(frame.kind, FrameKind::kEvalBatch);
  EXPECT_EQ(frame.seq, 17u);
  ASSERT_EQ(frame.requests.size(), 1u);
  expect_request_eq(frame.requests[0], request);

  std::vector<core::EvalRequest> requests(3, make_request());
  requests[1].rep_base = 2;
  requests[1].aggregate = machine::Aggregation::kMedian;
  requests[2].repetitions = 1;
  requests[2].noise = true;
  encode_eval_batch_frame(Framing::kBinary, 99, requests, &payload);
  frame = decode_ok(payload);
  ASSERT_EQ(frame.kind, FrameKind::kEvalBatch);
  EXPECT_EQ(frame.seq, 99u);
  ASSERT_EQ(frame.requests.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_request_eq(frame.requests[i], requests[i]);
  }
}

TEST(Binary, ResultRoundTripIsBitExact) {
  const core::EvalResponse response = make_ok_response();
  const AnyFrame frame = decode_ok(result_frame(3, response));
  ASSERT_EQ(frame.kind, FrameKind::kResultBatch);
  EXPECT_EQ(frame.seq, 3u);
  ASSERT_EQ(frame.responses.size(), 1u);
  const core::EvalResponse& out = frame.responses[0];
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.outcome.result.end_to_end,
            response.outcome.result.end_to_end);
  EXPECT_EQ(out.outcome.result.loop_seconds,
            response.outcome.result.loop_seconds);
  EXPECT_EQ(out.outcome.result.derived_nonloop_seconds,
            response.outcome.result.derived_nonloop_seconds);
  EXPECT_EQ(out.outcome.result.stddev, response.outcome.result.stddev);
  EXPECT_EQ(out.outcome.attempts, 2);
  EXPECT_EQ(out.served_by, core::EvalServedBy::kCacheHit);
  EXPECT_EQ(out.modules_compiled, 5u);
}

TEST(Binary, FailedResultAndBatchRoundTrip) {
  std::vector<core::EvalResponse> responses(3, make_ok_response());
  responses[1] = core::EvalResponse{};
  responses[1].outcome.error.kind = core::EvalFault::kCompileFailure;
  responses[1].outcome.error.detail = "cv 0xdeadbeef ICEd";
  responses[1].outcome.attempts = 3;
  responses[2].outcome.result.end_to_end = 2.718281828459045;
  responses[2].served_by = core::EvalServedBy::kRun;
  std::string payload;
  encode_result_batch_frame(Framing::kBinary, 7, responses, &payload);
  const AnyFrame frame = decode_ok(payload);
  ASSERT_EQ(frame.kind, FrameKind::kResultBatch);
  EXPECT_EQ(frame.seq, 7u);
  ASSERT_EQ(frame.responses.size(), 3u);
  EXPECT_TRUE(frame.responses[0].ok());
  EXPECT_EQ(frame.responses[0].outcome.result.end_to_end,
            responses[0].outcome.result.end_to_end);
  EXPECT_EQ(frame.responses[2].outcome.result.end_to_end,
            responses[2].outcome.result.end_to_end);
  EXPECT_EQ(frame.responses[2].served_by, core::EvalServedBy::kRun);
  EXPECT_FALSE(frame.responses[1].ok());
  EXPECT_EQ(frame.responses[1].outcome.error.kind,
            core::EvalFault::kCompileFailure);
  EXPECT_EQ(frame.responses[1].outcome.error.detail,
            responses[1].outcome.error.detail);
  EXPECT_EQ(frame.responses[1].outcome.attempts, 3);
}

TEST(Binary, PingPongByeRoundTrip) {
  std::string payload;
  encode_ping_frame(Framing::kBinary, 42, &payload);
  AnyFrame frame = decode_ok(payload);
  EXPECT_EQ(frame.kind, FrameKind::kPing);
  EXPECT_EQ(frame.seq, 42u);
  encode_pong_frame(Framing::kBinary, 42, &payload);
  frame = decode_ok(payload);
  EXPECT_EQ(frame.kind, FrameKind::kPong);
  EXPECT_EQ(frame.seq, 42u);
  encode_bye_frame(Framing::kBinary, &payload);
  frame = decode_ok(payload);
  EXPECT_EQ(frame.kind, FrameKind::kBye);
}

/// What a protocol-2 peer sent for one evaluation (tag 4) or one
/// result (tag 6): the one-element batch frame without its count.
std::string retired_frame(char tag, std::string batch_of_one) {
  batch_of_one[0] = tag;
  return batch_of_one.erase(9, 4);
}

TEST(Binary, RetiredEvalAndResultTagsDecodeAsUnknownType) {
  for (const std::string& payload :
       {retired_frame('\x04', eval_frame(1, make_request())),
        retired_frame('\x06', result_frame(1, make_ok_response()))}) {
    AnyFrame frame;
    std::string error;
    EXPECT_EQ(decode_frame(Framing::kBinary, payload, &frame, &error),
              DecodeStatus::kUnknownType);
    EXPECT_NE(error.find("unknown frame type"), std::string::npos) << error;
  }
}

TEST(Binary, DecoderSurvivesGarbageTruncationsAndForgedCounts) {
  AnyFrame frame;
  std::string error;
  std::mt19937_64 rng(20260808);

  // Random byte soup: any verdict is fine, crashing or over-allocating
  // is not.
  for (int i = 0; i < 2000; ++i) {
    std::string payload(rng() % 48, '\0');
    for (char& byte : payload) byte = static_cast<char>(rng() & 0xff);
    (void)decode_frame(Framing::kBinary, payload, &frame, &error);
  }

  // Every truncation of a valid eval_batch must decode cleanly as a
  // refusal, never read out of bounds.
  std::string valid;
  const std::vector<core::EvalRequest> requests(2, make_request());
  encode_eval_batch_frame(Framing::kBinary, 5, requests, &valid);
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_NE(decode_frame(Framing::kBinary, valid.substr(0, cut),
                           &frame, &error),
              DecodeStatus::kOk)
        << "truncated at " << cut;
  }

  // Forged element count with a tiny payload: the count-vs-remaining
  // check must refuse before any allocation happens.
  std::string forged;
  forged.push_back('\x05');                       // eval_batch tag
  forged.append(8, '\x00');                       // seq
  forged.append("\xff\xff\xff\xff", 4);           // count = 4294967295
  EXPECT_EQ(decode_frame(Framing::kBinary, forged, &frame, &error),
            DecodeStatus::kMalformed);
  EXPECT_FALSE(error.empty());
}

// --- capability negotiation -------------------------------------------------

TEST(Protocol, NegotiateFramingPicksFirstMutualPreference) {
  using enum Framing;
  EXPECT_EQ(negotiate_framing({kBinaryCrc, kBinary}, {kBinary, kBinaryCrc}),
            kBinaryCrc);
  EXPECT_EQ(negotiate_framing({kBinaryCrc, kBinary}, {kBinary}), kBinary);
  EXPECT_EQ(negotiate_framing({kBinary, kBinaryCrc}, {kBinary, kBinaryCrc}),
            kBinary);
  // Degenerate offers still land on the mandatory baseline.
  EXPECT_EQ(negotiate_framing({}, {kBinary, kBinaryCrc}), kBinary);
  EXPECT_EQ(negotiate_framing({kBinaryCrc}, {}), kBinary);
}

TEST(Protocol, CapabilitiesTolerateUnknownKeysAndWrongTypes) {
  // A hello from some future build: framing codes this build does not
  // know, and fields appended after the last one it does. Everything
  // unknown is skipped, the frame still decodes, and the
  // mutually-intelligible parts survive.
  HelloFrame hello;
  hello.workspace.program = "CL";
  hello.workspace.arch = "broadwell";
  std::string payload = hello_frame(hello);
  // caps start right after the 9-byte header: u32 protocol, then
  // u8 framing_count and the codes.
  const std::size_t count_at = 9 + 4;
  ASSERT_EQ(payload[count_at], '\x01');
  payload.replace(count_at, 2, std::string("\x04\x11\x00\x01\xff", 5));
  payload.append("future fields");
  AnyFrame frame = decode_ok(payload);
  ASSERT_EQ(frame.kind, FrameKind::kHello);
  EXPECT_EQ(frame.hello.caps.protocol, kProtocolVersion);
  EXPECT_EQ(frame.hello.caps.framings, std::vector<Framing>{Framing::kBinary});
  EXPECT_EQ(frame.hello.workspace.program, "CL");
  EXPECT_EQ(frame.hello.workspace.arch, "broadwell");

  // An offer naming no known framing at all decodes as the baseline.
  payload = hello_frame(hello);
  payload.replace(count_at, 2, std::string("\x02\x00\x09", 3));
  frame = decode_ok(payload);
  EXPECT_EQ(frame.hello.caps.framings, std::vector<Framing>{Framing::kBinary});
}

TEST(Negotiation, BinaryPreferredClientGetsBinarySession) {
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{"CL", "broadwell", compiler::Personality::kIcc,
                    options};
  std::shared_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()), connect_options);
  EXPECT_EQ(client->framing(), Framing::kBinary);
  EXPECT_EQ(client->welcome().framing, Framing::kBinary);
  // The welcome advertises the server's own supported set.
  EXPECT_EQ(client->welcome().caps.framings,
            (std::vector<Framing>{Framing::kBinary, Framing::kBinaryCrc}));
  client->ping();
  const core::EvalResponse response = client->call(valid_request());
  EXPECT_TRUE(response.ok());
  server.stop();
}

TEST(Negotiation, CrcLessDaemonDowngradesTheSession) {
  ServerOptions options = test_server_options();
  options.framings = {Framing::kBinary};  // a daemon without the trailer
  Server server(options);
  server.start();
  core::FuncyTunerOptions tuner_options;
  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{"CL", "broadwell", compiler::Personality::kIcc,
                    tuner_options};
  connect_options.framings = {Framing::kBinaryCrc};
  std::shared_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()), connect_options);
  EXPECT_EQ(client->framing(), Framing::kBinary);
  client->ping();
  EXPECT_TRUE(client->call(valid_request()).ok());
  server.stop();
}

TEST(Negotiation, WelcomeNamingUnknownFramingFailsTheHandshake) {
  // A broken (or far-future) daemon binds the session to a framing
  // this build cannot speak: continuing would desynchronize the
  // stream, so the client must refuse to connect.
  Listener listener = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
  std::thread fake_daemon([&] {
    Socket session = listener.accept_within(5000);
    ASSERT_TRUE(session.valid());
    std::string payload;
    ASSERT_EQ(read_frame(session.fd(), &payload), FrameStatus::kOk);
    WelcomeFrame welcome;
    welcome.session = 1;
    welcome.max_batch = 64;
    std::string reply = welcome_frame(welcome);
    // The framing byte follows the header, the server name and the
    // session and max_batch words.
    const std::size_t framing_at = 9 + 4 + welcome.server.size() + 8 + 8;
    ASSERT_EQ(reply[framing_at],
              static_cast<char>(Framing::kBinary));
    reply[framing_at] = '\x09';
    ASSERT_TRUE(write_frame(session.fd(), reply));
    (void)read_frame(session.fd(), &payload);  // wait for the hangup
  });
  core::FuncyTunerOptions options;
  try {
    (void)Client::connect(Endpoint::parse(listener.address().display()),
                          workspace_hello("CL", "broadwell", options));
    FAIL() << "a welcome naming an unknown framing must be refused";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "bad_frame");
  }
  fake_daemon.join();
}

// --- binary framing against the live daemon ---------------------------------

TEST(Binary, LiveSessionServesEvalAndSurvivesGarbage) {
  ServerOptions server_options = test_server_options();
  server_options.max_frame_bytes = 4096;
  Server server(server_options);
  server.start();
  Socket socket = greet(server);

  // A real binary eval round-trip.
  AnyFrame frame = roundtrip(socket.fd(), eval_frame(21, valid_request()));
  ASSERT_EQ(frame.kind, FrameKind::kResultBatch);
  EXPECT_EQ(frame.seq, 21u);
  ASSERT_EQ(frame.responses.size(), 1u);
  EXPECT_TRUE(frame.responses[0].ok());

  // Garbage binary payloads: every one earns a non-fatal binary error
  // frame; the session keeps serving. (First byte steered away from
  // the valid ping/bye tags, which would be *well-formed* frames.)
  std::mt19937_64 rng(20260809);
  for (int i = 0; i < 300; ++i) {
    std::string garbage(1 + rng() % 48, '\0');
    for (char& byte : garbage) byte = static_cast<char>(rng() & 0xff);
    if (garbage[0] == '\x08' || garbage[0] == '\x0a') garbage[0] = '\0';
    frame = roundtrip(socket.fd(), garbage);
    ASSERT_EQ(frame.kind, FrameKind::kError) << "frame " << i;
    ASSERT_FALSE(frame.error.fatal) << "frame " << i;
  }

  // A forged count with a tiny payload is refused as bad_request -
  // instantly, not after a 4 GiB allocation attempt.
  std::string forged;
  forged.push_back('\x05');
  forged.append(8, '\x00');
  forged.append("\xff\xff\xff\xff", 4);
  frame = roundtrip(socket.fd(), forged);
  ASSERT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.error.code, "bad_request");

  // ...and the session still answers a well-formed binary ping.
  frame = roundtrip(socket.fd(), ping_frame(77));
  EXPECT_EQ(frame.kind, FrameKind::kPong);
  EXPECT_EQ(frame.seq, 77u);
  server.stop();
}

TEST(Server, RetiredTagsAreRefusedWithoutClosingTheSession) {
  Server server(test_server_options());
  server.start();
  Socket socket = greet(server);
  for (const std::string& payload :
       {retired_frame('\x04', eval_frame(3, valid_request())),
        retired_frame('\x06', result_frame(4, make_ok_response()))}) {
    const AnyFrame reply = roundtrip(socket.fd(), payload);
    ASSERT_EQ(reply.kind, FrameKind::kError);
    EXPECT_EQ(reply.error.code, "bad_request");
    EXPECT_NE(reply.error.detail.find("unknown frame type"),
              std::string::npos)
        << reply.error.detail;
    EXPECT_FALSE(reply.error.fatal);
  }
  // The session survives and still evaluates.
  const AnyFrame result = roundtrip(socket.fd(), eval_frame(5, valid_request()));
  ASSERT_EQ(result.kind, FrameKind::kResultBatch);
  EXPECT_EQ(result.seq, 5u);
  EXPECT_EQ(server.stats().evaluations, 1u);
  server.stop();
}

TEST(Service, BinaryRemoteTuningIsBitIdenticalToLocal) {
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  options.samples = 25;
  options.seed = 11;
  const std::string local = tune_json("cfr", options, nullptr);

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{"CL", "broadwell", compiler::Personality::kIcc,
                    options};
  connect_options.framings = {Framing::kBinaryCrc};
  std::shared_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()), connect_options);
  ASSERT_EQ(client->framing(), Framing::kBinaryCrc);
  tuner.evaluator().set_backend(std::make_shared<RemoteBackend>(client));
  const core::TuningResult result = tuner.run("cfr");
  // The CRC trailer is pure transport: sealed and plain frames land on
  // identical bits.
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  const Server::Stats stats = server.stats();
  EXPECT_GT(stats.batch_frames, 0u);
  EXPECT_LT(stats.batch_frames, stats.evaluations);  // frames coalesced
  server.stop();
}

TEST(Fleet, MixedFramingFleetDowngradesPerEndpointBitIdentically) {
  // One binary-crc32 daemon, one daemon without the trailer, one fleet
  // asking for binary-crc32: negotiation is per-endpoint, so the plain
  // daemon downgrades its one session while the other keeps the
  // trailer - and the tuning output matches local bit for bit.
  ServerOptions crc_options = test_server_options();
  crc_options.max_batch = 7;  // force several chunks per batch
  ServerOptions plain_options = crc_options;
  plain_options.framings = {Framing::kBinary};
  Server crc_server(crc_options);
  Server plain_server(plain_options);
  crc_server.start();
  plain_server.start();
  const std::vector<std::string> addresses = {
      crc_server.address().display(), plain_server.address().display()};

  core::FuncyTunerOptions options;
  options.samples = 25;
  options.seed = 11;
  const std::string local = tune_json("cfr", options, nullptr);

  // What each endpoint negotiates for the fleet's offer.
  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{"CL", "broadwell", compiler::Personality::kIcc,
                    options};
  connect_options.framings = {Framing::kBinaryCrc};
  EXPECT_EQ(Client::connect(Endpoint::parse(addresses[0]), connect_options)
                ->framing(),
            Framing::kBinaryCrc);
  EXPECT_EQ(Client::connect(Endpoint::parse(addresses[1]), connect_options)
                ->framing(),
            Framing::kBinary);

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  std::shared_ptr<FleetBackend> backend =
      FleetBackend::connect(addresses, connect_options);
  EXPECT_EQ(backend->endpoint_count(), 2u);
  tuner.evaluator().set_backend(backend);
  const core::TuningResult result = tuner.run("cfr");
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  EXPECT_GT(crc_server.stats().evaluations +
                plain_server.stats().evaluations,
            0u);
  crc_server.stop();
  plain_server.stop();
}

// --- FrameBuffer ------------------------------------------------------------

TEST(Framing, FrameBufferRoundTripsAndKeepsItsCapacity) {
  SocketPair pair;
  FrameBuffer buffer;
  ASSERT_TRUE(write_frame(pair.fds[0], std::string(4096, 'a')));
  EXPECT_EQ(read_frame(pair.fds[1], buffer), FrameStatus::kOk);
  EXPECT_EQ(buffer.payload, std::string(4096, 'a'));
  const std::size_t grown = buffer.payload.capacity();
  // Smaller follow-up frames reuse the grown buffer instead of
  // reallocating - the point of threading one FrameBuffer through a
  // session's whole lifetime.
  ASSERT_TRUE(write_frame(pair.fds[0], "xy"));
  EXPECT_EQ(read_frame(pair.fds[1], buffer), FrameStatus::kOk);
  EXPECT_EQ(buffer.payload, "xy");
  EXPECT_GE(buffer.payload.capacity(), grown);
  buffer.reset();
  EXPECT_TRUE(buffer.payload.empty());
}

}  // namespace
}  // namespace ft::service
