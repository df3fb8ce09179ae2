// Tests for the ftuned evaluation service: frame protocol round-trips
// (every frame type, %.17g bit-exact doubles), length-prefixed framing
// over a socketpair, live-server error semantics, a >=1000-frame
// garbage fuzz that must leave the daemon serving, and the property
// the whole subsystem rests on - remote tuning runs are bit-identical
// to in-process ones, faults and all.
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
#include "support/json.hpp"

namespace ft::service {
namespace {

// --- protocol round-trips ---------------------------------------------------

support::JsonValue parse_or_fail(const std::string& text) {
  support::JsonValue value;
  std::string error;
  EXPECT_TRUE(support::JsonValue::parse(text, &value, &error))
      << error << " in: " << text;
  return value;
}

TEST(Protocol, HelloRoundTripIsBitExact) {
  HelloFrame hello;
  hello.program = "LULESH";
  hello.arch = "sandybridge";
  hello.personality = "gcc";
  hello.options.seed = 0x0123456789abcdefull;
  hello.options.noise_sigma_rel = 0.1 + 0.2;  // not exactly 0.3
  hello.options.attribution_sigma = 1e-17;
  hello.options.faults.rate = 1.0 / 3.0;
  hello.options.faults.seed = 0xffffffffffffffffull;
  hello.options.faults.compile_share = 0.7;
  hello.options.faults.crash_share = 0.2;
  hello.options.faults.timeout_share = 0.1;
  hello.options.faults.outlier_rate = 0.015625;
  hello.options.faults.outlier_min_scale = 1.5;
  hello.options.faults.outlier_max_scale = 9.999999999999998;

  const support::JsonValue frame = parse_or_fail(encode_hello(hello));
  EXPECT_EQ(frame_type(frame), "hello");
  HelloFrame out;
  std::string error;
  ASSERT_TRUE(decode_hello(frame, &out, &error)) << error;
  EXPECT_EQ(out.caps.protocol, kProtocolVersion);
  EXPECT_EQ(out.program, hello.program);
  EXPECT_EQ(out.arch, hello.arch);
  EXPECT_EQ(out.personality, hello.personality);
  EXPECT_EQ(out.options.seed, hello.options.seed);
  // EXPECT_EQ on doubles is exact equality: %.17g must round-trip bits.
  EXPECT_EQ(out.options.noise_sigma_rel, hello.options.noise_sigma_rel);
  EXPECT_EQ(out.options.attribution_sigma,
            hello.options.attribution_sigma);
  EXPECT_EQ(out.options.faults.rate, hello.options.faults.rate);
  EXPECT_EQ(out.options.faults.seed, hello.options.faults.seed);
  EXPECT_EQ(out.options.faults.compile_share,
            hello.options.faults.compile_share);
  EXPECT_EQ(out.options.faults.crash_share,
            hello.options.faults.crash_share);
  EXPECT_EQ(out.options.faults.timeout_share,
            hello.options.faults.timeout_share);
  EXPECT_EQ(out.options.faults.outlier_rate,
            hello.options.faults.outlier_rate);
  EXPECT_EQ(out.options.faults.outlier_min_scale,
            hello.options.faults.outlier_min_scale);
  EXPECT_EQ(out.options.faults.outlier_max_scale,
            hello.options.faults.outlier_max_scale);
}

TEST(Protocol, WelcomeRoundTrip) {
  WelcomeFrame welcome;
  welcome.session = 0xdeadbeefcafef00dull;
  welcome.max_batch = 512;
  const support::JsonValue frame = parse_or_fail(encode_welcome(welcome));
  EXPECT_EQ(frame_type(frame), "welcome");
  WelcomeFrame out;
  std::string error;
  ASSERT_TRUE(decode_welcome(frame, &out, &error)) << error;
  EXPECT_EQ(out.server, "ftuned");
  EXPECT_EQ(out.session, welcome.session);
  EXPECT_EQ(out.max_batch, welcome.max_batch);
}

TEST(Protocol, WelcomeArchsRoundTrip) {
  WelcomeFrame welcome;
  welcome.session = 7;
  welcome.max_batch = 8;
  welcome.caps.archs = {"AMD Opteron", "Intel Broadwell"};
  const support::JsonValue frame = parse_or_fail(encode_welcome(welcome));
  WelcomeFrame out;
  std::string error;
  ASSERT_TRUE(decode_welcome(frame, &out, &error)) << error;
  EXPECT_EQ(out.caps.archs, welcome.caps.archs);

  // archs is optional on the wire: a pre-fleet daemon's welcome (no
  // member at all) must still decode, as an empty served set.
  WelcomeFrame bare;
  ASSERT_TRUE(decode_welcome(
      parse_or_fail(
          R"({"type":"welcome","server":"ftuned","session":"1","max_batch":4})"),
      &bare, &error))
      << error;
  EXPECT_TRUE(bare.caps.archs.empty());
}

TEST(Protocol, ErrorRoundTrip) {
  ErrorFrame error_frame{"overloaded", "max_inflight \"quoted\"\n", 42,
                         true, false};
  const support::JsonValue frame =
      parse_or_fail(encode_error(error_frame));
  EXPECT_EQ(frame_type(frame), "error");
  ErrorFrame out;
  ASSERT_TRUE(decode_error(frame, &out));
  EXPECT_EQ(out.code, error_frame.code);
  EXPECT_EQ(out.detail, error_frame.detail);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_TRUE(out.retryable);
  EXPECT_FALSE(out.fatal);
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

TEST(Protocol, EvalRequestRoundTrip) {
  const core::EvalRequest request = make_request();
  const support::JsonValue value =
      parse_or_fail(eval_request_json(request));
  core::EvalRequest out;
  std::string error;
  ASSERT_TRUE(parse_eval_request(value, &out, &error)) << error;
  expect_request_eq(out, request);
}

TEST(Protocol, EvalFrameRoundTrip) {
  const core::EvalRequest request = make_request();
  const support::JsonValue frame =
      parse_or_fail(encode_eval(17, request));
  EXPECT_EQ(frame_type(frame), "eval");
  EXPECT_EQ(frame_seq(frame), 17u);
  std::vector<core::EvalRequest> out;
  std::string error;
  ASSERT_TRUE(decode_eval(frame, &out, &error)) << error;
  ASSERT_EQ(out.size(), 1u);
  expect_request_eq(out[0], request);
}

TEST(Protocol, EvalBatchFrameRoundTrip) {
  std::vector<core::EvalRequest> requests(3, make_request());
  requests[1].rep_base = 2;
  requests[1].aggregate = machine::Aggregation::kMedian;
  requests[2].repetitions = 1;
  requests[2].noise = true;
  const support::JsonValue frame =
      parse_or_fail(encode_eval_batch(99, requests));
  EXPECT_EQ(frame_type(frame), "eval_batch");
  EXPECT_EQ(frame_seq(frame), 99u);
  std::vector<core::EvalRequest> out;
  std::string error;
  ASSERT_TRUE(decode_eval(frame, &out, &error)) << error;
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) expect_request_eq(out[i], requests[i]);
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

TEST(Protocol, EvalResponseRoundTripIsBitExact) {
  const core::EvalResponse response = make_ok_response();
  const support::JsonValue value =
      parse_or_fail(eval_response_json(response));
  core::EvalResponse out;
  std::string error;
  ASSERT_TRUE(parse_eval_response(value, &out, &error)) << error;
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

TEST(Protocol, FailedEvalResponseRoundTrip) {
  core::EvalResponse response;
  response.outcome.error.kind = core::EvalFault::kCompileFailure;
  response.outcome.error.detail = "cv 0xdeadbeef ICEd";
  response.outcome.attempts = 3;
  const support::JsonValue value =
      parse_or_fail(eval_response_json(response));
  core::EvalResponse out;
  std::string error;
  ASSERT_TRUE(parse_eval_response(value, &out, &error)) << error;
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.outcome.error.kind, core::EvalFault::kCompileFailure);
  EXPECT_EQ(out.outcome.error.detail, response.outcome.error.detail);
  EXPECT_EQ(out.outcome.attempts, 3);
}

TEST(Protocol, ResultBatchFrameRoundTrip) {
  std::vector<core::EvalResponse> responses(2, make_ok_response());
  responses[1].outcome.result.end_to_end = 2.718281828459045;
  responses[1].served_by = core::EvalServedBy::kRun;
  const support::JsonValue frame =
      parse_or_fail(encode_result_batch(7, responses));
  EXPECT_EQ(frame_type(frame), "result_batch");
  EXPECT_EQ(frame_seq(frame), 7u);
  std::vector<core::EvalResponse> out;
  std::string error;
  ASSERT_TRUE(decode_result(frame, &out, &error)) << error;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].outcome.result.end_to_end,
            responses[0].outcome.result.end_to_end);
  EXPECT_EQ(out[1].outcome.result.end_to_end,
            responses[1].outcome.result.end_to_end);
  EXPECT_EQ(out[1].served_by, core::EvalServedBy::kRun);
}

TEST(Protocol, ResultFrameRoundTrip) {
  const support::JsonValue frame =
      parse_or_fail(encode_result(3, make_ok_response()));
  EXPECT_EQ(frame_type(frame), "result");
  EXPECT_EQ(frame_seq(frame), 3u);
  std::vector<core::EvalResponse> out;
  std::string error;
  ASSERT_TRUE(decode_result(frame, &out, &error)) << error;
  ASSERT_EQ(out.size(), 1u);
}

TEST(Protocol, PingPongByeFrames) {
  support::JsonValue ping = parse_or_fail(encode_ping(42));
  EXPECT_EQ(frame_type(ping), "ping");
  EXPECT_EQ(frame_seq(ping), 42u);
  support::JsonValue pong = parse_or_fail(encode_pong(42));
  EXPECT_EQ(frame_type(pong), "pong");
  EXPECT_EQ(frame_seq(pong), 42u);
  support::JsonValue bye = parse_or_fail(encode_bye());
  EXPECT_EQ(frame_type(bye), "bye");
}

TEST(Protocol, DecodersRejectMalformedFrames) {
  std::string error;
  HelloFrame hello;
  EXPECT_FALSE(
      decode_hello(parse_or_fail(R"({"type":"hello"})"), &hello, &error));
  EXPECT_FALSE(error.empty());
  std::vector<core::EvalRequest> requests;
  error.clear();
  EXPECT_FALSE(decode_eval(
      parse_or_fail(R"({"type":"eval","seq":"1"})"), &requests, &error));
  error.clear();
  EXPECT_FALSE(decode_eval(
      parse_or_fail(
          R"({"type":"eval","seq":"1","request":{"loops":[[300]],"nonloop":[],"rep":"0","reps":1,"instr":0,"noise":1,"agg":"mean"}})"),
      &requests, &error))
      << "CV bytes above 255 must be rejected";
  std::vector<core::EvalResponse> responses;
  error.clear();
  EXPECT_FALSE(decode_result(
      parse_or_fail(R"({"type":"result","seq":"1","result":{"ok":1}})"),
      &responses, &error));
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

/// Writes `frame`, reads one reply, parses it. Raw-socket counterpart
/// of Client for the error-path tests.
support::JsonValue roundtrip(int fd, const std::string& frame) {
  EXPECT_TRUE(write_frame(fd, frame));
  std::string payload;
  EXPECT_EQ(read_frame(fd, &payload), FrameStatus::kOk);
  return parse_or_fail(payload);
}

/// Connects and handshakes a raw session for program CL on broadwell.
Socket greet(const Server& server) {
  Socket socket = Socket::connect(server.address());
  HelloFrame hello;
  hello.program = "CL";
  hello.arch = "broadwell";
  const support::JsonValue reply =
      roundtrip(socket.fd(), encode_hello(hello));
  EXPECT_EQ(frame_type(reply), "welcome");
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
    hello.program = "no-such-benchmark";
    hello.arch = "broadwell";
    const support::JsonValue reply =
        roundtrip(socket.fd(), encode_hello(hello));
    EXPECT_EQ(frame_type(reply), "error");
    ErrorFrame error;
    ASSERT_TRUE(decode_error(reply, &error));
    EXPECT_EQ(error.code, "unknown_program");
    EXPECT_TRUE(error.fatal);
  }
  {
    Socket socket = Socket::connect(server.address());
    HelloFrame hello;
    hello.program = "CL";
    hello.arch = "m68k";
    const support::JsonValue reply =
        roundtrip(socket.fd(), encode_hello(hello));
    ErrorFrame error;
    ASSERT_TRUE(decode_error(reply, &error));
    EXPECT_EQ(error.code, "unknown_architecture");
  }
  server.stop();
}

TEST(Server, RejectsUnsupportedProtocolVersion) {
  Server server(test_server_options());
  server.start();
  Socket socket = Socket::connect(server.address());
  HelloFrame hello;
  hello.program = "CL";
  hello.arch = "broadwell";
  std::string text = encode_hello(hello);
  // The version travels twice (legacy top-level member + caps object);
  // a skewed client disagrees in both places.
  const std::string needle = "\"protocol\":" +
                             std::to_string(kProtocolVersion);
  std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  while (at != std::string::npos) {
    text.replace(at, needle.size(), "\"protocol\":999");
    at = text.find(needle, at);
  }
  const support::JsonValue reply = roundtrip(socket.fd(), text);
  ErrorFrame error;
  ASSERT_TRUE(decode_error(reply, &error));
  EXPECT_EQ(error.code, "unsupported_version");
  EXPECT_TRUE(error.fatal);
  server.stop();
}

TEST(Server, GarbagePayloadIsNonFatalButOversizedFrameHangsUp) {
  ServerOptions options = test_server_options();
  options.max_frame_bytes = 4096;
  Server server(options);
  server.start();
  Socket socket = greet(server);

  // Garbage JSON: framing stays synchronized, session survives.
  const support::JsonValue garbage_reply =
      roundtrip(socket.fd(), "{not json!!");
  ErrorFrame error;
  ASSERT_TRUE(decode_error(garbage_reply, &error));
  EXPECT_EQ(error.code, "bad_frame");
  EXPECT_FALSE(error.fatal);
  // Unknown frame type: refused per-frame, session survives.
  const support::JsonValue unknown_reply =
      roundtrip(socket.fd(), R"({"type":"launch_missiles","seq":"9"})");
  ASSERT_TRUE(decode_error(unknown_reply, &error));
  EXPECT_EQ(error.code, "bad_request");
  EXPECT_EQ(error.seq, 9u);
  // ...still serving:
  const support::JsonValue pong = roundtrip(socket.fd(), encode_ping(5));
  EXPECT_EQ(frame_type(pong), "pong");
  EXPECT_EQ(frame_seq(pong), 5u);

  // Oversized frame: stream unsynchronized -> fatal error, then EOF.
  const support::JsonValue oversized_reply =
      roundtrip(socket.fd(), std::string(8192, ' '));
  ASSERT_TRUE(decode_error(oversized_reply, &error));
  EXPECT_EQ(error.code, "oversized_frame");
  EXPECT_TRUE(error.fatal);
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
  const support::JsonValue reply =
      roundtrip(socket.fd(), encode_eval(11, valid_request()));
  ErrorFrame error;
  ASSERT_TRUE(decode_error(reply, &error));
  EXPECT_EQ(error.code, "overloaded");
  EXPECT_EQ(error.seq, 11u);
  EXPECT_TRUE(error.retryable);
  EXPECT_FALSE(error.fatal);
  // The refusal is per-frame: the session still answers pings.
  EXPECT_EQ(frame_type(roundtrip(socket.fd(), encode_ping(12))), "pong");
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
  const support::JsonValue reply =
      roundtrip(socket.fd(), encode_eval_batch(3, batch));
  ASSERT_EQ(frame_type(reply), "result_batch");
  std::vector<core::EvalResponse> responses;
  std::string error;
  ASSERT_TRUE(decode_result(reply, &responses, &error)) << error;
  EXPECT_EQ(responses.size(), batch.size());
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
  const support::JsonValue reply =
      roundtrip(socket.fd(), encode_eval_batch(4, requests));
  ErrorFrame error;
  ASSERT_TRUE(decode_error(reply, &error));
  EXPECT_EQ(error.code, "bad_request");
  EXPECT_FALSE(error.fatal);
  server.stop();
}

TEST(Server, ServesEvalAndBatchFrames) {
  Server server(test_server_options());
  server.start();
  Socket socket = greet(server);
  const support::JsonValue single =
      roundtrip(socket.fd(), encode_eval(1, valid_request()));
  EXPECT_EQ(frame_type(single), "result");
  std::vector<core::EvalResponse> responses;
  std::string error;
  ASSERT_TRUE(decode_result(single, &responses, &error)) << error;
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_GT(responses[0].seconds(), 0.0);

  std::vector<core::EvalRequest> batch(4, valid_request());
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].rep_base = i;
  const support::JsonValue reply =
      roundtrip(socket.fd(), encode_eval_batch(2, batch));
  EXPECT_EQ(frame_type(reply), "result_batch");
  responses.clear();
  ASSERT_TRUE(decode_result(reply, &responses, &error)) << error;
  ASSERT_EQ(responses.size(), 4u);
  // Identical assignments under different noise keys: all valid, not
  // all equal (the noise model is keyed by rep_base).
  EXPECT_NE(responses[0].outcome.result.end_to_end,
            responses[1].outcome.result.end_to_end);
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.evaluations, 5u);
  EXPECT_EQ(stats.batch_frames, 1u);
  server.stop();
}

TEST(Client, SurfacesServerRefusalsAsServiceErrors) {
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  EXPECT_THROW(
      {
        try {
          (void)Client::connect(server.address().display(),
                                "no-such-benchmark", "broadwell", options);
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
  std::shared_ptr<Client> client = Client::connect(
      server.address().display(), "CL", "broadwell", options);
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
    hello.program = "CL";
    hello.arch = "broadwell";
    const support::JsonValue reply =
        roundtrip(socket.fd(), encode_hello(hello));
    ErrorFrame error;
    ASSERT_TRUE(decode_error(reply, &error));
    EXPECT_EQ(error.code, "unsupported_architecture");
    EXPECT_TRUE(error.fatal);
  }
  {
    Socket socket = Socket::connect(server.address());
    HelloFrame hello;
    hello.program = "CL";
    hello.arch = "opteron";
    const support::JsonValue reply =
        roundtrip(socket.fd(), encode_hello(hello));
    EXPECT_EQ(frame_type(reply), "welcome");
    WelcomeFrame welcome;
    std::string error;
    ASSERT_TRUE(decode_welcome(reply, &welcome, &error)) << error;
    // The served set is advertised canonicalized to display names.
    EXPECT_EQ(welcome.caps.archs,
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
    (void)Client::connect(listener.address().display(), "CL", "broadwell",
                          options, compiler::Personality::kIcc,
                          client_options);
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
    ASSERT_TRUE(write_frame(session.fd(), encode_welcome(welcome)));
    (void)read_frame(session.fd(), &payload);  // eat the ping, go silent
    (void)read_frame(session.fd(), &payload);  // wait for the hangup
  });
  core::FuncyTunerOptions options;
  ClientOptions client_options;
  client_options.io_timeout_seconds = 0.2;
  std::shared_ptr<Client> client =
      Client::connect(listener.address().display(), "CL", "broadwell",
                      options, compiler::Personality::kIcc, client_options);
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
  std::shared_ptr<Client> client =
      Client::connect(server.address().display(), "CL", "broadwell",
                      options, compiler::Personality::kIcc, client_options);
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
    tuner.evaluator().set_backend(std::make_shared<RemoteBackend>(
        Client::connect(server->address().display(), "CL", "broadwell",
                        options)));
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
  EXPECT_GT(stats.batch_frames, 0u);  // coalescing actually happened
  server.stop();
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
      addresses, "CL", "broadwell", options);
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
  // With chunks queued on one home endpoint and three workers, the
  // other endpoints must have pulled work over.
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
      fleet.addresses, "CL", "broadwell", options);
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
    // Wait until the home daemon is demonstrably serving BATCHES, then
    // yank it. (Waiting merely for evaluations > 0 used to fire during
    // the single-request baseline phase, whose failover path drains
    // without re-dispatching a chunk - the epoll server is fast enough
    // to make that race real.)
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

TEST(Fleet, ConnectRequiresAtLeastOneServingEndpoint) {
  ServerOptions base = test_server_options();
  base.archs = {"opteron"};
  FleetServers fleet(1, base);
  core::FuncyTunerOptions options;
  try {
    (void)FleetBackend::connect(fleet.addresses, "CL", "broadwell",
                                options);
    FAIL() << "no endpoint serves broadwell";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "fleet");
  }
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
        addresses, "CL", "broadwell", options);
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

  campaign_options.backend_factory = make_fleet_backend_factory(addresses);
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
    EXPECT_EQ(frame_type(roundtrip(socket.fd(), encode_ping(1))), "pong");
    ASSERT_TRUE(write_frame(socket.fd(), encode_bye()));
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
  // framing, hostile content). Every one must earn a non-fatal error
  // frame; interleaved pings prove the session keeps serving.
  {
    Socket socket = greet(server);
    for (int i = 0; i < 700; ++i) {
      std::string payload(rng() % 64, '\0');
      for (char& byte : payload) {
        byte = static_cast<char>(rng() & 0xff);
      }
      const support::JsonValue reply = roundtrip(socket.fd(), payload);
      ++frames_sent;
      ASSERT_EQ(frame_type(reply), "error") << "frame " << i;
      ErrorFrame error;
      ASSERT_TRUE(decode_error(reply, &error));
      ASSERT_FALSE(error.fatal) << "frame " << i;
      if (i % 100 == 0) {
        ASSERT_EQ(frame_type(roundtrip(socket.fd(), encode_ping(1))),
                  "pong");
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
      case 3: {  // structurally valid JSON that is not a hello
        ASSERT_TRUE(write_frame(socket.fd(), R"([1,2,3])"));
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
  std::shared_ptr<Client> client = Client::connect(
      server.address().display(), "CL", "broadwell", options);
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

AnyFrame binary_roundtrip(const std::string& payload) {
  AnyFrame frame;
  std::string error;
  EXPECT_EQ(decode_frame(Framing::kBinary, payload, &frame, &error),
            DecodeStatus::kOk)
      << error;
  return frame;
}

TEST(Binary, HelloRoundTripIsBitExact) {
  HelloFrame hello;
  hello.program = "LULESH";
  hello.arch = "sandybridge";
  hello.personality = "gcc";
  hello.options.seed = 0x0123456789abcdefull;
  hello.options.noise_sigma_rel = 0.1 + 0.2;  // not exactly 0.3
  hello.options.attribution_sigma = 1e-17;
  hello.options.faults.rate = 1.0 / 3.0;
  hello.options.faults.seed = 0xffffffffffffffffull;
  hello.options.faults.outlier_max_scale = 9.999999999999998;
  hello.caps.framings = {Framing::kBinary, Framing::kJson};
  hello.caps.max_frame_bytes = 123456789;

  std::string payload;
  encode_hello_frame(Framing::kBinary, hello, &payload);
  const AnyFrame frame = binary_roundtrip(payload);
  ASSERT_EQ(frame.kind, FrameKind::kHello);
  const HelloFrame& out = frame.hello;
  EXPECT_EQ(out.program, hello.program);
  EXPECT_EQ(out.arch, hello.arch);
  EXPECT_EQ(out.personality, hello.personality);
  EXPECT_EQ(out.options.seed, hello.options.seed);
  // Doubles travel as raw IEEE-754 bit patterns: equality is exact by
  // construction, no decimal round-trip argument required.
  EXPECT_EQ(out.options.noise_sigma_rel, hello.options.noise_sigma_rel);
  EXPECT_EQ(out.options.attribution_sigma,
            hello.options.attribution_sigma);
  EXPECT_EQ(out.options.faults.rate, hello.options.faults.rate);
  EXPECT_EQ(out.options.faults.seed, hello.options.faults.seed);
  EXPECT_EQ(out.options.faults.outlier_max_scale,
            hello.options.faults.outlier_max_scale);
  EXPECT_EQ(out.caps.framings, hello.caps.framings);
  EXPECT_EQ(out.caps.max_frame_bytes, hello.caps.max_frame_bytes);
}

TEST(Binary, WelcomeRoundTrip) {
  WelcomeFrame welcome;
  welcome.session = 0xdeadbeefcafef00dull;
  welcome.max_batch = 512;
  welcome.framing = Framing::kBinary;
  welcome.caps.framings = {Framing::kJson, Framing::kBinary};
  welcome.caps.archs = {"AMD Opteron", "Intel Broadwell"};
  std::string payload;
  encode_welcome_frame(Framing::kBinary, welcome, &payload);
  const AnyFrame frame = binary_roundtrip(payload);
  ASSERT_EQ(frame.kind, FrameKind::kWelcome);
  EXPECT_EQ(frame.welcome.server, "ftuned");
  EXPECT_EQ(frame.welcome.session, welcome.session);
  EXPECT_EQ(frame.welcome.max_batch, welcome.max_batch);
  EXPECT_EQ(frame.welcome.framing, Framing::kBinary);
  EXPECT_EQ(frame.welcome.caps.framings, welcome.caps.framings);
  EXPECT_EQ(frame.welcome.caps.archs, welcome.caps.archs);
}

TEST(Binary, ErrorRoundTrip) {
  const ErrorFrame error_frame{"overloaded", "max_inflight \"quoted\"\n",
                               42, true, false};
  std::string payload;
  encode_error_frame(Framing::kBinary, error_frame, &payload);
  const AnyFrame frame = binary_roundtrip(payload);
  ASSERT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.error.code, error_frame.code);
  EXPECT_EQ(frame.error.detail, error_frame.detail);
  EXPECT_EQ(frame.error.seq, 42u);
  EXPECT_TRUE(frame.error.retryable);
  EXPECT_FALSE(frame.error.fatal);
}

TEST(Binary, EvalAndBatchRoundTrip) {
  const core::EvalRequest request = make_request();
  std::string payload;
  encode_eval_frame(Framing::kBinary, 17, request, &payload);
  AnyFrame frame = binary_roundtrip(payload);
  ASSERT_EQ(frame.kind, FrameKind::kEval);
  EXPECT_EQ(frame.seq, 17u);
  ASSERT_EQ(frame.requests.size(), 1u);
  expect_request_eq(frame.requests[0], request);

  std::vector<core::EvalRequest> requests(3, make_request());
  requests[1].rep_base = 2;
  requests[1].aggregate = machine::Aggregation::kMedian;
  requests[2].repetitions = 1;
  requests[2].noise = true;
  encode_eval_batch_frame(Framing::kBinary, 99, requests, &payload);
  frame = binary_roundtrip(payload);
  ASSERT_EQ(frame.kind, FrameKind::kEvalBatch);
  EXPECT_EQ(frame.seq, 99u);
  ASSERT_EQ(frame.requests.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_request_eq(frame.requests[i], requests[i]);
  }
}

TEST(Binary, ResultRoundTripIsBitExact) {
  const core::EvalResponse response = make_ok_response();
  std::string payload;
  encode_result_frame(Framing::kBinary, 3, response, &payload);
  const AnyFrame frame = binary_roundtrip(payload);
  ASSERT_EQ(frame.kind, FrameKind::kResult);
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
  std::vector<core::EvalResponse> responses(2, make_ok_response());
  responses[1] = core::EvalResponse{};
  responses[1].outcome.error.kind = core::EvalFault::kCompileFailure;
  responses[1].outcome.error.detail = "cv 0xdeadbeef ICEd";
  responses[1].outcome.attempts = 3;
  std::string payload;
  encode_result_batch_frame(Framing::kBinary, 7, responses, &payload);
  const AnyFrame frame = binary_roundtrip(payload);
  ASSERT_EQ(frame.kind, FrameKind::kResultBatch);
  ASSERT_EQ(frame.responses.size(), 2u);
  EXPECT_TRUE(frame.responses[0].ok());
  EXPECT_EQ(frame.responses[0].outcome.result.end_to_end,
            responses[0].outcome.result.end_to_end);
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
  AnyFrame frame = binary_roundtrip(payload);
  EXPECT_EQ(frame.kind, FrameKind::kPing);
  EXPECT_EQ(frame.seq, 42u);
  encode_pong_frame(Framing::kBinary, 42, &payload);
  frame = binary_roundtrip(payload);
  EXPECT_EQ(frame.kind, FrameKind::kPong);
  EXPECT_EQ(frame.seq, 42u);
  encode_bye_frame(Framing::kBinary, &payload);
  frame = binary_roundtrip(payload);
  EXPECT_EQ(frame.kind, FrameKind::kBye);
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
  EXPECT_EQ(negotiate_framing({kBinary, kJson}, {kJson, kBinary}),
            kBinary);
  EXPECT_EQ(negotiate_framing({kBinary, kJson}, {kJson}), kJson);
  EXPECT_EQ(negotiate_framing({kJson, kBinary}, {kJson, kBinary}),
            kJson);
  // Degenerate offers still land on the mandatory baseline.
  EXPECT_EQ(negotiate_framing({}, {kJson, kBinary}), kJson);
  EXPECT_EQ(negotiate_framing({kBinary}, {}), kJson);
}

TEST(Protocol, CapabilitiesTolerateUnknownKeysAndWrongTypes) {
  // A hello from some future build: unknown caps keys, unknown framing
  // names, wrongly-typed members. Everything unknown is skipped, the
  // frame still decodes, and the mutually-intelligible parts survive.
  HelloFrame hello;
  hello.program = "CL";
  hello.arch = "broadwell";
  std::string text = encode_hello(hello);
  const std::string needle = "\"caps\":{";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + needle.size(),
              "\"quantum_links\":3,\"future\":{\"deep\":[1,2]},");
  const std::string framings = "\"framings\":[\"json\"]";
  const std::size_t framings_at = text.find(framings);
  ASSERT_NE(framings_at, std::string::npos);
  text.replace(framings_at, framings.size(),
               "\"framings\":[17,\"zstd-cbor\",\"json\",{\"x\":1}]");

  HelloFrame out;
  std::string error;
  ASSERT_TRUE(decode_hello(parse_or_fail(text), &out, &error)) << error;
  EXPECT_EQ(out.caps.protocol, kProtocolVersion);
  EXPECT_EQ(out.caps.framings, std::vector<Framing>{Framing::kJson});

  // Wrongly-typed known members: ignored, defaults kept.
  HelloFrame wrong;
  wrong.program = "CL";
  wrong.arch = "broadwell";
  std::string wrong_text = encode_hello(wrong);
  const std::string caps = "\"caps\":{";
  const std::size_t caps_at = wrong_text.find(caps);
  ASSERT_NE(caps_at, std::string::npos);
  const std::size_t caps_end = wrong_text.find('}', caps_at);
  wrong_text.replace(
      caps_at, caps_end - caps_at + 1,
      R"("caps":{"protocol":"banana","framings":"json","max_frame":[8]})");
  ASSERT_TRUE(decode_hello(parse_or_fail(wrong_text), &out, &error))
      << error;
  EXPECT_EQ(out.caps.protocol, kProtocolVersion);  // legacy member wins
  EXPECT_EQ(out.caps.framings, std::vector<Framing>{Framing::kJson});
  EXPECT_EQ(out.caps.max_frame_bytes, kDefaultMaxFrameBytes);
}

TEST(Negotiation, BinaryPreferredClientGetsBinarySession) {
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{"CL", "broadwell", compiler::Personality::kIcc,
                    options};
  connect_options.framings = {Framing::kBinary, Framing::kJson};
  std::shared_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()), connect_options);
  EXPECT_EQ(client->framing(), Framing::kBinary);
  EXPECT_EQ(client->welcome().framing, Framing::kBinary);
  // The welcome advertises the server's own supported set.
  EXPECT_NE(std::find(client->welcome().caps.framings.begin(),
                      client->welcome().caps.framings.end(),
                      Framing::kBinary),
            client->welcome().caps.framings.end());
  client->ping();
  const core::EvalResponse response = client->call(valid_request());
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(server.stats().binary_sessions, 1u);
  server.stop();
}

TEST(Negotiation, JsonOnlyDaemonDowngradesTheSession) {
  ServerOptions options = test_server_options();
  options.framings = {Framing::kJson};  // a pre-binary daemon
  Server server(options);
  server.start();
  core::FuncyTunerOptions tuner_options;
  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{"CL", "broadwell", compiler::Personality::kIcc,
                    tuner_options};
  connect_options.framings = {Framing::kBinary, Framing::kJson};
  std::shared_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()), connect_options);
  EXPECT_EQ(client->framing(), Framing::kJson);
  client->ping();
  EXPECT_TRUE(client->call(valid_request()).ok());
  EXPECT_EQ(server.stats().binary_sessions, 0u);
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
    std::string text = encode_welcome(welcome);
    const std::string needle = "\"framing\":\"json\"";
    const std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size(), "\"framing\":\"cbor\"");
    ASSERT_TRUE(write_frame(session.fd(), text));
    (void)read_frame(session.fd(), &payload);  // wait for the hangup
  });
  core::FuncyTunerOptions options;
  try {
    (void)Client::connect(listener.address().display(), "CL",
                          "broadwell", options);
    FAIL() << "a welcome naming an unknown framing must be refused";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "bad_frame");
  }
  fake_daemon.join();
}

// --- binary framing against the live daemon ---------------------------------

/// Handshakes a raw binary session for program CL on broadwell.
Socket greet_binary(const Server& server) {
  Socket socket = Socket::connect(server.address());
  HelloFrame hello;
  hello.program = "CL";
  hello.arch = "broadwell";
  hello.caps.framings = {Framing::kBinary, Framing::kJson};
  const support::JsonValue reply =
      roundtrip(socket.fd(), encode_hello(hello));
  EXPECT_EQ(frame_type(reply), "welcome");
  WelcomeFrame welcome;
  std::string error;
  EXPECT_TRUE(decode_welcome(reply, &welcome, &error)) << error;
  EXPECT_EQ(welcome.framing, Framing::kBinary);
  return socket;
}

TEST(Binary, LiveSessionServesEvalAndSurvivesGarbage) {
  ServerOptions server_options = test_server_options();
  server_options.max_frame_bytes = 4096;
  Server server(server_options);
  server.start();
  Socket socket = greet_binary(server);

  AnyFrame frame;
  std::string payload, error;

  // A real binary eval round-trip.
  encode_eval_frame(Framing::kBinary, 21, valid_request(), &payload);
  ASSERT_TRUE(write_frame(socket.fd(), payload));
  ASSERT_EQ(read_frame(socket.fd(), &payload), FrameStatus::kOk);
  ASSERT_EQ(decode_frame(Framing::kBinary, payload, &frame, &error),
            DecodeStatus::kOk)
      << error;
  ASSERT_EQ(frame.kind, FrameKind::kResult);
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
    ASSERT_TRUE(write_frame(socket.fd(), garbage));
    ASSERT_EQ(read_frame(socket.fd(), &payload), FrameStatus::kOk);
    ASSERT_EQ(decode_frame(Framing::kBinary, payload, &frame, &error),
              DecodeStatus::kOk)
        << error;
    ASSERT_EQ(frame.kind, FrameKind::kError) << "frame " << i;
    ASSERT_FALSE(frame.error.fatal) << "frame " << i;
  }

  // A forged count with a tiny payload is refused as bad_request -
  // instantly, not after a 4 GiB allocation attempt.
  std::string forged;
  forged.push_back('\x05');
  forged.append(8, '\x00');
  forged.append("\xff\xff\xff\xff", 4);
  ASSERT_TRUE(write_frame(socket.fd(), forged));
  ASSERT_EQ(read_frame(socket.fd(), &payload), FrameStatus::kOk);
  ASSERT_EQ(decode_frame(Framing::kBinary, payload, &frame, &error),
            DecodeStatus::kOk)
      << error;
  ASSERT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.error.code, "bad_request");

  // ...and the session still answers a well-formed binary ping.
  encode_ping_frame(Framing::kBinary, 77, &payload);
  ASSERT_TRUE(write_frame(socket.fd(), payload));
  ASSERT_EQ(read_frame(socket.fd(), &payload), FrameStatus::kOk);
  ASSERT_EQ(decode_frame(Framing::kBinary, payload, &frame, &error),
            DecodeStatus::kOk)
      << error;
  EXPECT_EQ(frame.kind, FrameKind::kPong);
  EXPECT_EQ(frame.seq, 77u);
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
  connect_options.framings = {Framing::kBinary};
  std::shared_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()), connect_options);
  ASSERT_EQ(client->framing(), Framing::kBinary);
  tuner.evaluator().set_backend(std::make_shared<RemoteBackend>(client));
  const core::TuningResult result = tuner.run("cfr");
  // The framing is pure transport: raw little-endian doubles and
  // %.17g JSON text land on identical bits.
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  EXPECT_EQ(server.stats().binary_sessions, 1u);
  EXPECT_GT(server.stats().batch_frames, 0u);
  server.stop();
}

TEST(Fleet, MixedFramingFleetDowngradesPerEndpointBitIdentically) {
  // One binary-capable daemon, one JSON-only daemon, one fleet asking
  // for binary: negotiation is per-endpoint, so the JSON-only daemon
  // downgrades its one session while the other stays binary - and the
  // tuning output matches local bit for bit.
  ServerOptions binary_options = test_server_options();
  binary_options.max_batch = 7;  // force several chunks per batch
  ServerOptions json_options = binary_options;
  json_options.framings = {Framing::kJson};
  Server binary_server(binary_options);
  Server json_server(json_options);
  binary_server.start();
  json_server.start();
  const std::vector<std::string> addresses = {
      binary_server.address().display(),
      json_server.address().display()};

  core::FuncyTunerOptions options;
  options.samples = 25;
  options.seed = 11;
  const std::string local = tune_json("cfr", options, nullptr);

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  FleetOptions fleet_options;
  fleet_options.framings = {Framing::kBinary, Framing::kJson};
  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      addresses, "CL", "broadwell", options,
      compiler::Personality::kIcc, fleet_options);
  EXPECT_EQ(backend->endpoint_count(), 2u);
  tuner.evaluator().set_backend(backend);
  const core::TuningResult result = tuner.run("cfr");
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  EXPECT_EQ(binary_server.stats().binary_sessions, 1u);
  EXPECT_EQ(json_server.stats().binary_sessions, 0u);
  EXPECT_GT(binary_server.stats().evaluations +
                json_server.stats().evaluations,
            0u);
  binary_server.stop();
  json_server.stop();
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
