// Chaos-engineering tests for the evaluation service: seeded fault
// injection (torn writes, resets, EINTR storms, stalls, dial
// failures), the CRC32 framing's corruption detection, SIGTERM drain,
// circuit breakers with half-open recovery, local-fallback
// degradation, and the epoll server's slow-loris / half-open /
// connection-cap edge cases. The through-line is the bit-identity-
// under-chaos contract: faults may perturb scheduling and transport
// however they like, but every byte of tuning output must match a
// clean in-process run.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/funcy_tuner.hpp"
#include "core/serialization.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "service/chaos.hpp"
#include "service/client.hpp"
#include "service/fleet.hpp"
#include "service/framing.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"

namespace ft::service {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deadline-bounded wait for a condition; the chaos suite never spins
/// forever on anything.
template <typename Predicate>
bool wait_until(Predicate&& predicate, double deadline_s) {
  const Clock::time_point start = Clock::now();
  while (!predicate()) {
    if (seconds_since(start) > deadline_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

ServerOptions test_server_options() {
  ServerOptions options;
  options.listen = "tcp:127.0.0.1:0";  // ephemeral: parallel-test safe
  return options;
}

/// A chaos spec with every probability off except the overrides -
/// tests want exactly one fault class at a time.
std::string only(const std::string& overrides) {
  return "torn-write=0,delayed-read=0,reset=0,eintr=0,stall=0,"
         "overload=0,connect=0" +
         (overrides.empty() ? "" : "," + overrides);
}

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

/// The CL/broadwell hello as a plain-binary payload.
std::string cl_hello() {
  HelloFrame hello;
  hello.workspace.program = "CL";
  hello.workspace.arch = "broadwell";
  std::string out;
  encode_hello_frame(Framing::kBinary, hello, &out);
  return out;
}

/// A single evaluation on the wire: an eval_batch of one.
std::string eval_frame(std::uint64_t seq, const core::EvalRequest& request) {
  std::string out;
  encode_eval_batch_frame(Framing::kBinary, seq, {&request, 1}, &out);
  return out;
}

std::string ping_frame(std::uint64_t seq) {
  std::string out;
  encode_ping_frame(Framing::kBinary, seq, &out);
  return out;
}

core::EvalRequest valid_request() {
  core::EvalRequest request;
  const flags::FlagSpace space = flags::icc_space();
  request.assignment = compiler::ModuleAssignment::uniform(
      space.default_cv(), programs::by_name("CL").loops().size());
  return request;
}

/// The CL/broadwell hello under `options`.
ConnectOptions cl_workspace(const core::FuncyTunerOptions& options,
                            const ClientOptions& transport = {}) {
  ConnectOptions connect_options;
  connect_options.workspace = WorkspaceSpec{
      "CL", "broadwell", compiler::Personality::kIcc, options};
  connect_options.transport = transport;
  return connect_options;
}

/// Breaker and probe knobs fast enough for a test to watch a full
/// open -> backoff -> half-open -> heal cycle.
FleetOptions hair_trigger(bool fallback_local) {
  FleetOptions fleet_options;
  fleet_options.fallback_local = fallback_local;
  fleet_options.probe_interval_seconds = 0.05;
  fleet_options.breaker_failure_threshold = 1;
  fleet_options.breaker_reopen_base_seconds = 0.02;
  fleet_options.breaker_reopen_max_seconds = 0.2;
  return fleet_options;
}

/// Tunes CL on broadwell locally or through `server` (on one
/// RemoteBackend wire), returning the result JSON (the bit-identity
/// currency of this suite).
std::string tune_json(const std::string& algorithm,
                      const core::FuncyTunerOptions& options,
                      const Server* server,
                      const ClientOptions& client_options = {}) {
  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  if (server != nullptr) {
    tuner.evaluator().set_backend(std::make_shared<RemoteBackend>(
        Client::connect(Endpoint::parse(server->address().display()),
                        cl_workspace(options, client_options))));
  }
  const core::TuningResult result = tuner.run(algorithm);
  return core::tuning_result_json(result, tuner.space(), tuner.program());
}

// --- chaos config and engine -------------------------------------------------

TEST(ChaosConfig, ParseSpecOverridesTheProfile) {
  const chaos::ChaosConfig profile = chaos::ChaosConfig::profile(7);
  EXPECT_TRUE(profile.enabled());
  EXPECT_GT(profile.torn_write, 0.0);
  EXPECT_GT(profile.connect_failure, 0.0);

  const chaos::ChaosConfig tuned =
      chaos::ChaosConfig::parse(7, "torn-write=0.5,stall-ms=9");
  EXPECT_EQ(tuned.seed, 7u);
  EXPECT_DOUBLE_EQ(tuned.torn_write, 0.5);
  EXPECT_DOUBLE_EQ(tuned.stall_ms, 9.0);
  EXPECT_DOUBLE_EQ(tuned.reset_mid_frame, profile.reset_mid_frame);

  const chaos::ChaosConfig quiet = chaos::ChaosConfig::parse(7, "off");
  EXPECT_TRUE(quiet.enabled());
  EXPECT_DOUBLE_EQ(quiet.torn_write, 0.0);
  EXPECT_DOUBLE_EQ(quiet.spurious_overload, 0.0);

  EXPECT_FALSE(chaos::ChaosConfig::parse(0, "").enabled());
  try {
    (void)chaos::ChaosConfig::parse(7, "no-such-fault=1");
    FAIL() << "unknown fault name must throw";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "bad_chaos");
  }
  try {
    (void)chaos::ChaosConfig::parse(7, "torn-write=banana");
    FAIL() << "unparseable value must throw";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "bad_chaos");
  }
}

TEST(ChaosConfig, ComesFromTheEnvironment) {
  ASSERT_EQ(setenv("FT_CHAOS_SEED", "31337", 1), 0);
  ASSERT_EQ(setenv("FT_CHAOS", "reset=0.25", 1), 0);
  const chaos::ChaosConfig config = chaos::config_from_env();
  EXPECT_EQ(config.seed, 31337u);
  EXPECT_DOUBLE_EQ(config.reset_mid_frame, 0.25);
  ASSERT_EQ(unsetenv("FT_CHAOS_SEED"), 0);
  ASSERT_EQ(unsetenv("FT_CHAOS"), 0);
  EXPECT_FALSE(chaos::config_from_env().enabled());
}

TEST(ChaosEngine, SeededDecisionStreamIsDeterministic) {
  const chaos::ChaosConfig config = chaos::ChaosConfig::parse(99, "off");
  const std::shared_ptr<chaos::ChaosEngine> a = chaos::make_engine(config);
  const std::shared_ptr<chaos::ChaosEngine> b = chaos::make_engine(config);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a->draw_u64(), b->draw_u64()) << "diverged at draw " << i;
  }
  EXPECT_EQ(chaos::make_engine(chaos::ChaosConfig{}), nullptr)
      << "seed 0 must disable the engine entirely";
}

// --- CRC32 framing -----------------------------------------------------------

TEST(Crc32, MatchesTheReferenceVectors) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(BinaryCrc, FramesRoundTripAndCarryTheTrailer) {
  core::EvalResponse response;
  response.outcome.result.end_to_end = 0.1 + 0.2;  // not exactly 0.3
  response.outcome.result.loop_seconds = {1e-17, 3.0};
  response.outcome.result.derived_nonloop_seconds = -0.25;
  response.outcome.result.stddev = 0.001;
  response.modules_compiled = 3;

  std::string plain, sealed;
  encode_result_batch_frame(Framing::kBinary, 42, {&response, 1}, &plain);
  encode_result_batch_frame(Framing::kBinaryCrc, 42, {&response, 1},
                            &sealed);
  ASSERT_EQ(sealed.size(), plain.size() + 4)
      << "binary-crc32 must be the binary encoding plus a 4-byte trailer";
  EXPECT_EQ(sealed.substr(0, plain.size()), plain);

  AnyFrame decoded;
  std::string error;
  ASSERT_EQ(decode_frame(Framing::kBinaryCrc, sealed, &decoded, &error),
            DecodeStatus::kOk)
      << error;
  ASSERT_EQ(decoded.kind, FrameKind::kResultBatch);
  ASSERT_EQ(decoded.responses.size(), 1u);
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.responses[0].outcome.result.end_to_end,
            response.outcome.result.end_to_end);
  EXPECT_EQ(decoded.responses[0].outcome.result.loop_seconds,
            response.outcome.result.loop_seconds);

  std::string ping;
  encode_ping_frame(Framing::kBinaryCrc, 7, &ping);
  ASSERT_EQ(decode_frame(Framing::kBinaryCrc, ping, &decoded, &error),
            DecodeStatus::kOk);
  EXPECT_EQ(decoded.kind, FrameKind::kPing);
}

TEST(BinaryCrc, EverySingleBitFlipIsDetected) {
  core::EvalRequest request = valid_request();
  std::string sealed;
  encode_eval_batch_frame(Framing::kBinaryCrc, 9, {&request, 1}, &sealed);
  AnyFrame decoded;
  std::string error;
  ASSERT_EQ(decode_frame(Framing::kBinaryCrc, sealed, &decoded, &error),
            DecodeStatus::kOk);
  // CRC32 detects ALL single-bit errors - walk every bit of the frame
  // (payload AND trailer) and demand rejection.
  std::size_t rejections = 0;
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = sealed;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      if (decode_frame(Framing::kBinaryCrc, corrupted, &decoded, &error) !=
          DecodeStatus::kOk) {
        ++rejections;
      }
    }
  }
  EXPECT_EQ(rejections, sealed.size() * 8)
      << "a corrupted binary-crc32 frame decoded as valid";
}

TEST(BinaryCrc, FrameShorterThanItsChecksumIsRejected) {
  AnyFrame decoded;
  std::string error;
  for (const std::string& payload : {std::string(), std::string("abc")}) {
    EXPECT_EQ(decode_frame(Framing::kBinaryCrc, payload, &decoded, &error),
              DecodeStatus::kUnparseable);
  }
}

TEST(BinaryCrc, NegotiatesAndServesALiveSession) {
  ServerOptions options = test_server_options();
  options.framings = {Framing::kBinary, Framing::kBinaryCrc};
  Server server(options);
  server.start();

  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{"CL", "broadwell", compiler::Personality::kIcc, {}};
  connect_options.framings = {Framing::kBinaryCrc};
  std::unique_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()), connect_options);
  EXPECT_EQ(client->framing(), Framing::kBinaryCrc);
  client->ping();
  const core::EvalResponse response = client->call(valid_request());
  EXPECT_TRUE(response.ok());
  EXPECT_GT(response.outcome.result.end_to_end, 0.0);
  client.reset();
  server.stop();
}

TEST(BinaryCrc, CorruptedWireFrameGetsBadFrameAndTheSessionSurvives) {
  ServerOptions options = test_server_options();
  options.framings = {Framing::kBinary, Framing::kBinaryCrc};
  Server server(options);
  server.start();

  Socket socket = Socket::connect(server.address());
  HelloFrame hello;
  hello.workspace.program = "CL";
  hello.workspace.arch = "broadwell";
  hello.caps.framings = {Framing::kBinaryCrc, Framing::kBinary};
  std::string payload;
  encode_hello_frame(Framing::kBinary, hello, &payload);
  ASSERT_TRUE(write_frame(socket.fd(), payload));
  ASSERT_EQ(read_frame(socket.fd(), &payload), FrameStatus::kOk);
  const AnyFrame welcome = decode_ok(payload);
  ASSERT_EQ(welcome.kind, FrameKind::kWelcome);
  ASSERT_EQ(welcome.welcome.framing, Framing::kBinaryCrc);
  std::string error;

  // A ping whose last payload byte was flipped in flight: the length
  // framing stays synchronized, so the server can reject THIS frame
  // and keep the session.
  std::string ping;
  encode_ping_frame(Framing::kBinaryCrc, 1, &ping);
  ping.back() = static_cast<char>(ping.back() ^ 0x40);
  ASSERT_TRUE(write_frame(socket.fd(), ping));
  ASSERT_EQ(read_frame(socket.fd(), &payload, kDefaultMaxFrameBytes, 5000),
            FrameStatus::kOk);
  AnyFrame reply;
  ASSERT_EQ(decode_frame(Framing::kBinaryCrc, payload, &reply, &error),
            DecodeStatus::kOk);
  ASSERT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(reply.error.code, "bad_frame");

  // The session survived: a clean ping still pongs.
  encode_ping_frame(Framing::kBinaryCrc, 2, &ping);
  ASSERT_TRUE(write_frame(socket.fd(), ping));
  ASSERT_EQ(read_frame(socket.fd(), &payload, kDefaultMaxFrameBytes, 5000),
            FrameStatus::kOk);
  ASSERT_EQ(decode_frame(Framing::kBinaryCrc, payload, &reply, &error),
            DecodeStatus::kOk);
  EXPECT_EQ(reply.kind, FrameKind::kPong);
  server.stop();
}

// --- transport fault injection ----------------------------------------------

TEST(Chaos, TornWritesReassembleByteIdentically) {
  SocketPair pair;
  const std::shared_ptr<chaos::ChaosEngine> engine = chaos::make_engine(
      chaos::ChaosConfig::parse(5, only("torn-write=1")));
  ASSERT_NE(engine, nullptr);
  std::vector<std::string> payloads;
  for (std::size_t size : {1u, 7u, 64u, 4096u, 100000u}) {
    payloads.emplace_back(size, static_cast<char>('a' + size % 26));
  }
  std::thread writer([&] {
    for (const std::string& payload : payloads) {
      EXPECT_TRUE(
          write_frame(pair.fds[0], payload, /*timeout_ms=*/10000,
                      engine.get()));
    }
  });
  std::string received;
  for (const std::string& payload : payloads) {
    ASSERT_EQ(read_frame(pair.fds[1], &received, kDefaultMaxFrameBytes,
                         10000),
              FrameStatus::kOk);
    EXPECT_EQ(received, payload);
  }
  writer.join();
}

TEST(Chaos, ResetMidFrameTearsTheStreamForBothSides) {
  SocketPair pair;
  const std::shared_ptr<chaos::ChaosEngine> engine =
      chaos::make_engine(chaos::ChaosConfig::parse(5, only("reset=1")));
  ASSERT_NE(engine, nullptr);
  const std::string payload(4096, 'x');
  EXPECT_FALSE(write_frame(pair.fds[0], payload, 10000, engine.get()))
      << "an injected reset must report write failure";
  std::string received;
  const FrameStatus status =
      read_frame(pair.fds[1], &received, kDefaultMaxFrameBytes, 10000);
  EXPECT_TRUE(status == FrameStatus::kTorn || status == FrameStatus::kClosed)
      << "peer of a reset stream saw status " << static_cast<int>(status);
}

TEST(Chaos, EintrStormsDoNotCorruptFramesOrExtendDeadlines) {
  SocketPair pair;
  const std::shared_ptr<chaos::ChaosEngine> engine =
      chaos::make_engine(chaos::ChaosConfig::parse(5, only("eintr=1")));
  ASSERT_NE(engine, nullptr);
  const std::string payload(65536, 'q');
  for (int i = 0; i < 8; ++i) {
    std::thread writer([&] {
      EXPECT_TRUE(write_frame(pair.fds[0], payload, 10000, engine.get()));
    });
    std::string received;
    ASSERT_EQ(read_frame(pair.fds[1], &received, kDefaultMaxFrameBytes,
                         10000, engine.get()),
              FrameStatus::kOk);
    EXPECT_EQ(received, payload);
    writer.join();
  }
  // A deadline under storm: nobody writes, so the read must time out
  // on schedule - EINTR retries never extend the absolute deadline.
  const Clock::time_point start = Clock::now();
  std::string received;
  EXPECT_EQ(read_frame(pair.fds[1], &received, kDefaultMaxFrameBytes, 200,
                       engine.get()),
            FrameStatus::kTimeout);
  EXPECT_LT(seconds_since(start), 5.0);
}

TEST(Chaos, InjectedDialFailuresSurfaceAsConnectErrors) {
  Server server(test_server_options());
  server.start();
  const std::shared_ptr<chaos::ChaosEngine> engine =
      chaos::make_engine(chaos::ChaosConfig::parse(5, only("connect=1")));
  ASSERT_NE(engine, nullptr);
  try {
    (void)Socket::connect(server.address(), engine.get());
    FAIL() << "injected dial failure did not throw";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "connect");
  }
  // Without the engine the same dial works - the listener is fine.
  Socket socket = Socket::connect(server.address());
  EXPECT_TRUE(socket.valid());
  server.stop();
}

TEST(Chaos, AcceptDeadlineHoldsUnderAnEintrStorm) {
  Listener listener = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
  const std::shared_ptr<chaos::ChaosEngine> engine =
      chaos::make_engine(chaos::ChaosConfig::parse(5, only("eintr=1")));
  ASSERT_NE(engine, nullptr);
  // Holds an active storm against THIS thread while accept_within
  // waits on a silent listener: EINTR after EINTR must retry against
  // the same absolute deadline, not restart the wait.
  const chaos::ChaosEngine::StormScope storm = engine->maybe_eintr_storm();
  const Clock::time_point start = Clock::now();
  Socket accepted = listener.accept_within(/*timeout_ms=*/250);
  const double elapsed = seconds_since(start);
  EXPECT_FALSE(accepted.valid());
  EXPECT_GE(elapsed, 0.2);
  EXPECT_LT(elapsed, 5.0);
}

TEST(Chaos, SigpipeOnAPeerKilledMidWriteIsSurvivable) {
  // Kill the reader mid-write: without MSG_NOSIGNAL / SIG_IGN this
  // raises SIGPIPE and kills the whole test binary, so "the test
  // finished" is the assertion.
  ignore_sigpipe();
  SocketPair pair;
  ::close(pair.fds[1]);
  pair.fds[1] = -1;
  const std::string big(1 << 20, 'p');
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(write_frame(pair.fds[0], big, 1000))
        << "writing to a dead peer must fail, not signal";
  }
}

TEST(Service, TuningUnderBothSidedChaosIsBitIdentical) {
  // Every recoverable fault class at once, on both wire directions:
  // torn writes, delayed reads, short stalls, EINTR storms, spurious
  // overload refusals. (Resets and dial failures are session-fatal for
  // a single RemoteBackend; the fleet tests cover those.)
  ServerOptions server_options = test_server_options();
  server_options.chaos = chaos::ChaosConfig::parse(
      1234, only("torn-write=0.3,overload=0.05"));
  Server server(server_options);
  server.start();
  core::FuncyTunerOptions options;
  options.samples = 20;
  options.seed = 11;
  ClientOptions client_options;
  client_options.io_timeout_seconds = 20.0;
  client_options.chaos = chaos::ChaosConfig::parse(
      4321,
      only("torn-write=0.3,delayed-read=0.2,eintr=0.1,stall=0.02,"
           "stall-ms=10"));
  const std::string local = tune_json("cfr", options, nullptr);
  EXPECT_EQ(local, tune_json("cfr", options, &server, client_options));
  const Server::Stats stats = server.stats();
  EXPECT_GT(stats.evaluations, 0u);
  server.stop();
}

// --- fleet under chaos, breakers, fallback ----------------------------------

/// `count` live servers plus their address list (chaos-test twin of
/// the service_test fixture).
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
    for (auto& server : servers) server->stop();
  }
};

TEST(Fleet, ChaosResetsWithLocalFallbackStayBitIdentical) {
  // The full production resilience stack: server-side chaos resets
  // and overloads on three daemons, a fleet with hair-trigger
  // breakers, and local fallback absorbing whatever the fleet cannot
  // serve. No matter where each evaluation lands, the bytes match a
  // clean local run.
  ServerOptions base = test_server_options();
  base.max_batch = 8;
  base.chaos =
      chaos::ChaosConfig::parse(77, only("reset=0.3,overload=0.2"));
  FleetServers fleet(3, base);
  core::FuncyTunerOptions options;
  options.samples = 30;
  options.seed = 7;
  const std::string local = tune_json("cfr", options, nullptr);

  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      fleet.addresses, cl_workspace(options), hair_trigger(true));
  // Re-run the identical tune (same seed => same bytes) until the
  // seeded chaos has demonstrably torn at least one endpoint away;
  // every round must match the clean local run regardless of where
  // its evaluations ended up.
  const auto failed_over = [&] {
    const FleetBackend::Stats stats = backend->stats();
    return stats.endpoints_drained + stats.fallback_batches > 0;
  };
  for (int round = 0; round < 8 && !(round > 0 && failed_over());
       ++round) {
    core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                           options);
    tuner.evaluator().set_backend(backend);
    const core::TuningResult result = tuner.run("cfr");
    ASSERT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                              tuner.program()))
        << "round " << round << " diverged under chaos";
  }
  EXPECT_TRUE(failed_over())
      << "chaos was configured but nothing ever failed over";
}

TEST(Breaker, OpensAfterFailureAndHalfOpenProbeHeals) {
  const std::string address =
      "unix:/tmp/ft_breaker_" + std::to_string(::getpid()) + ".sock";
  ServerOptions server_options;
  server_options.listen = address;
  auto server = std::make_unique<Server>(server_options);
  server->start();

  std::shared_ptr<FleetBackend> fleet = FleetBackend::connect(
      {address}, cl_workspace({}), hair_trigger(false));

  const core::EvalRequest request = valid_request();
  const core::EvalBackend::RawResult healthy =
      fleet->run(request.assignment, request.run_options());

  server->stop();
  server.reset();
  try {
    (void)fleet->run(request.assignment, request.run_options());
    FAIL() << "a dead fleet must throw";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), "fleet");
  }
  EXPECT_EQ(fleet->alive_count(), 0u);
  EXPECT_GE(fleet->stats().breaker_opens, 1u);

  // Resurrect the daemon at the SAME address: the half-open probe must
  // reconnect, re-handshake and re-close the breaker on its own.
  server = std::make_unique<Server>(server_options);
  server->start();
  ASSERT_TRUE(wait_until([&] { return fleet->alive_count() == 1; }, 20.0))
      << "half-open probe never healed the endpoint";
  EXPECT_GE(fleet->stats().breaker_recoveries, 1u);
  const core::EvalBackend::RawResult recovered =
      fleet->run(request.assignment, request.run_options());
  EXPECT_EQ(healthy.result.end_to_end, recovered.result.end_to_end)
      << "recovery changed the bytes";
  EXPECT_EQ(healthy.result.loop_seconds, recovered.result.loop_seconds);
  server->stop();
}

TEST(Fallback, ServesBitIdenticallyWhenTheWholeFleetIsDown) {
  core::FuncyTunerOptions options;
  options.samples = 20;
  options.seed = 3;
  const std::string local = tune_json("cfr", options, nullptr);

  auto fleet = std::make_unique<FleetServers>(2);
  FleetOptions fleet_options;
  fleet_options.fallback_local = true;
  fleet_options.probe_interval_seconds = 0.0;  // nothing to heal to
  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      fleet->addresses, cl_workspace(options), fleet_options);
  fleet.reset();  // every daemon gone before the first evaluation

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  tuner.evaluator().set_backend(backend);
  const core::TuningResult result = tuner.run("cfr");
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  const FleetBackend::Stats stats = backend->stats();
  EXPECT_GT(stats.fallback_batches, 0u);
  EXPECT_EQ(stats.fallback_recoveries, 0u);
}

TEST(Fallback, NullPrimaryIsAlwaysLocalAndBitIdentical) {
  // No daemon serves the workspace's arch, so the fallback fleet has
  // no endpoint at all: every call is served by the local rung.
  ServerOptions server_options = test_server_options();
  server_options.archs = {"opteron"};
  Server server(server_options);
  server.start();
  core::FuncyTunerOptions options;
  options.samples = 15;
  options.seed = 21;
  const std::string local = tune_json("cfr", options, nullptr);
  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  FleetOptions fleet_options;
  fleet_options.fallback_local = true;
  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      {server.address().display()}, cl_workspace(options), fleet_options);
  EXPECT_EQ(backend->endpoint_count(), 0u);
  EXPECT_EQ(backend->home_address(), "");
  tuner.evaluator().set_backend(backend);
  const core::TuningResult result = tuner.run("cfr");
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  EXPECT_GT(backend->stats().fallback_batches, 0u);
  EXPECT_EQ(server.stats().evaluations, 0u);
  server.stop();
}

TEST(Fallback, StaysOutOfTheWayWhileThePrimaryIsHealthy) {
  Server server(test_server_options());
  server.start();
  core::FuncyTunerOptions options;
  options.samples = 15;
  options.seed = 21;
  const std::string local = tune_json("cfr", options, nullptr);

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  FleetOptions fleet_options;
  fleet_options.fallback_local = true;
  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      {server.address().display()}, cl_workspace(options), fleet_options);
  tuner.evaluator().set_backend(backend);
  const core::TuningResult result = tuner.run("cfr");
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  const FleetBackend::Stats stats = backend->stats();
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_EQ(stats.fallback_evals, 0u);
  EXPECT_GT(server.stats().evaluations, 0u)
      << "the healthy daemon should have served everything";
  server.stop();
}

TEST(Fallback, RecoversToThePrimaryWhenItReturns) {
  const std::string address =
      "unix:/tmp/ft_fallback_" + std::to_string(::getpid()) + ".sock";
  ServerOptions server_options;
  server_options.listen = address;
  auto server = std::make_unique<Server>(server_options);
  server->start();

  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      {address}, cl_workspace({}), hair_trigger(true));

  const core::EvalRequest request = valid_request();
  const core::EvalBackend::RawResult before =
      backend->run(request.assignment, request.run_options());

  server->stop();
  server.reset();
  const core::EvalBackend::RawResult degraded =
      backend->run(request.assignment, request.run_options());
  EXPECT_EQ(before.result.end_to_end, degraded.result.end_to_end)
      << "fallback served different bytes than the daemon";
  EXPECT_GE(backend->stats().fallback_batches, 1u);  // a batch of one

  server = std::make_unique<Server>(server_options);
  server->start();
  ASSERT_TRUE(
      wait_until([&] { return backend->alive_count() == 1; }, 20.0));
  const core::EvalBackend::RawResult recovered =
      backend->run(request.assignment, request.run_options());
  EXPECT_EQ(before.result.end_to_end, recovered.result.end_to_end);
  EXPECT_GE(backend->stats().fallback_recoveries, 1u)
      << "the daemon came back but fallback never yielded";
  EXPECT_GT(server->stats().evaluations, 0u);
  server->stop();
}

TEST(Fallback, OverloadedLoneDaemonDegradesASingleRunBitIdentically) {
  // A lone daemon that refuses every frame with `overloaded`: a run()
  // is a one-chunk batch, so its chunk is re-sent to the same endpoint
  // (there is nowhere else) until the redispatch budget is spent, each
  // send through the client's full overload backoff, and only then
  // does the local rung answer it - with the same bits.
  ServerOptions server_options = test_server_options();
  server_options.chaos =
      chaos::ChaosConfig::parse(19, only("overload=1"));
  Server server(server_options);
  server.start();
  ClientOptions transport;
  transport.overload_max_attempts = 2;  // keep the backoff short
  transport.overload_base_sleep_ms = 1.0;
  FleetOptions fleet_options;
  fleet_options.fallback_local = true;
  fleet_options.probe_interval_seconds = 0.0;
  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      {server.address().display()}, cl_workspace({}, transport),
      fleet_options);

  const core::EvalRequest request = valid_request();
  const core::EvalBackend::RawResult degraded =
      backend->run(request.assignment, request.run_options());
  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         core::FuncyTunerOptions{});
  const core::EvalBackend::RawResult local =
      tuner.evaluator().raw_run(request.assignment, request.run_options());
  EXPECT_EQ(local.result.end_to_end, degraded.result.end_to_end);
  EXPECT_EQ(local.result.loop_seconds, degraded.result.loop_seconds);

  const FleetBackend::Stats stats = backend->stats();
  EXPECT_EQ(stats.redispatches, 8u);  // the whole redispatch budget
  EXPECT_EQ(stats.fallback_batches, 1u);
  EXPECT_EQ(stats.fallback_evals, 1u);
  EXPECT_EQ(stats.helper_threads, 0u);
  EXPECT_EQ(stats.endpoints_drained, 0u);  // a bounce is not a death
  // Nine dispatches (the first and eight re-sends), each refused once
  // per client attempt.
  EXPECT_EQ(server.stats().overloads, 9u * 2u);
  EXPECT_EQ(server.stats().evaluations, 0u);
  server.stop();
}

TEST(Fallback, AdoptsADaemonThatWasDownAtConnect) {
  // The only daemon is down when the fleet connects: the run is served
  // locally, and the endpoint stays behind an open breaker so the
  // probe adopts the daemon once it starts.
  const std::string address =
      "unix:/tmp/ft_adopt_" + std::to_string(::getpid()) + ".sock";
  core::FuncyTunerOptions options;
  options.samples = 15;
  options.seed = 21;
  const std::string local = tune_json("cfr", options, nullptr);

  std::shared_ptr<FleetBackend> backend = FleetBackend::connect(
      {address}, cl_workspace(options), hair_trigger(true));
  EXPECT_EQ(backend->endpoint_count(), 1u);
  EXPECT_EQ(backend->alive_count(), 0u);
  {
    core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                           options);
    tuner.evaluator().set_backend(backend);
    const core::TuningResult result = tuner.run("cfr");
    EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                              tuner.program()));
  }
  EXPECT_GT(backend->stats().fallback_batches, 0u);

  ServerOptions server_options;
  server_options.listen = address;
  Server server(server_options);
  server.start();
  ASSERT_TRUE(wait_until([&] { return backend->alive_count() == 1; }, 20.0))
      << "the probe never adopted the daemon";
  EXPECT_GE(backend->stats().breaker_recoveries, 1u);

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  tuner.evaluator().set_backend(backend);
  const core::TuningResult result = tuner.run("cfr");
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  EXPECT_GT(server.stats().evaluations, 0u)
      << "the adopted daemon never served an evaluation";
  EXPECT_GE(backend->stats().fallback_recoveries, 1u);
  server.stop();
}

// --- graceful drain ----------------------------------------------------------

TEST(Drain, RefusesNewWorkFinishesInflightAndSaysBye) {
  ServerOptions options = test_server_options();
  options.drain_grace_seconds = 60.0;  // the slow eval must finish
  Server server(options);
  server.start();

  Socket session_a = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(session_a.fd(), cl_hello()));
  std::string payload;
  ASSERT_EQ(read_frame(session_a.fd(), &payload), FrameStatus::kOk);
  ASSERT_EQ(decode_ok(payload).kind, FrameKind::kWelcome);

  // Session B: connected but never greeted - its hello will arrive
  // mid-drain and must be refused fatally.
  Socket session_b = Socket::connect(server.address());

  // Two evals in ONE send: seq 5 is deliberately slow (repetitions
  // scale the engine's work linearly), so it is admitted and still
  // running when the drain starts; seq 6 lands in the session backlog
  // in the same recv, so it is dispatched - and must be refused -
  // only after 5 completes. No sleeps in the protocol path race
  // against the drain.
  core::EvalRequest slow = valid_request();
  slow.repetitions = 500000;  // wire cap is 1e6; ~seconds of work
  const auto wire = [](const std::string& frame) {
    const std::uint32_t length = static_cast<std::uint32_t>(frame.size());
    std::string bytes;
    bytes.push_back(static_cast<char>((length >> 24) & 0xff));
    bytes.push_back(static_cast<char>((length >> 16) & 0xff));
    bytes.push_back(static_cast<char>((length >> 8) & 0xff));
    bytes.push_back(static_cast<char>(length & 0xff));
    bytes += frame;
    return bytes;
  };
  const std::string two_frames =
      wire(eval_frame(5, slow)) + wire(eval_frame(6, valid_request()));
  ASSERT_EQ(::send(session_a.fd(), two_frames.data(), two_frames.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(two_frames.size()));
  // Long enough for a worker to have STARTED serving seq 5; far
  // shorter than the multi-hundred-ms the 2M repetitions take.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  server.request_drain();
  EXPECT_TRUE(server.draining());
  ASSERT_TRUE(write_frame(session_b.fd(), cl_hello()));

  // Session A must see: the seq-5 result (inflight work finishes), a
  // retryable "draining" refusal for seq 6, then bye/EOF.
  bool saw_result = false, saw_draining = false, closed = false;
  const Clock::time_point start = Clock::now();
  while (!closed && seconds_since(start) < 60.0) {
    const FrameStatus status = read_frame(session_a.fd(), &payload,
                                          kDefaultMaxFrameBytes, 30000);
    if (status != FrameStatus::kOk) {
      closed = true;
      break;
    }
    const AnyFrame frame = decode_ok(payload);
    if (frame.kind == FrameKind::kResultBatch) {
      EXPECT_EQ(frame.seq, 5u);
      saw_result = true;
    } else if (frame.kind == FrameKind::kError) {
      if (frame.error.code == "draining") {
        EXPECT_EQ(frame.error.seq, 6u);
        saw_draining = true;
        EXPECT_TRUE(frame.error.retryable)
            << "draining refusals must be retryable (reroutable)";
      }
    } else if (frame.kind == FrameKind::kBye) {
      closed = true;
    }
  }
  EXPECT_TRUE(closed) << "drain never said goodbye";
  EXPECT_TRUE(saw_result) << "inflight work was dropped by the drain";
  EXPECT_TRUE(saw_draining) << "post-drain eval was not refused";

  // Session B's mid-drain hello: refused with a FATAL draining error
  // (there is no point greeting into a dying daemon), then closed.
  bool b_refused = false;
  while (read_frame(session_b.fd(), &payload, kDefaultMaxFrameBytes,
                    30000) == FrameStatus::kOk) {
    const AnyFrame frame = decode_ok(payload);
    if (frame.kind == FrameKind::kError) {
      EXPECT_EQ(frame.error.code, "draining");
      EXPECT_TRUE(frame.error.fatal);
      b_refused = true;
    }
  }
  EXPECT_TRUE(b_refused) << "mid-drain hello was not refused";

  server.wait();  // the drain must terminate the loop on its own
  const Server::Stats stats = server.stats();
  EXPECT_GE(stats.drain_refusals, 1u);
  EXPECT_EQ(stats.evaluations, 1u);
}

TEST(Drain, MidTuneFleetReroutesBitIdentically) {
  ServerOptions base = test_server_options();
  base.max_batch = 4;  // many chunks, so the drain lands mid-run
  FleetServers fleet(3, base);
  core::FuncyTunerOptions options;
  options.samples = 40;
  options.seed = 7;
  const std::string local = tune_json("cfr", options, nullptr);

  core::FuncyTuner tuner(programs::by_name("CL"), machine::broadwell(),
                         options);
  std::shared_ptr<FleetBackend> backend =
      FleetBackend::connect(fleet.addresses, cl_workspace(options));
  const std::string home = backend->home_address();
  std::size_t home_index = fleet.addresses.size();
  for (std::size_t i = 0; i < fleet.addresses.size(); ++i) {
    if (fleet.addresses[i] == home) home_index = i;
  }
  ASSERT_LT(home_index, fleet.addresses.size());
  FleetBackend* raw = backend.get();
  tuner.evaluator().set_backend(std::move(backend));

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    // The home is guaranteed a batch frame: a run's first frame (the
    // one-request O3 baseline, one chunk) is sent by the calling
    // thread, which always works the home endpoint first.
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (fleet.servers[home_index]->stats().batch_frames == 0) {
      if (Clock::now() > deadline) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // SIGTERM-equivalent: the ftuned handler calls exactly this.
    fleet.servers[home_index]->request_drain();
    drained.store(true);
  });
  core::TuningResult result;
  std::string thrown;
  try {
    result = tuner.run("cfr");
  } catch (const std::exception& error) {
    thrown = error.what();
  }
  drainer.join();
  ASSERT_TRUE(thrown.empty())
      << "tuning did not survive the drain: " << thrown;
  ASSERT_TRUE(drained.load()) << "home daemon never served a batch";
  EXPECT_EQ(local, core::tuning_result_json(result, tuner.space(),
                                            tuner.program()));
  // The drained daemon either refused frames with "draining" or closed
  // after its bye; both must have pushed the fleet off the endpoint.
  EXPECT_GE(raw->stats().endpoints_drained, 1u);
}

// --- epoll server edge cases -------------------------------------------------

TEST(Server, NeverHelloConnectionIsReapedGreetedIdleIsNot) {
  ServerOptions options = test_server_options();
  options.read_progress_timeout_seconds = 0.15;
  Server server(options);
  server.start();

  // Greeted and idle with an empty inbox: legal, never reaped.
  Socket greeted = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(greeted.fd(), cl_hello()));
  std::string payload;
  ASSERT_EQ(read_frame(greeted.fd(), &payload), FrameStatus::kOk);

  // Connected, never says hello: a slow-loris suspect on the clock.
  Socket loris = Socket::connect(server.address());
  const FrameStatus status =
      read_frame(loris.fd(), &payload, kDefaultMaxFrameBytes, 10000);
  EXPECT_TRUE(status == FrameStatus::kClosed || status == FrameStatus::kTorn)
      << "never-hello connection was not reaped";
  EXPECT_TRUE(wait_until(
      [&] { return server.stats().loris_kills >= 1; }, 10.0));

  // The greeted session outlived several sweep periods and still works.
  ASSERT_TRUE(write_frame(greeted.fd(), ping_frame(9)));
  ASSERT_EQ(read_frame(greeted.fd(), &payload, kDefaultMaxFrameBytes, 5000),
            FrameStatus::kOk);
  EXPECT_EQ(decode_ok(payload).kind, FrameKind::kPong);
  server.stop();
}

TEST(Server, HelloSplitIntoSingleByteWritesStillGreets) {
  Server server(test_server_options());
  server.start();
  Socket socket = Socket::connect(server.address());
  const std::string payload = cl_hello();
  std::string wire;
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  wire.push_back(static_cast<char>((length >> 24) & 0xff));
  wire.push_back(static_cast<char>((length >> 16) & 0xff));
  wire.push_back(static_cast<char>((length >> 8) & 0xff));
  wire.push_back(static_cast<char>(length & 0xff));
  wire += payload;
  for (char byte : wire) {
    ASSERT_EQ(::send(socket.fd(), &byte, 1, MSG_NOSIGNAL), 1);
  }
  std::string reply;
  ASSERT_EQ(read_frame(socket.fd(), &reply, kDefaultMaxFrameBytes, 10000),
            FrameStatus::kOk);
  EXPECT_EQ(decode_ok(reply).kind, FrameKind::kWelcome);
  server.stop();
}

TEST(Server, HalfOpenPeerIsCollectedAndServiceContinues) {
  Server server(test_server_options());
  server.start();
  Socket half_open = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(half_open.fd(), cl_hello()));
  std::string payload;
  ASSERT_EQ(read_frame(half_open.fd(), &payload), FrameStatus::kOk);
  // Half-open: we will never write again, but keep the fd. The server
  // sees EOF and must collect the session rather than leak it.
  ASSERT_EQ(::shutdown(half_open.fd(), SHUT_WR), 0);
  ASSERT_EQ(read_frame(half_open.fd(), &payload, kDefaultMaxFrameBytes,
                       10000),
            FrameStatus::kClosed);
  // And the server keeps serving new sessions afterwards.
  Socket fresh = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(fresh.fd(), cl_hello()));
  ASSERT_EQ(read_frame(fresh.fd(), &payload, kDefaultMaxFrameBytes, 5000),
            FrameStatus::kOk);
  EXPECT_EQ(decode_ok(payload).kind, FrameKind::kWelcome);
  server.stop();
}

TEST(Server, IdleTimeoutWaitsForAnInflightBatch) {
  ServerOptions options = test_server_options();
  options.idle_timeout_seconds = 0.05;
  Server server(options);
  server.start();
  Socket socket = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(socket.fd(), cl_hello()));
  std::string payload;
  ASSERT_EQ(read_frame(socket.fd(), &payload), FrameStatus::kOk);
  // Disconnect right after submitting a batch: sessions drop to zero
  // with work admitted, the exact race between the idle clock and the
  // worker pool. The server must finish the batch (not abort mid-job)
  // and only then exit on idleness.
  std::vector<core::EvalRequest> batch(200, valid_request());
  std::string batch_frame;
  encode_eval_batch_frame(Framing::kBinary, 3, batch, &batch_frame);
  ASSERT_TRUE(write_frame(socket.fd(), batch_frame));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  socket.close();
  server.wait();
  // The batch was either served to completion or skipped whole once
  // the dead session was noticed - never abandoned halfway by the
  // idle clock.
  const Server::Stats stats = server.stats();
  EXPECT_TRUE(stats.evaluations == batch.size() ||
              stats.cancelled_jobs >= 1)
      << "evaluations=" << stats.evaluations
      << " cancelled_jobs=" << stats.cancelled_jobs;
  EXPECT_FALSE(server.running());
}

TEST(Server, ConnectionCapEvictsTheOldestIdleSession) {
  ServerOptions options = test_server_options();
  options.max_sessions = 2;
  Server server(options);
  server.start();
  std::string payload;

  Socket oldest = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(oldest.fd(), cl_hello()));
  ASSERT_EQ(read_frame(oldest.fd(), &payload), FrameStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Socket newer = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(newer.fd(), cl_hello()));
  ASSERT_EQ(read_frame(newer.fd(), &payload), FrameStatus::kOk);

  // At the cap: the third connection evicts `oldest` (longest idle).
  Socket third = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(third.fd(), cl_hello()));
  ASSERT_EQ(read_frame(third.fd(), &payload, kDefaultMaxFrameBytes, 5000),
            FrameStatus::kOk);
  EXPECT_EQ(decode_ok(payload).kind, FrameKind::kWelcome);
  const FrameStatus evicted =
      read_frame(oldest.fd(), &payload, kDefaultMaxFrameBytes, 10000);
  EXPECT_TRUE(evicted == FrameStatus::kClosed ||
              evicted == FrameStatus::kTorn);
  EXPECT_TRUE(
      wait_until([&] { return server.stats().evictions >= 1; }, 5.0));
  // The surviving newer session still works.
  ASSERT_TRUE(write_frame(newer.fd(), ping_frame(4)));
  ASSERT_EQ(read_frame(newer.fd(), &payload, kDefaultMaxFrameBytes, 5000),
            FrameStatus::kOk);
  EXPECT_EQ(decode_ok(payload).kind, FrameKind::kPong);
  server.stop();
}

TEST(Server, ExpiredRequestDeadlineIsARetryableRefusal) {
  ServerOptions options = test_server_options();
  options.request_deadline_seconds = 1e-9;  // everything is too late
  Server server(options);
  server.start();
  Socket socket = Socket::connect(server.address());
  ASSERT_TRUE(write_frame(socket.fd(), cl_hello()));
  std::string payload;
  ASSERT_EQ(read_frame(socket.fd(), &payload), FrameStatus::kOk);
  ASSERT_TRUE(write_frame(socket.fd(), eval_frame(2, valid_request())));
  ASSERT_EQ(read_frame(socket.fd(), &payload, kDefaultMaxFrameBytes, 5000),
            FrameStatus::kOk);
  const AnyFrame frame = decode_ok(payload);
  ASSERT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.error.code, "deadline");
  EXPECT_TRUE(frame.error.retryable);
  EXPECT_FALSE(frame.error.fatal);
  EXPECT_TRUE(wait_until(
      [&] { return server.stats().deadline_refusals >= 1; }, 5.0));
  server.stop();
}

TEST(Client, KilledDaemonSurfacesAsServiceErrorNotSigpipe) {
  Server server(test_server_options());
  server.start();
  ConnectOptions connect_options;
  connect_options.workspace =
      WorkspaceSpec{"CL", "broadwell", compiler::Personality::kIcc, {}};
  connect_options.transport.io_timeout_seconds = 5.0;
  std::unique_ptr<Client> client = Client::connect(
      Endpoint::parse(server.address().display()), connect_options);
  client->ping();
  server.stop();  // every session torn down under the client
  try {
    for (int i = 0; i < 4; ++i) client->ping();
    FAIL() << "pinging a dead daemon must throw";
  } catch (const ServiceError& error) {
    EXPECT_TRUE(error.code() == "io" || error.code() == "timeout")
        << "unexpected code " << error.code();
  }
}

}  // namespace
}  // namespace ft::service
