// service_throughput - load generator for the ftuned daemon.
//
// Measures sustained evaluation throughput (evals/sec) and per-frame
// round-trip latency percentiles for N concurrent clients hammering
// one daemon with cache-hot eval_batch frames. "Cache-hot" isolates
// the SERVICE cost - framing, negotiation, event loop, worker
// hand-off - from the (deliberately deterministic but expensive)
// measurement model: with a daemon-side result cache, every request
// after warmup is a replay, so the wire and the loop are the
// bottleneck being measured.
//
// Run it under both framings to measure what the negotiated CRC-32
// trailer costs over plain binary (the "crc32 share" line):
//   service_throughput --clients 8 --batch 16 --seconds 2 --framing both
// Numbers for this machine live in BENCH_service_throughput.json
// (regenerate with --json).
//
// --connect tcp:host:port targets an already-running ftuned instead
// of the in-process daemon (the CI throughput-smoke job does this to
// exercise the real binary end to end).
//
// --check-allocs additionally asserts the steady-state claim behind
// FrameBuffer: after warmup, a ping round-trip performs ZERO
// client-side heap allocations under every framing (the reusable
// read/write buffers have reached their high-water capacity).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "compiler/compiler.hpp"
#include "core/funcy_tuner.hpp"
#include "flags/flag_space.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "service/client.hpp"
#include "service/connect.hpp"
#include "service/server.hpp"
#include "support/options.hpp"

namespace {

// Program-wide allocation counter for --check-allocs. Thread-local so
// one client thread can observe its OWN hot loop without seeing the
// daemon's worker threads (which share this process when the server
// runs in-process).
thread_local std::size_t g_thread_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ft::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  double evals_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t frames = 0;
  std::size_t evaluations = 0;
  double seconds = 0.0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double index = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(index)];
}

core::EvalRequest hot_request() {
  core::EvalRequest request;
  const flags::FlagSpace space = flags::icc_space();
  request.assignment = compiler::ModuleAssignment::uniform(
      space.default_cv(), programs::by_name("CL").loops().size());
  return request;
}

struct BenchSetup {
  std::string address;
  std::string program = "CL";
  std::string arch = "broadwell";
  core::FuncyTunerOptions options;
  service::Framing framing = service::Framing::kBinary;
  std::size_t clients = 8;
  std::size_t batch = 16;
  double seconds = 2.0;
  bool check_allocs = false;
};

std::shared_ptr<service::Client> dial(const BenchSetup& setup) {
  service::ConnectOptions connect_options;
  connect_options.workspace = service::WorkspaceSpec{
      setup.program, setup.arch, compiler::Personality::kIcc,
      setup.options};
  connect_options.framings = {setup.framing};
  return service::Client::connect(
      service::Endpoint::parse(setup.address), connect_options);
}

/// After warmup every buffer in the client has reached its high-water
/// capacity; a further ping round-trip must not allocate.
void assert_zero_alloc_pings(const BenchSetup& setup) {
  const std::shared_ptr<service::Client> client = dial(setup);
  for (int i = 0; i < 64; ++i) client->ping();  // warmup
  const std::size_t before = g_thread_allocs;
  for (int i = 0; i < 256; ++i) client->ping();
  const std::size_t allocated = g_thread_allocs - before;
  if (allocated != 0) {
    std::cerr << "service_throughput: FrameBuffer steady-state "
                 "violated: "
              << allocated << " allocations across 256 "
              << service::framing_name(setup.framing)
              << " ping round-trips\n";
    std::exit(1);
  }
  std::cout << "zero-alloc check passed: 256 "
            << service::framing_name(setup.framing)
            << " pings, 0 client-side allocations\n";
}

RunResult run_load(const BenchSetup& setup) {
  const core::EvalRequest request = hot_request();
  std::atomic<std::size_t> evaluations{0};
  std::atomic<std::size_t> frames{0};
  std::atomic<bool> go{false}, halt{false};
  std::vector<std::vector<double>> latencies(setup.clients);
  std::vector<std::thread> threads;
  threads.reserve(setup.clients);
  for (std::size_t t = 0; t < setup.clients; ++t) {
    threads.emplace_back([&, t] {
      const std::shared_ptr<service::Client> client = dial(setup);
      const std::vector<core::EvalRequest> batch(setup.batch, request);
      // Warmup: populate the daemon-side cache, grow every buffer to
      // its high-water mark, fault in the code paths.
      for (int i = 0; i < 4; ++i) (void)client->call_many(batch);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (!halt.load(std::memory_order_acquire)) {
        const Clock::time_point start = Clock::now();
        const std::vector<core::EvalResponse> responses =
            client->call_many(batch);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count();
        latencies[t].push_back(ms);
        frames.fetch_add(1, std::memory_order_relaxed);
        evaluations.fetch_add(responses.size(),
                              std::memory_order_relaxed);
      }
    });
  }

  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(setup.seconds));
  halt.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  for (const std::vector<double>& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  RunResult result;
  result.seconds = elapsed;
  result.frames = frames.load();
  result.evaluations = evaluations.load();
  result.evals_per_sec = static_cast<double>(result.evaluations) / elapsed;
  result.p50_ms = percentile(all, 0.50);
  result.p95_ms = percentile(all, 0.95);
  result.p99_ms = percentile(all, 0.99);
  return result;
}

void append_json(std::ostringstream& out, const std::string& framing,
                 const BenchSetup& setup, const RunResult& result) {
  out << "    {\"framing\": \"" << framing
      << "\", \"clients\": " << setup.clients
      << ", \"batch\": " << setup.batch
      << ", \"seconds\": " << result.seconds
      << ", \"frames\": " << result.frames
      << ", \"evaluations\": " << result.evaluations
      << ", \"evals_per_sec\": " << result.evals_per_sec
      << ", \"p50_ms\": " << result.p50_ms
      << ", \"p95_ms\": " << result.p95_ms
      << ", \"p99_ms\": " << result.p99_ms << "}";
}

void print_result(const std::string& framing, const RunResult& result) {
  std::cout << framing << ": " << static_cast<std::size_t>(
                   result.evals_per_sec)
            << " evals/sec (" << result.frames << " frames, "
            << result.evaluations << " evaluations in "
            << result.seconds << " s), latency p50 " << result.p50_ms
            << " ms, p95 " << result.p95_ms << " ms, p99 "
            << result.p99_ms << " ms\n";
}

/// --framing: `both`, or exactly one framing name.
std::vector<service::Framing> framings_from(const std::string& arg) {
  if (arg == "both") {
    return {service::Framing::kBinary, service::Framing::kBinaryCrc};
  }
  std::vector<service::Framing> framings = service::parse_framings(arg);
  if (framings.size() != 1) {
    throw std::invalid_argument("expected binary, binary-crc32 or both");
  }
  return framings;
}

int run(int argc, char** argv) {
  support::OptionSet set;
  set.integer("clients", 8, "concurrent client sessions")
      .integer("batch", 16, "requests per eval_batch frame")
      .real("seconds", 2.0, "timed window per framing")
      .text("framing", "both", "binary, binary-crc32, or both",
            support::accepted_by(framings_from))
      .text("program", "CL", "benchmark the workspace serves",
            support::accepted_by(programs::by_name))
      .text("arch", "broadwell", "architecture the workspace serves",
            support::accepted_by(machine::architecture_by_name))
      .text("json", "", "append machine-readable results to this file")
      .text("connect", "",
            "target an already-running ftuned at this address instead "
            "of an in-process daemon")
      .flag("check-allocs", false,
            "assert zero client-side allocations per steady-state "
            "ping round-trip")
      .flag("help", false, "print this help");
  const support::OptionSet::Parsed parsed =
      set.parse_or_exit(argc - 1, argv + 1, argv[0]);

  BenchSetup setup;
  setup.clients = static_cast<std::size_t>(parsed.integer("clients"));
  setup.batch = static_cast<std::size_t>(parsed.integer("batch"));
  setup.seconds = parsed.real("seconds");
  setup.program = parsed.text("program");
  setup.arch = parsed.text("arch");
  setup.check_allocs = parsed.flag("check-allocs");

  const std::vector<service::Framing> framings =
      framings_from(parsed.text("framing"));

  // The in-process daemon is sized so that the service layer - not
  // admission control or the measurement model - is the bottleneck:
  // an effectively unbounded inflight window and a result cache big
  // enough that after warmup every request is a replay.
  std::unique_ptr<service::Server> server;
  if (parsed.text("connect").empty()) {
    service::ServerOptions server_options;
    server_options.listen = "tcp:127.0.0.1:0";
    server_options.cache_entries = 1u << 20;
    server_options.max_inflight = 1u << 20;
    server_options.max_batch = 4096;
    server = std::make_unique<service::Server>(server_options);
    server->start();
    setup.address = server->address().display();
  } else {
    setup.address = parsed.text("connect");
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"service_throughput\",\n  \"runs\": [\n";
  std::vector<double> evals_per_sec;
  for (const service::Framing framing : framings) {
    setup.framing = framing;
    const RunResult result = run_load(setup);
    print_result(service::framing_name(framing), result);
    if (!evals_per_sec.empty()) json << ",\n";
    evals_per_sec.push_back(result.evals_per_sec);
    append_json(json, service::framing_name(framing), setup, result);
    if (setup.check_allocs) assert_zero_alloc_pings(setup);
  }
  json << "\n  ]";
  if (evals_per_sec.size() == 2 && evals_per_sec[0] > 0) {
    // The throughput binary-crc32 gives up relative to plain binary.
    const double crc_share = 1.0 - evals_per_sec[1] / evals_per_sec[0];
    std::cout << "crc32 share: " << crc_share * 100 << "%\n";
    json << ",\n  \"crc32_share\": " << crc_share;
  }
  json << "\n}\n";

  const std::string json_path = parsed.text("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "wrote " << json_path << '\n';
  }

  if (server != nullptr) server->stop();
  return 0;
}

}  // namespace
}  // namespace ft::bench

int main(int argc, char** argv) { return ft::bench::run(argc, argv); }
