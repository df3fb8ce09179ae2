// ftuned - the FuncyTuner evaluation daemon.
//
// Serves raw compile+link+run measurements over a framed binary RPC
// socket (see src/service/): any `ftune --remote ADDR` run, campaign
// or bench tool can offload its evaluations here. One daemon holds a
// workspace (execution engine + compiled-module cache) per distinct
// (program, architecture, personality, measurement options) hello, so
// concurrent clients tuning the same cell share compiled state.
//
// Results are bit-identical to in-process evaluation: the daemon only
// executes the deterministic raw measurement; every piece of tuning
// bookkeeping (retries, fault decisions, quarantine, journal, client
// cache) stays in the caller's Evaluator.
//
// Typical use:
//   ftuned --listen unix:/tmp/ftuned.sock --idle-timeout 60 &
//   ftune tune --program CL --remote unix:/tmp/ftuned.sock
// The daemon exits on its own once idle for --idle-timeout seconds
// (0 = run until killed).

#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "service/server.hpp"
#include "support/options.hpp"
#include "support/parse_number.hpp"
#include "support/string_utils.hpp"

namespace {

/// The serving daemon, for the SIGTERM handler. Written once, before
/// signals are installed.
ft::service::Server* g_server = nullptr;

/// SIGTERM/SIGINT = graceful drain: finish inflight work, refuse new
/// frames with retryable "draining", bye every session, exit.
/// request_drain() is async-signal-safe (atomic store + eventfd
/// write). A second signal while draining force-stops via _exit.
void drain_handler(int) {
  if (g_server == nullptr) return;
  if (g_server->draining()) _exit(1);  // impatient operator
  g_server->request_drain();
}

void install_drain_handler() {
  struct sigaction action{};
  action.sa_handler = drain_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  (void)::sigaction(SIGTERM, &action, nullptr);
  (void)::sigaction(SIGINT, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ft;
  support::OptionSet options;
  options
      .text("listen", "unix:/tmp/ftuned.sock",
            "bind address: unix:PATH or tcp:host:port (port 0 = "
            "ephemeral)")
      .real("idle-timeout", 0.0,
            "exit after this many seconds with no sessions (0 = never)")
      .integer("max-inflight", 4096,
               "admitted-but-unfinished evaluations before refusing "
               "with `overloaded`")
      .integer("max-batch", 1024,
               "requests accepted per eval_batch frame")
      .integer("cache-size", 0,
               "daemon-side raw-result cache entries per workspace "
               "(0 = off)")
      .text("eval-cache-dir", "",
            "directory for the persistent disk cache tier shared with "
            "other ftuned/ftune processes (implies per-workspace "
            "memory tiers)")
      .text("eval-cache-disk-size", "",
            "size budget for --eval-cache-dir, bytes with optional "
            "K/M/G suffix (default 256M)")
      .integer("max-frame-bytes",
               static_cast<std::int64_t>(service::kDefaultMaxFrameBytes),
               "largest accepted wire frame")
      .integer("threads", 0,
               "evaluation pool size (sets FT_THREADS; 0 = auto)")
      .text("archs", "",
            "comma-separated architectures this daemon serves "
            "(advertised in welcome; others refused; empty = all)")
      .text("framing", "binary,binary-crc32",
            "comma-separated framings accepted in negotiation (binary "
            "is always kept as the baseline)")
      .real("drain-grace", 10.0,
            "seconds inflight work may finish after SIGTERM before the "
            "daemon force-exits")
      .real("request-deadline", 0.0,
            "refuse (retryably) requests that waited longer than this "
            "in the worker queue (0 = off)")
      .real("read-progress-timeout", 30.0,
            "destroy connections owing bytes (no hello / partial "
            "frame) with no read progress for this long (0 = off)")
      .integer("max-sessions", 0,
               "connection cap; at the cap the oldest-idle session is "
               "evicted for a newcomer (0 = unlimited)")
      .integer("chaos-seed", 0,
               "seeded transport fault injection on the serve path "
               "(0 = off); equivalent to FT_CHAOS_SEED")
      .text("chaos", "",
            "chaos spec `torn-write=P,reset=P,overload=P,...` "
            "(empty = the default profile; see FT_CHAOS)")
      .flag("help", false, "print this help");

  const support::OptionSet::Parsed parsed =
      options.parse_or_exit(argc - 1, argv + 1, "ftuned");
  if (parsed.given("threads")) {
    // Must precede the first global_pool() use; the pool reads
    // FT_THREADS once, at construction.
    setenv("FT_THREADS", std::to_string(parsed.integer("threads")).c_str(),
           /*overwrite=*/1);
  }

  service::ServerOptions server_options;
  server_options.listen = parsed.text("listen");
  server_options.idle_timeout_seconds = parsed.real("idle-timeout");
  server_options.max_inflight =
      static_cast<std::size_t>(parsed.integer("max-inflight"));
  server_options.max_batch =
      static_cast<std::size_t>(parsed.integer("max-batch"));
  server_options.cache_entries =
      static_cast<std::size_t>(parsed.integer("cache-size"));
  server_options.cache_dir = parsed.text("eval-cache-dir");
  if (const std::string& size = parsed.text("eval-cache-disk-size");
      !size.empty()) {
    std::uint64_t bytes = 0;
    if (!support::parse_byte_size(size, &bytes)) {
      std::cerr << "ftuned: bad --eval-cache-disk-size '" << size
                << "'\n";
      return 1;
    }
    server_options.cache_disk_bytes = static_cast<std::size_t>(bytes);
  }
  server_options.max_frame_bytes =
      static_cast<std::size_t>(parsed.integer("max-frame-bytes"));
  for (const std::string& arch :
       support::split(parsed.text("archs"), ',')) {
    if (!arch.empty()) server_options.archs.push_back(arch);
  }
  server_options.framings.clear();  // Server re-adds the binary baseline
  for (const std::string& name :
       support::split(parsed.text("framing"), ',')) {
    if (name.empty()) continue;
    service::Framing framing;
    if (!service::framing_from_name(name, &framing)) {
      std::cerr << "ftuned: unknown framing '" << name
                << "' (expected binary or binary-crc32)\n";
      return 1;
    }
    server_options.framings.push_back(framing);
  }
  server_options.drain_grace_seconds = parsed.real("drain-grace");
  server_options.request_deadline_seconds =
      parsed.real("request-deadline");
  server_options.read_progress_timeout_seconds =
      parsed.real("read-progress-timeout");
  server_options.max_sessions =
      static_cast<std::size_t>(parsed.integer("max-sessions"));
  if (parsed.given("chaos-seed") || parsed.given("chaos")) {
    try {
      server_options.chaos = service::chaos::ChaosConfig::parse(
          static_cast<std::uint64_t>(parsed.integer("chaos-seed")),
          parsed.text("chaos"));
    } catch (const std::exception& error) {
      std::cerr << "ftuned: " << error.what() << '\n';
      return 1;
    }
  }

  try {
    service::Server server(server_options);
    server.start();
    g_server = &server;
    install_drain_handler();
    std::ostringstream idle;
    if (server_options.idle_timeout_seconds > 0) {
      idle << " (idle timeout " << server_options.idle_timeout_seconds
           << " s)";
    }
    std::cout << "ftuned listening on " << server.address().display()
              << idle.str() << std::endl;
    server.wait();
    g_server = nullptr;
    const service::Server::Stats stats = server.stats();
    std::cout << "ftuned exiting: " << stats.sessions_accepted
              << " sessions, " << stats.frames_served << " frames, "
              << stats.evaluations << " evaluations ("
              << stats.cache_hits << " cache hits, " << stats.overloads
              << " overload refusals, " << stats.drain_refusals
              << " drain refusals)\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "ftuned: " << error.what() << '\n';
    return 1;
  }
}
