// chaos_soak - end-to-end proof of the bit-identity-under-chaos
// contract.
//
// Runs N campaign cells twice: first clean and in-process (the ground
// truth), then against a 3-daemon ftuned fleet where EVERYTHING is
// hostile - seeded transport chaos on both sides of every wire (torn
// writes, delayed reads, mid-frame resets, EINTR storms, stalls,
// spurious overload refusals, failed dials), a killer thread that
// SIGKILLs a random daemon on a period and restarts it, circuit
// breakers opening and half-open probes healing them, and
// local-fallback absorbing whatever the fleet cannot serve. The per-
// cell tuning-result JSON must come back BYTE-IDENTICAL to the clean
// run; any divergence is a correctness bug in the service layer, and
// the tool exits nonzero.
//
// It also records the evals/sec cost of all that adversity (clean vs
// chaos throughput) so the resilience machinery's overhead is a
// tracked number, not a vibe:
//   chaos_soak --cells 200 --seed 42 --json BENCH_chaos_soak.json
//
// Every wait is deadline-bounded: frame I/O by --io-timeout, daemon
// readiness and shutdown by explicit deadlines, SIGKILL'd children
// reaped immediately. The soak can fail; it cannot hang.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/funcy_tuner.hpp"
#include "core/serialization.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "service/fleet.hpp"
#include "support/options.hpp"
#include "support/string_utils.hpp"

namespace {

using namespace ft;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One (program, arch, seed) grid point plus its ground-truth JSON.
struct Cell {
  std::string program;
  std::string arch;
  core::FuncyTunerOptions options;
  std::string clean_json;
  std::size_t evaluations = 0;
};

struct Daemon {
  std::string address;  ///< unix:PATH spec
  std::string path;     ///< the socket file itself
  pid_t pid = -1;
};

struct SoakConfig {
  std::string ftuned;
  std::uint64_t seed = 42;
  std::uint64_t chaos_seed = 42;
  std::string chaos_spec;
  double io_timeout = 5.0;
  double kill_period = 1.0;
  std::size_t daemons = 3;
};

/// fork+exec one ftuned with server-side chaos. Child stdout/stderr go
/// to /dev/null - the daemons are scenery, the soak's verdict is the
/// byte comparison.
pid_t spawn_daemon(const SoakConfig& config, const Daemon& daemon,
                   std::size_t index) {
  const std::string chaos_seed =
      std::to_string(config.chaos_seed + 1000 * (index + 1));
  std::vector<std::string> args = {
      config.ftuned,        "--listen",
      daemon.address,       "--idle-timeout",
      "0",                  "--cache-size",
      "4096",               "--read-progress-timeout",
      "5",                  "--chaos-seed",
      chaos_seed};
  if (!config.chaos_spec.empty()) {
    args.push_back("--chaos");
    args.push_back(config.chaos_spec);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "chaos_soak: fork failed\n";
    std::exit(1);
  }
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

/// Blocks until the daemon accepts connections, at most `deadline_s`.
bool wait_ready(const Daemon& daemon, double deadline_s) {
  const Clock::time_point start = Clock::now();
  const service::Address address = service::Address::parse(daemon.address);
  while (seconds_since(start) < deadline_s) {
    try {
      service::Socket probe = service::Socket::connect(address);
      return true;  // dialed; the daemon is serving
    } catch (const service::ServiceError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return false;
}

/// SIGTERM first (exercises the drain path), escalate to SIGKILL when
/// the grace deadline passes. Always reaps.
void stop_daemon(Daemon& daemon, double grace_s) {
  if (daemon.pid <= 0) return;
  ::kill(daemon.pid, SIGTERM);
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < grace_s) {
    if (::waitpid(daemon.pid, nullptr, WNOHANG) == daemon.pid) {
      daemon.pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(daemon.pid, SIGKILL);
  ::waitpid(daemon.pid, nullptr, 0);  // SIGKILL reaps immediately
  daemon.pid = -1;
}

}  // namespace

int main(int argc, char** argv) {
  support::OptionSet options;
  options
      .integer("cells", 200,
               "campaign cells to run (program x arch x seed grid)")
      .integer("seed", 42, "master seed (cell seeds derive from it)")
      .integer("chaos-seed", 42,
               "chaos seed for both wire sides (0 = soak without "
               "transport faults)")
      .text("chaos", "",
            "chaos spec override, e.g. `stall=0,reset=0.05` "
            "(empty = the default profile)",
            support::accepted_by([](const std::string& spec) {
              return service::chaos::ChaosConfig::parse(0, spec);
            }))
      .integer("daemons", 3, "fleet size")
      .real("kill-period", 1.0,
            "SIGKILL a random daemon this often during the chaos "
            "phase (0 = never)")
      .integer("samples", 6, "search iterations per cell (kept small: "
               "the soak measures the service, not the search)")
      .real("io-timeout", 5.0, "client per-frame deadline in seconds")
      .text("ftuned", "", "path to the ftuned binary "
            "(default: next to this binary)")
      .text("json", "", "write the soak report JSON to FILE")
      .flag("help", false, "print this help");

  const support::OptionSet::Parsed args =
      options.parse_or_exit(argc - 1, argv + 1, "chaos_soak");

  SoakConfig config;
  config.seed = static_cast<std::uint64_t>(args.integer("seed"));
  config.chaos_seed =
      static_cast<std::uint64_t>(args.integer("chaos-seed"));
  config.chaos_spec = args.text("chaos");
  config.io_timeout = args.real("io-timeout");
  config.kill_period = args.real("kill-period");
  config.daemons = static_cast<std::size_t>(args.integer("daemons"));
  config.ftuned = args.text("ftuned");
  if (config.ftuned.empty()) {
    const std::string self = argv[0];
    const std::size_t slash = self.find_last_of('/');
    config.ftuned = (slash == std::string::npos
                         ? std::string(".")
                         : self.substr(0, slash)) +
                    "/ftuned";
  }
  if (::access(config.ftuned.c_str(), X_OK) != 0) {
    std::cerr << "chaos_soak: ftuned binary not executable: "
              << config.ftuned << " (use --ftuned)\n";
    return 1;
  }

  const std::size_t cell_count =
      static_cast<std::size_t>(args.integer("cells"));
  const std::vector<ir::Program> suite = programs::suite();
  const std::vector<machine::Architecture> archs =
      machine::all_architectures();

  // ---- phase 1: clean in-process ground truth ---------------------------
  std::vector<Cell> cells(cell_count);
  std::size_t clean_evals = 0;
  const Clock::time_point clean_start = Clock::now();
  for (std::size_t i = 0; i < cell_count; ++i) {
    Cell& cell = cells[i];
    cell.program = suite[i % suite.size()].name();
    cell.arch = archs[(i / suite.size()) % archs.size()].name;
    cell.options.samples =
        static_cast<std::size_t>(args.integer("samples"));
    cell.options.algorithm_options["cfr"] = {"--top-x=2"};
    cell.options.final_reps = 3;
    cell.options.seed = config.seed + i;
    core::FuncyTuner tuner(programs::by_name(cell.program),
                           machine::architecture_by_name(cell.arch),
                           cell.options);
    const core::TuningResult result = tuner.run("cfr");
    cell.clean_json =
        core::tuning_result_json(result, tuner.space(), tuner.program());
    cell.evaluations = result.evaluations;
    clean_evals += result.evaluations;
  }
  const double clean_seconds = seconds_since(clean_start);
  std::cout << "clean: " << cell_count << " cells, " << clean_evals
            << " evals in " << clean_seconds << " s\n";

  // ---- fleet under chaos ------------------------------------------------
  std::vector<Daemon> daemons(config.daemons);
  for (std::size_t i = 0; i < daemons.size(); ++i) {
    daemons[i].path = "/tmp/ftchaos." + std::to_string(::getpid()) + "." +
                      std::to_string(i) + ".sock";
    daemons[i].address = "unix:" + daemons[i].path;
    daemons[i].pid = spawn_daemon(config, daemons[i], i);
    if (!wait_ready(daemons[i], 10.0)) {
      std::cerr << "chaos_soak: daemon " << i << " never came up\n";
      return 1;
    }
  }
  std::vector<std::string> addresses;
  for (const Daemon& daemon : daemons) {
    addresses.push_back(daemon.address);
  }

  // Killer thread: SIGKILL a seeded-random daemon every kill_period,
  // then restart it so the fleet keeps oscillating between degraded
  // and whole. The daemon mutex keeps restarts and teardown apart.
  std::mutex daemon_mutex;
  std::atomic<bool> stop_killer{false};
  std::atomic<std::size_t> kills{0};
  std::uint64_t killer_state = config.seed ^ 0x9e3779b97f4a7c15ull;
  std::thread killer;
  if (config.kill_period > 0) {
    killer = std::thread([&] {
      while (!stop_killer.load(std::memory_order_acquire)) {
        const Clock::time_point slice_start = Clock::now();
        while (seconds_since(slice_start) < config.kill_period) {
          if (stop_killer.load(std::memory_order_acquire)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        const std::size_t victim = static_cast<std::size_t>(
            support::splitmix64(killer_state) % daemons.size());
        {
          std::lock_guard lock(daemon_mutex);
          Daemon& daemon = daemons[victim];
          if (daemon.pid <= 0) continue;
          ::kill(daemon.pid, SIGKILL);
          ::waitpid(daemon.pid, nullptr, 0);
          daemon.pid = spawn_daemon(config, daemon, victim);
        }
        (void)wait_ready(daemons[victim], 10.0);
        kills.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  service::ConnectOptions connect_options;
  connect_options.transport.io_timeout_seconds = config.io_timeout;
  if (config.chaos_seed != 0) {
    connect_options.transport.chaos = service::chaos::ChaosConfig::parse(
        config.chaos_seed, config.chaos_spec);
  }
  service::FleetOptions fleet_options;
  fleet_options.fallback_local = true;
  fleet_options.probe_interval_seconds = 0.2;
  // A hair trigger: cells are short-lived, so waiting for 3
  // consecutive failures would never open a breaker - with threshold 1
  // every kill-induced transport error exercises the full open ->
  // backoff -> half-open -> recover cycle.
  fleet_options.breaker_failure_threshold = 1;
  fleet_options.breaker_reopen_base_seconds = 0.1;
  const service::FleetFactory fleet = service::make_fleet_backend_factory(
      addresses, connect_options, fleet_options);

  std::size_t mismatches = 0;
  std::size_t fallback_evals = 0;
  std::size_t fallback_batches = 0;
  std::size_t breaker_opens = 0;
  std::size_t breaker_recoveries = 0;
  std::size_t redispatches = 0;
  std::string refusal;  ///< a connect refusal the fleet must not absorb
  const Clock::time_point chaos_start = Clock::now();
  for (std::size_t i = 0; i < cell_count; ++i) {
    Cell& cell = cells[i];
    core::FuncyTuner tuner(programs::by_name(cell.program),
                           machine::architecture_by_name(cell.arch),
                           cell.options);
    // Daemons that are down or mid-restart at connect are the fleet's
    // to absorb (open breakers, then local fallback); any other
    // refusal is a fault and fails the soak.
    std::shared_ptr<service::FleetBackend> backend;
    try {
      backend = fleet(tuner.program(), tuner.engine().arch(), cell.options);
    } catch (const service::ServiceError& error) {
      refusal = error.what();
      std::cerr << "chaos_soak: cell " << i << " (" << cell.program << "/"
                << cell.arch << ") refused at connect: " << refusal
                << '\n';
      break;
    }
    tuner.evaluator().set_backend(backend);
    const core::TuningResult result = tuner.run("cfr");
    const std::string chaos_json =
        core::tuning_result_json(result, tuner.space(), tuner.program());
    if (chaos_json != cell.clean_json) {
      ++mismatches;
      std::cerr << "chaos_soak: MISMATCH in cell " << i << " ("
                << cell.program << "/" << cell.arch << ")\n";
    }
    const service::FleetBackend::Stats stats = backend->stats();
    fallback_evals += stats.fallback_evals;
    fallback_batches += stats.fallback_batches;
    breaker_opens += stats.breaker_opens;
    breaker_recoveries += stats.breaker_recoveries;
    redispatches += stats.redispatches;
    if ((i + 1) % 50 == 0) {
      std::cout << "chaos: " << (i + 1) << "/" << cell_count
                << " cells, " << kills.load() << " daemon kills, "
                << mismatches << " mismatches\n";
    }
  }
  const double chaos_seconds = seconds_since(chaos_start);

  if (killer.joinable()) {
    stop_killer.store(true, std::memory_order_release);
    killer.join();
  }
  {
    std::lock_guard lock(daemon_mutex);
    for (Daemon& daemon : daemons) stop_daemon(daemon, 10.0);
  }

  const double clean_eps =
      clean_seconds > 0 ? static_cast<double>(clean_evals) / clean_seconds
                        : 0.0;
  const double chaos_eps =
      chaos_seconds > 0 ? static_cast<double>(clean_evals) / chaos_seconds
                        : 0.0;
  std::cout << "chaos: " << cell_count << " cells in " << chaos_seconds
            << " s (" << kills.load() << " daemon kills, "
            << breaker_opens << " breaker opens, " << breaker_recoveries
            << " recoveries, " << fallback_evals << " fallback evals)\n"
            << "throughput: clean " << clean_eps << " evals/s, chaos "
            << chaos_eps << " evals/s\n"
            << (mismatches == 0 ? "bit-identity HELD across every cell\n"
                                : "bit-identity VIOLATED\n");

  if (!args.text("json").empty()) {
    std::ofstream out(args.text("json"));
    out << "{\n"
        << "  \"bench\": \"chaos_soak\",\n"
        << "  \"description\": \"N campaign cells tuned twice - clean "
           "in-process, then against a "
        << config.daemons
        << "-daemon fleet under seeded transport chaos on both wire "
           "sides plus periodic SIGKILL/restart of a random daemon - "
           "asserting the tuning-result JSON is byte-identical. "
           "Reproduce with: tools/chaos_soak --cells "
        << cell_count << " --seed " << config.seed << " --chaos-seed "
        << config.chaos_seed << "\",\n"
        << "  \"cells\": " << cell_count << ",\n"
        << "  \"daemons\": " << config.daemons << ",\n"
        << "  \"seed\": " << config.seed << ",\n"
        << "  \"chaos_seed\": " << config.chaos_seed << ",\n"
        << "  \"daemon_kills\": " << kills.load() << ",\n"
        << "  \"breaker_opens\": " << breaker_opens << ",\n"
        << "  \"breaker_recoveries\": " << breaker_recoveries << ",\n"
        << "  \"chunk_redispatches\": " << redispatches << ",\n"
        << "  \"fallback_evals\": " << fallback_evals << ",\n"
        << "  \"fallback_batches\": " << fallback_batches << ",\n"
        << "  \"mismatches\": " << mismatches << ",\n"
        << "  \"evaluations\": " << clean_evals << ",\n"
        << "  \"clean_evals_per_sec\": " << clean_eps << ",\n"
        << "  \"chaos_evals_per_sec\": " << chaos_eps << ",\n"
        << "  \"slowdown_under_chaos\": "
        << (chaos_eps > 0 ? clean_eps / chaos_eps : 0.0) << "\n"
        << "}\n";
    std::cout << "wrote " << args.text("json") << '\n';
  }

  if (mismatches != 0 || !refusal.empty()) return 1;
  if (config.kill_period > 0 && kills.load() == 0) {
    std::cerr << "chaos_soak: the killer never fired - run too short "
                 "for --kill-period; raise --cells or lower the "
                 "period\n";
    return 1;
  }
  return 0;
}
