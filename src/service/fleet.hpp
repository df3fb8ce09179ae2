// The one backend `--remote` attaches: a list of ftuned daemons (one
// address or many) behind one EvalBackend. Every call walks a
// degradation ladder until a rung answers:
//   1. the workspace's home daemon (rendezvous hash of the workspace
//      fingerprint), with queued chunks rebalanced by work stealing;
//   2. the surviving daemons: a dead daemon is drained and its
//      inflight chunks are re-dispatched through the others;
//   3. with FleetOptions::fallback_local, the in-process engine built
//      by make_workspace_tuner - the function ftuned builds its own
//      workspaces with.
// Every rung computes the same deterministic raw measurements, so
// WHERE a request runs never changes WHAT it returns: fleet output is
// bit-identical to a single daemon and to in-process evaluation,
// including under daemon deaths mid-batch. All resilience bookkeeping
// (retries, faults, caching, journaling) lives in the Evaluator above
// this backend, so locally served evaluations are journaled like any
// others.
//
// Each endpoint has a circuit breaker. Transport failures open it; a
// probe thread pings idle endpoints and, once an open breaker's
// backoff has elapsed, re-dials (half-open) and re-adopts a daemon
// that answers. An endpoint that is down at connect starts with an
// open breaker, so a daemon started later still joins the fleet. The
// fallback is per call, never sticky: every call tries the daemons
// first, so a recovered fleet resumes service on its own.
//
// Heterogeneous fleets: daemons started with `--archs` advertise the
// architectures they serve in the welcome frame and refuse hellos for
// the rest, so connect() excludes the endpoints that cannot serve this
// workspace's arch. make_fleet_backend_factory() gives Campaign a
// per-cell factory, pinning each architecture's cells to the daemons
// that can run them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "ir/program.hpp"
#include "machine/architecture.hpp"
#include "service/client.hpp"

namespace ft::service {

struct FleetOptions {
  /// The ladder's last rung (`--fallback-local`): when no daemon can
  /// serve a call - every endpoint down or draining, none serving the
  /// arch - evaluate it in-process instead of throwing.
  bool fallback_local = false;
  /// Health probe period. Endpoints idle for a full period get a
  /// ping; a failed probe drains the endpoint. <= 0 disables probing
  /// (transport errors during dispatch still drain) and with it the
  /// half-open re-adoption of dead endpoints.
  double probe_interval_seconds = 2.0;
  /// Circuit breaker: this many CONSECUTIVE transport failures open
  /// the breaker; below it, a dead endpoint is retried on the next
  /// probe tick (a single torn connection is not an outage).
  int breaker_failure_threshold = 3;
  /// First open spell lasts this long; each further spell doubles it
  /// (plus deterministic per-endpoint jitter) up to the max. A
  /// successful half-open probe resets the spell count.
  double breaker_reopen_base_seconds = 0.5;
  double breaker_reopen_max_seconds = 30.0;
};

/// EvalBackend over N daemon sessions (each a RemoteBackend) plus the
/// optional local engine. Thread-safe: each endpoint's Client
/// serializes its own wire, and local runs are serialized.
class FleetBackend final : public core::EvalBackend {
 public:
  /// Everything the tests (and curious operators) may want to assert
  /// about scheduling and degradation. Monotonic over the backend's
  /// lifetime.
  struct Stats {
    /// run() and run_many() calls: a run() is a batch of one.
    std::size_t batches_dispatched = 0;
    /// Threads a batch spawned beside its calling thread, which works
    /// the home endpoint itself: 0 for a run() or a one-chunk batch.
    std::size_t helper_threads = 0;
    std::size_t chunks_stolen = 0;       ///< chunk ran off its home queue
    std::size_t redispatches = 0;        ///< chunk re-queued after a death
    std::size_t probe_failures = 0;      ///< pings that found a dead daemon
    std::size_t endpoints_drained = 0;   ///< endpoints declared dead
    std::size_t breaker_opens = 0;       ///< open spells entered
    std::size_t breaker_recoveries = 0;  ///< half-open probes that healed
    /// Batches served locally; a local run() counts as a batch of one.
    std::size_t fallback_batches = 0;
    std::size_t fallback_evals = 0;      ///< evals inside those batches
    std::size_t fallback_recoveries = 0;  ///< daemons served after a fallback
  };

  /// Connects and handshakes every address for `options.workspace`.
  /// Endpoints that refuse the arch (`unsupported_architecture` /
  /// `unknown_architecture`) are excluded - that is the
  /// heterogeneous-fleet filter. Endpoints that are down or draining
  /// stay in the fleet behind an open breaker. Any other refusal (bad
  /// options, version skew, a bad address) rethrows. Throws
  /// ServiceError("fleet") when no endpoint can serve the workspace
  /// right now, unless `fleet_options.fallback_local` is set.
  [[nodiscard]] static std::unique_ptr<FleetBackend> connect(
      const std::vector<std::string>& addresses,
      const ConnectOptions& options, const FleetOptions& fleet_options = {});

  ~FleetBackend() override;
  FleetBackend(const FleetBackend&) = delete;
  FleetBackend& operator=(const FleetBackend&) = delete;

  /// run_many() of one request: the same ladder, and no extra thread.
  [[nodiscard]] RawResult run(const compiler::ModuleAssignment& assignment,
                              const machine::RunOptions& options) override;
  [[nodiscard]] std::vector<RawResult> run_many(
      std::span<const core::EvalRequest> requests) override;
  [[nodiscard]] bool batches_remotely() const noexcept override {
    return true;
  }

  /// Endpoints that survived the connect-time arch filter.
  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return endpoints_.size();
  }
  /// Endpoints currently connected (not drained, breaker closed).
  [[nodiscard]] std::size_t alive_count() const noexcept;
  /// The rendezvous-hash home for this workspace: where all chunks go
  /// first while it is alive. Stable across runs, and the same for
  /// every option set with the same workspace_fingerprint. Empty when
  /// no endpoint serves the arch.
  [[nodiscard]] const std::string& home_address() const noexcept;
  [[nodiscard]] Stats stats() const;

 private:
  struct Endpoint {
    std::string address;
    ::ft::service::Endpoint dial;  ///< parsed once, for reconnects
    /// The live wire; null until the first successful dial. Replaced
    /// wholesale by a successful half-open reconnect; every user takes
    /// a shared_ptr SNAPSHOT under wire_mutex and works on that, so a
    /// reconnect can never pull a session out from under a
    /// dispatching thread.
    std::shared_ptr<RemoteBackend> wire;
    std::mutex wire_mutex;  ///< guards replacement of `wire`
    std::atomic<bool> alive{false};
    /// Chunks currently being served by this endpoint's wire.
    std::atomic<std::size_t> inflight{0};
    // --- circuit breaker (guarded by breaker_mutex) ---
    std::mutex breaker_mutex;
    int consecutive_failures = 0;
    int open_spells = 0;      ///< consecutive failed reopen attempts
    double reopen_at = 0.0;   ///< monotonic seconds; 0 = retry now
    std::uint64_t jitter_state = 0;  ///< per-endpoint backoff jitter
  };

  FleetBackend() = default;

  /// Rungs 1 and 2: the daemons. The calling thread serves the home
  /// endpoint; helper threads join only for a batch of several chunks.
  /// Throws ServiceError("fleet") when no endpoint is left to serve it.
  [[nodiscard]] std::vector<RawResult> run_many_on_daemons(
      std::span<const core::EvalRequest> requests);
  /// Rung 3 bookkeeping: true when `error` may be absorbed locally.
  [[nodiscard]] bool falls_back(const ServiceError& error) const noexcept;
  /// Counts a fallback recovery when the previous call was local.
  void note_daemons_served();
  /// Lazily builds the local engine (the first fallback pays the
  /// construction cost; healthy runs never do). Caller holds
  /// local_mutex_.
  core::Evaluator& local_locked();

  /// First alive endpoint at or after `start` in index order
  /// (wrapping); -1 when the whole fleet is dead.
  [[nodiscard]] int next_alive(std::size_t start) const;
  /// Snapshot of the endpoint's current wire (see Endpoint::wire).
  [[nodiscard]] std::shared_ptr<RemoteBackend> wire_for(std::size_t index);
  void drain(std::size_t index);
  /// Breaker bookkeeping for one transport failure: deactivates the
  /// endpoint and, at the failure threshold, opens the breaker
  /// (exponential reopen backoff with deterministic jitter).
  void note_transport_failure(std::size_t index);
  /// Starts the next open spell: sets reopen_at after an exponential,
  /// jittered backoff. Caller holds endpoint.breaker_mutex.
  void open_spell_locked(Endpoint& endpoint);
  /// Resets the consecutive-failure count after served traffic.
  void note_success(std::size_t index);
  /// One probe pass: ping alive+idle endpoints, half-open reconnect
  /// dead ones whose breaker backoff has elapsed.
  void probe_pass();
  void probe_loop();

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  ConnectOptions connect_options_;  ///< for half-open reconnects
  std::size_t home_ = 0;  ///< rendezvous home of the workspace
  FleetOptions options_;

  std::thread probe_thread_;
  std::mutex probe_mutex_;  ///< guards stopping_
  std::condition_variable probe_wake_;
  bool stopping_ = false;

  mutable std::mutex stats_mutex_;
  Stats stats_;

  std::mutex local_mutex_;  ///< guards local_ and serializes local runs
  std::unique_ptr<core::FuncyTuner> local_;
  std::atomic<bool> degraded_last_call_{false};
};

/// What Campaign's backend_factory and every `--remote` user call: per
/// (program, arch, options) it connects a FleetBackend over
/// `addresses` with `options.workspace` set to that program, arch and
/// options (its personality is kept). Heterogeneous fleets thereby
/// route each architecture's cells to the daemons advertising it.
using FleetFactory = std::function<std::shared_ptr<FleetBackend>(
    const ir::Program&, const machine::Architecture&,
    const core::FuncyTunerOptions&)>;
[[nodiscard]] FleetFactory make_fleet_backend_factory(
    std::vector<std::string> addresses, ConnectOptions options,
    FleetOptions fleet_options);

/// A comma-separated `--remote` list as fleet addresses: fields are
/// trimmed and empty ones dropped (so a trailing comma is harmless).
[[nodiscard]] std::vector<std::string> parse_address_list(
    const std::string& list);

}  // namespace ft::service
