// Client-side fleet of ftuned daemons behind one EvalBackend. `ftune
// --remote addr1,addr2,...` shards evaluation batches across N daemons
// by consistent hash of the workspace key, rebalances queued chunks by
// work stealing, health-probes every endpoint with ping/pong, and on a
// probe failure or transport error drains the dead daemon and
// re-dispatches its inflight chunks through the survivors. Because
// every daemon computes the same deterministic raw measurements,
// WHERE a request runs never changes WHAT it returns - fleet output
// is bit-identical to a single daemon and to in-process evaluation,
// including under daemon deaths mid-batch.
//
// Heterogeneous fleets: daemons started with `--archs` advertise the
// architectures they serve in the welcome frame and refuse hellos for
// the rest, so connect() keeps only the endpoints eligible for this
// workspace's arch. make_fleet_backend_factory() gives Campaign a
// per-cell factory, pinning each architecture's cells to the daemons
// that can run them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/evaluator.hpp"
#include "service/client.hpp"

namespace ft::service {

struct FleetOptions {
  /// Transport knobs applied to every per-daemon session.
  ClientOptions client;
  /// Framing preference offered to every daemon. Negotiation is
  /// per-endpoint: a mixed fleet where one daemon lacks binary-crc32
  /// simply downgrades that one session to plain binary, the rest of
  /// the fleet keeps the trailer, and the answers are bit-identical
  /// either way.
  std::vector<Framing> framings = {Framing::kBinary};
  /// Health probe period. Endpoints idle for a full period get a
  /// ping; a failed probe drains the endpoint. <= 0 disables probing
  /// (transport errors during dispatch still drain).
  double probe_interval_seconds = 2.0;
  /// A chunk bounced by `overloaded` give-ups or endpoint deaths is
  /// re-dispatched at most this many times before the batch fails.
  int max_chunk_redispatch = 8;
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

/// EvalBackend over N daemon sessions. Thread-safe like the single
/// RemoteBackend (each endpoint's Client serializes its own wire).
class FleetBackend final : public core::EvalBackend {
 public:
  /// Everything the tests (and curious operators) may want to assert
  /// about scheduling. Monotonic over the backend's lifetime.
  struct Stats {
    std::size_t batches_dispatched = 0;  ///< run_many() calls
    std::size_t chunks_stolen = 0;       ///< chunk ran off its home queue
    std::size_t redispatches = 0;        ///< chunk re-queued after a death
    std::size_t probe_failures = 0;      ///< pings that found a dead daemon
    std::size_t endpoints_drained = 0;   ///< endpoints declared dead
    std::size_t breaker_opens = 0;       ///< open spells entered
    std::size_t breaker_recoveries = 0;  ///< half-open probes that healed
  };

  /// Connects and handshakes every address for one workspace
  /// (program, arch, options, personality). Endpoints that refuse the
  /// arch (`unsupported_architecture` / `unknown_architecture`) are
  /// skipped - that is the heterogeneous-fleet filter - as are
  /// endpoints that are down; any OTHER refusal (bad options, version
  /// skew) rethrows. Throws ServiceError("fleet") when no endpoint
  /// can serve the workspace.
  [[nodiscard]] static std::unique_ptr<FleetBackend> connect(
      const std::vector<std::string>& addresses, const std::string& program,
      const std::string& arch, const core::FuncyTunerOptions& options,
      compiler::Personality personality = compiler::Personality::kIcc,
      const FleetOptions& fleet_options = {});

  ~FleetBackend() override;
  FleetBackend(const FleetBackend&) = delete;
  FleetBackend& operator=(const FleetBackend&) = delete;

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
  /// Endpoints not yet drained.
  [[nodiscard]] std::size_t alive_count() const noexcept;
  /// The consistent-hash home for this workspace: where all chunks go
  /// first while the fleet is healthy. Stable across runs.
  [[nodiscard]] const std::string& home_address() const noexcept;
  [[nodiscard]] Stats stats() const;

 private:
  struct Endpoint {
    std::string address;
    ::ft::service::Endpoint dial;  ///< parsed once, for reconnects
    /// The live wire. Replaced wholesale by a successful half-open
    /// reconnect; every user takes a shared_ptr SNAPSHOT under
    /// wire_mutex and works on that, so a reconnect can never pull a
    /// session out from under a dispatching thread.
    std::shared_ptr<Client> client;
    std::mutex wire_mutex;  ///< guards replacement of `client`
    std::atomic<bool> alive{true};
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

  /// Successor of the workspace-key hash on the endpoint ring.
  [[nodiscard]] std::size_t ring_successor(std::uint64_t key_hash) const;
  /// First alive endpoint at or after `start` in ring order; -1 when
  /// the whole fleet is dead.
  [[nodiscard]] int next_alive(std::size_t start) const;
  /// Snapshot of the endpoint's current wire (see Endpoint::client).
  [[nodiscard]] std::shared_ptr<Client> client_for(std::size_t index);
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
  /// Ring positions: (hash, endpoint index), sorted by hash. Virtual
  /// replica nodes smooth the shard distribution.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
  std::size_t home_ = 0;  ///< ring_successor(workspace hash)
  FleetOptions options_;

  std::thread probe_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

/// Adapts a fleet to Campaign: returns a CampaignOptions::backend_factory
/// that connects a FleetBackend per cell (per program x architecture,
/// with that cell's effective options), so heterogeneous fleets route
/// each architecture's cells to the daemons advertising it.
[[nodiscard]] std::function<std::shared_ptr<core::EvalBackend>(
    const ir::Program&, const machine::Architecture&,
    const core::FuncyTunerOptions&)>
make_fleet_backend_factory(
    std::vector<std::string> addresses, FleetOptions options = {},
    compiler::Personality personality = compiler::Personality::kIcc);

}  // namespace ft::service
