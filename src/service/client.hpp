// Client side of the ftuned evaluation service: a framed-RPC session
// (Client) and the EvalBackend that puts one session on the raw
// measurement path (RemoteBackend). Every raw measurement a tuning run
// needs travels to the daemon (batches as ONE frame) while all
// resilience bookkeeping stays local, so a remote run is bit-identical
// to a plain in-process run, with or without the CRC trailer.
//
// Product code does not attach a RemoteBackend itself: `--remote` is
// always a FleetBackend (service/fleet.hpp), and each fleet endpoint's
// wire is one RemoteBackend. Request building and the "daemon-side raw
// run failed" check therefore live here only.
//
// Transport setup lives in service/connect.hpp (the single dial +
// handshake + negotiation path); Client adds the RPC surface, the
// overload-retry policy, and reusable encode/decode buffers so the
// steady-state hot path allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "service/connect.hpp"
#include "service/framing.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace ft::service {

/// One connected, greeted session. Methods are serialized by an
/// internal mutex (the wire is strictly request -> response), so one
/// Client may back a many-worker Evaluator. Throws ServiceError with
/// the server's error code on refusals; retries "overloaded" refusals
/// itself with a bounded backoff.
class Client {
 public:
  /// Dials and greets `endpoint` through service::connect().
  [[nodiscard]] static std::unique_ptr<Client> connect(
      const Endpoint& endpoint, const ConnectOptions& options);

  ~Client();  // best-effort bye
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One evaluation round-trip.
  [[nodiscard]] core::EvalResponse call(
      const core::EvalRequest& request);
  /// Batched round-trip; result[i] answers requests[i]. Transparently
  /// splits into max_batch()-sized frames.
  [[nodiscard]] std::vector<core::EvalResponse> call_many(
      std::span<const core::EvalRequest> requests);
  /// Liveness probe; throws ServiceError when the daemon is gone.
  void ping();

  /// Tears down the transport from ANY thread: a blocked recv/send in
  /// another thread wakes immediately with a transport error. Used by
  /// the fleet to drain a daemon declared dead by the health probe.
  void abort() noexcept { session_.abort(); }

  [[nodiscard]] std::size_t max_batch() const noexcept {
    return session_.welcome().max_batch;
  }
  [[nodiscard]] const WelcomeFrame& welcome() const noexcept {
    return session_.welcome();
  }
  /// What hello/welcome negotiation settled on for this session.
  [[nodiscard]] Framing framing() const noexcept {
    return session_.framing();
  }

 private:
  Client() = default;
  /// Sends write_buffer_ and decodes the reply into reply_, absorbing
  /// retryable "overloaded" refusals (bounded attempts, exponential
  /// backoff with deterministic jitter). Caller holds mutex_ and has
  /// encoded the outgoing frame into write_buffer_.
  void roundtrip_locked();

  Session session_;
  std::mutex mutex_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t jitter_state_ = 0;
  /// Reused across calls (capacity survives): zero steady-state
  /// allocations on the binary ping path, and no per-frame prefix
  /// temporaries anywhere.
  FrameBuffer write_buffer_;
  FrameBuffer read_buffer_;
  AnyFrame reply_;
};

/// EvalBackend over one Client: substitutes the daemon for the local
/// engine as the raw measurement executor. It is the per-endpoint wire
/// of a FleetBackend. batches_remotely() makes Evaluator::evaluate_batch
/// coalesce all pending raw runs of a batch into one run_many() -> one
/// eval_batch frame. Throws ServiceError("remote_fault") when the
/// daemon answers with a failed raw run.
class RemoteBackend final : public core::EvalBackend {
 public:
  explicit RemoteBackend(std::shared_ptr<Client> client)
      : client_(std::move(client)) {}

  [[nodiscard]] RawResult run(
      const compiler::ModuleAssignment& assignment,
      const machine::RunOptions& options) override;
  [[nodiscard]] std::vector<RawResult> run_many(
      std::span<const core::EvalRequest> requests) override;
  [[nodiscard]] bool batches_remotely() const noexcept override {
    return true;
  }

  [[nodiscard]] const std::shared_ptr<Client>& client() const noexcept {
    return client_;
  }

 private:
  std::shared_ptr<Client> client_;
};

}  // namespace ft::service
