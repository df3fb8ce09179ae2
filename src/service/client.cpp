#include "service/client.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "support/rng.hpp"

namespace ft::service {

std::unique_ptr<Client> Client::connect(const Endpoint& endpoint,
                                        const ConnectOptions& options) {
  auto client = std::unique_ptr<Client>(new Client());
  client->jitter_state_ = support::fnv1a64(endpoint.spec);
  client->session_ = service::connect(endpoint, options);
  return client;
}

Client::~Client() {
  if (session_.valid()) {
    encode_bye_frame(session_.framing(), &write_buffer_.payload);
    (void)write_frame(session_.fd(), write_buffer_.payload, -1,
                      session_.chaos());
  }
}

void Client::roundtrip_locked() {
  const int timeout_ms = session_.io_timeout_ms();
  for (int attempt = 0;; ++attempt) {
    if (!write_frame(session_.fd(), write_buffer_.payload, timeout_ms,
                     session_.chaos())) {
      throw ServiceError("io", "connection to ftuned lost (send)");
    }
    const FrameStatus status =
        read_frame(session_.fd(), read_buffer_, kDefaultMaxFrameBytes,
                   timeout_ms, session_.chaos());
    if (status == FrameStatus::kTimeout) {
      // The stream is mid-frame and unsynchronized: this session is
      // unusable, so tear it down before reporting. "timeout" is a
      // retryable TRANSPORT error - a fleet re-dispatches elsewhere.
      session_.abort();
      throw ServiceError("timeout",
                         "no reply from ftuned within " +
                             std::to_string(timeout_ms) + " ms");
    }
    if (status != FrameStatus::kOk) {
      throw ServiceError("io", "connection to ftuned lost (recv)");
    }
    std::string error;
    const DecodeStatus decoded = decode_frame(
        session_.framing(), read_buffer_.payload, &reply_, &error);
    if (decoded != DecodeStatus::kOk) {
      throw ServiceError("bad_frame",
                         "unparseable reply from ftuned: " + error);
    }
    if (reply_.kind == FrameKind::kBye) {
      // An unsolicited bye while we are owed a reply: the daemon is
      // shutting down and our request will never be answered (a drain
      // can win the race against a frame still in its socket buffer).
      // Surface it as the transport-class "draining" so a fleet
      // reroutes the work instead of failing the run.
      session_.abort();
      throw ServiceError("draining",
                         "ftuned said bye while a reply was pending");
    }
    if (reply_.kind != FrameKind::kError) return;
    // Only "overloaded" is worth waiting out on THIS session: the
    // daemon is alive and will drain its queue. Other retryable codes
    // ("draining", "deadline") mean this daemon wants the work to go
    // ELSEWHERE - propagate immediately so a fleet can reroute instead
    // of blind-resending into a server that is shutting down.
    if (!reply_.error.retryable || reply_.error.code != "overloaded" ||
        attempt + 1 >= session_.transport().overload_max_attempts) {
      throw_error_frame(reply_.error);
    }
    // Backpressure: the daemon is at max_inflight. Exponential backoff
    // with deterministic jitter (so N workers that hit the wall at
    // once fan out instead of stampeding in lockstep), then resend the
    // identical frame - results are deterministic, so a retry can
    // never change the answer.
    const double base = session_.transport().overload_base_sleep_ms *
                        std::ldexp(1.0, attempt);
    const double jitter =
        base * 0.5 *
        (static_cast<double>(support::splitmix64(jitter_state_) >> 11) *
         0x1.0p-53);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        base + jitter));
  }
}

core::EvalResponse Client::call(const core::EvalRequest& request) {
  return std::move(call_many({&request, 1}).front());
}

std::vector<core::EvalResponse> Client::call_many(
    std::span<const core::EvalRequest> requests) {
  std::vector<core::EvalResponse> all;
  all.reserve(requests.size());
  std::lock_guard lock(mutex_);
  const std::size_t max_batch = session_.welcome().max_batch;
  const std::size_t chunk_limit =
      max_batch > 0 ? max_batch : requests.size();
  for (std::size_t begin = 0; begin < requests.size();
       begin += chunk_limit) {
    const std::size_t count =
        std::min(chunk_limit, requests.size() - begin);
    const std::uint64_t seq = next_seq_++;
    encode_eval_batch_frame(session_.framing(), seq,
                            requests.subspan(begin, count),
                            &write_buffer_.payload);
    roundtrip_locked();
    if (reply_.kind != FrameKind::kResultBatch ||
        reply_.responses.size() != count) {
      throw ServiceError("bad_frame",
                         "malformed result batch from ftuned");
    }
    if (reply_.seq != seq) {
      throw ServiceError("bad_frame", "result sequence mismatch");
    }
    for (core::EvalResponse& response : reply_.responses) {
      all.push_back(std::move(response));
    }
  }
  return all;
}

void Client::ping() {
  std::lock_guard lock(mutex_);
  const std::uint64_t seq = next_seq_++;
  encode_ping_frame(session_.framing(), seq, &write_buffer_.payload);
  roundtrip_locked();
  if (reply_.kind != FrameKind::kPong || reply_.seq != seq) {
    throw ServiceError("bad_frame", "expected a pong frame");
  }
}

namespace {

core::EvalBackend::RawResult raw_result(const core::EvalResponse& response) {
  if (!response.ok()) {
    throw ServiceError("remote_fault", "daemon-side raw run failed: " +
                                           response.outcome.error.detail);
  }
  return {response.outcome.result, response.modules_compiled};
}

}  // namespace

core::EvalBackend::RawResult RemoteBackend::run(
    const compiler::ModuleAssignment& assignment,
    const machine::RunOptions& options) {
  return raw_result(
      client_->call(core::EvalRequest::of_run(assignment, options)));
}

std::vector<core::EvalBackend::RawResult> RemoteBackend::run_many(
    std::span<const core::EvalRequest> requests) {
  const std::vector<core::EvalResponse> responses =
      client_->call_many(requests);
  std::vector<RawResult> results;
  results.reserve(responses.size());
  for (const core::EvalResponse& response : responses) {
    results.push_back(raw_result(response));
  }
  return results;
}

}  // namespace ft::service
