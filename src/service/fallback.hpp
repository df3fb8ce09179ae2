// Graceful degradation for remote evaluation: LocalFallbackBackend
// wraps any EvalBackend (typically a FleetBackend) and, when the
// primary fails with a transport-class error - fleet exhausted, every
// breaker open, daemon draining - routes the evaluation to a lazily
// constructed in-process engine instead of failing the campaign.
//
// The fallback engine is built by make_workspace_tuner, the one
// function ftuned builds its workspaces with (measurement subset of
// the options, Evaluator-level cache off), so locally served results
// are byte-identical to what the fleet would have returned: raw
// compile+link+run is deterministic, and all resilience bookkeeping
// lives in the Evaluator ABOVE this backend either way - which also
// means fallback-served evaluations are journaled like any others.
//
// Every call retries the primary first, so a recovered fleet resumes
// service automatically; fallback is per-call, never a sticky state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "core/evaluator.hpp"
#include "core/funcy_tuner.hpp"
#include "service/connect.hpp"

namespace ft::service {

class LocalFallbackBackend : public core::EvalBackend {
 public:
  struct Stats {
    std::uint64_t fallback_runs = 0;     ///< single evals served locally
    std::uint64_t fallback_batches = 0;  ///< whole batches served locally
    std::uint64_t fallback_evals = 0;    ///< evals inside those batches
    std::uint64_t primary_recoveries = 0;  ///< primary ok after a fallback
  };

  /// `workspace` must match the spec the primary connected with - it is
  /// what guarantees the local engine computes the same bytes. A null
  /// `primary` (the whole fleet was down at connect time) serves
  /// everything locally from the start.
  LocalFallbackBackend(std::shared_ptr<core::EvalBackend> primary,
                       WorkspaceSpec workspace);
  ~LocalFallbackBackend() override;

  [[nodiscard]] RawResult run(const compiler::ModuleAssignment& assignment,
                              const machine::RunOptions& options) override;
  [[nodiscard]] std::vector<RawResult> run_many(
      std::span<const core::EvalRequest> requests) override;
  [[nodiscard]] bool batches_remotely() const noexcept override {
    return true;
  }

  [[nodiscard]] Stats stats() const;

 private:
  /// Lazily builds the local engine (first fallback pays the
  /// construction cost; healthy runs never do).
  core::Evaluator& local_locked();

  std::shared_ptr<core::EvalBackend> primary_;
  WorkspaceSpec workspace_;
  mutable std::mutex mutex_;  ///< guards local_ construction and stats_
  std::unique_ptr<core::FuncyTuner> local_;
  bool degraded_last_call_ = false;
  Stats stats_;
};

/// Connects the primary through `connect` and wraps it for
/// `workspace`. A connect-time failure the fallback would absorb at
/// run time (every endpoint down, a daemon draining, ...) leaves the
/// primary null, so the run is served in-process from the start; any
/// other refusal (bad options, version skew) propagates.
[[nodiscard]] std::shared_ptr<LocalFallbackBackend> connect_with_fallback(
    const std::function<std::shared_ptr<core::EvalBackend>()>& connect,
    const WorkspaceSpec& workspace);

}  // namespace ft::service
