#include "service/fallback.hpp"

#include <iostream>
#include <utility>

#include "telemetry/metrics.hpp"

namespace ft::service {

namespace {

/// "The primary cannot serve right now but the work itself is fine" -
/// the degradation trigger set. Anything else (bad_request,
/// unknown_program, remote_fault...) would fail locally too, or
/// signals a real bug that must surface, not be papered over.
bool degradable(const std::string& code) noexcept {
  return is_transport_code(code) || is_bounce_code(code);
}

}  // namespace

LocalFallbackBackend::LocalFallbackBackend(
    std::shared_ptr<core::EvalBackend> primary, WorkspaceSpec workspace)
    : primary_(std::move(primary)), workspace_(std::move(workspace)) {}

LocalFallbackBackend::~LocalFallbackBackend() = default;

core::Evaluator& LocalFallbackBackend::local_locked() {
  if (!local_) {
    local_ = make_workspace_tuner(workspace_);
    telemetry::metrics().counter("fleet.fallback.engines").add();
  }
  return local_->evaluator();
}

core::EvalBackend::RawResult LocalFallbackBackend::run(
    const compiler::ModuleAssignment& assignment,
    const machine::RunOptions& options) {
  if (primary_) {
    try {
      RawResult result = primary_->run(assignment, options);
      std::lock_guard lock(mutex_);
      if (degraded_last_call_) {
        degraded_last_call_ = false;
        ++stats_.primary_recoveries;
        telemetry::metrics().counter("fleet.fallback.recoveries").add();
      }
      return result;
    } catch (const ServiceError& error) {
      if (!degradable(error.code())) throw;
    }
  }
  std::lock_guard lock(mutex_);
  degraded_last_call_ = true;
  ++stats_.fallback_runs;
  telemetry::metrics().counter("fleet.fallback.runs").add();
  return local_locked().raw_run(assignment, options);
}

std::vector<core::EvalBackend::RawResult>
LocalFallbackBackend::run_many(
    std::span<const core::EvalRequest> requests) {
  if (primary_) {
    try {
      std::vector<RawResult> results = primary_->run_many(requests);
      std::lock_guard lock(mutex_);
      if (degraded_last_call_) {
        degraded_last_call_ = false;
        ++stats_.primary_recoveries;
        telemetry::metrics().counter("fleet.fallback.recoveries").add();
      }
      return results;
    } catch (const ServiceError& error) {
      if (!degradable(error.code())) throw;
    }
  }
  // Whole-batch fallback: raw runs are deterministic, so serving the
  // batch locally yields the same bytes the fleet would have produced.
  std::lock_guard lock(mutex_);
  degraded_last_call_ = true;
  ++stats_.fallback_batches;
  stats_.fallback_evals += requests.size();
  telemetry::metrics().counter("fleet.fallback.batches").add();
  telemetry::metrics().counter("fleet.fallback.evals").add(requests.size());
  core::Evaluator& evaluator = local_locked();
  std::vector<RawResult> results;
  results.reserve(requests.size());
  for (const core::EvalRequest& request : requests) {
    results.push_back(
        evaluator.raw_run(request.assignment, request.run_options()));
  }
  return results;
}

LocalFallbackBackend::Stats LocalFallbackBackend::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::shared_ptr<LocalFallbackBackend> connect_with_fallback(
    const std::function<std::shared_ptr<core::EvalBackend>()>& connect,
    const WorkspaceSpec& workspace) {
  std::shared_ptr<core::EvalBackend> primary;
  try {
    primary = connect();
  } catch (const ServiceError& error) {
    if (!degradable(error.code())) throw;
    std::cerr << "ftune: remote unavailable for " << workspace.program
              << "/" << workspace.arch << " (" << error.what()
              << "); degrading to local evaluation\n";
  }
  return std::make_shared<LocalFallbackBackend>(std::move(primary),
                                                workspace);
}

}  // namespace ft::service
