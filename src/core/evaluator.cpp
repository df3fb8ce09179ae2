#include "core/evaluator.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/search.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace ft::core {

namespace {

/// Modeled real-world cost of tuning actions, for the §4.3
/// tuning-overhead comparison (seconds of testbed time).
constexpr double kSecondsPerModuleCompile = 8.0;  ///< ICC object compile
constexpr double kLinkSeconds = 40.0;             ///< xild whole-program link
/// Each retry charges kRetryBackoffSeconds * 2^attempt.
constexpr double kRetryBackoffSeconds = 1.0;
/// Failed evaluations of one assignment before it is quarantined.
constexpr int kQuarantineAfter = 2;

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Inverse of hex64; false unless `text` is exactly its format.
bool parse_hex64(std::string_view text, std::uint64_t* value) {
  if (text.size() != 18 || !text.starts_with("0x")) return false;
  const char* end = text.data() + text.size();
  const auto [at, error] = std::from_chars(text.data() + 2, end, *value, 16);
  return error == std::errc() && at == end;
}

/// Detail of a measured run that failed its timeout budget: the only
/// failure that counts as an evaluation.
constexpr std::string_view kBudgetExceeded = "budget exceeded";

void count_metric(const char* name, std::uint64_t n = 1) {
  if (!telemetry::enabled()) return;
  telemetry::metrics().counter(name).add(n);
}

}  // namespace

std::string_view to_string(EvalFault fault) noexcept {
  switch (fault) {
    case EvalFault::kNone: return "none";
    case EvalFault::kCompileFailure: return "compile";
    case EvalFault::kRunCrash: return "crash";
    case EvalFault::kRunTimeout: return "timeout";
    case EvalFault::kQuarantined: return "quarantined";
  }
  return "none";
}

EvalFault eval_fault_from_string(std::string_view name) noexcept {
  if (name == "compile") return EvalFault::kCompileFailure;
  if (name == "crash") return EvalFault::kRunCrash;
  if (name == "timeout") return EvalFault::kRunTimeout;
  if (name == "quarantined") return EvalFault::kQuarantined;
  return EvalFault::kNone;
}

std::vector<EvalBackend::RawResult> EvalBackend::run_many(
    std::span<const EvalRequest> requests) {
  std::vector<RawResult> results;
  results.reserve(requests.size());
  for (const EvalRequest& request : requests) {
    results.push_back(run(request.assignment, request.run_options()));
  }
  return results;
}

Evaluator::Evaluator(machine::ExecutionEngine& engine,
                     const ir::InputSpec& input)
    : engine_(&engine), input_(&input) {
  // Mixed into every assignment key so journal records and quarantine
  // entries never collide across campaign cells sharing one journal.
  context_hash_ = support::fnv1a64(engine.program().name()) ^
                  support::fnv1a64(input.name) * 0x9e3779b97f4a7c15ULL ^
                  support::fnv1a64(engine.arch().name) * 0xc2b2ae3d27d4eb4fULL;
}

void Evaluator::set_backend(std::shared_ptr<EvalBackend> backend) {
  backend_ = std::move(backend);
}

void Evaluator::account(std::size_t modules_compiled, double run_seconds,
                        int reps) {
  evaluations_.fetch_add(static_cast<std::size_t>(reps),
                         std::memory_order_relaxed);
  // Only modules that actually hit the compiler (cache misses) cost
  // compile time: the tuning harness keeps previously built objects
  // around, so CFR's 1000 assembled variants reuse the ~top-X * J
  // object pool after the first few iterations.
  const double cost =
      static_cast<double>(modules_compiled) * kSecondsPerModuleCompile +
      kLinkSeconds + run_seconds * reps;
  account_overhead(cost);
  if (telemetry::enabled()) {
    static telemetry::Counter& evals =
        telemetry::metrics().counter("evaluator.evaluations");
    // Modeled overhead inherits the cache-miss attribution race, so it
    // is snapshot-only (never traced).
    static telemetry::Gauge& overhead = telemetry::metrics().gauge(
        "evaluator.modeled_overhead_seconds", /*deterministic=*/false);
    evals.add(static_cast<std::uint64_t>(reps));
    overhead.set(modeled_overhead_.load(std::memory_order_relaxed));
  }
}

void Evaluator::account_overhead(double seconds) {
  double expected = modeled_overhead_.load(std::memory_order_relaxed);
  while (!modeled_overhead_.compare_exchange_weak(
      expected, expected + seconds, std::memory_order_relaxed)) {
  }
}

void Evaluator::account_saved(double seconds) {
  double expected = saved_overhead_.load(std::memory_order_relaxed);
  while (!saved_overhead_.compare_exchange_weak(
      expected, expected + seconds, std::memory_order_relaxed)) {
  }
  if (telemetry::enabled()) {
    telemetry::metrics()
        .gauge("cache.saved_seconds", /*deterministic=*/false)
        .set(saved_overhead_.load(std::memory_order_relaxed));
  }
}

EvalBackend::RawResult Evaluator::raw_run(
    const compiler::ModuleAssignment& assignment,
    const machine::RunOptions& options) {
  if (backend_) return backend_->run(assignment, options);
  // Engine and compiler are internally synchronized; this is safe from
  // evaluate_batch workers.
  // Under parallel batches which evaluation compiles a shared module
  // depends on the schedule, but every module is counted exactly once,
  // so the accumulated total (what §4.3 reports) is exact.
  EvalBackend::RawResult raw;
  const compiler::Executable exe = engine_->compiler().build(
      engine_->program(), assignment, nullptr, &raw.modules_compiled);
  raw.result = engine_->run(exe, *input_, options);
  return raw;
}

std::uint64_t Evaluator::assignment_key(
    const compiler::ModuleAssignment& assignment) const {
  std::uint64_t key = context_hash_;
  for (const flags::CompilationVector& cv : assignment.loop_cvs) {
    key = (key ^ cv.hash()) * 0x100000001b3ULL;  // FNV-style fold
  }
  key = (key ^ assignment.nonloop_cv.hash()) * 0x100000001b3ULL;
  return key;
}

bool Evaluator::is_quarantined(
    const compiler::ModuleAssignment& assignment) const {
  if (!has_quarantine_.load(std::memory_order_acquire)) return false;
  std::lock_guard lock(resilience_mutex_);
  if (quarantined_keys_.count(assignment_key(assignment)) != 0) return true;
  if (quarantined_cvs_.empty()) return false;
  if (quarantined_cvs_.count(assignment.nonloop_cv.hash()) != 0) return true;
  for (const flags::CompilationVector& cv : assignment.loop_cvs) {
    if (quarantined_cvs_.count(cv.hash()) != 0) return true;
  }
  return false;
}

void Evaluator::note_failure(std::uint64_t key) {
  failed_evaluations_.fetch_add(1, std::memory_order_relaxed);
  count_metric("eval.failures");
  std::lock_guard lock(resilience_mutex_);
  if (++failure_counts_[key] == kQuarantineAfter) {
    pending_quarantine_.push_back(key);
  }
}

void Evaluator::promote_quarantines() {
  std::lock_guard lock(resilience_mutex_);
  for (const std::uint64_t key : pending_quarantine_) {
    quarantined_keys_.insert(key);
  }
  pending_quarantine_.clear();
  const bool any = !quarantined_keys_.empty() || !quarantined_cvs_.empty();
  has_quarantine_.store(any, std::memory_order_release);
  if (telemetry::enabled()) {
    // Scheduling decides which of several racing failures trips the
    // threshold, so the reading is snapshot-only.
    telemetry::metrics()
        .gauge("eval.quarantined", /*deterministic=*/false)
        .set(static_cast<double>(quarantined_keys_.size() +
                                 quarantined_cvs_.size()));
  }
}

bool Evaluator::pre_evaluate(const EvalRequest& request, EvalResponse* out,
                             PendingRun* pending) {
  pending->options = request.run_options();
  const machine::RunOptions& options = pending->options;
  // Quarantined assignments bypass the cache: a cache-off run would
  // quarantine-skip them (charging nothing), and replaying the cached
  // pre-quarantine outcome instead would break the charged + saved ==
  // cache-off invariant. plan_attempts produces the identical skip.
  // The cache key is built only when a cache tier exists: with both
  // tiers off an evaluation spends nothing on cache bookkeeping and
  // emits no cache.* telemetry.
  if (cache_ && !is_quarantined(request.assignment)) {
    const EvalCache::Key cache_key{pending->key, options.rep_base,
                                   cache_salt_, options.repetitions,
                                   options.instrumented};
    double saved = 0.0;
    if (cache_->lookup(cache_key, &out->outcome, &saved)) {
      const EvalOutcome& outcome = out->outcome;
      // Rebuild the bookkeeping computing the outcome left. A measured
      // run counts its repetitions (a budget overrun measures before
      // failing), an injected failure counts none.
      if (outcome.ok() || outcome.error.detail == kBudgetExceeded) {
        evaluations_.fetch_add(static_cast<std::size_t>(options.repetitions),
                               std::memory_order_relaxed);
        if (telemetry::enabled()) {
          telemetry::metrics()
              .counter("evaluator.evaluations")
              .add(static_cast<std::uint64_t>(options.repetitions));
        }
      }
      // Every failure counts toward the assignment's quarantine, and an
      // ICE re-quarantines the CV its detail names.
      std::uint64_t cv_hash = 0;
      if (outcome.error.kind == EvalFault::kCompileFailure &&
          parse_hex64(outcome.error.detail, &cv_hash)) {
        quarantine_cv(cv_hash);
      }
      if (!outcome.ok()) note_failure(pending->key);
      // Only the modeled cost moves to "saved".
      account_saved(saved);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      out->served_by = EvalServedBy::kCacheHit;
      return true;
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  plan_attempts(request.assignment, pending);
  if (pending->needs_run) return false;

  // Served without a real run (quarantine skip / injected permanent
  // failure): journal it like a measured one.
  out->outcome = pending->outcome;
  out->served_by = EvalServedBy::kRun;
  store(*pending, out->outcome);
  return true;
}

void Evaluator::store(const PendingRun& pending, const EvalOutcome& outcome) {
  const machine::RunOptions& options = pending.options;
  if (journal_) {
    journal_->record({pending.key, options.rep_base, options.repetitions,
                      options.instrumented, outcome, pending.rerun_cost});
    count_metric("journal.appended");
  }
  if (cache_ && outcome.error.kind != EvalFault::kQuarantined) {
    cache_->insert({pending.key, options.rep_base, cache_salt_,
                    options.repetitions, options.instrumented},
                   outcome, pending.rerun_cost);
  }
}

void Evaluator::quarantine_cv(std::uint64_t cv_hash) {
  {
    std::lock_guard lock(resilience_mutex_);
    quarantined_cvs_.insert(cv_hash);
  }
  has_quarantine_.store(true, std::memory_order_release);
}

void Evaluator::plan_attempts(const compiler::ModuleAssignment& assignment,
                              PendingRun* pending) {
  // pending->rerun_cost accumulates what re-running this exact
  // evaluation would charge: the object pool stays warm (0 compile
  // seconds) and the fault/noise streams are deterministic per
  // (key, rep_base, attempt), so every branch below knows its re-run
  // cost exactly.
  const std::uint64_t key = pending->key;
  if (is_quarantined(assignment)) {
    quarantine_hits_.fetch_add(1, std::memory_order_relaxed);
    count_metric("eval.quarantine_hits");
    pending->outcome.error = {EvalFault::kQuarantined, hex64(key)};
    pending->outcome.attempts = 0;
    return;
  }

  const machine::FaultModel& faults = engine_->fault_model();
  if (faults.enabled()) {
    // Compile ICEs are a permanent property of a CV's flag interaction:
    // fail without retrying and quarantine the CV itself, so later
    // assignments touching it are skipped before the compiler runs.
    const auto ice = [&](const flags::CompilationVector& cv) -> bool {
      if (!faults.compile_fails(cv.hash())) return false;
      quarantine_cv(cv.hash());
      compile_failures_.fetch_add(1, std::memory_order_relaxed);
      count_metric("fault.compile_failures");
      // The ICE still burned one modeled module compile.
      account_overhead(kSecondsPerModuleCompile);
      pending->outcome.error = {EvalFault::kCompileFailure, hex64(cv.hash())};
      return true;
    };
    bool failed = ice(assignment.nonloop_cv);
    for (std::size_t j = 0; !failed && j < assignment.loop_cvs.size(); ++j) {
      failed = ice(assignment.loop_cvs[j]);
    }
    if (failed) {
      note_failure(key);
      return;
    }
  }

  const double budget = retry_policy_.eval_timeout_seconds;
  const machine::RunOptions& options = pending->options;
  for (int attempt = 0;; ++attempt) {
    const machine::FaultModel::RunFault fault =
        faults.run_fault(key, options.rep_base, attempt);
    if (fault == machine::FaultModel::RunFault::kNone) {
      // The fault stream cleared this attempt: exactly one real run
      // settles the evaluation (post_evaluate).
      pending->needs_run = true;
      pending->prior_attempts = attempt;
      return;
    }

    // Injected transient fault: account the modeled wall-clock it
    // burned, then retry with deterministic exponential backoff.
    if (fault == machine::FaultModel::RunFault::kCrash) {
      run_crashes_.fetch_add(1, std::memory_order_relaxed);
      count_metric("fault.run_crashes");
      account_overhead(kLinkSeconds);
      pending->rerun_cost += kLinkSeconds;
    } else {
      run_timeouts_.fetch_add(1, std::memory_order_relaxed);
      count_metric("fault.run_timeouts");
      const double burned = budget > 0.0 ? budget : kLinkSeconds;
      account_overhead(burned);
      pending->rerun_cost += burned;
    }
    if (attempt >= retry_policy_.max_retries) {
      pending->outcome.attempts = attempt + 1;
      pending->outcome.error = {
          fault == machine::FaultModel::RunFault::kCrash
              ? EvalFault::kRunCrash
              : EvalFault::kRunTimeout,
          "retries exhausted"};
      note_failure(key);
      return;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    count_metric("eval.retries");
    const double backoff = kRetryBackoffSeconds *
                           static_cast<double>(1 << std::min(attempt, 16));
    account_overhead(backoff);
    pending->rerun_cost += backoff;
  }
}

void Evaluator::post_evaluate(PendingRun* pending,
                              const EvalBackend::RawResult& raw,
                              EvalResponse* out) {
  const machine::RunOptions& options = pending->options;
  account(raw.modules_compiled, raw.result.end_to_end, options.repetitions);
  out->modules_compiled = raw.modules_compiled;
  out->served_by = EvalServedBy::kRun;
  out->outcome.result = raw.result;
  out->outcome.attempts = pending->prior_attempts + 1;
  // A re-run charges no compile time (objects pooled) but still pays
  // the link and the measured runtime - even on a budget overrun,
  // which re-measures before failing.
  pending->rerun_cost +=
      kLinkSeconds + raw.result.end_to_end * options.repetitions;
  const double budget = retry_policy_.eval_timeout_seconds;
  if (budget > 0.0 && raw.result.end_to_end > budget) {
    // Genuine budget overrun. Measurements are deterministic per rep
    // key, so retrying would reproduce it - fail immediately.
    run_timeouts_.fetch_add(1, std::memory_order_relaxed);
    count_metric("fault.run_timeouts");
    out->outcome.result = machine::RunResult{};
    out->outcome.error = {EvalFault::kRunTimeout,
                          std::string(kBudgetExceeded)};
    note_failure(pending->key);
  }
  store(*pending, out->outcome);
}

EvalResponse Evaluator::evaluate(const EvalRequest& request,
                                 const EvalTrace& trace) {
  telemetry::Span span;
  if (trace.leaf_spans && telemetry::enabled()) {
    const std::string_view name =
        trace.label.empty() ? std::string_view("eval") : trace.label;
    span = telemetry::tracer().begin(name);
    span.attr("rep_base", request.rep_base)
        .attr("instrumented", std::int64_t{request.instrumented});
  }
  EvalResponse response;
  PendingRun pending;
  settle({&request, 1}, {&pending, 1}, {&response, 1});
  if (span) {
    span.attr("seconds", response.seconds());
    if (!response.ok()) {
      span.attr("fault", to_string(response.outcome.error.kind));
    }
  }
  return response;
}

std::vector<EvalResponse> Evaluator::evaluate_batch(
    std::span<const EvalRequest> requests, const EvalTrace& trace) {
  // One batch-level span from the calling thread: per-evaluation spans
  // inside the pool would interleave non-deterministically.
  telemetry::Span span;
  if (telemetry::enabled()) {
    const std::string_view name = trace.label.empty()
                                      ? std::string_view("evaluate_batch")
                                      : trace.label;
    span = telemetry::tracer().begin(name);
    span.attr("count", static_cast<std::uint64_t>(requests.size()));
    if (!requests.empty()) {
      span.attr("rep_base", requests.front().rep_base)
          .attr("instrumented",
                std::int64_t{requests.front().instrumented});
    }
  }
  std::vector<EvalResponse> responses(requests.size());
  std::vector<PendingRun> pendings(requests.size());
  settle(requests, pendings, responses);
  return responses;
}

void Evaluator::settle(std::span<const EvalRequest> requests,
                       std::span<PendingRun> pendings,
                       std::span<EvalResponse> responses) {
  // With a cache, a duplicate is a hit only if it starts after its
  // first copy was inserted, so duplicates wait for a second pass. (A
  // fingerprint collision only defers a request.)
  bool any_duplicate = false;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const EvalRequest& request = requests[i];
    PendingRun& pending = pendings[i];
    pending.key = assignment_key(request.assignment);
    if (!cache_) continue;
    pending.duplicate =
        !seen.insert(EvalCache::Key{pending.key, request.rep_base,
                                    cache_salt_, request.repetitions,
                                    request.instrumented}
                         .fingerprint())
             .second;
    any_duplicate |= pending.duplicate;
  }
  // Queued quarantines take effect at batch boundaries, never
  // mid-batch, so no skip depends on worker scheduling.
  promote_quarantines();
  dispatch(requests, pendings, responses, /*duplicates=*/false);
  if (any_duplicate) dispatch(requests, pendings, responses, true);
  promote_quarantines();
}

void Evaluator::dispatch(std::span<const EvalRequest> requests,
                         std::span<PendingRun> pendings,
                         std::span<EvalResponse> responses,
                         bool duplicates) {
  if (backend_ && backend_->batches_remotely()) {
    // Coalesced path: the sequential pre-pass resolves replays and
    // injected faults locally, then every evaluation that still needs
    // a real measurement rides a single run_many() wire call.
    std::vector<std::size_t> to_run;
    std::vector<EvalRequest> raw_requests;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (pendings[i].duplicate != duplicates) continue;
      if (!pre_evaluate(requests[i], &responses[i], &pendings[i])) {
        to_run.push_back(i);
        raw_requests.push_back(requests[i]);
      }
    }
    if (to_run.empty()) return;
    const std::vector<EvalBackend::RawResult> raws =
        backend_->run_many(raw_requests);
    for (std::size_t j = 0; j < to_run.size(); ++j) {
      const std::size_t i = to_run[j];
      post_evaluate(&pendings[i], raws[j], &responses[i]);
    }
    return;
  }
  support::parallel_for(requests.size(), [&](std::size_t i) {
    // Every variant usually shares the batch's rep_base: noise keys
    // mix in the executable fingerprint, so distinct variants stay
    // decorrelated while duplicate assignments measure identically
    // (the property the EvalCache's bit-identity contract rests on).
    PendingRun& pending = pendings[i];
    if (pending.duplicate != duplicates) return;
    if (pre_evaluate(requests[i], &responses[i], &pending)) return;
    post_evaluate(&pending, raw_run(requests[i].assignment, pending.options),
                  &responses[i]);
  });
}

void Evaluator::set_journal(std::shared_ptr<EvalJournal> journal) {
  journal_ = std::move(journal);
  load_journal();
}

void Evaluator::set_eval_cache(std::shared_ptr<EvalCache> cache,
                               std::uint64_t salt) {
  cache_ = std::move(cache);
  cache_salt_ = salt;
  load_journal();
}

void Evaluator::load_journal() {
  if (!journal_ || journal_->loaded() == 0) return;
  if (!cache_) {
    // Per-shard LRU bounds leave headroom for an uneven shard spread.
    cache_ = std::make_shared<EvalCache>(
        std::max(EvalCache::kDefaultMaxEntries, 2 * journal_->loaded()));
  }
  journal_->for_each([this](const JournalRecord& record) {
    // Quarantine skips are never cached (see pre_evaluate); everything
    // else replays bit-identically.
    if (record.outcome.error.kind == EvalFault::kQuarantined) return;
    cache_->insert({record.key, record.rep_base, cache_salt_,
                    record.repetitions, record.instrumented},
                   record.outcome, record.rerun_seconds);
  });
}

ResilienceStats Evaluator::resilience_stats() const {
  ResilienceStats stats;
  stats.compile_failures =
      compile_failures_.load(std::memory_order_relaxed);
  stats.run_crashes = run_crashes_.load(std::memory_order_relaxed);
  stats.run_timeouts = run_timeouts_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.failed_evaluations =
      failed_evaluations_.load(std::memory_order_relaxed);
  stats.quarantine_hits = quarantine_hits_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(resilience_mutex_);
    stats.quarantined = quarantined_keys_.size() + quarantined_cvs_.size();
  }
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.cache_saved_seconds =
      saved_overhead_.load(std::memory_order_relaxed);
  return stats;
}

machine::RunOptions Evaluator::final_run_options() const noexcept {
  machine::RunOptions options;
  options.repetitions = final_reps_;
  options.rep_base = rep_streams::kFinal;  // fresh noise vs. search runs
  if (engine_->fault_model().enabled()) {
    // Outlier spikes are in play: score with the trimmed mean so one
    // contaminated rep cannot flip a winner (plain mean otherwise, the
    // paper's protocol - keeps fault-free results bit-identical).
    options.aggregate = machine::Aggregation::kTrimmedMean;
  }
  return options;
}

double Evaluator::final_seconds(
    const compiler::ModuleAssignment& assignment) {
  return evaluate(EvalRequest::of_run(assignment, final_run_options()))
      .outcome.seconds_or(kInvalidSeconds);
}

double Evaluator::baseline_seconds() {
  if (!baseline_seconds_) {
    telemetry::Span span = telemetry::tracer().begin("baseline");
    baseline_seconds_ = final_seconds(compiler::ModuleAssignment::uniform(
        engine_->compiler().space().default_cv(),
        engine_->program().loops().size()));
    if (span) span.attr("seconds", *baseline_seconds_);
  }
  return *baseline_seconds_;
}

void Evaluator::finish(TuningResult& result,
                       std::optional<double> tuned_seconds) {
  // First, so the baseline span never nests in final_measure (it is
  // memoized already when FuncyTuner::run started the search).
  result.baseline_seconds = baseline_seconds();
  telemetry::Span span = telemetry::tracer().begin("final_measure");
  result.tuned_seconds = tuned_seconds
                             ? *tuned_seconds
                             : final_seconds(result.best_assignment);
  result.speedup = result.baseline_seconds / result.tuned_seconds;
  if (span) {
    span.attr("algorithm", result.algorithm)
        .attr("tuned_seconds", result.tuned_seconds)
        .attr("speedup", result.speedup);
  }
}

}  // namespace ft::core
