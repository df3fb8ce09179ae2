// Evaluator: compile + link + run candidate configurations. Evaluation
// is the unit the paper counts when reporting tuning overhead, so the
// evaluator tracks both the count and the modeled wall-clock cost
// (compile time + run time) each evaluation would have taken on the
// paper's testbed. A single evaluation is a batch of one: CFR's
// sweep and a sequential search's next step settle the same way.
//
// The request/response pair below is the *only* evaluation currency:
// every search, baseline and bench tool submits EvalRequest and gets
// EvalResponse back, and the same two structs are the wire payload of
// the `ftuned` service (src/service/protocol.hpp serializes them
// field-for-field). Raw measurement is abstracted behind EvalBackend,
// so a remote daemon can execute the compile+link+run while all
// resilience bookkeeping (retries, quarantine, journal, cache) stays
// on the client - the key to remote runs being bit-identical to local
// ones.
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "compiler/compiler.hpp"
#include "ir/program.hpp"
#include "machine/execution_engine.hpp"
#include "telemetry/telemetry.hpp"

namespace ft::core {

class EvalCache;
class EvalJournal;
struct TuningResult;

/// Disjoint noise-stream offsets, one per measurement phase. Every
/// phase keys its measurements at its own offset, so two phases that
/// evaluate the same assignment still draw independent noise
/// (previously Random, FR, CFR and the collection sweep all reused
/// keys 0..N-1 and their noise was correlated index-for-index).
///
/// Within a phase, noise is content-addressed: the executable
/// fingerprint is already mixed into every noise key, so distinct
/// variants measured under one shared phase offset draw independent
/// noise, while *identical* assignments measure identically - which is
/// exactly what makes EvalCache hits bit-identical to re-running.
namespace rep_streams {
inline constexpr std::uint64_t kCollection = 0;             ///< §2.2.2 sweep
inline constexpr std::uint64_t kRandom = 1ull << 16;        ///< Random search
inline constexpr std::uint64_t kFunctionRandom = 2ull << 16;///< FR search
inline constexpr std::uint64_t kCfr = 3ull << 16;           ///< CFR (Alg. 1)
inline constexpr std::uint64_t kEvolution = 4ull << 16;     ///< EvoCFR
inline constexpr std::uint64_t kCobayn = 5ull << 16;        ///< Cobayn inference
inline constexpr std::uint64_t kCobaynTraining = 6ull << 16;///< Cobayn training
inline constexpr std::uint64_t kOpenTuner = 7ull << 16;     ///< OpenTuner baseline
inline constexpr std::uint64_t kCombinedElimination = 8ull << 16;  ///< CE
inline constexpr std::uint64_t kFlagElimination = 9ull << 16;      ///< FE
inline constexpr std::uint64_t kRetune = 10ull << 16;       ///< online re-tune
inline constexpr std::uint64_t kDriftMonitor = 11ull << 16; ///< drift probes
inline constexpr std::uint64_t kFinal = 1ull << 20;         ///< final protocol
inline constexpr std::uint64_t kCrossInput = 1ull << 21;    ///< other inputs
}  // namespace rep_streams

/// Classified evaluation failure. Compile ICEs are permanent (a
/// property of the CV's flag interactions); crashes and timeouts are
/// transient and retryable; quarantined evaluations were skipped
/// because their CV/assignment failed repeatedly before.
enum class EvalFault {
  kNone,
  kCompileFailure,
  kRunCrash,
  kRunTimeout,
  kQuarantined,
};

[[nodiscard]] std::string_view to_string(EvalFault fault) noexcept;
/// Inverse of to_string; kNone for unknown text.
[[nodiscard]] EvalFault eval_fault_from_string(std::string_view name) noexcept;

struct EvalError {
  EvalFault kind = EvalFault::kNone;
  std::string detail;  ///< e.g. hex hash of the ICE-ing CV
};

/// Result<RunResult, EvalError>: a measurement or a classified failure.
struct EvalOutcome {
  machine::RunResult result;  ///< valid only when ok()
  EvalError error;
  int attempts = 1;  ///< run attempts made (retries included)

  [[nodiscard]] bool ok() const noexcept {
    return error.kind == EvalFault::kNone;
  }
  [[nodiscard]] double seconds_or(double fallback) const noexcept {
    return ok() ? result.end_to_end : fallback;
  }
};

/// Score of a failed evaluation: +inf sorts after every real runtime,
/// so searches skip invalid candidates without special-casing.
inline constexpr double kInvalidSeconds =
    std::numeric_limits<double>::infinity();

/// Bounded-retry policy for transient evaluation faults, with
/// deterministic wall-clock accounting (each retry charges
/// 1 s * 2^attempt of modeled testbed time). An assignment that fails
/// twice is quarantined (skipped without compiling).
struct RetryPolicy {
  int max_retries = 2;        ///< extra attempts after the first
  /// Modeled per-evaluation runtime budget in seconds; a run exceeding
  /// it fails as kRunTimeout. 0 = unlimited. Injected timeouts burn
  /// the full budget (or one link time when unlimited).
  double eval_timeout_seconds = 0.0;
};

/// Cumulative fault/retry/quarantine counters (also mirrored into the
/// telemetry metrics registry under fault.* / eval.* / cache.*).
struct ResilienceStats {
  std::size_t compile_failures = 0;
  std::size_t run_crashes = 0;
  std::size_t run_timeouts = 0;
  std::size_t retries = 0;
  std::size_t failed_evaluations = 0;
  std::size_t quarantine_hits = 0;     ///< evaluations skipped
  std::size_t quarantined = 0;         ///< entries on the list
  std::size_t cache_hits = 0;    ///< evaluations served by the EvalCache
  std::size_t cache_misses = 0;  ///< cache consults that fell through
  /// Modeled testbed seconds cache hits avoided re-charging.
  double cache_saved_seconds = 0.0;
};

/// One evaluation, fully specified. This struct *is* the service wire
/// payload: everything that determines the measured value is in here
/// (plus the session-level options fingerprint), nothing that is
/// presentation (spans, labels) ever is.
struct EvalRequest {
  compiler::ModuleAssignment assignment;
  /// Offset into the noise stream; pass the owning phase's
  /// `rep_streams` constant (plus the per-variant index for
  /// sequential loops).
  std::uint64_t rep_base = 0;
  int repetitions = 1;
  bool instrumented = false;  ///< Caliper annotations compiled in?
  bool noise = true;          ///< apply the measurement-noise model
  machine::Aggregation aggregate = machine::Aggregation::kMean;

  [[nodiscard]] machine::RunOptions run_options() const noexcept {
    machine::RunOptions options;
    options.repetitions = repetitions;
    options.instrumented = instrumented;
    options.noise = noise;
    options.rep_base = rep_base;
    options.aggregate = aggregate;
    return options;
  }
  /// The request that runs `assignment` under `options`: the inverse of
  /// run_options(), for backends that serve a run as a request.
  [[nodiscard]] static EvalRequest of_run(
      const compiler::ModuleAssignment& assignment,
      const machine::RunOptions& options) {
    EvalRequest request;
    request.assignment = assignment;
    request.rep_base = options.rep_base;
    request.repetitions = options.repetitions;
    request.instrumented = options.instrumented;
    request.noise = options.noise;
    request.aggregate = options.aggregate;
    return request;
  }
};

/// How an EvalResponse was produced (diagnostic only; not scored).
enum class EvalServedBy {
  kRun,       ///< measured now (or failed trying)
  kCacheHit,  ///< replayed from the EvalCache (journaled resumes too)
};

/// The answer to one EvalRequest; also the service wire payload.
struct EvalResponse {
  EvalOutcome outcome;
  EvalServedBy served_by = EvalServedBy::kRun;
  /// Modules that actually hit the compiler (0 on replays).
  std::size_t modules_compiled = 0;

  [[nodiscard]] bool ok() const noexcept { return outcome.ok(); }
  [[nodiscard]] double seconds() const noexcept {
    return outcome.seconds_or(kInvalidSeconds);
  }
};

/// Presentation-only evaluation context: telemetry attachment and
/// labeling. Deliberately separate from EvalRequest so the wire
/// payload never carries trace state. Spans parent under the calling
/// thread's innermost open span.
struct EvalTrace {
  /// Emit per-evaluation eval→compile/run leaf spans. Only enable for
  /// sequential callers: spans begun from batch workers would get
  /// scheduling-dependent ids and break trace diffability.
  bool leaf_spans = false;
  /// Span label for this evaluation/batch (defaults to "eval" /
  /// "evaluate_batch").
  std::string label;
};

/// Raw measurement executor: compile + link + run, nothing else. The
/// default (no backend attached) executes inline on this process's
/// engine; the service client substitutes a socket round-trip to
/// `ftuned`. Implementations carry NO tuning state - retries, fault
/// decisions, quarantine, journal and cache bookkeeping all stay in
/// the Evaluator, which is what makes remote results bit-identical to
/// local ones.
class EvalBackend {
 public:
  struct RawResult {
    machine::RunResult result;
    std::size_t modules_compiled = 0;
  };

  virtual ~EvalBackend() = default;

  /// One raw measurement. Must be thread-safe (local batches call it
  /// from pool workers).
  [[nodiscard]] virtual RawResult run(
      const compiler::ModuleAssignment& assignment,
      const machine::RunOptions& options) = 0;

  /// Batched raw measurements; result[i] answers requests[i]. The
  /// default loops over run(); the remote backend coalesces the whole
  /// span into a single wire frame.
  [[nodiscard]] virtual std::vector<RawResult> run_many(
      std::span<const EvalRequest> requests);

  /// True when run_many() is cheaper than per-item run() calls (the
  /// remote backend: one frame vs. N round-trips). evaluate_batch
  /// coalesces all pending raw runs into one run_many when set.
  [[nodiscard]] virtual bool batches_remotely() const noexcept {
    return false;
  }
};

class Evaluator {
 public:
  /// Borrows engine (and through it the compiler); must outlive this.
  Evaluator(machine::ExecutionEngine& engine, const ir::InputSpec& input);

  [[nodiscard]] const ir::InputSpec& input() const noexcept {
    return *input_;
  }
  [[nodiscard]] machine::ExecutionEngine& engine() noexcept {
    return *engine_;
  }

  // --- the unified request/response API ------------------------------------

  /// Evaluates one request as a batch of one (see evaluate_batch), but
  /// emits only the EvalTrace::leaf_spans span, no batch span. Never
  /// throws on evaluation failure - the fault is classified in the
  /// response.
  [[nodiscard]] EvalResponse evaluate(const EvalRequest& request,
                                      const EvalTrace& trace = {});

  /// Evaluates a batch concurrently; result[i] answers requests[i].
  /// Deterministic for fixed requests: quarantines queued by failures
  /// are promoted only at batch boundaries (before dispatch and after
  /// the last response), and noise keys are content-addressed, so
  /// results are independent of worker scheduling. For a sequential
  /// caller that is one rule: what call k queued skips call k+1. With a
  /// remote backend, all raw runs the batch needs coalesce into a
  /// single run_many() wire call. With an EvalCache attached, the first
  /// occurrence of every cache key is dispatched before its in-batch
  /// duplicates, so each duplicate is a hit whatever the schedule.
  /// Emits one batch-level span (from the calling thread, so traces
  /// stay deterministic under any pool schedule).
  [[nodiscard]] std::vector<EvalResponse> evaluate_batch(
      std::span<const EvalRequest> requests, const EvalTrace& trace = {});

  /// Substitutes the raw measurement executor (e.g. the service
  /// client). Pass nullptr to return to inline local execution.
  void set_backend(std::shared_ptr<EvalBackend> backend);
  [[nodiscard]] const std::shared_ptr<EvalBackend>& backend() const noexcept {
    return backend_;
  }

  /// Raw compile+link+run via the current backend, with NO accounting,
  /// resilience or caching - the primitive `ftuned` calls server-side.
  [[nodiscard]] EvalBackend::RawResult raw_run(
      const compiler::ModuleAssignment& assignment,
      const machine::RunOptions& options);

  // --- the final-measurement protocol (§4.1) -------------------------------
  // The O3 baseline and every tuned result are measured alike.

  /// Repetitions of every final measurement (paper: 10). Setting it
  /// forgets a memoized baseline.
  void set_final_reps(int reps) noexcept {
    final_reps_ = reps;
    baseline_seconds_.reset();
  }

  /// One final measurement: final reps on the kFinal noise stream, the
  /// trimmed mean when faults are on. Public for a run that cannot go
  /// through evaluate() (PGO's profiled build).
  [[nodiscard]] machine::RunOptions final_run_options() const noexcept;

  /// Re-measures an assignment under the final protocol (fresh noise).
  [[nodiscard]] double final_seconds(
      const compiler::ModuleAssignment& assignment);

  /// The O3 assignment's final measurement, memoized (a "baseline"
  /// span the first time).
  [[nodiscard]] double baseline_seconds();

  /// Settles a search's result: fills baseline_seconds, tuned_seconds
  /// (result.best_assignment re-measured, unless the caller measured it
  /// under final_run_options() itself) and speedup, in a
  /// "final_measure" span.
  void finish(TuningResult& result,
              std::optional<double> tuned_seconds = std::nullopt);

  /// Total single-run evaluations so far (cache hits included: a hit
  /// satisfies the same logical evaluation a re-run would have).
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return evaluations_.load(std::memory_order_relaxed);
  }
  /// Modeled testbed seconds actually charged so far (§4.3). With an
  /// EvalCache attached this is the *charged* side of the split; hits
  /// accumulate the avoided cost in saved_overhead_seconds() instead,
  /// and charged + saved equals the cache-off total exactly (the
  /// deterministic fault/noise streams make every avoided re-run's
  /// cost computable at insert time).
  [[nodiscard]] double modeled_overhead_seconds() const noexcept {
    return modeled_overhead_.load(std::memory_order_relaxed);
  }
  /// Modeled testbed seconds EvalCache hits avoided re-charging.
  [[nodiscard]] double saved_overhead_seconds() const noexcept {
    return saved_overhead_.load(std::memory_order_relaxed);
  }

  // --- resilience ---------------------------------------------------------

  void set_retry_policy(const RetryPolicy& policy) noexcept {
    retry_policy_ = policy;
  }
  [[nodiscard]] const RetryPolicy& retry_policy() const noexcept {
    return retry_policy_;
  }

  /// Attaches a checkpoint journal: completed evaluations are appended
  /// to it. A resumed journal's records (quarantine skips excepted) are
  /// loaded into the EvalCache, which then replays them instead of
  /// re-running; with no cache attached, a memory-only one holding at
  /// least max(EvalCache::kDefaultMaxEntries, 2 * loaded()) entries is
  /// created for them.
  void set_journal(std::shared_ptr<EvalJournal> journal);
  [[nodiscard]] const std::shared_ptr<EvalJournal>& journal() const noexcept {
    return journal_;
  }

  /// Attaches a (possibly shared) content-addressed evaluation cache:
  /// completed evaluations are memoized and replayed bit-identically
  /// before any modeled compile/link/run is charged. `salt` must
  /// fingerprint every option that changes measured values (noise,
  /// faults, seed...) so tuners with different configs sharing one
  /// cache can never alias - pass options_fingerprint(options). A
  /// resumed journal attached earlier is loaded into the new cache, so
  /// the order of set_journal and set_eval_cache does not matter.
  void set_eval_cache(std::shared_ptr<EvalCache> cache,
                      std::uint64_t salt = 0);
  [[nodiscard]] const std::shared_ptr<EvalCache>& eval_cache()
      const noexcept {
    return cache_;
  }

  /// Stable fingerprint of (program, input, architecture, assignment):
  /// the identity journal records and quarantine entries are keyed by.
  [[nodiscard]] std::uint64_t assignment_key(
      const compiler::ModuleAssignment& assignment) const;

  [[nodiscard]] bool is_quarantined(
      const compiler::ModuleAssignment& assignment) const;

  [[nodiscard]] ResilienceStats resilience_stats() const;

 private:
  /// State carried from the pre-run phase of one evaluation to its
  /// post-run phase. When `needs_run` is false the response was fully
  /// served (replay, quarantine skip, injected failure) and no raw
  /// backend run happens; otherwise exactly one raw run settles it.
  struct PendingRun {
    machine::RunOptions options;
    std::uint64_t key = 0;   ///< assignment_key, computed once per batch
    bool duplicate = false;  ///< in-batch repeat of a cache key (cache on)
    bool needs_run = false;
    int prior_attempts = 0;  ///< injected faults burned before the run
    double rerun_cost = 0.0;
    EvalOutcome outcome;     ///< valid when !needs_run
  };

  /// The one settle path behind evaluate and evaluate_batch: key every
  /// request once, mark duplicates, promote quarantines, dispatch first
  /// occurrences then duplicates, promote again.
  void settle(std::span<const EvalRequest> requests,
              std::span<PendingRun> pendings,
              std::span<EvalResponse> responses);
  /// Everything before the (at most one) raw run: cache replay, fault
  /// plan. Returns true when `out` is complete and no run is needed.
  [[nodiscard]] bool pre_evaluate(const EvalRequest& request,
                                  EvalResponse* out, PendingRun* pending);
  /// Settles a pending evaluation with its raw measurement: overhead
  /// accounting, budget check, journal record, cache insert.
  void post_evaluate(PendingRun* pending, const EvalBackend::RawResult& raw,
                     EvalResponse* out);
  /// Journals a completed evaluation and caches it (quarantine skips
  /// are never cached).
  void store(const PendingRun& pending, const EvalOutcome& outcome);
  /// Settles every request whose `duplicate` mark equals `duplicates`:
  /// local batches fan out over the pool, a remote backend gets every
  /// raw run in one run_many() call.
  void dispatch(std::span<const EvalRequest> requests,
                std::span<PendingRun> pendings,
                std::span<EvalResponse> responses, bool duplicates);
  /// Loads a resumed journal's records into the cache (creating a
  /// memory-only one when none is attached).
  void load_journal();

  void account(std::size_t modules_compiled, double run_seconds,
               int reps);
  /// Adds raw modeled seconds (fault cleanup, retry backoff) to the
  /// overhead total without counting an evaluation.
  void account_overhead(double seconds);
  /// Adds modeled seconds a cache hit avoided re-charging.
  void account_saved(double seconds);

  /// Fault/quarantine state machine up to (but excluding) the single
  /// real run: quarantine skip, compile-ICE injection, injected
  /// crash/timeout attempts with deterministic backoff accounting.
  void plan_attempts(const compiler::ModuleAssignment& assignment,
                     PendingRun* pending);

  /// Quarantines a CV whose flag interactions ICE the compiler.
  void quarantine_cv(std::uint64_t cv_hash);

  /// Registers one fully-failed evaluation of `key`; queues the key
  /// for quarantine once it reaches kQuarantineAfter failures.
  void note_failure(std::uint64_t key);
  /// Applies queued quarantines. Called only at batch boundaries so
  /// that whether an evaluation is quarantine-skipped never depends on
  /// worker scheduling.
  void promote_quarantines();

  machine::ExecutionEngine* engine_;
  const ir::InputSpec* input_;
  std::shared_ptr<EvalBackend> backend_;
  std::atomic<std::size_t> evaluations_{0};
  std::atomic<double> modeled_overhead_{0.0};

  RetryPolicy retry_policy_;
  int final_reps_ = 10;
  std::optional<double> baseline_seconds_;
  std::shared_ptr<EvalJournal> journal_;
  std::shared_ptr<EvalCache> cache_;
  std::uint64_t cache_salt_ = 0;
  std::atomic<double> saved_overhead_{0.0};
  std::atomic<std::size_t> cache_hits_{0};
  std::atomic<std::size_t> cache_misses_{0};
  std::uint64_t context_hash_ = 0;  ///< program/input/arch mix
  std::atomic<bool> has_quarantine_{false};

  mutable std::mutex resilience_mutex_;
  std::unordered_map<std::uint64_t, int> failure_counts_;
  std::vector<std::uint64_t> pending_quarantine_;
  std::unordered_set<std::uint64_t> quarantined_keys_;
  /// CVs whose flag interactions ICE the compiler (hash of the CV):
  /// any assignment touching one is skipped. Applied eagerly - the
  /// skip is score-identical to re-hitting the deterministic ICE.
  std::unordered_set<std::uint64_t> quarantined_cvs_;

  std::atomic<std::size_t> compile_failures_{0};
  std::atomic<std::size_t> run_crashes_{0};
  std::atomic<std::size_t> run_timeouts_{0};
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> failed_evaluations_{0};
  std::atomic<std::size_t> quarantine_hits_{0};
};

}  // namespace ft::core
