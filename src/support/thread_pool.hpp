// Work-sharing thread pool with per-caller task groups and a
// deterministic parallel_for.
//
// Variant evaluation in the tuner fans 1000 independent
// compile+run jobs across cores. Each index's work is a pure function
// of the index (all randomness is index-derived), so results are
// bit-identical regardless of thread count or scheduling order.
//
// The pool is shared process-wide, so several tuning campaigns (or a
// nested parallel_for issued from inside a worker task) can hit it
// concurrently. Isolation between callers comes from TaskGroup: each
// caller's tasks are accounted to its own group, wait(group) returns
// when *that group's* tasks are done, and a task exception is routed
// only to the group that submitted it. A thread that waits on a group
// while the queue is non-empty helps execute queued tasks instead of
// blocking, so nested parallel_for calls cannot deadlock even when
// every worker is itself inside a wait.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ft::support {

class ThreadPool;

/// One caller's unit of accounting on a shared ThreadPool: a pending
/// count, a completion signal, and a first-exception slot. Stack-
/// allocate one per batch, submit tasks against it, then wait(). The
/// group must outlive its tasks: ThreadPool::wait() guarantees that by
/// returning only once the pending count reaches zero (even when a
/// task threw).
class TaskGroup {
 public:
  /// Per-group counters (all cumulative). `stolen` counts tasks of
  /// this group executed by a thread inside ThreadPool::wait() rather
  /// than by a pool worker - nonzero means the group made progress
  /// through helping, i.e. it was not blocked behind another caller.
  struct Stats {
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t stolen = 0;
  };

  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Safe to call concurrently with task execution; counters are a
  /// consistent snapshot only after wait() returned.
  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.stolen = stolen_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class ThreadPool;

  // pending_ and first_error_ are guarded by the owning pool's mutex;
  // done_ is signaled (under that mutex) when pending_ hits zero.
  std::size_t pending_ = 0;
  std::condition_variable done_;
  std::exception_ptr first_error_;
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> stolen_{0};
};

/// Fixed-size thread pool. Tasks are void() callables; an exception
/// thrown by a task propagates out of the wait() on its group (first
/// one per group wins). Distinct groups never observe each other's
/// errors and never block on each other's work.
class ThreadPool {
 public:
  /// Pool-wide observability snapshot (cumulative since construction).
  struct Stats {
    std::size_t threads = 0;
    std::size_t tasks_submitted = 0;
    std::size_t tasks_completed = 0;
    std::size_t tasks_stolen = 0;        ///< executed by waiters, not workers
    std::size_t queue_high_water = 0;    ///< max queued-at-once depth
    double worker_busy_seconds = 0.0;    ///< summed task execution time
  };

  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueue a task accounted to `group`. The group must stay alive
  /// until a wait(group) covering this task returns.
  void submit(TaskGroup& group, std::function<void()> task);

  /// Block until every task submitted against `group` has finished,
  /// helping execute queued tasks (of any group) while the group is
  /// still pending. Rethrows the group's first captured exception and
  /// clears it, leaving the group reusable.
  void wait(TaskGroup& group);

  [[nodiscard]] Stats stats() const;

 private:
  struct PendingTask {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void worker_loop();
  /// Runs one task with no lock held and performs completion
  /// bookkeeping. `stolen` marks execution by a waiter thread.
  void run_task(PendingTask& task, bool stolen);

  std::vector<std::thread> workers_;
  std::queue<PendingTask> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;

  // Pool-wide counters, guarded by mutex_.
  std::size_t tasks_submitted_ = 0;
  std::size_t tasks_completed_ = 0;
  std::size_t tasks_stolen_ = 0;
  std::size_t queue_high_water_ = 0;
  double worker_busy_seconds_ = 0.0;
};

/// Shared process-wide pool (lazily constructed). Sized from the
/// FT_THREADS environment variable when set (> 0), otherwise from
/// hardware_concurrency.
ThreadPool& global_pool();

/// Runs body(i) for i in [0, count) across the pool. Deterministic as
/// long as body(i) depends only on i: chunking is static (independent
/// of thread availability), so work assignment never varies between
/// runs. Blocks until all iterations are done; rethrows the first
/// exception thrown by any iteration. Safe to call from inside a pool
/// worker (the caller helps execute queued tasks instead of blocking).
/// When `group_stats` is non-null it receives the batch's TaskGroup
/// counters after completion.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr,
                  TaskGroup::Stats* group_stats = nullptr);

}  // namespace ft::support
