#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace ft::support {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(TaskGroup& group, std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(PendingTask{std::move(task), &group});
    ++group.pending_;
    ++tasks_submitted_;
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
  }
  group.submitted_.fetch_add(1, std::memory_order_relaxed);
  work_available_.notify_one();
}

void ThreadPool::run_task(PendingTask& task, bool stolen) {
  const auto start = std::chrono::steady_clock::now();
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  task.group->completed_.fetch_add(1, std::memory_order_relaxed);
  if (stolen) task.group->stolen_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    ++tasks_completed_;
    if (stolen) ++tasks_stolen_;
    worker_busy_seconds_ += seconds;
    if (error && !task.group->first_error_) {
      task.group->first_error_ = error;
    }
    if (--task.group->pending_ == 0) task.group->done_.notify_all();
  }
}

void ThreadPool::wait(TaskGroup& group) {
  std::unique_lock lock(mutex_);
  while (group.pending_ > 0) {
    if (!queue_.empty()) {
      // Help execute queued work (any group's) instead of blocking:
      // this is what makes a nested parallel_for inside a worker task
      // make progress when every worker is itself inside a wait().
      PendingTask task = std::move(queue_.front());
      queue_.pop();
      lock.unlock();
      run_task(task, /*stolen=*/true);
      lock.lock();
    } else {
      group.done_.wait(lock);
    }
  }
  std::exception_ptr error = group.first_error_;
  group.first_error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard lock(mutex_);
  Stats s;
  s.threads = workers_.size();
  s.tasks_submitted = tasks_submitted_;
  s.tasks_completed = tasks_completed_;
  s.tasks_stolen = tasks_stolen_;
  s.queue_high_water = queue_high_water_;
  s.worker_busy_seconds = worker_busy_seconds_;
  return s;
}

void ThreadPool::worker_loop() {
  for (;;) {
    PendingTask task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop();
    }
    run_task(task, /*stolen=*/false);
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    // FT_THREADS overrides hardware_concurrency for the shared pool,
    // so a deployment can size the evaluation runtime independently of
    // the container's visible core count.
    if (const char* env = std::getenv("FT_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return std::size_t{0};
  }());
  return pool;
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool, TaskGroup::Stats* group_stats) {
  if (group_stats) *group_stats = TaskGroup::Stats{};
  if (count == 0) return;
  if (count == 1) return body(0);  // on the caller; the pool stays cold
  ThreadPool& target = pool ? *pool : global_pool();
  const std::size_t threads = target.thread_count();
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Static chunking: each task owns a contiguous index range. The chunk
  // count is independent of thread availability so work assignment (and
  // thus any per-chunk state) is deterministic.
  const std::size_t chunks = std::min(count, threads * 4);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  TaskGroup group;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, count);
    if (begin >= end) break;
    target.submit(group, [&body, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }
  target.wait(group);
  if (group_stats) *group_stats = group.stats();
}

}  // namespace ft::support
