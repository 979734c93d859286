// Work-stealing worker pool used by the multithreaded RAPID baseline and the
// dataflow engine's in-process stages.
//
// The pool mirrors the execution model the paper benchmarks against: a fixed
// number of threads running independent tasks. parallel_for provides the
// data-parallel "same operation over every cluster" pattern.
//
// Scheduling (PR 3 rewrite — the old pool paid one global mutex + condition
// variable per task and a 1 ms polling wait per join):
//
//   * every worker owns a Chase-Lev-style deque: the owner pushes and pops
//     its bottom end lock-free, idle workers steal from the top end with a
//     single CAS. Non-worker threads submit through a small mutex-protected
//     injection queue (submit is not the hot path).
//   * parallel_for is batched: the caller publishes one chunk *counter*, not
//     one queue entry per chunk. Workers that join the loop (via at most
//     thread_count() stolen "tickets") claim chunks with a fetch_add, and
//     the caller itself claims chunks directly — so a loop whose chunks are
//     all claimed costs zero queue traffic.
//   * chunk completion is lock-free except for the final chunk, which takes
//     the join mutex once to publish completion to a possibly-parked caller
//     (the old pool locked it for *every* chunk).
//   * out-of-work threads park on a condition variable after a steal sweep
//     comes up empty; producers wake them only when someone is actually
//     parked. Joins park on the loop's own condition variable instead of
//     polling every millisecond.
//
// parallel_for is reentrant: a task running on a pool worker may itself call
// parallel_for on the same pool. The calling thread always claims chunks of
// its own loop directly and then *helps* — running queued tasks instead of
// blocking — so nested data parallelism completes even on a 1-thread pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace drapid {

/// Monotonic scheduler event tallies. Snapshots are cheap (three relaxed
/// loads); the engine diffs them around each stage to attribute steals,
/// parks and lock-free completions to the stage that caused them.
struct SchedulerStats {
  /// Tasks executed by a thread other than the one that enqueued them.
  std::uint64_t tasks_stolen = 0;
  /// Times a thread slept (idle worker out of work, or a join waiting for
  /// its final chunk). Zero parks = the pool never blocked.
  std::uint64_t parks = 0;
  /// parallel_for chunk completions that took the lock-free fast path
  /// (every chunk but the last one of each loop).
  std::uint64_t fastpath_completions = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_.size(); }

  /// Enqueues a task; the returned future reports completion/exceptions.
  /// Tasks still queued when the destructor runs are executed (on the
  /// destructing thread if the workers have already exited), so every
  /// returned future completes.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all done.
  /// Work is claimed in contiguous chunks from a shared counter to bound
  /// scheduling overhead; any exception from fn is rethrown (first one
  /// wins; remaining chunks of the loop are skipped once an error is
  /// recorded). Safe to call from inside a pool task: the waiting thread
  /// claims its own chunks and then runs other pending tasks itself.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Snapshot of the scheduler event counters (monotonic).
  SchedulerStats stats() const;

 private:
  struct Task;
  struct ClosureTask;
  struct Loop;
  struct TicketTask;
  struct Worker;

  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

  void worker_loop(std::size_t index);
  /// Claims chunks of `loop` until its counter is exhausted.
  void run_loop(Loop& loop);
  void finish_chunk(Loop& loop);
  /// Own deque -> injection queue -> steal sweep. `self` is kNoWorker for
  /// threads that do not own a deque in this pool.
  Task* find_task(std::size_t self);
  /// Runs one pending task if any is findable. Never throws (task errors
  /// land in futures / loop join state).
  bool run_one(std::size_t self);
  void enqueue(Task* task);
  void wake_workers();
  /// Index of the calling thread's worker in *this* pool, or kNoWorker.
  std::size_t self_index() const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Injection queue for tasks enqueued by non-worker threads (and deque
  // overflow, which the fixed deque capacity makes effectively unreachable).
  std::mutex injection_mutex_;
  std::deque<Task*> injection_;

  // Idle lot. pending_ counts enqueued-but-unclaimed tasks; both it and
  // idle_waiters_ use seq_cst so a producer that observes no waiter is
  // guaranteed the waiter's own re-check observes the producer's task.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<int> idle_waiters_{0};
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> fastpath_{0};
};

}  // namespace drapid
