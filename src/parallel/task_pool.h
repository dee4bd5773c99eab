// The worker pool: a shared task queue drained by N threads.
//
// Callers Submit independent tasks, N workers drain the FIFO, and nothing
// ever blocks a submitter — the shape a resident server needs, where many
// queries share the same workers without monopolizing them. Fork-join
// fan-out is rebuilt on top with `TaskLatch` (a countdown the caller waits
// on; `ForkJoin` below): a query granted k shards enqueues k shard tasks
// and waits for its own latch while other queries' shards interleave on
// the same workers. ParallelCflMatcher uses the same fan-out on a private
// pool.
//
// Lock discipline (machine-checked on Clang builds, see
// check/thread_annotations.h): every cross-thread field is CFL_GUARDED_BY
// the one pool mutex; `size_` is const and `workers_` is touched only by
// the constructing/destructing thread. Task bodies must not throw: a
// throwing task is caught at the InvokeTask boundary and fails fast with
// its message (cfl_analyze rule worker-noexcept).
//
// Size 1 still spawns one worker thread: Submit must return immediately
// even when the pool is busy (a server's accept loop cannot run queries
// inline). Callers that want a genuinely serial single-shard run skip the
// pool instead.

#ifndef CFL_PARALLEL_TASK_POOL_H_
#define CFL_PARALLEL_TASK_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "check/thread_annotations.h"

namespace cfl {

class TaskPool {
 public:
  // `threads` == 0 is clamped to 1.
  explicit TaskPool(uint32_t threads);

  // Stops accepting tasks, drains every task already queued, joins.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  uint32_t size() const { return size_; }

  // Enqueues `task` for execution on some worker. Never blocks on task
  // execution. Must not be called during/after destruction (CFL_CHECK).
  // The task must not throw: a throwing task is caught at the worker
  // boundary and fails fast via CFL_CHECK with the message.
  void Submit(std::function<void()> task) CFL_EXCLUDES(mu_);

  // Tasks submitted and not yet finished (queued + running). Advisory: the
  // value is stale the moment it returns; the admission controller uses it
  // only to size quotas. Non-const because it takes the pool mutex (the
  // lint's mutable-member rule rightly bans a mutable Mutex).
  uint32_t PendingTasks() CFL_EXCLUDES(mu_);

 private:
  // noexcept: runs on the worker thread outside the InvokeTask boundary,
  // where an escaped exception is an immediate std::terminate with no
  // context (enforced by cfl_analyze rule worker-noexcept).
  void WorkerLoop() noexcept CFL_EXCLUDES(mu_);

  // The worker boundary: invokes the task and converts any escaped
  // exception into a fail-fast CFL_CHECK carrying the message.
  static void InvokeTask(const std::function<void()>& task) noexcept;

  const uint32_t size_;

  Mutex mu_ CFL_LOCK_LEVEL(50);
  CondVar task_ready_;  // signaled under mu_: new task or shutdown

  std::deque<std::function<void()>> queue_ CFL_GUARDED_BY(mu_);
  uint32_t in_flight_ CFL_GUARDED_BY(mu_) = 0;  // tasks currently running
  bool shutdown_ CFL_GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;
};

// Countdown completion latch: a query that fans k shard tasks out onto a
// shared TaskPool constructs a TaskLatch(k), each shard calls CountDown()
// as it finishes, and the query's thread Wait()s — a fork-join barrier per
// query on shared workers.
class TaskLatch {
 public:
  explicit TaskLatch(uint32_t count) : remaining_(count) {}

  TaskLatch(const TaskLatch&) = delete;
  TaskLatch& operator=(const TaskLatch&) = delete;

  void CountDown() CFL_EXCLUDES(mu_);

  // Blocks until CountDown has been called `count` times.
  void Wait() CFL_EXCLUDES(mu_);

 private:
  Mutex mu_ CFL_LOCK_LEVEL(80);
  CondVar done_;  // signaled under mu_ when remaining_ hits zero
  uint32_t remaining_ CFL_GUARDED_BY(mu_);
};

// Runs body(0), ..., body(tasks - 1) as tasks on `pool` and returns once
// every one has finished. `body` must be safe to call concurrently and
// must not throw (the TaskPool boundary fails fast on it).
void ForkJoin(TaskPool& pool, uint32_t tasks,
              const std::function<void(uint32_t)>& body);

}  // namespace cfl

#endif  // CFL_PARALLEL_TASK_POOL_H_
