// Fixture: a clean worker boundary — a task is invoked only inside
// InvokeTask, the out-of-boundary functions are noexcept, and everything a
// Submit lambda calls is noexcept or CFL_POOL_SAFE. Mutation self-test
// seeds 7 and 8 break these properties.
#include "parallel/pool.h"

#include <utility>

#include "check/check.h"

namespace fix {

namespace {

uint64_t Accumulate(uint64_t a, uint64_t b) noexcept { return a + b; }

uint64_t Allocating(uint64_t n) CFL_POOL_SAFE { return n * 2; }

}  // namespace

void TaskPool::InvokeTask(const std::function<void()>& task) noexcept {
  task();
}

void TaskPool::WorkerLoop() noexcept {
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  InvokeTask(task);
}

void TaskPool::Submit(std::function<void()> task) {
  queue_.push_back(std::move(task));
  WorkerLoop();
}

void Drive(TaskPool& pool, uint64_t w) {
  pool.Submit([w] {
    uint64_t total = Accumulate(w, 1);
    total = Allocating(total);
  });
}

}  // namespace fix
