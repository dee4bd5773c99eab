// Fixture: the worker-pool surface mirrored from src/parallel/task_pool.h.
#ifndef FIX_PARALLEL_POOL_H_
#define FIX_PARALLEL_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "match/match.h"

namespace fix {

class TaskPool {
 public:
  explicit TaskPool(uint32_t threads);

  uint32_t size() const { return size_; }

  void Submit(std::function<void()> task);

 private:
  void WorkerLoop() noexcept;

  static void InvokeTask(const std::function<void()>& task) noexcept;

  std::deque<std::function<void()>> queue_;
  uint32_t size_ = 1;
};

}  // namespace fix

#endif  // FIX_PARALLEL_POOL_H_
