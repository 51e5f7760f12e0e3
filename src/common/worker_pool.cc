#include "common/worker_pool.h"

#include <algorithm>
#include <exception>
#include <map>

namespace rdfopt {

WorkerPool::WorkerPool(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

WorkerPool& WorkerPool::Shared(size_t num_threads) {
  static std::mutex mu;
  // Leaked on purpose: workers stay parked until process exit, so no
  // static destructor ever joins them.
  static auto* pools = new std::map<size_t, std::unique_ptr<WorkerPool>>();
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<WorkerPool>& pool = (*pools)[num_threads];
  if (pool == nullptr) pool = std::make_unique<WorkerPool>(num_threads);
  return *pool;
}

void WorkerPool::RunTask(const std::shared_ptr<Batch>& batch, size_t index) {
  if (!batch->cancelled.load(std::memory_order_acquire)) {
    Status st = [&]() -> Status {
      try {
        return (*batch->fn)(index);
      } catch (const std::exception& e) {
        return Status::Internal(std::string("worker task threw: ") + e.what());
      } catch (...) {
        return Status::Internal("worker task threw a non-exception");
      }
    }();
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(batch->mu);
      batch->failures.emplace_back(index, std::move(st));
      batch->cancelled.store(true, std::memory_order_release);
    }
  }
  // Skipped (post-cancellation) tasks count as done so the batch drains.
  if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch->n) {
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->all_done.notify_all();
  }
}

void WorkerPool::DrainBatch(const std::shared_ptr<Batch>& batch) {
  while (true) {
    size_t index = batch->next.fetch_add(1, std::memory_order_acq_rel);
    if (index >= batch->n) return;
    RunTask(batch, index);
  }
}

void WorkerPool::WorkerLoop() {
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !pending_.empty(); });
      if (pending_.empty()) {
        if (shutdown_) return;
        continue;
      }
      batch = pending_.front();  // Peek: siblings work the same batch.
    }
    DrainBatch(batch);
    {
      // Fully claimed: stop advertising it (any observer may remove it).
      std::lock_guard<std::mutex> lock(mu_);
      auto it = std::find(pending_.begin(), pending_.end(), batch);
      if (it != pending_.end()) pending_.erase(it);
    }
  }
}

Status WorkerPool::ParallelFor(size_t n,
                               const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  if (!threads_.empty() && n > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(batch);
    }
    work_available_.notify_all();
  }
  // Help-first: the caller claims tasks too, so a nested ParallelFor issued
  // from inside a task makes progress even when every worker is busy.
  DrainBatch(batch);
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->all_done.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(pending_.begin(), pending_.end(), batch);
    if (it != pending_.end()) pending_.erase(it);
  }

  if (batch->failures.empty()) return Status::OK();
  // First-error-wins by task index; a kCancelled produced by cooperative
  // cancellation of sibling work never masks the error that triggered it.
  std::sort(batch->failures.begin(), batch->failures.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [index, st] : batch->failures) {
    if (st.code() != StatusCode::kCancelled) return st;
  }
  return batch->failures.front().second;
}

}  // namespace rdfopt
