#ifndef RDFOPT_COMMON_WORKER_POOL_H_
#define RDFOPT_COMMON_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace rdfopt {

/// A fixed-size worker pool for intra-query parallelism (parallel UNION
/// branches and JUCQ component evaluation, see DESIGN.md §9).
///
/// Work is submitted in *batches* through ParallelFor: the batch's tasks are
/// claimed from a shared atomic cursor by the pool's worker threads AND by
/// the calling thread, which participates until the batch completes
/// ("help-first" scheduling). Because a waiting caller always executes tasks
/// of its own batch instead of blocking idle, nested ParallelFor calls from
/// inside a task cannot deadlock: every wait makes progress on the finite
/// task DAG.
///
/// Status/exception capture: each task returns a Status; a thrown exception
/// is converted to Status::Internal. The first failure cancels the batch —
/// tasks not yet started are skipped, in-flight tasks drain before
/// ParallelFor returns — and the reported Status is the failure with the
/// smallest task index, preferring "real" errors over kCancelled statuses
/// produced by cooperative cancellation of sibling work.
class WorkerPool {
 public:
  /// Spawns `num_threads` workers (0 is allowed: every batch then runs
  /// entirely on the calling thread, preserving the ParallelFor contract).
  explicit WorkerPool(size_t num_threads);
  /// Joins all workers; no batch may be in flight.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The process-lifetime pool of `num_threads` workers, created on first
  /// use and never destroyed. Every evaluator configured for the same
  /// worker count shares it, so a query never spawns or joins threads;
  /// concurrent callers' batches interleave on the shared workers.
  static WorkerPool& Shared(size_t num_threads);

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(0) .. fn(n-1), distributed over the workers and the calling
  /// thread; returns when every started task has finished. Tasks of one
  /// batch may run in any order and concurrently; a reusable pool may run
  /// many batches sequentially or concurrently (from nested tasks or from
  /// independent caller threads), each batch with its own first-error-wins
  /// result.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

 private:
  /// One in-flight ParallelFor call; heap-allocated and shared so late
  /// workers can complete their bookkeeping safely.
  struct Batch {
    size_t n = 0;
    const std::function<Status(size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};       ///< Claim cursor.
    std::atomic<size_t> done{0};       ///< Completed (or skipped) tasks.
    std::atomic<bool> cancelled{false};
    std::mutex mu;                     ///< Guards failures + completion CV.
    std::condition_variable all_done;
    /// (task index, status) of every failed task; resolved to one Status
    /// after the batch drains.
    std::vector<std::pair<size_t, Status>> failures;
  };

  /// Claims and runs tasks of `batch` until none are left unclaimed.
  static void DrainBatch(const std::shared_ptr<Batch>& batch);
  /// Runs one task, recording failure/cancellation; returns after marking
  /// the task done (notifying the batch when it was the last).
  static void RunTask(const std::shared_ptr<Batch>& batch, size_t index);

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  /// Batches with unclaimed tasks, oldest first; workers drain the front.
  std::vector<std::shared_ptr<Batch>> pending_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace rdfopt

#endif  // RDFOPT_COMMON_WORKER_POOL_H_
