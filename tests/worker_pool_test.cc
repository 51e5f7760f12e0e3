#include "common/worker_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rdfopt {
namespace {

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  Status st = pool.ParallelFor(100, [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(WorkerPoolTest, ZeroThreadsDegradesToCallerOnly) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::atomic<int> count{0};
  Status st = pool.ParallelFor(10, [&](size_t) {
    ++count;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count.load(), 10);
}

TEST(WorkerPoolTest, ResultsIndependentOfThreadCount) {
  // Per-index outputs land in per-index slots, so any merge that walks the
  // slots in index order is deterministic regardless of pool size.
  std::vector<size_t> out_seq(64, 0), out_par(64, 0);
  WorkerPool seq(0), par(4);
  auto fill = [](std::vector<size_t>* out) {
    return [out](size_t i) {
      (*out)[i] = i * i + 1;
      return Status::OK();
    };
  };
  ASSERT_TRUE(seq.ParallelFor(64, fill(&out_seq)).ok());
  ASSERT_TRUE(par.ParallelFor(64, fill(&out_par)).ok());
  EXPECT_EQ(out_seq, out_par);
}

TEST(WorkerPoolTest, FirstErrorWinsBySmallestIndex) {
  WorkerPool pool(4);
  Status st = pool.ParallelFor(50, [&](size_t i) {
    if (i == 7) return Status::InvalidArgument("bad seven");
    if (i == 23) return Status::Timeout("late twenty-three");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("bad seven"), std::string::npos);
}

TEST(WorkerPoolTest, CancelledNeverMasksTheRootCause) {
  // Tasks that observe cancellation report kCancelled; ParallelFor must
  // surface the real failure even when a cancelled task has a smaller index.
  WorkerPool pool(2);
  std::atomic<bool> cancelled{false};
  Status st = pool.ParallelFor(20, [&](size_t i) {
    if (cancelled.load()) return Status::Cancelled("observed cancel");
    if (i == 10) {
      cancelled.store(true);
      return Status::ResourceExhausted("budget blown");
    }
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(WorkerPoolTest, ExceptionsBecomeInternalStatus) {
  WorkerPool pool(2);
  Status st = pool.ParallelFor(8, [&](size_t i) -> Status {
    if (i == 3) throw std::runtime_error("boom");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
}

TEST(WorkerPoolTest, PoolIsReusableAcrossBatches) {
  WorkerPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    Status st = pool.ParallelFor(17, [&](size_t) {
      ++count;
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << "round " << round;
    ASSERT_EQ(count.load(), 17) << "round " << round;
  }
}

TEST(WorkerPoolTest, FailedBatchLeavesPoolUsable) {
  WorkerPool pool(2);
  ASSERT_FALSE(pool.ParallelFor(5, [](size_t i) {
    return i == 0 ? Status::Internal("once") : Status::OK();
  }).ok());
  std::atomic<int> count{0};
  ASSERT_TRUE(pool.ParallelFor(5, [&](size_t) {
    ++count;
    return Status::OK();
  }).ok());
  EXPECT_EQ(count.load(), 5);
}

TEST(WorkerPoolTest, NestedParallelForDoesNotDeadlock) {
  // Help-first scheduling: the outer task's thread drains inner batches
  // itself, so nesting can never wait on a thread that is waiting on it.
  WorkerPool pool(2);
  std::atomic<int> inner_total{0};
  Status st = pool.ParallelFor(6, [&](size_t) {
    return pool.ParallelFor(6, [&](size_t) {
      ++inner_total;
      return Status::OK();
    });
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(inner_total.load(), 36);
}

TEST(WorkerPoolTest, SingleTaskRunsInline) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  ASSERT_TRUE(pool.ParallelFor(1, [&](size_t) {
    ++count;
    return Status::OK();
  }).ok());
  EXPECT_EQ(count.load(), 1);
  ASSERT_TRUE(pool.ParallelFor(0, [&](size_t) {
    ++count;
    return Status::OK();
  }).ok());
  EXPECT_EQ(count.load(), 1);
}

TEST(WorkerPoolTest, ConcurrentCallersShareOnePool) {
  // Independent threads issue batches on one pool at once (the serving
  // case: every query of a worker count shares WorkerPool::Shared). Every
  // task of a successful batch runs exactly once, and each failing batch
  // reports its own lowest-index error, never another caller's.
  WorkerPool pool(3);
  constexpr size_t kCallers = 6;
  constexpr size_t kRounds = 20;
  constexpr size_t kTasks = 37;
  std::vector<std::atomic<int>> hits(kCallers * kRounds * kTasks);
  std::vector<Status> results(kCallers * kRounds);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t batch = c * kRounds + r;
        const bool fails = r % 2 == 1;
        results[batch] = pool.ParallelFor(kTasks, [&, batch, fails](size_t i) {
          hits[batch * kTasks + i].fetch_add(1);
          // Long enough that the callers' batches overlap in the pool.
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          if (fails && i == 20) return Status::Timeout("late");
          if (fails && i == 5) {
            return Status::InvalidArgument("batch " + std::to_string(batch));
          }
          return Status::OK();
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t batch = 0; batch < kCallers * kRounds; ++batch) {
    const Status& st = results[batch];
    for (size_t i = 0; i < kTasks; ++i) {
      const int n = hits[batch * kTasks + i].load();
      if (st.ok()) {
        EXPECT_EQ(n, 1) << "batch " << batch << " task " << i;
      } else {
        EXPECT_LE(n, 1) << "batch " << batch << " task " << i;
      }
    }
    if (batch % 2 == 0) {
      EXPECT_TRUE(st.ok()) << "batch " << batch << ": " << st.ToString();
    } else if (hits[batch * kTasks + 5].load() == 1) {
      // Task 5 ran, so its error outranks task 20's whatever the timing.
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(st.message(), "batch " + std::to_string(batch));
    } else {
      EXPECT_EQ(st.code(), StatusCode::kTimeout) << "batch " << batch;
    }
  }
}

TEST(WorkerPoolTest, SharedPoolIsOnePerWorkerCount) {
  WorkerPool& two = WorkerPool::Shared(2);
  EXPECT_EQ(&two, &WorkerPool::Shared(2));
  EXPECT_EQ(two.num_threads(), 2u);
  EXPECT_NE(&two, &WorkerPool::Shared(3));
  EXPECT_EQ(WorkerPool::Shared(3).num_threads(), 3u);
}

}  // namespace
}  // namespace rdfopt
