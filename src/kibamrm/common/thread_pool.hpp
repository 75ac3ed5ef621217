// A small persistent worker pool for data-parallel loops.
//
// The expanded battery chains are solved by long sequences of sparse
// matrix-vector products; each product splits into independent row ranges.
// ThreadPool keeps its workers alive across those products (a lifetime
// curve issues tens of thousands of them -- spawning threads per product
// would dominate the kernel), distributes loop indices through an atomic
// counter so uneven shards self-balance, and lets the calling thread work
// too: a pool of size 1 degenerates to a plain inline loop with no
// synchronisation at all.
//
// Users: engine/ParallelBackend (sharded gather step) and
// engine/ScenarioBatch (concurrent scenario solves with per-lane scratch).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "kibamrm/common/thread_annotations.hpp"

namespace kibamrm::common {

/// Fixed-size pool executing parallel index loops.  parallel_for() is
/// blocking and must not be called concurrently from multiple threads or
/// re-entered from inside a task.
class ThreadPool {
 public:
  /// `threads` = total execution lanes including the caller; 0 selects
  /// hardware_thread_count().  A pool of size n spawns n-1 workers.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution lanes (>= 1).
  std::size_t thread_count() const { return lanes_; }

  /// Runs task(index, lane) for every index in [0, count), blocking until
  /// all complete.  `lane` identifies the executing lane in [0,
  /// thread_count()) -- tasks key per-thread scratch off it; two tasks with
  /// the same lane never run concurrently.  Indices are claimed through an
  /// atomic counter, so per-index cost may vary freely.  The first
  /// exception thrown by a task is rethrown here after the loop drains.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t index,
                                             std::size_t lane)>& task)
      KIBAMRM_EXCLUDES(mutex_);

  /// std::thread::hardware_concurrency() with a floor of 1.
  static std::size_t hardware_thread_count();

 private:
  void worker_loop(std::size_t lane) KIBAMRM_EXCLUDES(mutex_);
  /// Claims indices of the job (`task`, `count` -- read from the guarded
  /// members under the lock by the caller) until it is exhausted;
  /// records the first failure.  Taking the job by value keeps every
  /// access to the guarded members inside a locked scope.
  void drain(const std::function<void(std::size_t, std::size_t)>& task,
             std::size_t count, std::size_t lane) KIBAMRM_EXCLUDES(mutex_);

  std::size_t lanes_;
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar job_ready_;
  CondVar job_done_;
  // Current job; generation_ bumps once per dispatch so late-waking
  // workers never re-run a finished job.  Workers copy task_/count_ out
  // under the lock in worker_loop before entering drain().
  const std::function<void(std::size_t, std::size_t)>* task_
      KIBAMRM_GUARDED_BY(mutex_) = nullptr;
  std::size_t count_ KIBAMRM_GUARDED_BY(mutex_) = 0;
  // Next unclaimed index.  KIBAMRM_LOCK_FREE: fetch_add(relaxed) only
  // hands out disjoint indices -- no other state is ordered through it;
  // publication of the job itself rides the mutex_ handshake, and the
  // store that poisons the counter on failure is ordered by the same
  // lock around failure_.
  std::atomic<std::size_t> next_{0}
      KIBAMRM_LOCK_FREE("disjoint index claims; job published via mutex_");
  std::size_t active_ KIBAMRM_GUARDED_BY(mutex_) = 0;  // lanes inside drain()
  std::uint64_t generation_ KIBAMRM_GUARDED_BY(mutex_) = 0;
  bool stopping_ KIBAMRM_GUARDED_BY(mutex_) = false;
  std::exception_ptr failure_ KIBAMRM_GUARDED_BY(mutex_);
};

}  // namespace kibamrm::common
