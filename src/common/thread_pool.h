// Bounded worker pool: the process-wide concurrency substrate.
//
// The pool owns a fixed set of worker threads (sized to the hardware, never
// one thread per work item) and schedules parallel-for style workloads over
// them with chunked static scheduling. It replaces the old spawn-per-
// iteration ParallelFor, which oversubscribed the machine as soon as the
// iteration count exceeded the core count.
//
// Design notes:
//  * Workers are started once and reused across calls; a ParallelFor call
//    costs two mutex handshakes per chunk, not a thread spawn.
//  * [0, n) is split into at most num_threads() + 1 contiguous chunks; the
//    calling thread executes one chunk itself, so a pool of k workers gives
//    k + 1 lanes and ParallelFor(n) with n <= 1 (or a 1-wide pool) runs
//    entirely on the caller with no synchronization.
//  * Exceptions thrown by the body are captured (first one wins) and
//    rethrown on the calling thread after all chunks finish.
//  * Tasks are tagged with the submitting thread's CurrentTaskTag() (the
//    query id under the QueryScheduler; 0 otherwise) and queued per tag;
//    dispatch round-robins across tags so morsels of concurrent queries
//    interleave fairly instead of queueing FIFO behind one large query.
//    The executing thread re-establishes the tag (TaskTagScope), so nested
//    submissions and trace spans inherit the query identity.
//  * A thread waiting on its fork-join — the submitting caller or a worker
//    that issued a nested ParallelFor — does not block idle: it executes
//    queued tasks carrying its own tag until the join completes
//    (help-first joins). This keeps nested fan-out from concurrent outer
//    queries deadlock-free without spawning threads: no lane ever sleeps
//    while work it is responsible for sits in the queue, and a pool of k
//    lanes never runs more than k tasks at once.
//  * Concurrency defaults to std::thread::hardware_concurrency() and can be
//    overridden with the PREF_THREADS environment variable (useful for
//    forcing multi-threaded execution in tests on small machines, or for
//    pinning benchmarks).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pref {

class ThreadPool {
 public:
  /// \param num_threads total concurrency (workers + calling thread).
  /// 0 means DefaultConcurrency(). A pool of 1 spawns no workers.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes ParallelFor can use (worker threads + the caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(0) .. fn(n-1) across the pool with chunked static scheduling
  /// and blocks until every call returned. The first exception thrown by
  /// `fn` is rethrown here after all chunks finish. Iterations must be safe
  /// to run concurrently (disjoint state), but any given index runs exactly
  /// once and indexes within one chunk run in increasing order.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Chunked variant: splits [0, n) into at most num_threads() contiguous
  /// ranges and runs body(chunk_index, begin, end) for each. chunk_index is
  /// dense in [0, chunks_used) so callers can keep per-chunk accumulators
  /// (e.g. probe counters) without sharing or locks. Chunk boundaries
  /// depend on the pool width; use ParallelForMorsels when downstream
  /// logic must not observe the thread count.
  void ParallelForChunks(
      size_t n, const std::function<void(int chunk, size_t begin, size_t end)>& body);

  /// Morsel-driven variant: splits [0, n) into fixed-size ranges of
  /// `morsel_size` iterations (the last one ragged) and executes
  /// body(morsel_index, begin, end) for each with *dynamic* scheduling —
  /// up to num_threads() lanes pull the next unclaimed morsel from a shared
  /// atomic cursor, so skewed morsels load-balance instead of serializing a
  /// lane. Unlike ParallelForChunks, morsel boundaries depend only on `n`
  /// and `morsel_size`, never on the pool width: callers that keep
  /// per-morsel partial state (selection bitmap slices, partial hash
  /// tables) and combine it in morsel order get results that are invariant
  /// across thread counts. Any given morsel runs exactly once, on one lane;
  /// the first exception is rethrown after all lanes drain (morsels not yet
  /// claimed by the throwing lane still run on the others).
  void ParallelForMorsels(
      size_t n, size_t morsel_size,
      const std::function<void(size_t morsel, size_t begin, size_t end)>& body);

  /// Fire-and-forget: enqueues `fn` as one pool task tagged with the
  /// calling thread's CurrentTaskTag(). The task runs on a worker, or on
  /// any thread helping the pool (a joiner draining its tag, or an
  /// external waiter calling TryRunOneTask). `fn` must not throw — there
  /// is no joiner to rethrow to. Posted tasks still queued at destruction
  /// are executed during shutdown, never dropped.
  void Post(std::function<void()> fn);

  /// Runs one queued task (any tag, round-robin pick) on the calling
  /// thread. Returns false without blocking when the queue is empty. This
  /// is how threads that wait on pool-external conditions (e.g. the
  /// QueryScheduler's Take) lend their lane to the pool instead of
  /// deadlocking a 1-lane configuration.
  bool TryRunOneTask();

  /// Concurrency the default pool is built with: PREF_THREADS when set to a
  /// positive integer, else hardware_concurrency(), else 1.
  static int DefaultConcurrency();

  /// Process-wide shared pool (constructed on first use).
  static ThreadPool& Default();

  /// Capability accessor for lock-ordering annotations in other classes
  /// (the Clang "private mutex" pattern): callers never lock through this —
  /// it exists so e.g. QueryScheduler can declare
  /// `Mutex mu_ ACQUIRED_BEFORE(pool_->pool_mu())` against a mutex that
  /// stays private. See the global lock order in common/mutex.h.
  Mutex* pool_mu() const RETURN_CAPABILITY(mu_) { return &mu_; }

 private:
  struct Task {
    uint64_t tag = 0;
    std::function<void()> fn;
  };

  /// Completion state shared by one fork-join call and its queued chunks.
  /// `remaining` is atomic so joiners and the shutdown path can poll it
  /// without taking a lock inside a condition predicate that already holds
  /// the pool mutex.
  struct ForkJoin {
    explicit ForkJoin(ThreadPool* p) : pool(p) {}

    /// The pool this join's chunks run on; Finish touches pool->mu_ for
    /// the wake-up handshake, and the lock-order annotation below needs a
    /// named object to order against. The ForkJoin lives on the joiner's
    /// stack and may be destroyed as soon as `remaining` reaches 0, so
    /// Finish copies this pointer into a local before its releasing
    /// decrement and never touches the ForkJoin after it.
    ThreadPool* const pool;
    std::atomic<int> remaining{0};
    /// Ordered after the pool mutex in the global hierarchy (see
    /// common/mutex.h): a lane may publish its error or rethrow while the
    /// pool is between handshakes, but never takes mu with mu_ held.
    Mutex mu ACQUIRED_AFTER(pool->mu_);
    std::exception_ptr error GUARDED_BY(mu);

    void Finish(std::exception_ptr e);
  };

  void WorkerLoop(int worker_index);
  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  /// Enqueues under mu_ and updates the depth high-water mark. Caller
  /// notifies cv_ after releasing the lock.
  void EnqueueLocked(Task task) REQUIRES(mu_);
  /// Round-robin pop across tags; requires !QueueEmptyLocked().
  Task PopAnyLocked() REQUIRES(mu_);
  /// Pops the oldest task carrying `tag`; returns false if none queued.
  bool PopTaggedLocked(uint64_t tag, Task* out) REQUIRES(mu_);
  bool QueueEmptyLocked() const REQUIRES(mu_) { return queued_ == 0; }
  bool HasTaggedLocked(uint64_t tag) const REQUIRES(mu_);

  /// Runs `task` with its tag established for the duration.
  void RunTask(Task task);
  /// Executes queued tasks carrying `tag` until `join` completes; sleeps
  /// only while neither is possible. Rethrows the join's first error.
  void HelpUntilDone(ForkJoin& join, uint64_t tag);

  mutable Mutex mu_;
  CondVar cv_;
  /// Per-tag FIFO queues (ordered map: round-robin visits tags in a
  /// deterministic cycle). queued_ is the total across tags.
  std::map<uint64_t, std::deque<Task>> queue_ GUARDED_BY(mu_);
  size_t queued_ GUARDED_BY(mu_) = 0;
  /// Next round-robin position: the first tag >= rr_next_tag_ is served.
  uint64_t rr_next_tag_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  /// Written only during construction and joined in the destructor; never
  /// mutated while workers run, so it needs no guard.
  std::vector<std::thread> workers_;

  // Observability (see DESIGN.md §6). Fetched once at construction so the
  // registry outlives the pool; per-task updates are relaxed atomics.
  Counter* tasks_executed_ = nullptr;       // pool.tasks_executed
  Gauge* queue_depth_ = nullptr;            // pool.queue_depth (high-water mark)
  std::vector<Counter*> worker_busy_us_;    // pool.worker_busy_us.<i>
};

}  // namespace pref
