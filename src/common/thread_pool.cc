#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "common/task_context.h"
#include "common/metric_names.h"

namespace pref {

namespace {

/// Set while a thread executes ThreadPool::WorkerLoop, so nested
/// ParallelFor calls from inside a task can recognise their own pool.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

void ThreadPool::ForkJoin::Finish(std::exception_ptr e) {
  if (e) {
    MutexLock lock(&mu);
    if (!error) error = e;
  }
  // The error (if any) is published before the final decrement, so the
  // joiner that observes remaining == 0 sees it. After the decrement this
  // object may be destroyed by the joiner (it lives on the joiner's stack),
  // so the pool pointer is copied out first: the pool outlives every join
  // made on it, the ForkJoin does not.
  ThreadPool* const p = pool;
  if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Lock/unlock pairs with the joiner's predicate evaluation under mu_:
    // either the joiner saw remaining == 0 already, or it is parked in
    // cv_.Wait and the NotifyAll below wakes it. Without the fence the
    // notify could land between the predicate check and the park.
    { MutexLock lock(&p->mu_); }
    p->cv_.NotifyAll();
  }
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultConcurrency();
  // Register metrics before spawning workers: the registry singleton then
  // finishes construction before this pool does and outlives it, so worker
  // threads can update counters right up to shutdown.
  MetricsRegistry& registry = MetricsRegistry::Default();
  tasks_executed_ = &registry.GetCounter(metric_names::kPoolTasksExecuted);
  queue_depth_ = &registry.GetGauge(metric_names::kPoolQueueDepth);
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  worker_busy_us_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    worker_busy_us_.push_back(
        &registry.GetCounter(metric_names::kPoolWorkerBusyUsPrefix + std::to_string(i)));
  }
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
  // A pool with no workers (1-lane configuration) has nobody to drain
  // tasks Posted but never claimed; run them here so Post never drops work.
  while (TryRunOneTask()) {
  }
}

void ThreadPool::EnqueueLocked(Task task) {
  queue_[task.tag].push_back(std::move(task));
  ++queued_;
#if PREF_METRICS
  queue_depth_->SetMax(static_cast<int64_t>(queued_));
#endif
}

ThreadPool::Task ThreadPool::PopAnyLocked() {
  // Round-robin across tags: serve the first tag at or after the cursor,
  // wrapping to the smallest. With one active tag this degrades to FIFO;
  // with concurrent queries each pop advances to the next query's queue,
  // so no query's morsels wait behind the entire backlog of another.
  auto it = queue_.lower_bound(rr_next_tag_);
  if (it == queue_.end()) it = queue_.begin();
  Task task = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queue_.erase(it);
  rr_next_tag_ = task.tag + 1;
  --queued_;
  return task;
}

bool ThreadPool::PopTaggedLocked(uint64_t tag, Task* out) {
  auto it = queue_.find(tag);
  if (it == queue_.end()) return false;
  *out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queue_.erase(it);
  --queued_;
  return true;
}

bool ThreadPool::HasTaggedLocked(uint64_t tag) const {
  // Empty per-tag deques are erased eagerly, so presence means non-empty.
  return queue_.find(tag) != queue_.end();
}

void ThreadPool::RunTask(Task task) {
  // Re-establish the submitter's tag so nested fan-outs and trace spans on
  // this thread observe the owning query's identity.
  TaskTagScope scope(task.tag);
  task.fn();
#if PREF_METRICS
  tasks_executed_->Add(1);
#endif
}

void ThreadPool::WorkerLoop(int worker_index) {
  t_worker_pool = this;
  for (;;) {
    Task task;
    {
      MutexLock lock(&mu_);
      // The predicate runs with mu_ held (CondVar reacquires before each
      // evaluation), so the guarded reads below are in order.
      cv_.Wait(&lock, [this]() REQUIRES(mu_) {
        return shutdown_ || !QueueEmptyLocked();
      });
      if (QueueEmptyLocked()) return;  // shutdown with a drained queue
      task = PopAnyLocked();
    }
#if PREF_METRICS
    Stopwatch busy;
    RunTask(std::move(task));
    worker_busy_us_[static_cast<size_t>(worker_index)]->Add(
        static_cast<uint64_t>(busy.ElapsedSeconds() * 1e6));
#else
    (void)worker_index;
    RunTask(std::move(task));
#endif
  }
}

bool ThreadPool::OnWorkerThread() const { return t_worker_pool == this; }

void ThreadPool::Post(std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    EnqueueLocked(Task{CurrentTaskTag(), std::move(fn)});
  }
  // NotifyAll, not NotifyOne: waiters are a mix of workers and joiners with
  // tag-filtered predicates, and a single notify could land on a joiner
  // that ignores this task and never re-notifies the worker that wants it.
  cv_.NotifyAll();
}

bool ThreadPool::TryRunOneTask() {
  Task task;
  {
    MutexLock lock(&mu_);
    if (QueueEmptyLocked()) return false;
    task = PopAnyLocked();
  }
  RunTask(std::move(task));
  return true;
}

void ThreadPool::HelpUntilDone(ForkJoin& join, uint64_t tag) {
  // Help-first join: instead of parking while peer lanes work, execute
  // queued tasks that carry this join's tag. Every task queued by this
  // join (and by any nested join beneath it) carries the same tag, so the
  // joiner itself can always drain the work it is waiting on — that is
  // what makes nested fan-out from concurrent submitters deadlock-free
  // even when every worker is blocked in a join of its own.
  while (join.remaining.load(std::memory_order_acquire) != 0) {
    Task task;
    bool have = false;
    {
      MutexLock lock(&mu_);
      have = PopTaggedLocked(tag, &task);
      if (!have) {
        // Nothing helpable right now. Park until the join completes or a
        // same-tag task shows up (a nested fan-out on another lane).
        cv_.Wait(&lock, [this, &join, tag]() REQUIRES(mu_) {
          return join.remaining.load(std::memory_order_acquire) == 0 ||
                 HasTaggedLocked(tag);
        });
      }
    }
    if (have) RunTask(std::move(task));
  }
  MutexLock lock(&join.mu);
  if (join.error) std::rethrow_exception(join.error);
}

void ThreadPool::ParallelForChunks(
    size_t n, const std::function<void(int, size_t, size_t)>& body) {
  if (n == 0) return;
  const int lanes = num_threads();
  if (lanes <= 1 || n == 1) {
    body(0, 0, n);
    return;
  }
  const int chunks = static_cast<int>(
      std::min<size_t>(n, static_cast<size_t>(lanes)));
  const size_t base = n / static_cast<size_t>(chunks);
  const size_t extra = n % static_cast<size_t>(chunks);

  ForkJoin join(this);
  join.remaining.store(chunks, std::memory_order_relaxed);
  const uint64_t tag = CurrentTaskTag();
  {
    MutexLock lock(&mu_);
    // Chunk 0 is reserved for the calling thread; queue the rest. The
    // queued chunks carry the caller's tag so HelpUntilDone below can
    // execute them itself if no worker is free.
    for (int c = 1; c < chunks; ++c) {
      size_t b = base * static_cast<size_t>(c) +
                 std::min<size_t>(static_cast<size_t>(c), extra);
      size_t e = b + base + (static_cast<size_t>(c) < extra ? 1 : 0);
      EnqueueLocked(Task{tag, [this, &join, &body, c, b, e] {
                           std::exception_ptr err;
                           try {
                             body(c, b, e);
                           } catch (...) {
                             err = std::current_exception();
                           }
                           join.Finish(err);
                         }});
    }
  }
  cv_.NotifyAll();

  // The caller works too: chunk 0 runs here instead of idling on the latch.
  {
    std::exception_ptr err;
    try {
      body(0, 0, base + (extra > 0 ? 1 : 0));
    } catch (...) {
      err = std::current_exception();
    }
    join.Finish(err);
  }
  HelpUntilDone(join, tag);
}

void ThreadPool::ParallelForMorsels(
    size_t n, size_t morsel_size,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (n == 0) return;
  if (morsel_size == 0) morsel_size = 1;
  const size_t morsels = (n + morsel_size - 1) / morsel_size;
  auto run = [&body, n, morsel_size](size_t m) {
    const size_t begin = m * morsel_size;
    body(m, begin, std::min(n, begin + morsel_size));
  };
  const int lanes = num_threads();
  if (lanes <= 1 || morsels == 1) {
    for (size_t m = 0; m < morsels; ++m) run(m);
    return;
  }
  // Dynamic scheduling: one drain closure per lane, each pulling the next
  // unclaimed morsel from the shared cursor until empty. All state lives on
  // this frame; HelpUntilDone keeps it alive until every lane finished.
  // Morsel boundaries depend only on n and morsel_size, so results stay
  // bit-identical no matter which lanes (or helping joiners) run them.
  std::atomic<size_t> next{0};
  ForkJoin join(this);
  const int tasks = static_cast<int>(
      std::min<size_t>(morsels, static_cast<size_t>(lanes)));
  join.remaining.store(tasks, std::memory_order_relaxed);
  auto drain = [this, &join, &next, &run, morsels] {
    std::exception_ptr err;
    try {
      for (size_t m = next.fetch_add(1, std::memory_order_relaxed); m < morsels;
           m = next.fetch_add(1, std::memory_order_relaxed)) {
        run(m);
      }
    } catch (...) {
      err = std::current_exception();
    }
    join.Finish(err);
  };
  const uint64_t tag = CurrentTaskTag();
  {
    MutexLock lock(&mu_);
    for (int t = 1; t < tasks; ++t) EnqueueLocked(Task{tag, drain});
  }
  cv_.NotifyAll();
  drain();  // the caller is a lane too
  HelpUntilDone(join, tag);
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  ParallelForChunks(static_cast<size_t>(n), [&fn](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(static_cast<int>(i));
  });
}

int ThreadPool::DefaultConcurrency() {
  if (const char* env = std::getenv("PREF_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v > 0 && v <= 1024) return static_cast<int>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pref
