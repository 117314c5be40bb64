// A shared work-stealing thread pool with a morsel-driven ParallelFor —
// the one parallel substrate under the whole evaluation stack (relational
// operators, flock evaluation, plan execution, a-priori counting).
//
// Design notes:
//   * One process-wide pool (ThreadPool::Global()), sized to the hardware,
//     created lazily and never destroyed. Callers say how much parallelism
//     they *want* per call (ExecEnv::threads, common/exec_env.h, which
//     every evaluator takes); the pool clamps
//     to what the hardware has. Correctness never depends on how many
//     workers actually run.
//   * Morsel-driven scheduling: ParallelFor splits [0, n) into fixed-size
//     morsels handed out through an atomic cursor, so fast workers steal
//     the slack of slow ones (work stealing with a single shared deque,
//     which for contiguous ranges is equivalent to and cheaper than
//     per-worker deques). Morsel boundaries depend only on (n, morsel
//     size), never on the thread count — the determinism contract of every
//     parallel operator is built on this.
//   * The caller participates: submitting a loop never blocks waiting for
//     a free worker, so ParallelFor makes progress even on a saturated or
//     single-threaded pool.
//   * Nested ParallelFor from inside a worker runs inline (serially, same
//     morsel order). Parallelism is applied at the outermost level only;
//     inner levels degrade gracefully instead of deadlocking.
//   * Errors: the Status variant stops handing out new morsels after the
//     first failure and returns the failure from the lowest-numbered
//     morsel (deterministic). Exceptions thrown by workers are caught,
//     carried across the join, and rethrown on the calling thread.
#ifndef QF_COMMON_THREAD_POOL_H_
#define QF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"

namespace qf {

class ThreadPool {
 public:
  // The process-wide pool: hardware_concurrency workers (at least 1),
  // created on first use, intentionally leaked.
  static ThreadPool& Global();

  // A private pool with exactly `workers` worker threads (tests use this
  // to force more concurrency than the hardware exposes).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const { return static_cast<unsigned>(workers_.size()); }

  // Runs `fn(begin, end)` over [0, n) in morsels of `morsel` iterations
  // (the last may be short). Up to `parallelism` threads run concurrently,
  // counting the calling thread, which always participates. Returns after
  // every morsel completed. `fn` must be safe to call concurrently from
  // multiple threads; morsel boundaries are independent of `parallelism`.
  // Exceptions thrown by `fn` are rethrown here (first morsel in index
  // order wins).
  void ParallelFor(std::size_t n, std::size_t morsel, unsigned parallelism,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  // As ParallelFor, but `fn` returns Status. After the first non-OK
  // status no new morsels start (in-flight ones finish). Returns the
  // non-OK status of the lowest-numbered failed morsel, or OK.
  Status ParallelForStatus(
      std::size_t n, std::size_t morsel, unsigned parallelism,
      const std::function<Status(std::size_t, std::size_t)>& fn);

  // True when called from inside one of this pool's workers (used to run
  // nested loops inline).
  bool InWorker() const;

 private:
  struct Job;

  void WorkerLoop();
  void RunJob(Job& job);

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Job*> pending_;  // jobs with morsels left to hand out
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

// Morsel-parallel loop on the global pool. `threads <= 1`, `n == 0`, or a
// single morsel runs inline on the caller. Call sites use this (or
// RunMorsels below, for kernels that fold a range into partials) and
// never touch the pool directly.
void ParallelFor(unsigned threads, std::size_t n, std::size_t morsel,
                 const std::function<void(std::size_t, std::size_t)>& fn);

// Status-propagating variant (same inline fallbacks).
Status ParallelForStatus(
    unsigned threads, std::size_t n, std::size_t morsel,
    const std::function<Status(std::size_t, std::size_t)>& fn);

// Number of morsels ParallelFor will use for (n, morsel) — callers that
// accumulate one partial result per morsel size their buffers with this.
inline std::size_t MorselCount(std::size_t n, std::size_t morsel) {
  return morsel == 0 ? 0 : (n + morsel - 1) / morsel;
}

// The one place a kernel chooses between serial and morsel execution.
// `body(begin, end, partial)` folds the input range [begin, end) into
// `partial`. With `threads` <= 1 or n < 2 * morsel the input is one
// piece: a single call over [0, n) on the caller. Otherwise it splits
// into MorselCount(n, morsel) fixed-size morsels run through ParallelFor;
// each polls `ctx` at its start and leaves its partial default-constructed
// once the context has tripped. Returns the partials in morsel order — a
// kernel uses a single partial as its result and merges several — and
// adds the morsel count (nothing for one piece) to metrics->morsels.
template <typename Partial, typename Body>
std::vector<Partial> RunMorsels(unsigned threads, std::size_t n,
                                std::size_t morsel, QueryContext* ctx,
                                OpMetrics* metrics, const Body& body) {
  if (threads <= 1 || n < 2 * morsel) {
    std::vector<Partial> parts(1);
    body(std::size_t{0}, n, parts.front());
    return parts;
  }
  std::vector<Partial> parts(MorselCount(n, morsel));
  if (metrics != nullptr) metrics->morsels += parts.size();
  ParallelFor(threads, n, morsel, [&](std::size_t begin, std::size_t end) {
    if (ctx != nullptr && !ctx->Poll()) return;
    body(begin, end, parts[begin / morsel]);
  });
  return parts;
}

}  // namespace qf

#endif  // QF_COMMON_THREAD_POOL_H_
