//===- svc/VerifierPool.h - Work-stealing verification pool ----*- C++ -*-===//
///
/// \file
/// The service's executor: a work-stealing thread pool with a
/// batch-submit verification API. Two layers:
///
///  * a generic task layer — `run` enqueues a callable into per-worker
///    deques; idle workers pop their own deque LIFO and steal FIFO from
///    others. `wait` on a TaskGroup *helps*: the waiter drains tasks
///    while the group is outstanding, so nested fan-out (a service
///    verify or lint frame that fans its images out from a pool worker)
///    cannot deadlock;
///
///  * a verification layer — `submit` takes a batch of images and
///    returns one future per image; each job runs the sequential
///    RockSalt check and records outcome metrics. Parallelism is across
///    images: a single image is always one sequential check.
///
/// All bookkeeping is mutex-per-deque plus atomics; the pool never holds
/// a lock while running user work.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_SVC_VERIFIERPOOL_H
#define ROCKSALT_SVC_VERIFIERPOOL_H

#include "core/Verifier.h"
#include "svc/Metrics.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rocksalt {
namespace svc {

/// Counts an image verification outcome into \p M (shared by the pool's
/// batch jobs and the service's verify frames).
void recordOutcome(Metrics &M, const core::CheckResult &R, uint64_t Bytes,
                   uint64_t Nanos);

class VerifierPool {
public:
  struct Options {
    unsigned Threads = 0; ///< 0 → std::thread::hardware_concurrency()
  };

  /// A join handle for a set of enqueued tasks.
  class TaskGroup {
    friend class VerifierPool;
    std::atomic<uint32_t> Pending{0};

  public:
    bool done() const { return Pending.load(std::memory_order_acquire) == 0; }
  };

  VerifierPool(); ///< default options, global metrics
  explicit VerifierPool(Options O, Metrics *M = nullptr);
  ~VerifierPool();

  VerifierPool(const VerifierPool &) = delete;
  VerifierPool &operator=(const VerifierPool &) = delete;

  unsigned threadCount() const { return unsigned(Threads.size()); }
  Metrics &metrics() { return *Met; }

  /// Enqueues an arbitrary callable (may allocate for large captures);
  /// completion is observed via wait(G).
  void run(TaskGroup &G, std::function<void()> Fn);

  /// Blocks until every task enqueued to \p G has finished. The waiting
  /// thread executes queued tasks (any group's) while work is available;
  /// once the queues are empty it blocks on a completion condition
  /// variable (it does NOT spin) until the group's tasks, running on
  /// other threads, finish.
  void wait(TaskGroup &G);

  /// Batch verification over *borrowed* buffers: one future per image,
  /// resolved with the full instrumented CheckResult.
  ///
  /// Borrow contract: every image buffer must stay alive and unmodified
  /// until its future resolves — the futures borrow, they do not copy.
  std::vector<std::future<core::CheckResult>>
  submit(const std::vector<std::vector<uint8_t>> &Images);

  /// Single-image form. Borrow contract as for submit():
  /// [Code, Code+Size) must outlive the future's resolution; the task
  /// reads the buffer on a worker thread at an arbitrary later time.
  std::future<core::CheckResult> submitOne(const uint8_t *Code, uint32_t Size);

private:
  struct Task {
    std::function<void()> Work; ///< small captures stay in SBO
    TaskGroup *Group = nullptr;
  };

  struct alignas(64) Worker {
    std::mutex M;
    std::deque<Task> Dq;
  };

  void push(Task T);
  bool tryGet(unsigned Self, Task &Out); ///< Self == threadCount(): outsider
  void runTask(Task &T);
  void workerLoop(unsigned Id);

  std::vector<std::unique_ptr<Worker>> Deques;
  std::vector<std::thread> Threads;
  std::atomic<uint64_t> Queued{0};
  std::atomic<uint32_t> RoundRobin{0};
  std::atomic<bool> Stop{false};
  std::mutex SleepM;
  std::condition_variable SleepCv;
  std::mutex DoneM;            ///< with DoneCv: group-completion wakeups
  std::condition_variable DoneCv;
  Metrics *Met;
  /// The fused verify fast path: built once process-wide; every batch
  /// verify job borrows it (never fusing per task).
  const core::FusedPolicy &Fused;
};

} // namespace svc
} // namespace rocksalt

#endif // ROCKSALT_SVC_VERIFIERPOOL_H
