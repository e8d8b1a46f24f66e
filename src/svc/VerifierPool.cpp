//===- svc/VerifierPool.cpp - Work-stealing verification pool -------------===//

#include "svc/VerifierPool.h"

#include <chrono>

using namespace rocksalt;
using namespace rocksalt::svc;

namespace {

/// Which pool (if any) the current thread is a worker of, and its index.
thread_local const VerifierPool *TlsPool = nullptr;
thread_local unsigned TlsWorker = 0;

uint64_t nowNanos() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

} // namespace

void svc::recordOutcome(Metrics &M, const core::CheckResult &R, uint64_t Bytes,
                        uint64_t Nanos) {
  M.ImagesVerified.add();
  M.BytesVerified.add(Bytes);
  M.VerifyNanos.record(Nanos);
  if (R.Ok) {
    M.ImagesAccepted.add();
    return;
  }
  M.ImagesRejected.add();
  switch (R.Reason) {
  case core::RejectReason::NoParse:
    M.RejectNoParse.add();
    break;
  case core::RejectReason::BadTarget:
    M.RejectBadTarget.add();
    break;
  case core::RejectReason::UnalignedBundle:
    M.RejectUnaligned.add();
    break;
  case core::RejectReason::None:
    break;
  }
}

VerifierPool::VerifierPool() : VerifierPool(Options()) {}

VerifierPool::VerifierPool(Options O, Metrics *M)
    : Met(M ? M : &globalMetrics()), Fused(core::fusedPolicyTables()) {
  unsigned N = O.Threads ? O.Threads : std::thread::hardware_concurrency();
  if (N < 1)
    N = 1;
  Deques.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Deques.push_back(std::make_unique<Worker>());
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

VerifierPool::~VerifierPool() {
  Stop.store(true, std::memory_order_release);
  SleepCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void VerifierPool::push(Task T) {
  unsigned Victim;
  if (TlsPool == this) {
    Victim = TlsWorker; // worker-local push: LIFO locality, no contention
  } else {
    Victim = RoundRobin.fetch_add(1, std::memory_order_relaxed) %
             unsigned(Deques.size());
  }
  {
    std::lock_guard<std::mutex> L(Deques[Victim]->M);
    Deques[Victim]->Dq.push_back(std::move(T));
  }
  Queued.fetch_add(1, std::memory_order_release);
  Met->QueueDepth.add();
  SleepCv.notify_one();
}

bool VerifierPool::tryGet(unsigned Self, Task &Out) {
  unsigned N = unsigned(Deques.size());
  // Own deque first, newest task first (cache-warm).
  if (Self < N) {
    Worker &W = *Deques[Self];
    std::lock_guard<std::mutex> L(W.M);
    if (!W.Dq.empty()) {
      Out = std::move(W.Dq.back());
      W.Dq.pop_back();
      Queued.fetch_sub(1, std::memory_order_relaxed);
      Met->QueueDepth.sub();
      return true;
    }
  }
  // Steal oldest task from someone else.
  for (unsigned I = 1; I <= N; ++I) {
    unsigned V = (Self + I) % N;
    if (V == Self)
      continue;
    Worker &W = *Deques[V];
    std::lock_guard<std::mutex> L(W.M);
    if (!W.Dq.empty()) {
      Out = std::move(W.Dq.front());
      W.Dq.pop_front();
      Queued.fetch_sub(1, std::memory_order_relaxed);
      Met->QueueDepth.sub();
      if (Self < N)
        Met->TasksStolen.add();
      return true;
    }
  }
  return false;
}

void VerifierPool::runTask(Task &T) {
  T.Work();
  Met->TasksRun.add();
  if (T.Group &&
      T.Group->Pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of the group: wake blocked waiters. Taking DoneM orders
    // this notify against a waiter's Pending re-check under the same
    // lock, so a wakeup cannot slip between its check and its wait.
    std::lock_guard<std::mutex> L(DoneM);
    DoneCv.notify_all();
  }
}

void VerifierPool::workerLoop(unsigned Id) {
  TlsPool = this;
  TlsWorker = Id;
  Task T;
  while (true) {
    if (tryGet(Id, T)) {
      runTask(T);
      continue;
    }
    if (Stop.load(std::memory_order_acquire))
      return;
    std::unique_lock<std::mutex> L(SleepM);
    if (Queued.load(std::memory_order_acquire) > 0 ||
        Stop.load(std::memory_order_acquire))
      continue;
    // wait_for (not wait) so a notify racing ahead of this wait cannot
    // strand a worker; 500us bounds the worst-case wake latency.
    SleepCv.wait_for(L, std::chrono::microseconds(500));
  }
}

void VerifierPool::run(TaskGroup &G, std::function<void()> Fn) {
  G.Pending.fetch_add(1, std::memory_order_relaxed);
  Task T;
  T.Work = std::move(Fn);
  T.Group = &G;
  push(std::move(T));
}

void VerifierPool::wait(TaskGroup &G) {
  unsigned Self = TlsPool == this ? TlsWorker : threadCount();
  Task T;
  while (G.Pending.load(std::memory_order_acquire) != 0) {
    if (tryGet(Self, T)) {
      runTask(T);
      continue;
    }
    // Nothing queued but the group is still pending: its tasks are
    // running on other threads. Block on the completion cv instead of
    // spinning on yield() — on a 1-CPU host the spin steals the core
    // from the thread actually finishing the task. The bounded wait is
    // a safety net for wakeups raced by new work; correctness comes
    // from re-checking Pending under DoneM (runTask notifies under it).
    std::unique_lock<std::mutex> L(DoneM);
    if (G.Pending.load(std::memory_order_acquire) == 0)
      break;
    if (Queued.load(std::memory_order_acquire) > 0)
      continue; // new work appeared: go help instead of sleeping
    DoneCv.wait_for(L, std::chrono::milliseconds(1));
  }
}

std::vector<std::future<core::CheckResult>>
VerifierPool::submit(const std::vector<std::vector<uint8_t>> &Images) {
  Met->BatchImages.record(Images.size());
  std::vector<std::future<core::CheckResult>> Futures;
  Futures.reserve(Images.size());
  for (const std::vector<uint8_t> &Img : Images)
    Futures.push_back(submitOne(Img.data(), uint32_t(Img.size())));
  return Futures;
}

std::future<core::CheckResult> VerifierPool::submitOne(const uint8_t *Code,
                                                       uint32_t Size) {
  Met->ImagesSubmitted.add();
  auto Promise = std::make_shared<std::promise<core::CheckResult>>();
  std::future<core::CheckResult> F = Promise->get_future();
  const core::FusedPolicy *T = &Fused;
  Metrics *M = Met;
  Task Job;
  // The caller's borrow contract (see header) keeps [Code, Code+Size)
  // alive until the task has run.
  Job.Work = [Promise, Code, Size, T, M] {
    uint64_t T0 = nowNanos();
    core::RockSalt V(*T);
    core::CheckResult R = V.check(Code, Size);
    recordOutcome(*M, R, Size, nowNanos() - T0);
    Promise->set_value(std::move(R));
  };
  push(std::move(Job));
  return F;
}
