//===- tests/svc_pool_test.cpp ---------------------------------*- C++ -*-===//
//
// VerifierPool and Metrics behavior: batch submission resolves every
// future with the sequential checker's verdict, task groups join via
// help (so nested fan-out on a single-threaded pool cannot deadlock),
// steals happen under imbalance, and the metrics layer counts what
// actually happened.
//
//===----------------------------------------------------------------------===//

#include "nacl/Mutator.h"
#include "nacl/WorkloadGen.h"
#include "svc/Metrics.h"
#include "svc/VerifierPool.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace rocksalt;

namespace {

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  svc::Histogram H;
  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 100ull, 1000ull, 1000000ull})
    H.record(V);
  EXPECT_EQ(H.count(), 7u);
  EXPECT_EQ(H.sum(), 1001106u);
  EXPECT_EQ(H.max(), 1000000u);
  EXPECT_EQ(H.bucket(0), 1u); // the single zero
  EXPECT_EQ(H.bucket(1), 1u); // 1
  EXPECT_EQ(H.bucket(2), 2u); // 2, 3
  EXPECT_LE(H.quantile(0.5), H.quantile(0.99));
  EXPECT_GE(H.quantile(1.0), 100u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
}

TEST(MetricsTest, DumpExposesEveryFamily) {
  svc::Metrics M;
  M.ImagesVerified.add(3);
  M.QueueDepth.add(2);
  M.VerifyNanos.record(12345);
  std::string D = M.dump();
  EXPECT_NE(D.find("images_verified 3"), std::string::npos);
  EXPECT_NE(D.find("queue_depth 2"), std::string::npos);
  EXPECT_NE(D.find("verify_nanos_count 1"), std::string::npos);
  EXPECT_NE(D.find("verify_nanos_bucket{le="), std::string::npos);
  EXPECT_NE(D.find("shards_scanned 0"), std::string::npos);
}

TEST(VerifierPoolTest, TaskGroupRunsEverything) {
  svc::Metrics M;
  svc::VerifierPool Pool(svc::VerifierPool::Options{4}, &M);
  std::atomic<uint32_t> Hits{0};
  svc::VerifierPool::TaskGroup G;
  for (int I = 0; I < 1000; ++I)
    Pool.run(G, [&Hits] { Hits.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait(G);
  EXPECT_EQ(Hits.load(), 1000u);
  EXPECT_TRUE(G.done());
  EXPECT_GE(M.TasksRun.get(), 1000u);
  EXPECT_EQ(M.QueueDepth.get(), 0);
}

TEST(VerifierPoolTest, NestedFanOutOnOneThreadDoesNotDeadlock) {
  // A pool job that itself fans out and waits: with a single worker this
  // only terminates because wait() helps drain the queue.
  svc::Metrics M;
  svc::VerifierPool Pool(svc::VerifierPool::Options{1}, &M);
  std::atomic<uint32_t> Inner{0};
  svc::VerifierPool::TaskGroup Outer;
  Pool.run(Outer, [&] {
    svc::VerifierPool::TaskGroup G;
    for (int I = 0; I < 16; ++I)
      Pool.run(G, [&Inner] { Inner.fetch_add(1); });
    Pool.wait(G);
  });
  Pool.wait(Outer);
  EXPECT_EQ(Inner.load(), 16u);
}

TEST(VerifierPoolTest, BatchSubmitMatchesSequentialVerdicts) {
  svc::Metrics M;
  svc::VerifierPool Pool(svc::VerifierPool::Options{4}, &M);
  core::RockSalt Seq;
  Rng R(99);

  std::vector<std::vector<uint8_t>> Images;
  uint64_t Bytes = 0;
  for (uint32_t I = 0; I < 48; ++I) {
    nacl::WorkloadOptions WO;
    WO.TargetBytes = 512 + 128 * (I % 5);
    WO.Seed = 1000 + I;
    std::vector<uint8_t> Img = nacl::generateWorkload(WO);
    if (I % 3 == 1)
      Img = nacl::mutateRandom(Img, R);
    if (I % 3 == 2)
      if (auto Bad = nacl::applyAttack(Img, nacl::Attack::InsertRet, R))
        Img = *Bad;
    Bytes += Img.size();
    Images.push_back(std::move(Img));
  }

  auto Futures = Pool.submit(Images);
  ASSERT_EQ(Futures.size(), Images.size());
  uint64_t Accepted = 0, Rejected = 0;
  for (size_t I = 0; I < Futures.size(); ++I) {
    core::CheckResult R2 = Futures[I].get();
    core::CheckResult S = Seq.check(Images[I]);
    EXPECT_EQ(R2.Ok, S.Ok) << "image " << I;
    EXPECT_EQ(R2.Reason, S.Reason) << "image " << I;
    (R2.Ok ? Accepted : Rejected)++;
  }

  EXPECT_EQ(M.ImagesSubmitted.get(), Images.size());
  EXPECT_EQ(M.ImagesVerified.get(), Images.size());
  EXPECT_EQ(M.ImagesAccepted.get(), Accepted);
  EXPECT_EQ(M.ImagesRejected.get(), Rejected);
  EXPECT_EQ(M.BytesVerified.get(), Bytes);
  EXPECT_EQ(M.VerifyNanos.count(), Images.size());
  EXPECT_EQ(M.BatchImages.count(), 1u);
  EXPECT_EQ(M.QueueDepth.get(), 0);
  EXPECT_GT(Rejected, 0u); // the attacked images really exercised rejects
}

// Regression for the external-waiter spin: a non-worker thread in
// wait() used to busy-yield until the group drained. It now blocks on
// the completion cv; this test drives many group joins from external
// threads concurrently — under TSan it also certifies the cv handoff.
TEST(VerifierPoolTest, ExternalThreadsBlockInWaitUntilGroupDrains) {
  svc::Metrics M;
  svc::VerifierPool Pool(svc::VerifierPool::Options{2}, &M);
  std::atomic<uint32_t> Done{0};
  std::vector<std::thread> Waiters;
  for (int W = 0; W < 4; ++W)
    Waiters.emplace_back([&] {
      for (int Round = 0; Round < 50; ++Round) {
        svc::VerifierPool::TaskGroup G;
        std::atomic<uint32_t> Hits{0};
        for (int I = 0; I < 8; ++I)
          Pool.run(G, [&Hits] { Hits.fetch_add(1); });
        Pool.wait(G);
        ASSERT_EQ(Hits.load(), 8u);
        ASSERT_TRUE(G.done());
        Done.fetch_add(1);
      }
    });
  for (auto &T : Waiters)
    T.join();
  EXPECT_EQ(Done.load(), 200u);
}

TEST(VerifierPoolTest, ConcurrentSubmitters) {
  svc::Metrics M;
  svc::VerifierPool Pool(svc::VerifierPool::Options{4}, &M);
  nacl::WorkloadOptions WO;
  WO.TargetBytes = 1024;
  std::vector<std::vector<uint8_t>> Images(8, nacl::generateWorkload(WO));

  std::vector<std::thread> Clients;
  std::atomic<uint32_t> OkCount{0};
  for (int C = 0; C < 4; ++C)
    Clients.emplace_back([&] {
      auto Futures = Pool.submit(Images);
      for (auto &F : Futures)
        if (F.get().Ok)
          OkCount.fetch_add(1);
    });
  for (auto &T : Clients)
    T.join();
  EXPECT_EQ(M.ImagesVerified.get(), 32u);
  EXPECT_EQ(OkCount.load(), 32u); // generated workloads all accept
}

} // namespace
