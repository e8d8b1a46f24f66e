//===- svc/ParallelVerifier.cpp - Chunk-parallel RockSalt checker ---------===//

#include "svc/ParallelVerifier.h"

#include <chrono>

using namespace rocksalt;
using namespace rocksalt::svc;

namespace {

uint64_t nowNanos() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

} // namespace

ParallelVerifier::ParallelVerifier(VerifierPool &P, ParallelVerifierOptions O)
    : Pool(P), Opts(O), Fused(core::fusedPolicyTables()) {}

uint32_t ParallelVerifier::shardCountFor(uint32_t Size) const {
  uint32_t Max = Opts.MaxShards ? Opts.MaxShards
                                : Pool.threadCount() * Opts.ShardsPerThread;
  if (Max < 1)
    Max = 1;
  uint32_t Min = Opts.MinShardBytes ? Opts.MinShardBytes : 1;
  uint32_t BySize = Size / Min;
  if (BySize < 1)
    BySize = 1;
  return BySize < Max ? BySize : Max;
}

void ParallelVerifier::runShardJob(void *Ctx) {
  ShardJob &J = *static_cast<ShardJob *>(Ctx);
  uint64_t T0 = nowNanos();
  core::scanShard(*J.T, J.Code, J.Size, *J.Scan);
  J.Nanos = nowNanos() - T0;
}

core::CheckResult ParallelVerifier::check(const uint8_t *Code, uint32_t Size) {
  Metrics &M = Pool.metrics();
  uint64_t T0 = nowNanos();

  core::partitionShards(Size, shardCountFor(Size), Shards);
  uint32_t N = uint32_t(Shards.size());

  if (N > 1) {
    Jobs.resize(N);
    VerifierPool::TaskGroup G;
    for (uint32_t I = 0; I < N; ++I) {
      Jobs[I].T = &Fused;
      Jobs[I].Code = Code;
      Jobs[I].Size = Size;
      Jobs[I].Scan = &Shards[I];
      Jobs[I].Nanos = 0;
      if (I) // shard 0 runs on the calling thread below
        Pool.post(G, &runShardJob, &Jobs[I]);
    }
    runShardJob(&Jobs[0]);
    Pool.wait(G);

    // Shard imbalance: max scan time over mean, in permille.
    uint64_t Max = 0, Sum = 0;
    for (uint32_t I = 0; I < N; ++I) {
      Sum += Jobs[I].Nanos;
      if (Jobs[I].Nanos > Max)
        Max = Jobs[I].Nanos;
    }
    if (Sum)
      M.ShardImbalancePermille.record(Max * 1000 * N / Sum);
  } else if (N == 1) {
    core::scanShard(Fused, Code, Size, Shards[0]);
  }
  M.ShardsScanned.add(N);

  core::CheckResult R;
  if (N > 1 && shardsSynced(Size)) {
    // Accept-path common case: the shard chains splice exactly, so the
    // bitmap merge itself can run on the workers (disjoint ranges).
    R = spliceParallel(Size);
  } else {
    uint64_t Rescans = 0;
    R = core::mergeShardScans(Fused, Code, Size, Shards, &Rescans);
    M.SeamRescans.add(Rescans);
  }
  recordOutcome(M, R, Size, nowNanos() - T0);
  return R;
}

bool ParallelVerifier::shardsSynced(uint32_t Size) const {
  for (size_t I = 0; I < Shards.size(); ++I) {
    if (Shards[I].Failed)
      return false;
    uint32_t Next = I + 1 < Shards.size() ? Shards[I + 1].Begin : Size;
    if (Shards[I].StopPos != Next)
      return false;
  }
  return true;
}

void ParallelVerifier::runSpliceJob(void *Ctx) {
  SpliceJob &J = *static_cast<SpliceJob *>(Ctx);
  const core::ShardScan &S = *J.Scan;
  core::CheckResult &R = *J.R;
  S.forEachStart([&R](uint32_t P) { R.Valid[P] = 1; });
  for (uint32_t P : S.PairJmpPos) // always inside [Begin, StopPos)
    R.PairJmp[P] = 1;
  // First bundle boundary in [Begin, StopPos) that is not a chain
  // position.
  J.FirstUnaligned = UINT32_MAX;
  for (uint32_t B = S.Begin; B < S.StopPos; B += core::BundleSize)
    if (!S.isStart(B)) {
      J.FirstUnaligned = B;
      break;
    }
}

core::CheckResult ParallelVerifier::spliceParallel(uint32_t Size) {
  core::CheckResult R;
  R.Valid.assign(Size, 0);
  R.Target.assign(Size, 0);
  R.PairJmp.assign(Size, 0);

  uint32_t N = uint32_t(Shards.size());
  SpliceJobs.resize(N);
  VerifierPool::TaskGroup G;
  for (uint32_t I = 0; I < N; ++I) {
    SpliceJobs[I].Scan = &Shards[I];
    SpliceJobs[I].R = &R;
    if (I)
      Pool.post(G, &runSpliceJob, &SpliceJobs[I]);
  }
  // The caller scatters the (globally targeted) jump destinations while
  // the workers scatter their disjoint Valid/PairJmp ranges.
  for (const core::ShardScan &S : Shards)
    for (uint32_t P : S.TargetPos)
      R.Target[P] = 1;
  runSpliceJob(&SpliceJobs[0]);
  Pool.wait(G);

  // The final Figure-5 pass, decomposed: each shard reported the first
  // unaligned bundle boundary on its own chain; the first direct jump
  // into a non-instruction-start needs the merged Valid bitmap.
  uint32_t FirstUnaligned = UINT32_MAX;
  for (const SpliceJob &J : SpliceJobs)
    if (J.FirstUnaligned < FirstUnaligned)
      FirstUnaligned = J.FirstUnaligned;
  uint32_t FirstBadTarget = UINT32_MAX;
  for (const core::ShardScan &S : Shards)
    for (uint32_t P : S.TargetPos)
      if (!R.Valid[P] && P < FirstBadTarget)
        FirstBadTarget = P;

  // Same verdict and reason the sequential final loop produces: first
  // failing position wins; at a tie the target check is evaluated first.
  if (FirstUnaligned == UINT32_MAX && FirstBadTarget == UINT32_MAX) {
    R.Ok = true;
    R.Reason = core::RejectReason::None;
  } else {
    R.Ok = false;
    R.Reason = FirstBadTarget <= FirstUnaligned
                   ? core::RejectReason::BadTarget
                   : core::RejectReason::UnalignedBundle;
  }
  return R;
}
