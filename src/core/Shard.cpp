//===- core/Shard.cpp - Shard scan and concatenating join -----------------===//
//
// The per-shard scan is the verify driver (core/ChainDriver.h) started
// at a bundle boundary with the shard sink; the merge concatenates
// scans that are in sync at every shard base and hands every other
// shard list to the whole-image check. See Shard.h for why this is
// bit-identical to the sequential checker.
//
//===----------------------------------------------------------------------===//

#include "core/Shard.h"

#include "core/ChainDriver.h"

using namespace rocksalt;
using namespace rocksalt::core;

namespace {

/// The shard sink: starts are OR-ed into the shard's bitmap words by
/// both lanes (the sweep's mid-instruction marks OR a zero);
/// targets and pair jumps are sparse and appended.
struct ShardSink {
  uint64_t *Words;
  uint32_t Base;
  ShardScan &S;

  // Bytes past S.End are only ever marked as non-starts; the bitmap's
  // slack word takes those writes.
  void mark(uint32_t Q, uint8_t IsStart) {
    uint32_t I = Q - Base;
    Words[I >> 6] |= uint64_t(IsStart) << (I & 63);
  }
  void start(uint32_t Q) { mark(Q, 1); }
  void pairJump(uint32_t Q) { S.PairJmpPos.push_back(Q); }
  void target(uint32_t Dest) { S.TargetPos.push_back(Dest); }
};

} // namespace

void core::scanShard(const FusedPolicy &P, const uint8_t *Code, uint32_t Size,
                     ShardScan &S) {
  ShardSink K{S.StartWords.data(), S.Begin, S};
  uint32_t Pos = S.Begin;
  S.Failed = !driveChain<X86Isa>(P, Code, Size, S.End, &Pos, K);
  S.StopPos = Pos;
#if defined(__GNUC__)
  // Seam prefetch: when the caller goes on to scan the adjacent shard,
  // its first line is already inbound.
  if (S.End < Size)
    __builtin_prefetch(Code + S.End);
#endif
}

void core::partitionShards(uint32_t Size, uint32_t NumShards,
                           std::vector<ShardScan> &Shards) {
  uint32_t Bundles = (Size + BundleSize - 1) / BundleSize;
  uint32_t N = NumShards < 1 ? 1 : NumShards;
  if (N > Bundles)
    N = Bundles; // zero for an empty image
  Shards.resize(N);

  uint32_t PerShard = N ? Bundles / N : 0;
  uint32_t Extra = N ? Bundles % N : 0;
  uint32_t Base = 0;
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Take = PerShard + (I < Extra ? 1 : 0);
    uint32_t End = Base + Take * BundleSize;
    if (End > Size || I + 1 == N)
      End = Size;
    Shards[I].reset(Base, End);
    Base = End;
  }
}

CheckResult core::mergeShardScans(const FusedPolicy &P, const uint8_t *Code,
                                  uint32_t Size,
                                  const std::vector<ShardScan> &Shards) {
  // In sync: each scan starts where the chain left the previous one, so
  // by induction from 0 every scan is a piece of the sequential chain.
  uint32_t Pos = 0;
  for (const ShardScan &S : Shards) {
    if (S.Failed || S.Begin != Pos)
      return checkImage<X86Isa>(P, Code, Size);
    Pos = S.StopPos;
  }
  if (Pos != Size)
    return checkImage<X86Isa>(P, Code, Size);

  CheckResult R;
  R.Valid.assign(Size, 0);
  R.Target.assign(Size, 0);
  R.PairJmp.assign(Size, 0);
  for (const ShardScan &S : Shards) {
    S.forEachStart([&R](uint32_t Q) { R.Valid[Q] = 1; });
    for (uint32_t Q : S.TargetPos)
      R.Target[Q] = 1;
    for (uint32_t Q : S.PairJmpPos)
      R.PairJmp[Q] = 1;
  }
  finalizeCheck(R);
  return R;
}
