//===- core/Shard.h - Shard scan and seam-aware merge ----------*- C++ -*-===//
///
/// \file
/// The incremental verifier's split and join. The aligned-chunk policy
/// makes the Figure-5 scan splittable: in any *accepted* image every
/// 32-byte boundary is an instruction start (that is exactly the bundle
/// check of Figure 5), so a scan started fresh at a bundle-aligned shard
/// base follows the same match chain the sequential verifier would.
/// Each shard is scanned independently (`scanShard`, the verify driver
/// of core/ChainDriver.h with the shard sink) and the per-shard results
/// are joined sequentially (`mergeShardScans`). incr/ scans each chunk
/// of an image as a shard, keeps the scans, and joins them here; the
/// shard-derived lint and `fuzz_differential --fused` split whole
/// images with `partitionShards`.
///
/// Rejected images are where the care goes: the sequential chain may
/// cross a shard seam mid-instruction, in which case the downstream
/// shard's fresh scan diverges from the sequential one. The merge
/// detects this (the consumed shard's stop position overshoots the next
/// shard base) and falls back to re-running the fused `verifyStep` from
/// the exact overshoot position until the chain re-synchronizes with a
/// later shard base, discarding the desynchronized shards' results. The
/// result is therefore *bit-identical* to `RockSalt::check` — same
/// verdict, same Valid/Target/PairJmp bitmaps, same reject reason — on
/// every input, which is what keeps the paper's soundness argument
/// intact: the incremental verifier is an implementation of the same
/// checker function, not a new checker.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_CORE_SHARD_H
#define ROCKSALT_CORE_SHARD_H

#include "core/Verifier.h"

#include <bit>
#include <cstdint>
#include <vector>

namespace rocksalt {
namespace core {

/// The result of scanning one shard [Begin, End) of an image.
/// Instruction starts are a bitmap over [Begin, End), one bit per byte,
/// read through `isStart`/`forEachStart` so no caller depends on the
/// word layout; targets and pair jumps are sparse position lists.
/// Buffers retain capacity across `reset`, so steady-state scans
/// allocate nothing.
struct ShardScan {
  uint32_t Begin = 0; ///< shard base, a multiple of BundleSize
  uint32_t End = 0;   ///< shard limit (next base, or image size)
  /// First chain position >= End (success), or the failing position.
  uint32_t StopPos = 0;
  bool Failed = false; ///< no grammar matched at StopPos

  std::vector<uint32_t> TargetPos;  ///< absolute direct-jump targets
  std::vector<uint32_t> PairJmpPos; ///< jump halves of masked pairs

  /// Clears the results and sizes a zeroed start bitmap for [B, E).
  void reset(uint32_t B, uint32_t E) {
    Begin = B;
    End = E;
    StopPos = B;
    Failed = false;
    // One slack word past the last absorbs the sweep's dead (zero)
    // writes for an instruction straddling E: no policy instruction is
    // longer than a bundle (IncrTest.MaxScanReadBytesIsSane pins it).
    StartWords.assign((size_t(E - B) + 63) / 64 + 1, 0);
    TargetPos.clear();
    PairJmpPos.clear();
  }

  /// True when the shard's chain started an instruction at \p Q.
  bool isStart(uint32_t Q) const {
    uint32_t I = Q - Begin;
    return Q >= Begin && Q < End && (StartWords[I >> 6] >> (I & 63)) & 1;
  }

  /// Calls \p Fn(Q) for every instruction start Q, ascending.
  template <typename Fn> void forEachStart(Fn &&F) const {
    for (size_t W = 0; W < StartWords.size(); ++W)
      for (uint64_t Bits = StartWords[W]; Bits; Bits &= Bits - 1)
        F(Begin + uint32_t(W * 64) + uint32_t(std::countr_zero(Bits)));
  }

private:
  friend void scanShard(const FusedPolicy &, const uint8_t *, uint32_t,
                        ShardScan &);
  std::vector<uint64_t> StartWords; ///< bit Q - Begin set iff Q is a start
};

/// Runs the Figure-5 chain from S.Begin while the position is < S.End
/// over a freshly `reset` \p S; a final match may overrun past End
/// (StopPos records where the chain actually stopped, or the failing
/// instruction's start). Marks exactly the starts the sequential scan
/// would mark on the same chain, including the failing position. Both
/// lanes stop at the first instruction start at or past S.End, so what
/// the scan records depends on no byte past the last instruction begun
/// below S.End: that is the scan-window contract the incremental
/// verifier's dirty rule rests on (a patch outside a chunk's window
/// cannot change its scan; incr/IncrementalVerifier.h). The next
/// shard's first line is prefetched across the seam.
void scanShard(const FusedPolicy &P, const uint8_t *Code, uint32_t Size,
               ShardScan &S);

/// Splits [0, Size) into \p NumShards bundle-aligned shards, filling
/// \p Shards (reusing its elements' buffers). The actual count may be
/// lower for small images; every shard is non-empty.
void partitionShards(uint32_t Size, uint32_t NumShards,
                     std::vector<ShardScan> &Shards);

/// The sequential join: replays the shard chain in order, re-checking
/// seams where a shard's chain overran its limit (masked-jump pairs or
/// direct jumps straddling a shard boundary) by stepping the fused
/// `verifyStep` from the overshoot position until it lands exactly on a
/// later shard base. Produces a CheckResult bit-identical to
/// `RockSalt::check`. \p SeamRescans, when non-null, is incremented
/// once per verifyStep executed during seam re-checking (a service
/// metric).
CheckResult mergeShardScans(const FusedPolicy &P, const uint8_t *Code,
                            uint32_t Size, const std::vector<ShardScan> &Shards,
                            uint64_t *SeamRescans = nullptr);

/// Pointer-span form of the join above: the shards live wherever the
/// caller keeps them. Identical semantics; the vector overload
/// delegates here.
CheckResult mergeShardScans(const FusedPolicy &P, const uint8_t *Code,
                            uint32_t Size, const ShardScan *const *Shards,
                            size_t NumShards, uint64_t *SeamRescans = nullptr);

} // namespace core
} // namespace rocksalt

#endif // ROCKSALT_CORE_SHARD_H
