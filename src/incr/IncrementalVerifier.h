//===- incr/IncrementalVerifier.h - O(patch) re-verification ---*- C++ -*-===//
///
/// \file
/// Turns verification of a mutating image from O(image) into O(patch):
/// the JIT / hot-reload workload where a long-lived sandboxed process
/// changes a few dozen bytes at a time and needs a fresh verdict per
/// update.
///
/// Protocol per image:
///
///   open(bytes)              — register, scan every chunk (cold chunks
///                              may still hit the cache from identical
///                              chunks of other images), merge, verdict;
///   patchBytes(id, off, b[]) — overwrite bytes in place and put on the
///                              dirty list every chunk whose *scan
///                              window* intersects the patched range
///                              (windows overhang chunk ends by the DFA
///                              read bound, so a patch near a chunk
///                              start also dirties its predecessor);
///   reverify(id)             — re-scan dirty chunks only (walking the
///                              image's dirty list; through the
///                              ChunkCache, so reverting a patch is a
///                              pure cache hit), then *splice* them into
///                              the maintained merge of the last
///                              accepted verdict: when every new scan
///                              ends exactly on its chunk's end, each
///                              run of adjacent dirty chunks swaps its
///                              old scans' marks for the new ones and
///                              re-checks the final pass over that
///                              window only. Any reject (and the first
///                              verdict) goes through the full
///                              seam-aware join of core/Shard instead,
///                              so the verdict stays certified
///                              bit-identical to `RockSalt::check` on
///                              the current bytes;
///   patch(id, off, b[])      — patchBytes + reverify, the service's
///                              per-request shape;
///   close(id)                — unregister (cached scans stay shared).
///
/// Patches never change an image's size: the sandbox loader maps code
/// regions once; tier-ups overwrite in place (pad with nops to grow).
///
/// Not thread-safe: one instance per session/thread.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_INCR_INCREMENTALVERIFIER_H
#define ROCKSALT_INCR_INCREMENTALVERIFIER_H

#include "incr/ChunkCache.h"
#include "incr/ImageStore.h"

namespace rocksalt {
namespace incr {

struct IncrementalOptions {
  /// Chunk granularity (cache line of the incremental scheme): smaller
  /// chunks re-scan less per patch but merge more entries; must be a
  /// nonzero multiple of core::BundleSize.
  uint32_t ChunkBytes = 512;
  ChunkCacheOptions Cache;
};

/// One spliced re-verification window: a run of adjacent dirty chunks
/// [Begin, End) whose scans were swapped, and only that range's marks
/// changed. Begin and End are chunk bases (or the image end), so they
/// are chain positions in both the old and the new match chain, and a
/// consumer maintaining per-node state (the incremental linter) can
/// splice its own window in. The InteriorTargets* flags report whether
/// any direct branch landed strictly inside (Begin, End) before /
/// after the splice — when both are false and the window is pure
/// straight-line code, nothing outside the window can observe it.
struct SpliceWindow {
  uint32_t Begin = 0;
  uint32_t End = 0;
  bool InteriorTargetsBefore = false;
  bool InteriorTargetsAfter = false;
};

/// The verdict plus what the incremental pass actually did — the
/// observability the service's incr_*/svc_patch_* metrics export.
/// O(#dirty ranges): the full bitmaps of the current verdict stay
/// inside the verifier (they are the maintained merge) and are read by
/// reference through `lastCheck`, so a patch verdict never pays an
/// O(image) copy; only the splice-window descriptors travel out.
struct IncrResult {
  bool Ok = false;
  core::RejectReason Reason = core::RejectReason::None;
  uint32_t ChunksRescanned = 0; ///< dirty chunks whose scan was recomputed
  uint32_t ChunkCacheHits = 0;  ///< dirty chunks satisfied by the cache
  /// verifySteps the full merge replayed at chunk seams: the splice
  /// never steps a seam, so a spliced result counts zero.
  uint64_t SeamRescans = 0;
  /// True when the verdict came from the O(patch) splice path; Windows
  /// then lists every spliced window. False means a full merge ran
  /// (first verdict, any reject, or a splice bail-out) and Windows is
  /// empty.
  bool Spliced = false;
  std::vector<SpliceWindow> Windows;
};

class IncrementalVerifier {
public:
  /// \p M, when given, must outlive the verifier (its chunk cache
  /// reports into the gauges until destroyed).
  explicit IncrementalVerifier(IncrementalOptions O = {},
                               svc::Metrics *M = nullptr);
  IncrementalVerifier(const core::PolicyTables &T, IncrementalOptions O = {},
                      svc::Metrics *M = nullptr);

  IncrementalVerifier(const IncrementalVerifier &) = delete;
  IncrementalVerifier &operator=(const IncrementalVerifier &) = delete;

  /// Registers \p Bytes and produces its initial verdict.
  ImageId open(std::vector<uint8_t> Bytes, IncrResult *Out = nullptr);

  /// Overwrites [Offset, Offset+Len) with \p Bytes and lists the dirty
  /// chunks; no re-verification. Throws std::invalid_argument on an
  /// unknown handle, a zero-length patch, or a range that leaves
  /// [0, size).
  void patchBytes(ImageId Id, uint32_t Offset, const uint8_t *Bytes,
                  uint32_t Len);

  /// Re-verifies from the dirty list; clears it. Throws
  /// std::invalid_argument on an unknown handle.
  IncrResult reverify(ImageId Id);

  /// patchBytes + reverify.
  IncrResult patch(ImageId Id, uint32_t Offset, const uint8_t *Bytes,
                   uint32_t Len);
  IncrResult patch(ImageId Id, uint32_t Offset,
                   const std::vector<uint8_t> &Bytes) {
    return patch(Id, Offset, Bytes.data(), uint32_t(Bytes.size()));
  }

  /// The full instrumented result of the image's last re-verification,
  /// bit-identical to `RockSalt::check` on its current bytes. Valid
  /// until the image's next reverify/patch/close. Throws
  /// std::invalid_argument on an unknown handle.
  const core::CheckResult &lastCheck(ImageId Id);

  /// Unregisters. Throws std::invalid_argument on an unknown handle.
  void close(ImageId Id);

  ImageStore &store() { return Store; }
  ChunkCache &cache() { return Cache; }
  /// The DFA-derived per-step read bound the chunk windows use.
  uint32_t maxReadBytes() const { return MaxRead; }

private:
  ImageEntry &entry(ImageId Id);
  /// O(patch) path: swaps each run of adjacent dirty chunks' scans
  /// into E.Merge and re-checks the final pass over that window. False
  /// when the result is not a clean accept (a new scan that fails or
  /// ends off its chunk's end, a finalize violation) — the caller then
  /// runs the full merge.
  bool spliceReverify(ImageEntry &E, IncrResult &Res);

  /// The fused form of the policy tables, built once per verifier: chunk
  /// scans and full merges drive it.
  core::FusedPolicy Fused;
  uint32_t MaxRead;
  IncrementalOptions Opts;
  svc::Metrics *Met; ///< may be null
  ChunkCache Cache;
  ImageStore Store;
  std::vector<const core::ShardScan *> MergeScratch; ///< reused per merge
  /// The dirty chunks' previous scans, in dirty-list order, held for one
  /// reverify so the splice can retire their targets.
  std::vector<std::shared_ptr<const core::ShardScan>> OldScans;
};

} // namespace incr
} // namespace rocksalt

#endif // ROCKSALT_INCR_INCREMENTALVERIFIER_H
