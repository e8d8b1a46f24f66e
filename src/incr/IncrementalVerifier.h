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
///   patchBytes(id, off, b[]) — overwrite bytes in place and mark the
///                              dirty cards of every chunk whose *scan
///                              window* intersects the patched range
///                              (windows overhang chunk ends by the DFA
///                              read bound, so a patch near a chunk
///                              start also dirties its predecessor);
///   reverify(id)             — re-scan dirty chunks only (walking the
///                              image's dirty list, never all its
///                              cards; through the ChunkCache, so
///                              reverting a patch is a pure cache
///                              hit), then *splice* the
///                              re-merged window into the maintained
///                              merge of the last accepted verdict: the
///                              chain is replayed from the dirty chunk's
///                              recorded entry position until it lands
///                              back in sync on an untouched chunk base,
///                              and only that window's marks change.
///                              Any reject (and the first verdict) goes
///                              through the full seam-aware join of
///                              core/Shard instead, so the verdict stays
///                              certified bit-identical to
///                              `RockSalt::check` on the current bytes;
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

/// One spliced re-verification window: the chain was replayed over
/// [Begin, End) and only that range's marks changed. Begin and End are
/// chain positions in both the old and the new match chain, so a
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
  uint64_t SeamRescans = 0;     ///< verifySteps replayed at chunk seams
  /// True when the verdict came from the O(patch) splice path; Windows
  /// then lists every replayed window. False means a full merge ran
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

  /// Overwrites [Offset, Offset+Len) with \p Bytes and marks dirty
  /// cards; no re-verification. Throws std::invalid_argument on an
  /// unknown handle, a zero-length patch, or a range that leaves
  /// [0, size).
  void patchBytes(ImageId Id, uint32_t Offset, const uint8_t *Bytes,
                  uint32_t Len);

  /// Re-verifies from the dirty cards; clears them. Throws
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
  /// O(patch) path: replays the chain across each dirty range and
  /// splices the window into E.Merge. False when the result is not a
  /// clean accept (parse failure, finalize violation, no prior accepted
  /// merge) — the caller then runs the full merge.
  bool spliceReverify(ImageEntry &E, IncrResult &Res);
  /// Rebuilds E.Merge's attribution state from an accepted full merge,
  /// taking ownership of its result.
  void rebuildMergeState(ImageEntry &E, core::CheckResult &&R);

  const core::PolicyTables &Tables;
  /// The fused form of Tables, built once per verifier: chunk scans,
  /// splice replays, and full merges all drive it (the legacy Tables
  /// stay for the read-bound derivation and for identity/debugging).
  core::FusedPolicy Fused;
  uint32_t MaxRead;
  IncrementalOptions Opts;
  svc::Metrics *Met; ///< may be null
  ChunkCache Cache;
  ImageStore Store;
  std::vector<const core::ShardScan *> MergeScratch; ///< reused per merge
  /// Splice scratch: the in-sync chunk scans of one window, then the
  /// seam steps' starts and pair jumps, and every (chunk, target).
  std::vector<const core::ShardScan *> SegChunks;
  std::vector<uint32_t> SegValid, SegPair;
  std::vector<std::pair<uint32_t, uint32_t>> SegTgt;
};

} // namespace incr
} // namespace rocksalt

#endif // ROCKSALT_INCR_INCREMENTALVERIFIER_H
