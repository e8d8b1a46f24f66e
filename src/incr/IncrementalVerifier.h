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
///   open(bytes)              — register, scan every chunk, merge,
///                              verdict;
///   patchBytes(id, off, b[]) — overwrite bytes in place and put on the
///                              dirty list every chunk whose *scan
///                              window* intersects the patched range
///                              (windows overhang chunk ends by the DFA
///                              read bound, so a patch near a chunk
///                              start also dirties its predecessor);
///   reverify(id)             — rescan the dirty chunks only (walking
///                              the image's dirty list), then *splice*
///                              them into the maintained merge of the
///                              last accepted verdict: when every new
///                              scan ends exactly on its chunk's end,
///                              each run of adjacent dirty chunks swaps
///                              its old scans' marks for the new ones
///                              and re-checks the final pass over that
///                              window only. Any reject (and the first
///                              verdict) goes through the full join of
///                              core/Shard instead: a concatenation of
///                              the chunk scans when they are in sync,
///                              a whole-image check otherwise, so the
///                              verdict stays certified bit-identical
///                              to `RockSalt::check` on the current
///                              bytes;
///   patch(id, off, b[])      — patchBytes + reverify, the service's
///                              per-request shape;
///   close(id)                — unregister.
///
/// A chunk scan is recomputed exactly when a patch touched its window,
/// so the dirty rule (and the read bound that sizes the windows) is
/// what keeps a stale scan out of a verdict.
///
/// Patches never change an image's size: the sandbox loader maps code
/// regions once; tier-ups overwrite in place (pad with nops to grow).
///
/// Not thread-safe: one instance per session/thread.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_INCR_INCREMENTALVERIFIER_H
#define ROCKSALT_INCR_INCREMENTALVERIFIER_H

#include "incr/ImageStore.h"

namespace rocksalt {
namespace svc {
struct Metrics;
} // namespace svc

namespace incr {

/// The largest number of bytes one `verifyStep` can read starting at its
/// chain position, derived from the tables: the longest run of
/// transitions any of the three policy DFAs can make before reaching an
/// accepting or rejecting state. Finite because the live, non-accepting
/// part of each instruction DFA is acyclic — a cycle there would mean
/// unboundedly long instructions. Throws std::logic_error if a table
/// ever acquires such a cycle (no finite scan window exists then).
uint32_t maxScanReadBytes(const core::PolicyTables &T);

struct IncrementalOptions {
  /// Chunk granularity: smaller chunks re-scan less per patch but merge
  /// more entries; must be a nonzero multiple of core::BundleSize.
  uint32_t ChunkBytes = 512;
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
  uint32_t ChunksRescanned = 0; ///< dirty chunks (each one is rescanned)
  /// Always 0: every dirty chunk is rescanned. Kept because
  /// e2ebench/JitPatch.cpp still reads it.
  uint32_t ChunkCacheHits = 0;
  /// Always 0: the full join steps no chain of its own (a chain that
  /// leaves a chunk off its base is a whole-image check). Kept because
  /// e2ebench/JitPatch.cpp still reads it.
  uint64_t SeamRescans = 0;
  /// True when the verdict came from the O(patch) splice path; Windows
  /// then lists every spliced window. False means the full join ran
  /// (first verdict, any reject, or a splice bail-out) and Windows is
  /// empty.
  bool Spliced = false;
  std::vector<SpliceWindow> Windows;
};

class IncrementalVerifier {
public:
  /// \p M, when given, must outlive the verifier.
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
  /// The DFA-derived per-step read bound the chunk windows use.
  uint32_t maxReadBytes() const { return MaxRead; }

private:
  ImageEntry &entry(ImageId Id);
  /// O(patch) path: swaps each run of adjacent dirty chunks' scans
  /// into E.Merge and re-checks the final pass over that window. False
  /// when the result is not a clean accept (a new scan that fails or
  /// ends off its chunk's end, a finalize violation) — the caller then
  /// runs the full join.
  bool spliceReverify(ImageEntry &E, IncrResult &Res);

  /// The fused form of the policy tables, built once per verifier: chunk
  /// scans and full joins drive it.
  core::FusedPolicy Fused;
  uint32_t MaxRead;
  IncrementalOptions Opts;
  svc::Metrics *Met; ///< may be null
  ImageStore Store;
  /// The dirty chunks' previous scans, in dirty-list order, so the
  /// splice can retire their targets. Slots are swapped with the
  /// chunks, never freed, so rescans reuse their buffers.
  std::vector<core::ShardScan> OldScans;
};

} // namespace incr
} // namespace rocksalt

#endif // ROCKSALT_INCR_INCREMENTALVERIFIER_H
