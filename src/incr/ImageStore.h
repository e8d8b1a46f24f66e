//===- incr/ImageStore.h - Registered mutating images ----------*- C++ -*-===//
///
/// \file
/// The registry of long-lived images the incremental verifier tracks:
/// id → current bytes + chunk geometry + the per-chunk scan results that
/// certify the last verdict + dirty cards for chunks whose scan window a
/// patch has touched since the last re-verification (the shape of a GC
/// card table: writes mark cards, the collector — here the re-verifier —
/// clears them), with the marked cards also appended to a dirty list so
/// the re-verifier visits only those.
///
/// The store is pure bookkeeping; `incr::IncrementalVerifier` owns the
/// scanning and merging policy on top of it.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_INCR_IMAGESTORE_H
#define ROCKSALT_INCR_IMAGESTORE_H

#include "core/Shard.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace rocksalt {
namespace incr {

/// Opaque image handle. Never reused within one store's lifetime, so a
/// stale handle fails loudly instead of aliasing a newer image.
using ImageId = uint32_t;

/// The maintained merge of the last *accepted* verdict, kept so a patch
/// can splice its re-merged window into the previous result instead of
/// re-merging O(image) every time. `EntryPos[c]` is the first chain
/// position >= c*ChunkBytes (the chain was in sync at c iff it equals
/// the chunk base); `SegTargets[c]` lists the direct-jump targets
/// contributed by chain steps starting inside chunk c, and `TargetCnt`
/// refcounts contributors per targeted position (only positions some
/// jump targets have an entry, so it costs O(jumps), not O(image)) so
/// removing one segment's jumps clears exactly the bits no other jump
/// still justifies; `R.Target[p]` is set exactly when p has one. Only
/// valid while `Ok` — any reject drops back to the full merge until the
/// image is accepted again.
struct MergeState {
  bool Ok = false;
  core::CheckResult R;
  std::vector<uint32_t> EntryPos;
  std::vector<std::vector<uint32_t>> SegTargets;
  std::unordered_map<uint32_t, uint32_t> TargetCnt;
};

/// One registered image and its incremental verification state.
struct ImageEntry {
  std::vector<uint8_t> Bytes; ///< current contents (patches mutate in place)
  uint32_t ChunkBytes = 0;    ///< chunk granularity (multiple of BundleSize)
  /// Per-chunk scans backing the last verdict; Chunks[i] covers
  /// [i*ChunkBytes, min((i+1)*ChunkBytes, size)). Null until first scan.
  std::vector<std::shared_ptr<const core::ShardScan>> Chunks;
  /// Dirty cards: chunk i's scan window was touched by a patch since its
  /// scan in Chunks[i] was (re)computed.
  std::vector<uint8_t> DirtyCards;
  /// The dirty chunks, each listed once, in the order their cards were
  /// set: re-verification walks this list (sorted) instead of sweeping
  /// the cards, so it costs O(patch) however large the image. The cards
  /// stay for the O(1) "is this chunk dirty" test and to keep the list
  /// unique.
  std::vector<uint32_t> DirtyList;
  /// Spliceable merge of the last accepted verdict (see MergeState).
  MergeState Merge;

  uint32_t size() const { return uint32_t(Bytes.size()); }
  uint32_t numChunks() const { return uint32_t(Chunks.size()); }
};

class ImageStore {
public:
  /// Registers an image, choosing \p ChunkBytes granularity (must be a
  /// nonzero multiple of core::BundleSize; throws std::invalid_argument
  /// otherwise). All chunks start dirty.
  ImageId open(std::vector<uint8_t> Bytes, uint32_t ChunkBytes);

  /// Null when the handle is unknown (or already closed).
  ImageEntry *get(ImageId Id);
  const ImageEntry *get(ImageId Id) const;

  /// Unregisters; false when the handle is unknown.
  bool close(ImageId Id);

  size_t count() const { return Images.size(); }

private:
  std::unordered_map<ImageId, ImageEntry> Images;
  ImageId NextId = 1; ///< 0 stays invalid
};

} // namespace incr
} // namespace rocksalt

#endif // ROCKSALT_INCR_IMAGESTORE_H
