//===- incr/ImageStore.h - Registered mutating images ----------*- C++ -*-===//
///
/// \file
/// The registry of long-lived images the incremental verifier tracks:
/// id → current bytes + chunk geometry + the per-chunk scan results that
/// certify the last verdict (each image owns its own) + a dirty list of
/// the chunks whose scan window a patch has touched since the last
/// re-verification (the shape of a GC remembered set: writes append to
/// it, the collector — here the re-verifier — visits and clears it).
///
/// The store is pure bookkeeping; `incr::IncrementalVerifier` owns the
/// scanning and merging policy on top of it.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_INCR_IMAGESTORE_H
#define ROCKSALT_INCR_IMAGESTORE_H

#include "core/Shard.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace rocksalt {
namespace incr {

/// Opaque image handle. Never reused within one store's lifetime, so a
/// stale handle fails loudly instead of aliasing a newer image.
using ImageId = uint32_t;

/// The maintained merge of the last *accepted* verdict, kept so a patch
/// can splice its dirty chunks' new scans into the previous result
/// instead of re-merging O(image) every time. Chunk bases are bundle
/// boundaries, so an accepted merge is the concatenation of the chunk
/// scans: `R`'s marks inside a chunk are exactly that chunk's scan.
/// `TargetCnt` refcounts the jumps targeting each position (only
/// positions some jump targets have an entry, so it costs O(jumps), not
/// O(image)), so retiring one chunk's jumps clears exactly the bits no
/// other jump still justifies; `R.Target[p]` is set exactly when p has
/// one. Only valid while `Ok`: after any reject every verdict comes
/// from the full join of core/Shard (the in-sync scans concatenated, or
/// a whole-image check) until the image is accepted again.
struct MergeState {
  bool Ok = false;
  core::CheckResult R;
  std::unordered_map<uint32_t, uint32_t> TargetCnt;
};

/// One registered image and its incremental verification state.
struct ImageEntry {
  std::vector<uint8_t> Bytes; ///< current contents (patches mutate in place)
  uint32_t ChunkBytes = 0;    ///< chunk granularity (multiple of BundleSize)
  /// Per-chunk scans backing the last verdict; Chunks[i] covers
  /// [i*ChunkBytes, min((i+1)*ChunkBytes, size)). Empty until first scan.
  std::vector<core::ShardScan> Chunks;
  /// The chunks whose scan window a patch touched since their scans in
  /// Chunks were computed, in patch order and possibly repeated:
  /// re-verification sorts and deduplicates it and visits only those,
  /// so it costs O(patch) however large the image.
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
