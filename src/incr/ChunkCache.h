//===- incr/ChunkCache.h - LRU cache of per-chunk scan results -*- C++ -*-===//
///
/// \file
/// The memo table of the incremental verifier: per-chunk `ShardScan`
/// results keyed by the content of the bytes the scan actually read.
///
/// Why the key is sound: `core/Shard.h` proves that a Figure-5 scan
/// started fresh at a bundle-aligned chunk base follows the chain the
/// sequential verifier would on an accepted image, and that the
/// seam-aware merge repairs every desynchronized case — so the "entry
/// boundary state" of a chunk scan is a constant ("fresh DFA start at a
/// bundle-aligned base") and needs no representation in the key. What
/// remains is exactly the scan's input: `scanShard` on [Begin, End) is a
/// pure function of
///
///   * the bytes in the scan window [Begin, min(End - 1 + MaxRead, Size))
///     where MaxRead bounds how many bytes one `verifyStep` can consume
///     (maxScanReadBytes, derived from the live-acyclic policy DFAs);
///   * the absolute geometry (Begin, End) — positions and pc-relative
///     jump targets are absolute;
///   * the image size — `dfaMatch` exhaustion and the `extract` range
///     check [0, Size) both read it.
///
/// The key is therefore SHA-256 over (Begin, End, Size, window bytes).
/// The soundness argument leans on SHA-256's collision resistance: two
/// windows with one digest would let one chunk's cached scan stand in
/// for different bytes.
/// Entries are shared `ShardScan`s behind shared_ptr: an image holds its
/// current chunk scans alive even after LRU eviction, and identical
/// chunks (nop sleds, common prologues) are shared across images.
///
/// Bounded by entry count and by resident bytes — every allocation an
/// entry owns, node and control block included — evicting
/// least-recently-used entries; hit/miss/eviction totals are kept
/// locally and mirrored into `svc::Metrics` (incr_chunk_* counters), and
/// the live entry count and resident bytes into the incr_chunk_entries
/// and incr_chunk_resident_bytes gauges.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_INCR_CHUNKCACHE_H
#define ROCKSALT_INCR_CHUNKCACHE_H

#include "core/Shard.h"
#include "svc/Metrics.h"

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

namespace rocksalt {
namespace incr {

/// The largest number of bytes one `verifyStep` can read starting at its
/// chain position, derived from the tables: the longest run of
/// transitions any of the three policy DFAs can make before reaching an
/// accepting or rejecting state. Finite because the live, non-accepting
/// part of each (minimized) instruction DFA is acyclic — a cycle there
/// would mean unboundedly long instructions. Throws std::logic_error if
/// a table ever acquires such a cycle (no safe chunk window exists then).
uint32_t maxScanReadBytes(const core::PolicyTables &T);

/// Cache key: SHA-256 over (Begin, End, Size, scan-window bytes).
using ChunkKey = std::array<uint8_t, 32>;

/// Computes the key for chunk [Begin, End) of the image [Code, Code+Size)
/// under scan-read bound \p MaxRead.
ChunkKey chunkKey(const uint8_t *Code, uint32_t Size, uint32_t Begin,
                  uint32_t End, uint32_t MaxRead);

struct ChunkCacheOptions {
  size_t MaxEntries = 1 << 16;          ///< LRU bound on entry count
  size_t MaxBytes = 64u << 20;          ///< LRU bound on resident bytes
};

class ChunkCache {
public:
  /// \p M, when given, must outlive the cache: the destructor takes the
  /// cache's entries out of its gauges.
  explicit ChunkCache(ChunkCacheOptions O = {}, svc::Metrics *M = nullptr);
  ~ChunkCache() { clear(); }

  ChunkCache(const ChunkCache &) = delete;
  ChunkCache &operator=(const ChunkCache &) = delete;

  /// Looks the key up, refreshing its LRU position. Null on a miss.
  /// Counts a hit or a miss.
  std::shared_ptr<const core::ShardScan> lookup(const ChunkKey &K);

  /// Inserts (or replaces) the entry for \p K and evicts LRU entries
  /// until both bounds hold again. The returned pointer stays valid for
  /// callers regardless of eviction (shared ownership).
  std::shared_ptr<const core::ShardScan>
  insert(const ChunkKey &K, std::shared_ptr<const core::ShardScan> Scan);

  size_t size() const { return Map.size(); }
  size_t residentBytes() const { return Bytes; }
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }

  /// Drops every entry (counters keep their totals).
  void clear();

private:
  /// A map value; the LRU order is a doubly linked list threaded through
  /// the map's nodes (which never move), so an entry is one allocation
  /// besides its scan.
  struct Entry {
    std::shared_ptr<const core::ShardScan> Scan;
    size_t Cost = 0;
    std::pair<const ChunkKey, Entry> *Newer = nullptr, *Older = nullptr;
  };
  using Node = std::pair<const ChunkKey, Entry>;
  struct KeyHash {
    // noexcept: the map then stores no hash code per node.
    size_t operator()(const ChunkKey &K) const noexcept {
      size_t H = 0;
      for (size_t I = 0; I < sizeof(size_t); ++I)
        H = (H << 8) | K[I];
      return H;
    }
  };

  void unlink(Node &N);
  void pushNewest(Node &N);
  void evictToFit();
  /// Mirrors a change of the entry count and resident bytes into the
  /// metrics gauges.
  void publish(int64_t Entries, int64_t Bytes);
  static size_t entryCost(const core::ShardScan &S);

  ChunkCacheOptions Opts;
  svc::Metrics *Met; ///< may be null
  std::unordered_map<ChunkKey, Entry, KeyHash> Map;
  Node *Newest = nullptr, *Oldest = nullptr; ///< LRU ends

  size_t Bytes = 0;
  uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

} // namespace incr
} // namespace rocksalt

#endif // ROCKSALT_INCR_CHUNKCACHE_H
