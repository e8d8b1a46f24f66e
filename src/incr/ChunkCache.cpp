//===- incr/ChunkCache.cpp - LRU cache of per-chunk scan results ----------===//

#include "incr/ChunkCache.h"

#include "support/Sha256.h"

#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::incr;

namespace {

/// Longest run of transitions from Start before the first accepting or
/// rejecting state, by DFS with on-stack cycle detection. `dfaMatch`
/// stops reading the moment it enters an accepting state (shortest
/// match) or a rejecting one, so this is exactly its read bound.
uint32_t maxReadOf(const re::Dfa &A) {
  enum : uint8_t { White, Grey, Black };
  std::vector<uint8_t> Color(A.numStates(), White);
  std::vector<uint32_t> Depth(A.numStates(), 0); // longest read from state

  struct StackFrame {
    uint32_t State;
    unsigned NextByte;
  };
  std::vector<StackFrame> Stack;

  auto terminal = [&](uint32_t S) { return A.Accepts[S] || A.Rejects[S]; };

  // The start state itself may be accepting (nullable regex) — dfaMatch
  // still reads at least one byte before testing, so depth counts edges
  // taken, and the read bound is depth-from-start.
  Color[A.Start] = Grey;
  Stack.push_back({A.Start, 0});
  while (!Stack.empty()) {
    StackFrame &F = Stack.back();
    if (F.NextByte == 256) {
      Color[F.State] = Black;
      Stack.pop_back();
      continue;
    }
    uint32_t Next = A.Table[F.State][F.NextByte++];
    uint32_t NextDepth = terminal(Next) ? 1 : 0;
    if (!terminal(Next)) {
      if (Color[Next] == Grey)
        throw std::logic_error(
            "policy DFA has a live non-accepting cycle: no finite scan "
            "window exists for chunk caching");
      if (Color[Next] == White) {
        Color[Next] = Grey;
        Stack.push_back({Next, 0});
        continue; // resolve Next's depth first; revisit this edge below
      }
      NextDepth = 1 + Depth[Next];
    }
    if (NextDepth > Depth[F.State])
      Depth[F.State] = NextDepth;
  }

  // The DFS above pops a child before folding its depth into the parent
  // on the `continue` path; run a second pass that re-folds every edge
  // now that all depths are final (the graph is acyclic, so one extra
  // relaxation sweep per topological depth converges; iterate to fixed
  // point for simplicity — the tables have < 50 states).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t S = 0; S < A.numStates(); ++S) {
      if (terminal(S) || Color[S] == White)
        continue;
      for (unsigned B = 0; B < 256; ++B) {
        uint32_t Next = A.Table[S][B];
        uint32_t Cand = terminal(Next) ? 1 : 1 + Depth[Next];
        if (Cand > Depth[S]) {
          Depth[S] = Cand;
          Changed = true;
        }
      }
    }
  }
  return Depth[A.Start];
}

} // namespace

uint32_t incr::maxScanReadBytes(const core::PolicyTables &T) {
  uint32_t R = maxReadOf(T.MaskedJump);
  uint32_t N = maxReadOf(T.NoControlFlow);
  uint32_t D = maxReadOf(T.DirectJump);
  if (N > R)
    R = N;
  if (D > R)
    R = D;
  return R;
}

ChunkKey incr::chunkKey(const uint8_t *Code, uint32_t Size, uint32_t Begin,
                        uint32_t End, uint32_t MaxRead) {
  uint32_t WindowEnd = End - 1 + MaxRead;
  if (WindowEnd > Size || WindowEnd < End) // clamp (and guard overflow)
    WindowEnd = Size;
  support::Sha256 H;
  uint8_t Hdr[12];
  for (unsigned I = 0; I < 4; ++I) {
    Hdr[I] = uint8_t(Begin >> (8 * I));
    Hdr[4 + I] = uint8_t(End >> (8 * I));
    Hdr[8 + I] = uint8_t(Size >> (8 * I));
  }
  H.update(Hdr, sizeof(Hdr));
  H.update(Code + Begin, WindowEnd - Begin);
  return H.digest();
}

ChunkCache::ChunkCache(ChunkCacheOptions O, svc::Metrics *M)
    : Opts(O), Met(M) {}

size_t ChunkCache::entryCost(const core::ShardScan &S) {
  // Every allocation an entry owns, at its requested size: the map node
  // (a link, then key and Entry) plus its bucket slot, and the
  // make_shared block (a control block of a vtable pointer and two
  // counts, then the scan) with the scan's buffers.
  constexpr size_t MapNode = sizeof(void *) + sizeof(Node) + sizeof(void *);
  constexpr size_t ScanBlock =
      sizeof(void *) + 2 * sizeof(int) + sizeof(core::ShardScan);
  return MapNode + ScanBlock + S.startBytes() +
         sizeof(uint32_t) * (S.TargetPos.capacity() + S.PairJmpPos.capacity());
}

void ChunkCache::unlink(Node &N) {
  Entry &E = N.second;
  (E.Newer ? E.Newer->second.Older : Newest) = E.Older;
  (E.Older ? E.Older->second.Newer : Oldest) = E.Newer;
  E.Newer = E.Older = nullptr;
}

void ChunkCache::pushNewest(Node &N) {
  N.second.Older = Newest;
  (Newest ? Newest->second.Newer : Oldest) = &N;
  Newest = &N;
}

void ChunkCache::publish(int64_t Entries, int64_t Bytes) {
  if (Met) {
    Met->IncrChunkEntries.add(Entries);
    Met->IncrChunkResidentBytes.add(Bytes);
  }
}

std::shared_ptr<const core::ShardScan> ChunkCache::lookup(const ChunkKey &K) {
  auto It = Map.find(K);
  if (It == Map.end()) {
    ++Misses;
    if (Met)
      Met->IncrChunkMisses.add();
    return nullptr;
  }
  ++Hits;
  if (Met)
    Met->IncrChunkHits.add();
  unlink(*It); // refresh
  pushNewest(*It);
  return It->second.Scan;
}

std::shared_ptr<const core::ShardScan>
ChunkCache::insert(const ChunkKey &K,
                   std::shared_ptr<const core::ShardScan> Scan) {
  auto [It, Fresh] = Map.try_emplace(K);
  Entry &E = It->second;
  size_t Old = E.Cost;
  E.Scan = Scan;
  E.Cost = entryCost(*Scan);
  Bytes = Bytes - Old + E.Cost;
  publish(Fresh, int64_t(E.Cost) - int64_t(Old));
  if (!Fresh)
    unlink(*It);
  pushNewest(*It);
  evictToFit();
  return Scan;
}

void ChunkCache::evictToFit() {
  while (Map.size() > Opts.MaxEntries ||
         (Bytes > Opts.MaxBytes && Map.size() > 1)) {
    Node &Victim = *Oldest;
    Bytes -= Victim.second.Cost;
    publish(-1, -int64_t(Victim.second.Cost));
    unlink(Victim);
    ChunkKey Key = Victim.first; // the node dies inside erase
    Map.erase(Key);
    ++Evictions;
    if (Met)
      Met->IncrChunkEvictions.add();
  }
}

void ChunkCache::clear() {
  publish(-int64_t(Map.size()), -int64_t(Bytes));
  Map.clear();
  Newest = Oldest = nullptr;
  Bytes = 0;
}
