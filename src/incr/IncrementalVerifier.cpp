//===- incr/IncrementalVerifier.cpp - O(patch) re-verification ------------===//
//
// The re-verification loop: the dirty list says which chunk scans a
// patch invalidated, each dirty chunk is rescanned in place, and on the
// accepted steady state the new scans are spliced into the maintained
// merge: chunk bases are bundle boundaries, so an accepted image's
// chain is the concatenation of its chunk scans, and swapping a dirty
// chunk's old scan for its new one changes only that chunk's marks.
// Everything else (first verdict, rejects, finalize violations) falls
// back to the full join of core/Shard, which concatenates in-sync scans
// or checks the whole image, so every verdict stays bit-identical to
// the sequential checker. Finding the dirty chunks, the scan and the
// splice are then all O(patch), which is the bench gate's >= 5x.
//
//===----------------------------------------------------------------------===//

#include "incr/IncrementalVerifier.h"

#include "svc/Metrics.h"

#include <algorithm>
#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::incr;

IncrementalVerifier::IncrementalVerifier(IncrementalOptions O, svc::Metrics *M)
    : IncrementalVerifier(core::policyTables(), O, M) {}

IncrementalVerifier::IncrementalVerifier(const core::PolicyTables &T,
                                         IncrementalOptions O, svc::Metrics *M)
    : Fused(core::buildFusedPolicy(T)), MaxRead(maxScanReadBytes(T)), Opts(O),
      Met(M) {
  if (Opts.ChunkBytes == 0 || Opts.ChunkBytes % core::BundleSize != 0)
    throw std::invalid_argument(
        "incremental chunk granularity must be a nonzero multiple of the "
        "bundle size");
}

ImageEntry &IncrementalVerifier::entry(ImageId Id) {
  if (ImageEntry *E = Store.get(Id))
    return *E;
  throw std::invalid_argument("unknown image handle");
}

ImageId IncrementalVerifier::open(std::vector<uint8_t> Bytes, IncrResult *Out) {
  ImageId Id = Store.open(std::move(Bytes), Opts.ChunkBytes);
  IncrResult R = reverify(Id);
  if (Out)
    *Out = std::move(R);
  return Id;
}

namespace {

/// The most bytes `dfaMatch` reads from state \p S: it stops on entering
/// an accepting (shortest match) or rejecting state, so this is the
/// longest path out of S whose last edge is the first to enter one. A
/// memoized DFS: Memo is 0 before S is visited, ~0u while S is on the
/// DFS path (meeting it again is a live non-accepting cycle), and the
/// bound after.
uint32_t maxReadFrom(const re::Dfa &A, uint32_t S, std::vector<uint32_t> &Memo) {
  if (Memo[S] == ~0u)
    throw std::logic_error("policy DFA has a live non-accepting cycle: no "
                           "finite scan window exists");
  if (Memo[S] == 0) {
    Memo[S] = ~0u;
    uint32_t Most = 0;
    for (uint32_t Next : A.Table[S])
      Most = std::max(Most, (A.Accepts[Next] || A.Rejects[Next])
                                ? 1u
                                : 1 + maxReadFrom(A, Next, Memo));
    Memo[S] = Most;
  }
  return Memo[S];
}

} // namespace

uint32_t incr::maxScanReadBytes(const core::PolicyTables &T) {
  // dfaMatch reads one byte before it tests a state, so the start
  // state's own verdict never stops it.
  uint32_t Most = 0;
  for (const re::Dfa *A : {&T.MaskedJump, &T.NoControlFlow, &T.DirectJump}) {
    std::vector<uint32_t> Memo(A->numStates(), 0);
    Most = std::max(Most, maxReadFrom(*A, A->Start, Memo));
  }
  return Most;
}

void IncrementalVerifier::patchBytes(ImageId Id, uint32_t Offset,
                                     const uint8_t *Bytes, uint32_t Len) {
  ImageEntry &E = entry(Id);
  if (Len == 0)
    throw std::invalid_argument("zero-length patch");
  if (Offset > E.size() || Len > E.size() - Offset)
    throw std::invalid_argument("patch range leaves the image");

  for (uint32_t I = 0; I < Len; ++I)
    E.Bytes[Offset + I] = Bytes[I];

  // Chunk c's scan read the window [c*CB, (c+1)*CB - 1 + MaxRead)
  // (clamped to the image), so the patch invalidates every chunk whose
  // window intersects [Offset, Offset+Len): the chunks holding
  // [Offset - (MaxRead - 1), Offset + Len), that is the patched bytes
  // and the overhang an earlier chunk's last instruction may reach into.
  const uint32_t CB = E.ChunkBytes;
  uint32_t From = Offset + 1 > MaxRead ? Offset + 1 - MaxRead : 0;
  for (uint32_t C = From / CB; C <= (Offset + Len - 1) / CB; ++C)
    E.DirtyList.push_back(C);
}

IncrResult IncrementalVerifier::reverify(ImageId Id) {
  ImageEntry &E = entry(Id);
  IncrResult Res;

  const uint8_t *Code = E.Bytes.data();
  const uint32_t Size = E.size();
  const uint32_t CB = E.ChunkBytes;
  MergeState &M = E.Merge;
  // Batched patches may list a chunk more than once; the splice walks
  // the dirty chunks in chain order, each once.
  std::sort(E.DirtyList.begin(), E.DirtyList.end());
  E.DirtyList.erase(std::unique(E.DirtyList.begin(), E.DirtyList.end()),
                    E.DirtyList.end());
  // Only the splice, which runs from an accepted merge, reads the old
  // scans: there each one swaps into a scratch slot, and the chunk
  // rescans into the buffers the slot held.
  if (M.Ok && OldScans.size() < E.DirtyList.size())
    OldScans.resize(E.DirtyList.size());
  for (size_t I = 0; I < E.DirtyList.size(); ++I) {
    core::ShardScan &S = E.Chunks[E.DirtyList[I]];
    if (M.Ok)
      std::swap(S, OldScans[I]);
    uint32_t Begin = E.DirtyList[I] * CB;
    S.reset(Begin, Begin + CB < Size ? Begin + CB : Size);
    scanShard(Fused, Code, Size, S);
  }
  Res.ChunksRescanned = uint32_t(E.DirtyList.size());

  if (!M.Ok || !spliceReverify(E, Res)) {
    // Full path: first verdict, rejects, and splice bail-outs. The join
    // is bit-identical to a whole-image check.
    Res.Windows.clear(); // drop any windows a bailed-out splice appended
    M.R = core::mergeShardScans(Fused, Code, Size, E.Chunks);
    M.Ok = Res.Ok = M.R.Ok;
    Res.Reason = M.R.Reason;
    // An accepted image's chain is the concatenation of the chunk scans
    // (see spliceReverify), so its targets are exactly theirs.
    M.TargetCnt.clear();
    if (M.Ok)
      for (const core::ShardScan &S : E.Chunks)
        for (uint32_t T : S.TargetPos)
          ++M.TargetCnt[T];
  }
  E.DirtyList.clear();

  if (Met)
    Met->ShardsScanned.add(Res.ChunksRescanned);
  return Res;
}

bool IncrementalVerifier::spliceReverify(ImageEntry &E, IncrResult &Res) {
  MergeState &M = E.Merge;
  const std::vector<uint32_t> &Dirty = E.DirtyList;

  // Chunk bases are bundle boundaries, so in the accepted image M
  // certifies every chunk scan ended exactly on its chunk's end, and
  // the untouched ones still do (their read windows are unchanged). If
  // every new scan does too, the chain is again the concatenation of
  // the scans, by induction from position 0. A failed scan's StopPos
  // says nothing (a final chunk that runs out of bytes mid-instruction
  // stops at its end), and one that ran past its end left a bundle
  // boundary that is not an instruction start. Both are rejects whose
  // reason and bitmaps the full join pins.
  for (uint32_t C : Dirty)
    if (E.Chunks[C].Failed || E.Chunks[C].StopPos != E.Chunks[C].End)
      return false;

  // Does any direct branch land strictly inside (B, End)?
  auto Interior = [&M](uint32_t B, uint32_t End) {
    auto It = M.R.Target.begin();
    return std::find(It + B + 1, It + End, 1) != It + End;
  };
  // One window per run of adjacent dirty chunks, in chain order.
  for (size_t I = 0; I < Dirty.size();) {
    size_t J = I + 1;
    while (J < Dirty.size() && Dirty[J] == Dirty[J - 1] + 1)
      ++J;
    const uint32_t B = E.Chunks[Dirty[I]].Begin;
    const uint32_t End = E.Chunks[Dirty[J - 1]].End;
    const bool InteriorBefore = Interior(B, End);

    // Swap the old scans' marks for the new ones: retire the old
    // targets (refcounted, so a target another jump still justifies
    // stays), clear the window's starts and pair jumps, apply the new.
    for (size_t K = I; K < J; ++K)
      for (uint32_t T : OldScans[K].TargetPos) {
        auto It = M.TargetCnt.find(T);
        if (--It->second == 0) {
          M.TargetCnt.erase(It);
          M.R.Target[T] = 0;
        }
      }
    std::fill(M.R.Valid.begin() + B, M.R.Valid.begin() + End, 0);
    std::fill(M.R.PairJmp.begin() + B, M.R.PairJmp.begin() + End, 0);
    for (size_t K = I; K < J; ++K) {
      const core::ShardScan &S = E.Chunks[Dirty[K]];
      S.forEachStart([&M](uint32_t P) { M.R.Valid[P] = 1; });
      for (uint32_t P : S.PairJmpPos)
        M.R.PairJmp[P] = 1;
      for (uint32_t T : S.TargetPos)
        if (M.TargetCnt[T]++ == 0)
          M.R.Target[T] = 1;
    }

    // Incremental finalize: outside the window only targets were
    // retired, which relaxes the final pass, so the window's starts and
    // the new targets decide it. Precedence and truncation on a reject
    // belong to the full pass — bail out.
    for (uint32_t P = B; P < End; ++P)
      if ((M.R.Target[P] || !(P & (core::BundleSize - 1))) && !M.R.Valid[P])
        return false;
    for (size_t K = I; K < J; ++K)
      for (uint32_t T : E.Chunks[Dirty[K]].TargetPos)
        if (!M.R.Valid[T])
          return false;
    Res.Windows.push_back({B, End, InteriorBefore, Interior(B, End)});
    I = J;
  }

  Res.Ok = true;
  Res.Reason = core::RejectReason::None;
  Res.Spliced = true;
  return true;
}

IncrResult IncrementalVerifier::patch(ImageId Id, uint32_t Offset,
                                      const uint8_t *Bytes, uint32_t Len) {
  patchBytes(Id, Offset, Bytes, Len);
  return reverify(Id);
}

const core::CheckResult &IncrementalVerifier::lastCheck(ImageId Id) {
  return entry(Id).Merge.R;
}

void IncrementalVerifier::close(ImageId Id) {
  if (!Store.close(Id))
    throw std::invalid_argument("unknown image handle");
}
