//===- incr/IncrementalVerifier.cpp - O(patch) re-verification ------------===//
//
// The re-verification loop: the dirty list (deduplicated by the dirty
// cards) says which chunk scans a patch invalidated, the ChunkCache
// resolves each dirty chunk by content (a reverted patch is a pure
// hit), and on the accepted steady state the re-merged window is
// spliced into the maintained merge — replay the chain from the dirty
// chunk's recorded entry position until it lands back in sync on an
// untouched chunk base, and only that window's marks change.
// Everything else (first verdict, rejects, finalize violations) falls
// back to the full seam-aware merge of core/Shard, which keeps every
// verdict bit-identical to the sequential checker. Finding the dirty
// chunks, the scan and the merge are then all O(patch), which is the
// bench gate's >= 5x.
//
//===----------------------------------------------------------------------===//

#include "incr/IncrementalVerifier.h"

#include <algorithm>
#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::incr;

IncrementalVerifier::IncrementalVerifier(IncrementalOptions O, svc::Metrics *M)
    : IncrementalVerifier(core::policyTables(), O, M) {}

IncrementalVerifier::IncrementalVerifier(const core::PolicyTables &T,
                                         IncrementalOptions O, svc::Metrics *M)
    : Tables(T), Fused(core::buildFusedPolicy(T)), MaxRead(maxScanReadBytes(T)),
      Opts(O), Met(M), Cache(O.Cache, M) {
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
  // window intersects [Offset, Offset+Len): the chunks containing the
  // patched bytes plus predecessors whose window overhangs into them.
  const uint32_t CB = E.ChunkBytes;
  uint32_t LastC = (Offset + Len - 1) / CB;
  if (LastC >= E.numChunks())
    LastC = E.numChunks() - 1;
  // Smallest c with (c+1)*CB - 1 + MaxRead >= Offset + 1, i.e. whose
  // unclamped window end exceeds Offset. (Clamping the window end to the
  // image size never excludes Offset, since Offset < size.)
  uint32_t FirstC = 0;
  int64_t Need = int64_t(Offset) + 2 - int64_t(MaxRead); // (c+1)*CB >= Need
  if (Need > 0) {
    int64_t CPlus1 = (Need + CB - 1) / CB;
    if (CPlus1 > 1)
      FirstC = uint32_t(CPlus1 - 1);
  }
  for (uint32_t C = FirstC; C <= LastC; ++C)
    if (!E.DirtyCards[C]) {
      E.DirtyCards[C] = 1;
      E.DirtyList.push_back(C);
    }
}

IncrResult IncrementalVerifier::reverify(ImageId Id) {
  ImageEntry &E = entry(Id);
  IncrResult Res;

  const uint8_t *Code = E.Bytes.data();
  const uint32_t Size = E.size();
  const uint32_t CB = E.ChunkBytes;
  // The splice walks dirty chunks in chain order and reads their cards,
  // so the list is sorted here and the cards are cleared only at the end.
  std::sort(E.DirtyList.begin(), E.DirtyList.end());
  for (uint32_t C : E.DirtyList) {
    uint32_t Begin = C * CB;
    uint32_t End = Begin + CB < Size ? Begin + CB : Size;
    ChunkKey K = chunkKey(Code, Size, Begin, End, MaxRead);
    std::shared_ptr<const core::ShardScan> Scan = Cache.lookup(K);
    if (Scan) {
      ++Res.ChunkCacheHits;
    } else {
      auto Fresh = std::make_shared<core::ShardScan>();
      Fresh->reset(Begin, End);
      scanShard(Fused, Code, Size, *Fresh);
      Scan = Cache.insert(K, std::move(Fresh));
      ++Res.ChunksRescanned;
    }
    E.Chunks[C] = std::move(Scan);
  }

  if (!E.Merge.Ok || !spliceReverify(E, Res)) {
    // Full path: first verdict, rejects, and fast-path bailouts. The
    // seam-aware join is the certified-bit-identical reference.
    Res.SeamRescans = 0; // drop any partial splice's count
    Res.Spliced = false;
    Res.Windows.clear(); // and any windows a bailed-out splice appended
    MergeScratch.clear();
    MergeScratch.reserve(E.numChunks());
    for (const auto &S : E.Chunks)
      MergeScratch.push_back(S.get());
    core::CheckResult Full = core::mergeShardScans(
        Fused, Code, Size, MergeScratch.data(), MergeScratch.size(),
        &Res.SeamRescans);
    Res.Ok = Full.Ok;
    Res.Reason = Full.Reason;
    if (Full.Ok) {
      rebuildMergeState(E, std::move(Full));
    } else {
      E.Merge.Ok = false;
      E.Merge.R = std::move(Full); // lastCheck still serves rejects
    }
  }
  for (uint32_t C : E.DirtyList)
    E.DirtyCards[C] = 0;
  E.DirtyList.clear();

  if (Met) {
    Met->ShardsScanned.add(Res.ChunksRescanned);
    Met->SeamRescans.add(Res.SeamRescans);
  }
  return Res;
}

bool IncrementalVerifier::spliceReverify(ImageEntry &E, IncrResult &Res) {
  MergeState &M = E.Merge;
  const uint8_t *Code = E.Bytes.data();
  const uint32_t Size = E.size();
  const uint32_t CB = E.ChunkBytes;
  const uint32_t N = E.numChunks();

  // A patch never reaches back before its dirty range: chunk c's scan —
  // and every chain step starting inside c — reads only c's window, and
  // the dirty marking already includes every chunk whose window touches
  // the patch. So the chain up to the first dirty chunk's recorded entry
  // position is unchanged, and the replay below starts there.
  uint32_t NextUncovered = 0;
  for (uint32_t D : E.DirtyList) {
    if (D < NextUncovered)
      continue; // consumed by the previous segment's replay

    const uint32_t Pos0 = M.EntryPos[D];
    uint32_t Pos = Pos0;
    uint32_t I = D;
    SegChunks.clear();
    SegValid.clear();
    SegPair.clear();
    SegTgt.clear();
    uint32_t CEnd = N, WEnd = Size;

    while (Pos < Size) {
      // Bases the chain overran mid-instruction: their fresh scans are
      // desynchronized and discarded, exactly as in the full merge.
      while (I < N && uint64_t(I) * CB < Pos)
        M.EntryPos[I++] = Pos;
      if (I < N && uint64_t(I) * CB == Pos) {
        // Back on a chunk base. If the previous chain also entered this
        // chunk in sync and its scan is untouched, everything downstream
        // is byte-for-byte the previous merge: the window ends here.
        if (M.EntryPos[I] == Pos && !E.DirtyCards[I]) {
          CEnd = I;
          WEnd = Pos;
          break;
        }
        M.EntryPos[I] = Pos;
        const core::ShardScan &S = *E.Chunks[I];
        if (S.Failed)
          return false; // parse reject: full merge owns truncation
        SegChunks.push_back(&S);
        for (uint32_t T : S.TargetPos)
          SegTgt.emplace_back(I, T);
        Pos = S.StopPos;
        ++I;
      } else {
        // Seam re-check, attributed to the chunk the step starts in.
        uint32_t StepChunk = Pos / CB;
        ++Res.SeamRescans;
        SegValid.push_back(Pos);
        uint32_t Dest = 0;
        switch (core::verifyStep(Fused, Code, &Pos, Size, &Dest)) {
        case core::StepKind::MaskedJump:
          SegPair.push_back(Pos - core::MaskedJumpHalfLen);
          break;
        case core::StepKind::NoControlFlow:
          break;
        case core::StepKind::DirectJump:
          SegTgt.emplace_back(StepChunk, Dest);
          break;
        case core::StepKind::Fail:
          return false;
        }
      }
    }

    // Window descriptor for downstream incremental consumers (the
    // linter): does any direct branch currently land strictly inside
    // the window? R.Target still reflects the pre-splice chain here.
    bool InteriorBefore = false;
    for (uint32_t P = Pos0 + 1; P < WEnd; ++P)
      if (M.R.Target[P]) {
        InteriorBefore = true;
        break;
      }

    // Splice [Pos0, WEnd): retire the covered chunks' old target
    // contributions, clear the window's positional marks, apply the new.
    for (uint32_t C = D; C < CEnd; ++C) {
      for (uint32_t T : M.SegTargets[C]) {
        auto It = M.TargetCnt.find(T);
        if (--It->second == 0) {
          M.TargetCnt.erase(It);
          M.R.Target[T] = 0;
        }
      }
      M.SegTargets[C].clear();
    }
    if (Pos0 < WEnd) {
      std::fill(M.R.Valid.begin() + Pos0, M.R.Valid.begin() + WEnd, 0);
      std::fill(M.R.PairJmp.begin() + Pos0, M.R.PairJmp.begin() + WEnd, 0);
    }
    for (const core::ShardScan *S : SegChunks) {
      S->forEachStart([&M](uint32_t P) { M.R.Valid[P] = 1; });
      for (uint32_t P : S->PairJmpPos)
        M.R.PairJmp[P] = 1;
    }
    for (uint32_t P : SegValid)
      M.R.Valid[P] = 1;
    for (uint32_t P : SegPair)
      M.R.PairJmp[P] = 1;
    for (const auto &CT : SegTgt) {
      M.SegTargets[CT.first].push_back(CT.second);
      if (M.TargetCnt[CT.second]++ == 0)
        M.R.Target[CT.second] = 1;
    }

    // Incremental finalize: only the window's Valid bits and the new
    // targets can introduce a Figure-5 final-pass violation. Precedence
    // and truncation on a reject belong to the full pass — bail out.
    for (uint32_t P = Pos0; P < WEnd; ++P)
      if ((M.R.Target[P] || !(P & (core::BundleSize - 1))) && !M.R.Valid[P])
        return false;
    for (const auto &CT : SegTgt)
      if (!M.R.Valid[CT.second])
        return false;

    // The post-splice interior-target scan sees the applied chain.
    bool InteriorAfter = false;
    for (uint32_t P = Pos0 + 1; P < WEnd; ++P)
      if (M.R.Target[P]) {
        InteriorAfter = true;
        break;
      }
    if (Pos0 < WEnd)
      Res.Windows.push_back({Pos0, WEnd, InteriorBefore, InteriorAfter});

    NextUncovered = CEnd;
  }

  Res.Ok = true;
  Res.Reason = core::RejectReason::None;
  Res.Spliced = true;
  return true;
}

void IncrementalVerifier::rebuildMergeState(ImageEntry &E,
                                            core::CheckResult &&R) {
  MergeState &M = E.Merge;
  const uint8_t *Code = E.Bytes.data();
  const uint32_t Size = E.size();
  const uint32_t CB = E.ChunkBytes;
  const uint32_t N = E.numChunks();

  M.Ok = false;
  M.R = std::move(R);
  M.EntryPos.assign(N, 0);
  M.SegTargets.assign(N, {});
  M.TargetCnt.clear();

  // Replay the accepted merge once to record where the chain entered
  // each chunk and which chunk each direct jump belongs to. An accepted
  // image has no failing step, so this walk always reaches the end.
  uint32_t Pos = 0;
  uint32_t I = 0;
  while (Pos < Size) {
    while (I < N && uint64_t(I) * CB < Pos)
      M.EntryPos[I++] = Pos;
    if (I < N && uint64_t(I) * CB == Pos) {
      M.EntryPos[I] = Pos;
      const core::ShardScan &S = *E.Chunks[I];
      for (uint32_t T : S.TargetPos) {
        M.SegTargets[I].push_back(T);
        ++M.TargetCnt[T];
      }
      Pos = S.StopPos;
      ++I;
    } else {
      uint32_t StepChunk = Pos / CB;
      uint32_t Dest = 0;
      switch (core::verifyStep(Fused, Code, &Pos, Size, &Dest)) {
      case core::StepKind::DirectJump:
        M.SegTargets[StepChunk].push_back(Dest);
        ++M.TargetCnt[Dest];
        break;
      case core::StepKind::Fail:
        return; // unreachable on an accepted image; stay invalid
      default:
        break;
      }
    }
  }
  while (I < N)
    M.EntryPos[I++] = Pos;
  M.Ok = true;
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
