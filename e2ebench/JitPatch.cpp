//===- e2ebench/JitPatch.cpp - In-place patches of live code regions ----===//
///
/// \file
/// One JIT thread patches a few 1 MiB code regions opened at setup and
/// needs a verdict per patch (`IncrementalVerifier::patch`). Every patch
/// is accepted by construction, so every verdict takes the O(patch)
/// splice path; a reject would fall to the O(image) join and put the
/// tail on a rare heavy class.
///
/// The stream is cyclic and built from blocks of four ops:
///
///   rewrite(E_b)  rewrite(E_{b-L})  revert(E_{b-2L})  retarget
///
/// An episode E rewrites one rewritable bundle twice (contents c1, then
/// c2) and then reverts it to c1, so the revert restores a chunk state
/// scanned 2L blocks earlier: a chunk-cache hit under the default LRU.
/// No other op touches an open episode's chunks. A retarget points one
/// existing direct call at another bundle start. Shares are fixed:
/// rewrite 1/2, revert 1/4, retarget 1/4.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Shard.h"
#include "core/TableRegistry.h"
#include "core/Verifier.h"
#include "incr/IncrementalVerifier.h"
#include "support/Oracle.h"

#include <cstring>
#include <sstream>
#include <stdexcept>

using namespace rocksalt;

namespace e2e {

namespace {

constexpr uint32_t NumRegions = 3;
constexpr uint32_t RegionBytes = 1u << 20;
constexpr uint32_t Blocks = 1u << 16; ///< four ops each per cycle
constexpr uint32_t Lag = 4;           ///< blocks between episode steps
constexpr uint32_t PoolSize = 1024;   ///< straight-line bundle contents

enum Kind : uint8_t { Rewrite = 0, Retarget = 1, Revert = 2 };
const char *const ReverifySpan[3] = {"incr.reverify.rewrite",
                                     "incr.reverify.retarget",
                                     "incr.reverify.revert"};

struct PatchOp {
  uint8_t Kind = Rewrite;
  uint8_t Region = 0;
  uint32_t Offset = 0;
  /// Pool index for 32-byte rewrites/reverts; the rel32 for retargets.
  uint32_t Data = 0;
};

class JitPatch : public Workload {
public:
  explicit JitPatch(Reader &R) {
    Charac = R.str();
    for (uint32_t I = 0; I < NumRegions; ++I)
      Regions.push_back(R.bytes());
    uint32_t NP = R.u32();
    for (uint32_t I = 0; I < NP; ++I)
      Pool.push_back(R.bytes());
    uint32_t NO = R.u32();
    Ops.resize(NO);
    ExpectOk.resize(NO);
    for (uint32_t I = 0; I < NO; ++I) {
      Ops[I].Kind = R.u8();
      Ops[I].Region = R.u8();
      Ops[I].Offset = R.u32();
      Ops[I].Data = R.u32();
      ExpectOk[I] = R.u8();
      const PatchOp &P = Ops[I];
      uint32_t Len = P.Kind == Retarget ? 4 : core::BundleSize;
      if (P.Region >= NumRegions || P.Offset > RegionBytes - Len ||
          (P.Kind != Retarget && P.Data >= Pool.size()))
        throw std::runtime_error("malformed jit_patch op");
    }
    if (Ops.empty())
      throw std::runtime_error("empty jit_patch stream");
    Shadow = Regions;
    Opened = Regions;
  }

  std::string characterisation() const override { return Charac; }

  void setup(Tracer &T) override {
    {
      ScopedSpan S(T, "core.tables_build");
      core::defaultTableEntry();
    }
    Incr = std::make_unique<incr::IncrementalVerifier>();
    for (uint32_t I = 0; I < NumRegions; ++I) {
      incr::IncrResult R;
      {
        ScopedSpan S(T, "incr.open");
        Ids.push_back(Incr->open(std::move(Opened[I]), &R));
      }
      if (!R.Ok)
        wrongAnswer("jit_patch: region " + std::to_string(I) +
                    " rejected at open");
    }
  }

  Window run(double Seconds, Tracer &T) override {
    Window W;
    W.LatNs.reserve(size_t(Seconds * 80000) + 1024);
    const int64_t Start = nowNs();
    W.begin(Start, Seconds);
    const int64_t Deadline = W.deadline();
    int64_t Now = Start;
    while (Now < Deadline) {
      const size_t Step = Next;
      Next = (Next + 1) % Ops.size();
      const PatchOp &P = Ops[Step];
      uint8_t Rel[4];
      const uint8_t *Bytes = Rel;
      uint32_t Len = 4;
      if (P.Kind == Retarget) {
        for (int B = 0; B < 4; ++B)
          Rel[B] = uint8_t(P.Data >> (8 * B));
      } else {
        Bytes = Pool[P.Data].data();
        Len = core::BundleSize;
      }
      const incr::ImageId Id = Ids[P.Region];
      incr::IncrResult R;
      bool Threw = false;
      int32_t Op = T.open("jit.op");
      const int64_t T0 = nowNs();
      try {
        if (T.On) {
          // The traced run splits patch() into its two public halves.
          {
            ScopedSpan S(T, "incr.patchBytes", Op);
            Incr->patchBytes(Id, P.Offset, Bytes, Len);
          }
          ScopedSpan S(T, ReverifySpan[P.Kind], Op);
          R = Incr->reverify(Id);
        } else {
          R = Incr->patch(Id, P.Offset, Bytes, Len);
        }
      } catch (const std::exception &) {
        Threw = true;
      }
      const int64_t T1 = nowNs();
      T.close(Op);
      ++W.Attempted;
      if (Threw) {
        ++W.Failed;
        W.tick(T1);
      } else {
        W.add(T1 - T0, T1);
        bool Want = ExpectOk[Step] != 0;
        if (R.Ok != Want || (R.Ok && R.Reason != core::RejectReason::None))
          wrongAnswer("jit_patch: step " + std::to_string(Step) + " got " +
                      core::rejectReasonName(R.Reason) + ", expected " +
                      (Want ? "accept" : "reject"));
        std::memcpy(Shadow[P.Region].data() + P.Offset, Bytes, Len);
      }
      if (T.On) {
        ++TracedOps;
        Rescanned += R.ChunksRescanned;
        Hits += R.ChunkCacheHits;
        Seams += R.SeamRescans;
        Spliced += R.Spliced;
      }
      Now = T1;
    }
    W.end(Now);
    return W;
  }

  /// Each region's maintained bitmaps must be bit-identical to a fresh
  /// whole-image check of the bytes the benchmark believes it wrote.
  void finish() override {
    core::RockSalt Fresh;
    for (uint32_t I = 0; I < NumRegions; ++I) {
      const incr::ImageEntry *E = Incr->store().get(Ids[I]);
      if (!E || E->Bytes != Shadow[I])
        wrongAnswer("jit_patch: region " + std::to_string(I) +
                    " bytes differ from the patches applied");
      const core::CheckResult &L = Incr->lastCheck(Ids[I]);
      core::CheckResult F = Fresh.check(Shadow[I]);
      if (L.Ok != F.Ok || L.Reason != F.Reason || L.Valid != F.Valid ||
          L.Target != F.Target || L.PairJmp != F.PairJmp)
        wrongAnswer("jit_patch: region " + std::to_string(I) +
                    " lastCheck differs from a fresh RockSalt::check");
    }
  }

  void layerMetrics(Tracer &T, std::vector<Metric> &Out) override {
    // Attribute the open cost: replay the chunk scans and the merge the
    // open ran, over the same geometry and bytes.
    const core::FusedPolicy &F = core::fusedPolicyTables();
    const uint32_t CB = incr::IncrementalOptions{}.ChunkBytes;
    for (uint32_t I = 0; I < NumRegions; ++I) {
      const std::vector<uint8_t> &Img = Regions[I];
      const uint32_t Size = uint32_t(Img.size());
      std::vector<core::ShardScan> Scans((Size + CB - 1) / CB);
      {
        ScopedSpan S(T, "incr.open_scan");
        for (uint32_t C = 0; C < Scans.size(); ++C) {
          Scans[C].reset(C * CB, std::min(Size, (C + 1) * CB));
          core::scanShard(F, Img.data(), Size, Scans[C]);
        }
      }
      core::CheckResult M;
      {
        ScopedSpan S(T, "incr.open_merge");
        M = core::mergeShardScans(F, Img.data(), Size, Scans);
      }
      if (!M.Ok)
        wrongAnswer("jit_patch: replayed open merge rejected a region");
    }
    auto A = T.selfTimes();
    auto Med = [&](const char *N) { return median(A[N]); };
    double Open = Med("incr.open"), Scan = Med("incr.open_scan"),
           Merge = Med("incr.open_merge");
    double Ops = TracedOps ? double(TracedOps) : 1.0;
    Out.push_back({"incr.open_ms", Open / 1e6, "ms"});
    Out.push_back({"incr.open_scan_ms", Scan / 1e6, "ms"});
    Out.push_back({"incr.open_merge_ms", Merge / 1e6, "ms"});
    Out.push_back({"incr.open_other_ms", (Open - Scan - Merge) / 1e6, "ms"});
    Out.push_back({"incr.patch_bytes_us", Med("incr.patchBytes") / 1e3, "us"});
    Out.push_back({"incr.reverify_us.rewrite",
                   Med("incr.reverify.rewrite") / 1e3, "us"});
    Out.push_back({"incr.reverify_us.retarget",
                   Med("incr.reverify.retarget") / 1e3, "us"});
    Out.push_back({"incr.reverify_us.revert",
                   Med("incr.reverify.revert") / 1e3, "us"});
    Out.push_back({"incr.chunks_rescanned_per_op", double(Rescanned) / Ops,
                   "count"});
    Out.push_back({"incr.cache_hit_ratio",
                   Hits + Rescanned ? double(Hits) / double(Hits + Rescanned)
                                    : 0.0,
                   "ratio"});
    Out.push_back({"incr.seam_rescans_per_op", double(Seams) / Ops, "count"});
    Out.push_back({"incr.splice_share", double(Spliced) / Ops, "ratio"});
  }

  void corruptOneAnswer() override { ExpectOk[Next] = !ExpectOk[Next]; }

private:
  std::string Charac;
  std::vector<std::vector<uint8_t>> Regions; ///< as generated
  std::vector<std::vector<uint8_t>> Opened;  ///< moved into open()
  std::vector<std::vector<uint8_t>> Shadow;  ///< bytes after our patches
  std::vector<std::vector<uint8_t>> Pool;
  std::vector<PatchOp> Ops;
  std::vector<uint8_t> ExpectOk;
  size_t Next = 0;
  std::unique_ptr<incr::IncrementalVerifier> Incr;
  std::vector<incr::ImageId> Ids;
  uint64_t TracedOps = 0, Rescanned = 0, Hits = 0, Seams = 0, Spliced = 0;
};

/// Chunk-distance test for the "no other op touches an open episode"
/// rule: a patch dirties its chunk and possibly the one before (scan
/// windows overhang chunk ends), so two ops stay clear when their chunks
/// are more than two apart.
bool near(uint8_t RA, uint32_t OffA, uint8_t RB, uint32_t OffB) {
  const uint32_t CB = incr::IncrementalOptions{}.ChunkBytes;
  if (RA != RB)
    return false;
  int64_t D = int64_t(OffA / CB) - int64_t(OffB / CB);
  return D >= -2 && D <= 2;
}

} // namespace

std::vector<uint8_t> generateJitPatch(uint64_t Seed) {
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0x7A);
  std::vector<std::vector<uint8_t>> Regions;
  std::vector<std::vector<uint32_t>> Rewritable, Calls;
  std::vector<std::vector<uint32_t>> CallTarget; ///< current, per call site
  StartShares Shares;
  uint64_t RewritableTotal = 0;
  for (uint32_t I = 0; I < NumRegions; ++I) {
    uint32_t Dj = uint32_t(20 + R.below(41));
    uint32_t Call = uint32_t(10 + R.below(21));
    uint32_t Mj = uint32_t(5 + R.below(16));
    std::vector<uint8_t> Img = accurateImage(R.next(), RegionBytes, Dj, Call, Mj);
    Rewritable.push_back(rewritableBundles(Img));
    RewritableTotal += Rewritable.back().size();
    core::CheckResult C =
        core::checkLegacy(core::policyTables(), Img.data(), RegionBytes);
    std::vector<uint32_t> Sites, Targets;
    for (uint32_t P = 0; P + 5 <= RegionBytes; ++P)
      if (C.Valid[P] && Img[P] == 0xE8) { // call rel32
        int32_t Rel;
        std::memcpy(&Rel, &Img[P + 1], 4);
        Sites.push_back(P);
        Targets.push_back(uint32_t(int64_t(P) + 5 + Rel));
      }
    if (Rewritable.back().size() < 64 || Sites.size() < 64)
      throw std::logic_error("jit_patch region has too few patch sites");
    Calls.push_back(std::move(Sites));
    CallTarget.push_back(std::move(Targets));
    Shares.add(Img);
    Regions.push_back(std::move(Img));
  }
  std::vector<std::vector<uint8_t>> Pool = straightLineBundles(R.next(), PoolSize);

  // Episodes: one rewritable bundle and two distinct contents each,
  // clear of every episode whose interval overlaps (circularly).
  struct Episode {
    uint8_t Region;
    uint32_t Offset, C1, C2;
  };
  std::vector<Episode> Eps(Blocks);
  auto Circ = [](uint32_t A, uint32_t B) {
    uint32_t D = A > B ? A - B : B - A;
    return std::min(D, Blocks - D);
  };
  for (uint32_t B = 0; B < Blocks; ++B) {
    for (;;) {
      Episode E;
      E.Region = uint8_t(R.below(NumRegions));
      const auto &Cands = Rewritable[E.Region];
      E.Offset = Cands[R.below(Cands.size())];
      bool Clear = true;
      for (uint32_t D = 1; D <= 2 * Lag && Clear; ++D) {
        uint32_t Before = (B + Blocks - D) % Blocks, After = (B + D) % Blocks;
        if (Before < B && near(Eps[Before].Region, Eps[Before].Offset,
                               E.Region, E.Offset))
          Clear = false;
        // Wrapped neighbours (already generated at the cycle start).
        if (After < B && Circ(After, B) <= 2 * Lag &&
            near(Eps[After].Region, Eps[After].Offset, E.Region, E.Offset))
          Clear = false;
      }
      if (!Clear)
        continue;
      E.C1 = uint32_t(R.below(PoolSize));
      do
        E.C2 = uint32_t(R.below(PoolSize));
      while (E.C2 == E.C1);
      Eps[B] = E;
      break;
    }
  }

  std::vector<PatchOp> Ops;
  Ops.reserve(size_t(Blocks) * 4);
  for (uint32_t B = 0; B < Blocks; ++B) {
    const Episode &E1 = Eps[B];
    const Episode &E2 = Eps[(B + Blocks - Lag) % Blocks];
    const Episode &E3 = Eps[(B + Blocks - 2 * Lag) % Blocks];
    Ops.push_back({Rewrite, E1.Region, E1.Offset, E1.C1});
    Ops.push_back({Rewrite, E2.Region, E2.Offset, E2.C2});
    Ops.push_back({Revert, E3.Region, E3.Offset, E3.C1});
    // Retarget a call outside every episode open during this block.
    for (;;) {
      uint8_t Reg = uint8_t(R.below(NumRegions));
      uint32_t Site = uint32_t(R.below(Calls[Reg].size()));
      uint32_t P = Calls[Reg][Site];
      bool Clear = true;
      for (uint32_t D = 0; D <= 2 * Lag && Clear; ++D) {
        const Episode &Open = Eps[(B + Blocks - D) % Blocks];
        if (near(Open.Region, Open.Offset, Reg, P))
          Clear = false;
      }
      if (!Clear)
        continue;
      uint32_t To;
      do
        To = uint32_t(R.below(RegionBytes / core::BundleSize)) *
             core::BundleSize;
      while (To == CallTarget[Reg][Site]);
      CallTarget[Reg][Site] = To;
      Ops.push_back(
          {Retarget, Reg, P + 1, uint32_t(int32_t(int64_t(To) - (P + 5)))});
      break;
    }
  }

  std::ostringstream C;
  C << "{\"regions\": " << NumRegions
    << ", \"region_kib\": " << RegionBytes / 1024
    << ", \"ops_per_cycle\": " << Ops.size()
    << ", \"kind_share\": {\"rewrite\": 0.5, \"retarget\": 0.25, "
       "\"revert\": 0.25}"
    << ", \"patch_bytes_mean\": "
    << num(double(3 * core::BundleSize + 4) / 4.0)
    << ", \"rewritable_bundle_share\": "
    << num(double(RewritableTotal) /
           (double(NumRegions) * RegionBytes / core::BundleSize))
    << ", \"call_sites\": "
    << Calls[0].size() + Calls[1].size() + Calls[2].size()
    << ", \"start_share\": {\"safe\": "
    << num(double(Shares.Safe) / double(Shares.Total))
    << ", \"exceptional\": " << num(double(Shares.Exc) / double(Shares.Total))
    << "}}";

  Writer W;
  writeHeader(W, "jit_patch", Seed);
  W.str(C.str());
  for (const auto &Img : Regions)
    W.bytes(Img);
  W.u32(uint32_t(Pool.size()));
  for (const auto &P : Pool)
    W.bytes(P);
  W.u32(uint32_t(Ops.size()));
  for (const PatchOp &P : Ops) {
    W.u8(P.Kind);
    W.u8(P.Region);
    W.u32(P.Offset);
    W.u32(P.Data);
    W.u8(1); // accepted by construction
  }
  return W.data();
}

std::unique_ptr<Workload> loadJitPatch(Reader &R) {
  return std::make_unique<JitPatch>(R);
}

} // namespace e2e
