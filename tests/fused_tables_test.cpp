//===- tests/fused_tables_test.cpp ----------------------------*- C++ -*-===//
//
// The fused cache-resident policy DFA (regex/FusedTables.h +
// core::FusedPolicy) against the legacy three-table engine it replaces
// in production. The tentpole claim is bit-identity: every fused
// decision — per-prefix matches, chain steps, whole-image checks, and
// the shard scan/merge — must equal the legacy engine's, on accepted
// and rejected images alike. The tests here pin the fused layout, prove
// the safe-byte and exceptional-byte derivations against the source
// tables, and run the lockstep on structured corpora including the
// boundary shapes the NoControlFlow sweep is most likely to get wrong
// (shard seams, image tails, truncated instructions).
//
//===----------------------------------------------------------------------===//

#include "core/ChainDriver.h"
#include "core/Shard.h"
#include "core/Verifier.h"
#include "nacl/Mutator.h"
#include "nacl/WorkloadGen.h"

#include <gtest/gtest.h>

using namespace rocksalt;
using namespace rocksalt::core;

namespace {

const PolicyTables &tables() { return policyTables(); }
const FusedPolicy &fused() { return fusedPolicyTables(); }

/// The sub-DFAs in fusion order, paired with their source tables.
struct SubDfa {
  unsigned Sub;
  const re::Dfa *Src;
};
std::vector<SubDfa> subDfas() {
  const PolicyTables &T = tables();
  return {{FusedMaskedJump, &T.MaskedJump},
          {FusedNoControlFlow, &T.NoControlFlow},
          {FusedDirectJump, &T.DirectJump}};
}

/// Full fused-vs-legacy comparison of instrumented results.
void expectSameCheck(const CheckResult &Fus, const CheckResult &Leg,
                     const char *What) {
  EXPECT_EQ(Fus.Ok, Leg.Ok) << What;
  EXPECT_EQ(int(Fus.Reason), int(Leg.Reason)) << What;
  EXPECT_EQ(Fus.Valid, Leg.Valid) << What;
  EXPECT_EQ(Fus.Target, Leg.Target) << What;
  EXPECT_EQ(Fus.PairJmp, Leg.PairJmp) << What;
}

/// A deterministic mixed corpus: accepted workloads plus attack-mutated
/// variants (most of which the checker rejects).
std::vector<std::vector<uint8_t>> corpus(uint32_t Bytes, unsigned Workloads,
                                         unsigned MutantsPer) {
  std::vector<std::vector<uint8_t>> C;
  for (unsigned S = 1; S <= Workloads; ++S) {
    nacl::WorkloadOptions WO;
    WO.TargetBytes = Bytes;
    WO.Seed = S;
    std::vector<uint8_t> W = nacl::generateWorkload(WO);
    C.push_back(W);
    Rng R(S * 0x9E3779B9ull + 7);
    for (unsigned M = 0; M < MutantsPer; ++M)
      C.push_back(nacl::mutateRandom(W, R));
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Fused layout: states, offsets, flags mirror the source tables.
//===----------------------------------------------------------------------===//

TEST(FusedTables, LayoutMirrorsSourceTables) {
  const FusedPolicy &P = fused();
  EXPECT_EQ(P.F.NumStates,
            MaskedJumpStates + NoControlFlowStates + DirectJumpStates);
  ASSERT_EQ(P.F.Offsets.size(), 3u);
  ASSERT_EQ(P.F.Starts.size(), 3u);
  ASSERT_EQ(P.F.Ids.size(), P.F.NumStates);
  EXPECT_EQ(P.F.Offsets[FusedMaskedJump], 0u);
  EXPECT_EQ(P.F.Offsets[FusedNoControlFlow], MaskedJumpStates);
  EXPECT_EQ(P.F.Offsets[FusedDirectJump],
            MaskedJumpStates + NoControlFlowStates);
  EXPECT_EQ(P.F.Trans.size(), size_t(P.F.NumStates) * 256);
  EXPECT_EQ(P.F.Flags.size(), P.F.NumStates);
  EXPECT_LE(P.F.AcceptBase, P.F.RejectBase);
  EXPECT_LE(P.F.RejectBase, P.F.NumStates);

  // The id map is a permutation of the fused id space.
  std::vector<uint32_t> Seen(P.F.NumStates, 0);
  for (uint8_t Id : P.F.Ids) {
    ASSERT_LT(Id, P.F.NumStates);
    ++Seen[Id];
  }
  for (uint32_t S = 0; S < P.F.NumStates; ++S)
    ASSERT_EQ(Seen[S], 1u) << "fused id " << S;

  for (const SubDfa &D : subDfas()) {
    EXPECT_EQ(P.F.Starts[D.Sub], P.F.id(D.Sub, D.Src->Start));
    for (uint32_t S = 0; S < D.Src->numStates(); ++S) {
      uint8_t Fid = P.F.id(D.Sub, S);
      // Behavioral classes under the id map: reject wins ties (matching
      // dfaMatch's reject-first check), and both the class-range
      // accessors and the raw flag mirror must agree with the source.
      EXPECT_EQ(P.F.rejects(Fid), bool(D.Src->Rejects[S]));
      EXPECT_EQ(P.F.accepts(Fid),
                bool(D.Src->Accepts[S]) && !D.Src->Rejects[S]);
      EXPECT_EQ(P.F.Flags[Fid],
                uint8_t((D.Src->Accepts[S] ? re::FusedAccept : 0) |
                        (D.Src->Rejects[S] ? re::FusedReject : 0)));
      if (P.F.accepts(Fid)) {
        // Accept states carry restart rows (a copy of the sub-DFA's
        // start row) — their source rows are unreachable by any
        // matcher, which returns on accept before stepping again.
        for (uint32_t B = 0; B < 256; ++B)
          ASSERT_EQ(P.F.step(Fid, uint8_t(B)),
                    P.F.step(P.F.Starts[D.Sub], uint8_t(B)));
      } else {
        for (uint32_t B = 0; B < 256; ++B)
          ASSERT_EQ(P.F.step(Fid, uint8_t(B)),
                    P.F.id(D.Sub, D.Src->Table[S][B]));
      }
    }
  }
}

TEST(FusedTables, FuseDfasValidatesInputs) {
  const PolicyTables &T = tables();
  EXPECT_THROW(re::fuseDfas({nullptr}), std::invalid_argument);
  EXPECT_THROW(re::fuseDfas({}), std::invalid_argument);
  // 6 x 42 + 25 = 277 states: overflows the 8-bit fused id space.
  EXPECT_THROW(re::fuseDfas({&T.NoControlFlow, &T.NoControlFlow,
                             &T.NoControlFlow, &T.NoControlFlow,
                             &T.NoControlFlow, &T.NoControlFlow,
                             &T.MaskedJump}),
               std::length_error);
}

//===----------------------------------------------------------------------===//
// Per-prefix lockstep: fusedMatch == dfaMatch from every position.
//===----------------------------------------------------------------------===//

TEST(FusedTables, PerPrefixMatchLockstep) {
  const FusedPolicy &P = fused();
  for (const std::vector<uint8_t> &Img : corpus(192, 6, 3)) {
    uint32_t Size = uint32_t(Img.size());
    for (uint32_t Pos = 0; Pos <= Size; ++Pos) {
      for (const SubDfa &D : subDfas()) {
        uint32_t LegPos = Pos, FusPos = Pos;
        bool Leg = dfaMatch(*D.Src, Img.data(), &LegPos, Size);
        bool Fus = re::fusedMatch(P.F, D.Sub, Img.data(), &FusPos, Size);
        ASSERT_EQ(Fus, Leg) << "sub " << D.Sub << " at " << Pos;
        ASSERT_EQ(FusPos, LegPos) << "sub " << D.Sub << " at " << Pos;
      }
      // And the full chain step.
      uint32_t LegPos = Pos, FusPos = Pos, LegTgt = 0, FusTgt = 0;
      StepKind Leg = verifyStep(tables(), Img.data(), &LegPos, Size, &LegTgt);
      StepKind Fus = chainStep<X86Isa>(P, Img.data(), &FusPos, Size, &FusTgt);
      ASSERT_EQ(int(Fus), int(Leg)) << "step at " << Pos;
      ASSERT_EQ(FusPos, LegPos) << "step at " << Pos;
      if (Leg == StepKind::DirectJump)
        ASSERT_EQ(FusTgt, LegTgt) << "target at " << Pos;
    }
  }
}

TEST(FusedTables, SingleByteRejectMatrixAgrees) {
  // All 256 one-byte images: the fused first transition must agree with
  // the source table's on accept/reject/continue, for every policy.
  const FusedPolicy &P = fused();
  for (uint32_t B = 0; B < 256; ++B) {
    uint8_t Img[1] = {uint8_t(B)};
    for (const SubDfa &D : subDfas()) {
      uint32_t LegPos = 0, FusPos = 0;
      ASSERT_EQ(re::fusedMatch(P.F, D.Sub, Img, &FusPos, 1),
                dfaMatch(*D.Src, Img, &LegPos, 1))
          << "byte " << B << " sub " << D.Sub;
      ASSERT_EQ(FusPos, LegPos) << "byte " << B << " sub " << D.Sub;
    }
  }
}

//===----------------------------------------------------------------------===//
// The safe-byte class: exactness against the legacy chain.
//===----------------------------------------------------------------------===//

TEST(FusedTables, SafeByteImpliesOneByteNcfStepForAnySuffix) {
  const PolicyTables &T = tables();
  const FusedPolicy &P = fused();
  // Suffixes deliberately include jump starts, mask prefixes, and
  // garbage: safety must not depend on what follows.
  const std::vector<std::vector<uint8_t>> Suffixes = {
      {}, {0x00}, {0xE9, 1, 0, 0, 0}, {0x83, 0xE0, 0xE0, 0xFF, 0xE0},
      {0xFF, 0xFF, 0xFF, 0xFF}, {0x0F, 0x0B}};
  uint32_t SafeSeen = 0;
  for (uint32_t B = 0; B < 256; ++B) {
    if (!P.SafeByte[B])
      continue;
    ++SafeSeen;
    for (const std::vector<uint8_t> &Suf : Suffixes) {
      std::vector<uint8_t> Img;
      Img.push_back(uint8_t(B));
      Img.insert(Img.end(), Suf.begin(), Suf.end());
      uint32_t Pos = 0, Tgt = 0;
      StepKind K =
          verifyStep(T, Img.data(), &Pos, uint32_t(Img.size()), &Tgt);
      ASSERT_EQ(int(K), int(StepKind::NoControlFlow)) << "byte " << B;
      ASSERT_EQ(Pos, 1u) << "byte " << B;
    }
  }
  EXPECT_EQ(SafeSeen, P.SafeCount);
}

TEST(FusedTables, ChainClassCountsAreSane) {
  const FusedPolicy &P = fused();
  // The single-byte NoControlFlow instructions (push/pop/inc/dec, nop,
  // ...) put several byte values in the safe class.
  EXPECT_GE(P.SafeCount, 8u);
  EXPECT_LT(P.SafeCount, 256u);
  // Only the masked-jump mask prefixes keep the MaskedJump DFA alive on
  // the first byte — a handful of byte values, never most of them.
  EXPECT_GE(P.MjAliveCount, 1u);
  EXPECT_LT(P.MjAliveCount, 64u);
  // The classes are derived from the fused start rows — spot-check the
  // definition directly.
  const re::FusedTables &F = P.F;
  for (uint32_t B = 0; B < 256; ++B) {
    bool MjDead = F.rejects(F.step(F.Starts[FusedMaskedJump], uint8_t(B)));
    uint8_t N = F.step(F.Starts[FusedNoControlFlow], uint8_t(B));
    bool NcfOne = !F.rejects(N) && F.accepts(N);
    ASSERT_EQ(bool(P.SafeByte[B]), MjDead && NcfOne) << "byte " << B;
    ASSERT_EQ(bool(P.MjAliveByte[B]), !MjDead) << "byte " << B;
    // Exceptional iff MaskedJump or DirectJump could still win the
    // Figure-5 step (safe bytes excepted: the one-byte NoControlFlow
    // accept outranks DirectJump).
    bool DjDead = F.rejects(F.step(F.Starts[FusedDirectJump], uint8_t(B)));
    ASSERT_EQ(P.ExcByte[B] != 0, !MjDead || (!DjDead && !P.SafeByte[B]))
        << "byte " << B;
    if (P.ExcByte[B] == 2) {
      // Second-byte-resolvable: DirectJump-only, landing in the shared
      // Exc2State, and at least one second byte kills the jump there.
      ASSERT_FALSE(P.MjAliveByte[B]) << "byte " << B;
      uint8_t D1 = F.step(F.Starts[FusedDirectJump], uint8_t(B));
      ASSERT_EQ(uint32_t(D1), P.Exc2State) << "byte " << B;
      ASSERT_TRUE(!F.accepts(D1) && !F.rejects(D1)) << "byte " << B;
    }
  }
  if (P.Exc2Count) {
    ASSERT_LT(P.Exc2State, uint32_t(re::MaxFusedStates));
    for (uint32_t B1 = 0; B1 < 256; ++B1)
      ASSERT_EQ(bool(P.Exc2Dead[B1]),
                F.rejects(F.step(uint8_t(P.Exc2State), uint8_t(B1))))
          << "second byte " << B1;
  }
  // The shipped tables' two-byte-opcode escape (0F followed by anything
  // but a jump) must be live, or the sweep bails on a quarter of all
  // instruction starts.
  EXPECT_GE(P.Exc2Count, 1u);
  EXPECT_EQ(P.ExcByte[0x0F], 2u);
}

//===----------------------------------------------------------------------===//
// Boundary shapes: safe sleds, image tails, tiny images.
//===----------------------------------------------------------------------===//

TEST(FusedTables, BoundaryImagesLockstep) {
  const PolicyTables &T = tables();
  RockSalt Fus; // default ctor: the fused singleton
  const FusedPolicy &P = fused();
  uint8_t Safe = 0;
  for (uint32_t B = 1; B < 256 && !Safe; ++B)
    if (P.SafeByte[B])
      Safe = uint8_t(B);
  ASSERT_NE(Safe, 0u);

  // Safe sleds of every length 0..40 (crossing the 32-byte bundle
  // boundary), alone and with jump/masked tails.
  const std::vector<std::vector<uint8_t>> Tails = {
      {},
      {0xEB, 0xFE},                   // jmp rel8 back into the sled
      {0x83, 0xE0, 0xE0, 0xFF, 0xE0}, // masked jump pair
      {0xE8, 0x00, 0x00},             // truncated call rel32 -> reject
      {0xCC},                         // int3: not policy-legal
  };
  for (uint32_t Len = 0; Len <= 40; ++Len) {
    for (const std::vector<uint8_t> &Tail : Tails) {
      std::vector<uint8_t> Img(Len, Safe);
      Img.insert(Img.end(), Tail.begin(), Tail.end());
      expectSameCheck(Fus.check(Img),
                      checkLegacy(T, Img.data(), uint32_t(Img.size())),
                      "sled+tail");
    }
  }

  // Tiny images 0..9 bytes of every repeated byte value: the sweep's
  // second-byte peek and the image-end exits at these sizes.
  for (uint32_t Len = 0; Len <= 9; ++Len)
    for (uint32_t B = 0; B < 256; B += 17) {
      std::vector<uint8_t> Img(Len, uint8_t(B));
      expectSameCheck(Fus.check(Img),
                      checkLegacy(T, Img.data(), uint32_t(Img.size())),
                      "tiny");
    }
}

//===----------------------------------------------------------------------===//
// Whole-image and shard lockstep on mixed corpora.
//===----------------------------------------------------------------------===//

TEST(FusedTables, WholeImageLockstepOnMixedCorpus) {
  const PolicyTables &T = tables();
  RockSalt Fus;
  for (const std::vector<uint8_t> &Img : corpus(640, 8, 4)) {
    uint32_t Size = uint32_t(Img.size());
    CheckResult Leg = checkLegacy(T, Img.data(), Size);
    expectSameCheck(Fus.check(Img), Leg, "check");
    EXPECT_EQ(verifyImage(fused(), Img.data(), Size), Leg.Ok);
    EXPECT_EQ(verifyImage(T, Img.data(), Size), Leg.Ok);
  }
}

/// The per-shard reference: the legacy verifyStep chain from S.Begin
/// while the position is below S.End, recorded into \p S's lists and
/// the chain's starts into \p Starts.
void referenceShardScan(const PolicyTables &T, const uint8_t *Code,
                        uint32_t Size, ShardScan &S,
                        std::vector<uint32_t> &Starts) {
  uint32_t Pos = S.Begin;
  while (Pos < S.End) {
    Starts.push_back(Pos);
    uint32_t Dest = 0;
    switch (verifyStep(T, Code, &Pos, Size, &Dest)) {
    case StepKind::MaskedJump:
      S.PairJmpPos.push_back(Pos - MaskedJumpHalfLen);
      break;
    case StepKind::NoControlFlow:
      break;
    case StepKind::DirectJump:
      S.TargetPos.push_back(Dest);
      break;
    case StepKind::Fail:
      S.Failed = true;
      S.StopPos = Pos;
      return;
    }
  }
  S.StopPos = Pos;
}

TEST(FusedTables, ShardScanMergeLockstepAcrossSeams) {
  const PolicyTables &T = tables();
  const FusedPolicy &P = fused();
  std::vector<ShardScan> Shards;
  for (const std::vector<uint8_t> &Img : corpus(512, 5, 3)) {
    uint32_t Size = uint32_t(Img.size());
    CheckResult Leg = checkLegacy(T, Img.data(), Size);
    for (uint32_t N : {1u, 2u, 3u, 5u, 8u}) {
      partitionShards(Size, N, Shards);
      for (ShardScan &S : Shards)
        scanShard(P, Img.data(), Size, S);
      expectSameCheck(mergeShardScans(P, Img.data(), Size, Shards), Leg,
                      "fused shard merge");
      // Fused scans mark the reference chain's positions per shard.
      std::vector<ShardScan> LegacyShards;
      partitionShards(Size, N, LegacyShards);
      for (size_t I = 0; I < Shards.size(); ++I) {
        std::vector<uint32_t> RefStarts, Starts;
        referenceShardScan(T, Img.data(), Size, LegacyShards[I], RefStarts);
        Shards[I].forEachStart([&Starts](uint32_t Q) { Starts.push_back(Q); });
        ASSERT_EQ(Starts, RefStarts);
        ASSERT_EQ(Shards[I].TargetPos, LegacyShards[I].TargetPos);
        ASSERT_EQ(Shards[I].PairJmpPos, LegacyShards[I].PairJmpPos);
        ASSERT_EQ(Shards[I].Failed, LegacyShards[I].Failed);
        // A failed scan's StopPos is unspecified; the join reads it only
        // from scans that succeeded.
        if (!Shards[I].Failed) {
          ASSERT_EQ(Shards[I].StopPos, LegacyShards[I].StopPos);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The process-wide fused singleton.
//===----------------------------------------------------------------------===//

TEST(FusedTables, SingletonIsStableAndMatchesFreshBuild) {
  const FusedPolicy &A = fusedPolicyTables();
  const FusedPolicy &B = fusedPolicyTables();
  EXPECT_EQ(&A, &B);
  FusedPolicy Fresh = buildFusedPolicy(policyTables());
  EXPECT_EQ(A.F.Trans, Fresh.F.Trans);
  EXPECT_EQ(A.F.Flags, Fresh.F.Flags);
  EXPECT_EQ(A.SafeCount, Fresh.SafeCount);
  EXPECT_EQ(A.MjAliveCount, Fresh.MjAliveCount);
}

} // namespace
