//===- tests/svc_parallel_equivalence_test.cpp -----------------*- C++ -*-===//
//
// The parallel verification service must be an *implementation* of the
// sequential checker, not a new checker: `ParallelVerifier::check` has
// to return bit-identical verdicts, reject reasons, and
// Valid/Target/PairJmp bitmaps to `RockSalt::check` on every input.
// This file certifies that two ways:
//
//  * crafted seam cases — masked-jump pairs and direct jumps placed so
//    they straddle 32-byte shard boundaries, jumps targeting seam
//    positions, truncated tails — the exact inputs where a naive
//    shard-and-rescan decomposition diverges from the sequential chain;
//
//  * a property sweep — WorkloadGen images put through the Mutator's
//    targeted attacks and random corruptions, checked under several
//    shard geometries and thread counts. The image count is scaled by
//    ROCKSALT_EQUIV_IMAGES (the TSan ctest flavour runs fewer; soak
//    runs set it to 100000+).
//
//===----------------------------------------------------------------------===//

#include "core/Shard.h"
#include "core/Verifier.h"
#include "nacl/Mutator.h"
#include "nacl/WorkloadGen.h"
#include "svc/ParallelVerifier.h"
#include "svc/VerifierPool.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace rocksalt;

namespace {

uint64_t envImages() {
  const char *E = std::getenv("ROCKSALT_EQUIV_IMAGES");
  if (!E)
    return 100000;
  return std::strtoull(E, nullptr, 10);
}

/// Asserts bit-identical results from the sequential and parallel
/// checkers, plus agreement with the bare Figure-5 boolean.
void expectEquivalent(svc::ParallelVerifier &PV,
                      const std::vector<uint8_t> &Code) {
  core::RockSalt Seq;
  core::CheckResult S = Seq.check(Code);
  core::CheckResult P = PV.check(Code);
  ASSERT_EQ(S.Ok, P.Ok) << "verdict diverged on " << Code.size() << "B image";
  ASSERT_EQ(S.Reason, P.Reason);
  ASSERT_TRUE(S.Valid == P.Valid) << "Valid bitmap diverged";
  ASSERT_TRUE(S.Target == P.Target) << "Target bitmap diverged";
  ASSERT_TRUE(S.PairJmp == P.PairJmp) << "PairJmp bitmap diverged";
  ASSERT_EQ(S.Ok, core::verifyImage(core::policyTables(), Code.data(),
                                    uint32_t(Code.size())));
}

std::vector<uint8_t> nops(uint32_t N) { return std::vector<uint8_t>(N, 0x90); }

/// Overwrites Code[At..] with Bytes.
void patch(std::vector<uint8_t> &Code, uint32_t At,
           std::initializer_list<uint8_t> Bytes) {
  uint32_t I = At;
  for (uint8_t B : Bytes)
    Code[I++] = B;
}

/// Fine-grained geometry so even tiny images shard: every bundle its own
/// shard, spread over 4 workers.
svc::ParallelVerifierOptions fineGrained() {
  svc::ParallelVerifierOptions O;
  O.MinShardBytes = core::BundleSize;
  O.MaxShards = 64;
  return O;
}

class EquivalenceTest : public ::testing::Test {
protected:
  svc::Metrics M;
  svc::VerifierPool Pool{svc::VerifierPool::Options{4}, &M};
};

TEST_F(EquivalenceTest, CraftedSmallImages) {
  svc::ParallelVerifier PV(Pool, fineGrained());
  expectEquivalent(PV, {});                 // empty image accepts
  expectEquivalent(PV, {0x90});             // sub-bundle image
  expectEquivalent(PV, nops(31));
  expectEquivalent(PV, nops(32));
  expectEquivalent(PV, nops(33));
  expectEquivalent(PV, nops(256));
  expectEquivalent(PV, {0xC3});             // bare RET rejects (NoParse)
  expectEquivalent(PV, std::vector<uint8_t>(64, 0xC3));
}

TEST_F(EquivalenceTest, MaskedPairStraddlingSeam) {
  svc::ParallelVerifier PV(Pool, fineGrained());
  // AND ends at the seam, jump half entirely in the next shard: the
  // sequential chain matches the 5-byte pair across byte 32; shard 1's
  // fresh scan starts mid-pair. Policy-invalid (byte 32 is not an
  // instruction start) — both checkers must reject identically.
  std::vector<uint8_t> Code = nops(96);
  patch(Code, 29, {0x83, 0xE0, 0xE0, 0xFF, 0xE0}); // and eax,-32; jmp *eax
  uint64_t Before = M.SeamRescans.get();
  expectEquivalent(PV, Code);
  EXPECT_GT(M.SeamRescans.get(), Before) << "seam re-check did not trigger";

  // Pair split across the seam at the mask/jump boundary (mask at
  // 30..32 crosses; jump at 33).
  std::vector<uint8_t> Code2 = nops(96);
  patch(Code2, 30, {0x83, 0xE1, 0xE0, 0xFF, 0xE1}); // and ecx,-32; jmp *ecx
  expectEquivalent(PV, Code2);

  // Pair entirely inside one bundle but directly before the seam: valid,
  // no seam crossing; shard results splice exactly.
  std::vector<uint8_t> Code3 = nops(96);
  patch(Code3, 27, {0x83, 0xE3, 0xE0, 0xFF, 0xD3}); // and ebx,-32; call *ebx
  expectEquivalent(PV, Code3);
}

TEST_F(EquivalenceTest, DirectJumpsAcrossAndOntoSeams) {
  svc::ParallelVerifier PV(Pool, fineGrained());

  // jmp rel32 whose displacement bytes straddle the seam (instr at
  // 28..32), landing on the bundle-aligned position 64.
  std::vector<uint8_t> Code = nops(96);
  patch(Code, 28, {0xE9, 31, 0, 0, 0}); // jmp +31 → target 64
  expectEquivalent(PV, Code);

  // jmp rel8 landing exactly on a seam position that IS an instruction
  // start: accepted; same landing one byte later (mid-nop is still an
  // instruction start in a nop sled, so aim into a mov's immediate).
  std::vector<uint8_t> Code2 = nops(96);
  patch(Code2, 0, {0xEB, 30});                   // jmp → 32
  expectEquivalent(PV, Code2);

  std::vector<uint8_t> Code3 = nops(96);
  patch(Code3, 32, {0xB8, 1, 2, 3, 4});          // mov eax, imm32 at 32..36
  patch(Code3, 0, {0xEB, 32});                   // jmp → 34: mid-instruction
  expectEquivalent(PV, Code3);                   // BadTarget both sides

  // call rel32 ending exactly at the seam (instr at 27..31): no seam
  // crossing, target at 64.
  std::vector<uint8_t> Code4 = nops(96);
  patch(Code4, 27, {0xE8, 32, 0, 0, 0}); // call +32 → 64
  expectEquivalent(PV, Code4);

  // Displacement pointing outside the image: the step itself fails.
  std::vector<uint8_t> Code5 = nops(96);
  patch(Code5, 0, {0xEB, 0x7F});
  expectEquivalent(PV, Code5);
}

TEST_F(EquivalenceTest, TruncatedTailAndDesyncChains) {
  svc::ParallelVerifier PV(Pool, fineGrained());

  // Image ends mid-instruction: the final match exhausts the DFA input.
  std::vector<uint8_t> Code = nops(35);
  patch(Code, 32, {0xB8, 1, 0}); // truncated mov eax, imm32
  expectEquivalent(PV, Code);

  // A long desync: every bundle starts one byte into a 2-byte pattern,
  // so after the first seam overrun the rescan has to walk several
  // shards before resyncing (if ever).
  std::vector<uint8_t> Code2 = nops(160);
  for (uint32_t P = 31; P + 1 < 160; P += 32)
    patch(Code2, P, {0xB8}); // mov eax, imm32 eating the next 4 bytes
  expectEquivalent(PV, Code2);
}

TEST_F(EquivalenceTest, WorkloadAttackAndMutationSweep) {
  // Three shard geometries × two thread counts, rotated through the
  // sweep so seams land at different offsets relative to the code.
  svc::VerifierPool Pool2(svc::VerifierPool::Options{2}, &M);
  svc::ParallelVerifierOptions Geo[3];
  Geo[0] = fineGrained();
  Geo[1].MinShardBytes = 64;
  Geo[1].MaxShards = 7; // odd count: uneven shard sizes
  Geo[2].MinShardBytes = 256;
  svc::ParallelVerifier PVs[6] = {
      svc::ParallelVerifier(Pool, Geo[0]),
      svc::ParallelVerifier(Pool, Geo[1]),
      svc::ParallelVerifier(Pool, Geo[2]),
      svc::ParallelVerifier(Pool2, Geo[0]),
      svc::ParallelVerifier(Pool2, Geo[1]),
      svc::ParallelVerifier(Pool2, Geo[2]),
  };

  const nacl::Attack Attacks[] = {
      nacl::Attack::BareIndirectJump, nacl::Attack::InsertRet,
      nacl::Attack::InsertInt,        nacl::Attack::StripMask,
      nacl::Attack::SegmentOverride,  nacl::Attack::FarCall,
      nacl::Attack::WriteSegReg,      nacl::Attack::PrefixedBranch};

  uint64_t Budget = envImages();
  uint64_t Checked = 0;
  Rng R(0xC0FFEE);
  uint32_t Sizes[] = {256, 512, 2048, 8192};

  for (uint64_t Base = 0; Checked < Budget; ++Base) {
    nacl::WorkloadOptions WO;
    WO.TargetBytes = Sizes[Base % 4];
    WO.Seed = 0x5EED0 + Base;
    std::vector<uint8_t> Code = nacl::generateWorkload(WO);

    auto &PV = PVs[Base % 6];
    ASSERT_NO_FATAL_FAILURE(expectEquivalent(PV, Code));
    ++Checked;

    for (nacl::Attack A : Attacks) {
      if (Checked >= Budget)
        break;
      if (auto Bad = nacl::applyAttack(Code, A, R)) {
        ASSERT_NO_FATAL_FAILURE(expectEquivalent(PV, *Bad));
        ++Checked;
      }
    }
    // Random corruption: a mix of still-valid and subtly broken images.
    std::vector<uint8_t> Mut = Code;
    for (int I = 0; I < 24 && Checked < Budget; ++I) {
      Mut = nacl::mutateRandom(Mut, R);
      ASSERT_NO_FATAL_FAILURE(expectEquivalent(PVs[(Base + I) % 6], Mut));
      ++Checked;
    }
  }
  ASSERT_GE(Checked, Budget);
}

/// The merge must also behave when handed shard layouts the service
/// never produces (gaps are scanned sequentially, overlaps discarded).
TEST(ShardMergeTest, ToleratesGappyPartitions) {
  const core::FusedPolicy &P = core::fusedPolicyTables();
  std::vector<uint8_t> Code(128, 0x90);
  std::vector<core::ShardScan> Shards(1);
  Shards[0].reset(64, 96); // only the third bundle scanned up front
  core::scanShard(P, Code.data(), uint32_t(Code.size()), Shards[0]);
  core::CheckResult R = core::mergeShardScans(P, Code.data(),
                                              uint32_t(Code.size()), Shards);
  core::RockSalt Seq;
  core::CheckResult S = Seq.check(Code);
  EXPECT_EQ(S.Ok, R.Ok);
  EXPECT_TRUE(S.Valid == R.Valid);
}

} // namespace
