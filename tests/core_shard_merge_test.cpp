//===- tests/core_shard_merge_test.cpp -------------------------*- C++ -*-===//
//
// The shard scan and join (core/Shard.h) must be an *implementation* of
// the sequential checker, not a new checker: the incremental verifier
// joins its chunk scans through `mergeShardScans`, so the merged result
// has to be bit-identical — verdict, reject reason and
// Valid/Target/PairJmp bitmaps — to the reference walk (`checkLegacy`,
// the paper's Figures 5/6) on every input.
//
// Each image here is split one bundle per shard, every shard is scanned
// fresh from its base, and the shards are joined through the merge the
// incremental verifier calls. The crafted cases are the inputs where a
// shard-and-rescan decomposition can diverge from the sequential chain:
// masked-jump pairs and direct jumps that straddle a seam, jumps onto
// seam positions, truncated tails, and chains that stay desynchronized
// across several seams. The join must tell them from the in-sync case
// (and fall back to a whole-image check) without being told.
//
//===----------------------------------------------------------------------===//

#include "core/Shard.h"
#include "core/Verifier.h"

#include <gtest/gtest.h>

using namespace rocksalt;

namespace {

/// Asserts that \p Got matches the reference walk on \p Code field by
/// field.
void expectSameAsReference(const std::vector<uint8_t> &Code,
                           const core::CheckResult &Got) {
  core::CheckResult Ref = core::checkLegacy(core::policyTables(), Code.data(),
                                            uint32_t(Code.size()));
  ASSERT_EQ(Ref.Ok, Got.Ok) << "verdict diverged on " << Code.size()
                            << "B image";
  ASSERT_EQ(Ref.Reason, Got.Reason);
  ASSERT_TRUE(Ref.Valid == Got.Valid) << "Valid bitmap diverged";
  ASSERT_TRUE(Ref.Target == Got.Target) << "Target bitmap diverged";
  ASSERT_TRUE(Ref.PairJmp == Got.PairJmp) << "PairJmp bitmap diverged";
}

/// Scans every shard of \p Shards fresh and joins them the way the
/// incremental verifier does; returns the number of shards whose chain
/// did not stop at the next shard's base (each one sends the join to
/// the whole-image check).
uint32_t scanAndMerge(const std::vector<uint8_t> &Code,
                      std::vector<core::ShardScan> &Shards,
                      core::CheckResult &Out) {
  const core::FusedPolicy &P = core::fusedPolicyTables();
  uint32_t Size = uint32_t(Code.size());
  for (core::ShardScan &S : Shards)
    core::scanShard(P, Code.data(), Size, S);
  Out = core::mergeShardScans(P, Code.data(), Size, Shards);
  uint32_t Desynced = 0;
  for (size_t I = 0; I + 1 < Shards.size(); ++I)
    Desynced += Shards[I].StopPos != Shards[I + 1].Begin;
  return Desynced;
}

/// One bundle per shard — the maximal seam count — merged and held to
/// the reference. Returns the desynchronized shard count.
uint32_t expectEquivalent(const std::vector<uint8_t> &Code) {
  uint32_t Size = uint32_t(Code.size());
  std::vector<core::ShardScan> Shards;
  core::partitionShards(Size, (Size + core::BundleSize - 1) / core::BundleSize,
                        Shards);
  core::CheckResult R;
  uint32_t Desynced = scanAndMerge(Code, Shards, R);
  expectSameAsReference(Code, R);
  return Desynced;
}

std::vector<uint8_t> nops(uint32_t N) { return std::vector<uint8_t>(N, 0x90); }

/// Overwrites Code[At..] with Bytes.
void patch(std::vector<uint8_t> &Code, uint32_t At,
           std::initializer_list<uint8_t> Bytes) {
  uint32_t I = At;
  for (uint8_t B : Bytes)
    Code[I++] = B;
}

TEST(EquivalenceTest, CraftedSmallImages) {
  expectEquivalent({});                 // empty image accepts
  expectEquivalent({0x90});             // sub-bundle image
  expectEquivalent(nops(31));
  expectEquivalent(nops(32));
  expectEquivalent(nops(33));
  expectEquivalent(nops(256));
  expectEquivalent({0xC3});             // bare RET rejects (NoParse)
  expectEquivalent(std::vector<uint8_t>(64, 0xC3));
}

TEST(EquivalenceTest, MaskedPairStraddlingSeam) {
  // AND ends at the seam, jump half entirely in the next shard: the
  // sequential chain matches the 5-byte pair across byte 32; shard 1's
  // fresh scan starts mid-pair. Policy-invalid (byte 32 is not an
  // instruction start) — the merge must reject like the reference.
  std::vector<uint8_t> Code = nops(96);
  patch(Code, 29, {0x83, 0xE0, 0xE0, 0xFF, 0xE0}); // and eax,-32; jmp *eax
  EXPECT_GT(expectEquivalent(Code), 0u) << "no shard desynchronized";

  // Pair split across the seam at the mask/jump boundary (mask at
  // 30..32 crosses; jump at 33).
  std::vector<uint8_t> Code2 = nops(96);
  patch(Code2, 30, {0x83, 0xE1, 0xE0, 0xFF, 0xE1}); // and ecx,-32; jmp *ecx
  expectEquivalent(Code2);

  // Pair entirely inside one bundle but directly before the seam: valid,
  // no seam crossing; shard results splice exactly.
  std::vector<uint8_t> Code3 = nops(96);
  patch(Code3, 27, {0x83, 0xE3, 0xE0, 0xFF, 0xD3}); // and ebx,-32; call *ebx
  expectEquivalent(Code3);
}

TEST(EquivalenceTest, DirectJumpsAcrossAndOntoSeams) {
  // jmp rel32 whose displacement bytes straddle the seam (instr at
  // 28..32), landing on the bundle-aligned position 64.
  std::vector<uint8_t> Code = nops(96);
  patch(Code, 28, {0xE9, 31, 0, 0, 0}); // jmp +31 → target 64
  expectEquivalent(Code);

  // jmp rel8 landing exactly on a seam position that IS an instruction
  // start: accepted; same landing one byte later (mid-nop is still an
  // instruction start in a nop sled, so aim into a mov's immediate).
  std::vector<uint8_t> Code2 = nops(96);
  patch(Code2, 0, {0xEB, 30});                   // jmp → 32
  expectEquivalent(Code2);

  std::vector<uint8_t> Code3 = nops(96);
  patch(Code3, 32, {0xB8, 1, 2, 3, 4});          // mov eax, imm32 at 32..36
  patch(Code3, 0, {0xEB, 32});                   // jmp → 34: mid-instruction
  expectEquivalent(Code3);                       // BadTarget both sides

  // call rel32 ending exactly at the seam (instr at 27..31): no seam
  // crossing, target at 64.
  std::vector<uint8_t> Code4 = nops(96);
  patch(Code4, 27, {0xE8, 32, 0, 0, 0}); // call +32 → 64
  expectEquivalent(Code4);

  // Displacement pointing outside the image: the step itself fails.
  std::vector<uint8_t> Code5 = nops(96);
  patch(Code5, 0, {0xEB, 0x7F});
  expectEquivalent(Code5);
}

TEST(EquivalenceTest, TruncatedTailAndDesyncChains) {
  // Image ends mid-instruction: the final match exhausts the DFA input.
  std::vector<uint8_t> Code = nops(35);
  patch(Code, 32, {0xB8, 1, 0}); // truncated mov eax, imm32
  expectEquivalent(Code);

  // A long desync: every bundle starts one byte into a 2-byte pattern,
  // so after the first seam overrun the chain crosses several shard
  // bases before resyncing (if ever).
  std::vector<uint8_t> Code2 = nops(160);
  for (uint32_t P = 31; P + 1 < 160; P += 32)
    patch(Code2, P, {0xB8}); // mov eax, imm32 eating the next 4 bytes
  expectEquivalent(Code2);
}

/// The merge must also behave when handed shard layouts partitionShards
/// never produces: a gap, an overlap or a chain that ends short of the
/// image is not a concatenation, so each goes to the whole-image check.
TEST(ShardMergeTest, ToleratesGappyPartitions) {
  // A nop sled, and one with a direct jump and a masked pair inside the
  // scanned shard plus another of each in the gaps.
  std::vector<uint8_t> Jumpy = nops(128);
  patch(Jumpy, 0, {0xEB, 62});                       // jmp → 64
  patch(Jumpy, 70, {0x83, 0xE0, 0xE0, 0xFF, 0xE0}); // and eax,-32; jmp *eax
  patch(Jumpy, 80, {0xE9, 27, 0, 0, 0});             // jmp → 112
  patch(Jumpy, 100, {0x83, 0xE1, 0xE0, 0xFF, 0xD1}); // and ecx,-32; call *ecx
  // {Begin, End} lists: one shard in the middle, gaps around a single
  // scanned bundle at each end, an overlap, and a trailing gap (the
  // scans are in sync but end short of the image).
  const std::vector<std::pair<uint32_t, uint32_t>> Layouts[] = {
      {{64, 96}}, {{0, 32}, {96, 128}}, {{0, 64}, {32, 96}}, {{0, 64}}};
  for (const std::vector<uint8_t> &Code : {nops(128), Jumpy})
    for (const auto &Layout : Layouts) {
      std::vector<core::ShardScan> Shards(Layout.size());
      for (size_t I = 0; I < Layout.size(); ++I)
        Shards[I].reset(Layout[I].first, Layout[I].second);
      core::CheckResult R;
      scanAndMerge(Code, Shards, R);
      ASSERT_NO_FATAL_FAILURE(expectSameAsReference(Code, R));
    }
}

} // namespace
