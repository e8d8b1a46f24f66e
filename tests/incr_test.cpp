//===- tests/incr_test.cpp -------------------------------------*- C++ -*-===//
//
// The incremental re-verification subsystem: every verdict an
// IncrementalVerifier produces — after open, after any sequence of
// patches (one or several per reverify), across chunk geometries and
// accept/reject flips — must be bit-identical to a full RockSalt::check
// of the image's current bytes (verdict, reject reason, and all three
// bitmaps). Plus the scan-read bound's pinned values, the dirty rule's
// overhang, and the loud failure of every invalid request.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "incr/IncrementalVerifier.h"
#include "mips/MipsPolicy.h"
#include "nacl/WorkloadGen.h"
#include "support/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

using namespace rocksalt;

namespace {

/// Full-check cross-check: the subsystem's core promise.
void expectBitIdentical(incr::IncrementalVerifier &V, incr::ImageId Id,
                        const std::vector<uint8_t> &Bytes, const char *What) {
  core::RockSalt Full;
  core::CheckResult F = Full.check(Bytes);
  const core::CheckResult &I = V.lastCheck(Id);
  EXPECT_EQ(I.Ok, F.Ok) << What;
  EXPECT_EQ(I.Reason, F.Reason) << What;
  EXPECT_EQ(I.Valid, F.Valid) << What;
  EXPECT_EQ(I.Target, F.Target) << What;
  EXPECT_EQ(I.PairJmp, F.PairJmp) << What;
}

std::vector<uint8_t> workload(uint32_t Bytes, uint64_t Seed) {
  nacl::WorkloadOptions WO;
  WO.TargetBytes = Bytes;
  WO.Seed = Seed;
  return nacl::generateWorkload(WO);
}

// --- Scan-read bound ---------------------------------------------------

TEST(IncrTest, MaxScanReadBytesIsSane) {
  uint32_t MaxRead = incr::maxScanReadBytes(core::policyTables());
  // No policy instruction is longer than a bundle: the shard bitmap's
  // one slack word past a chunk's end leans on it (core/Shard.h).
  EXPECT_LE(MaxRead, core::BundleSize);
  // The pinned bounds: minimization does not change what a match can
  // read, and MIPS reads two 4-byte words at most (a masked pair).
  EXPECT_EQ(MaxRead, 12u);
  EXPECT_EQ(incr::maxScanReadBytes(core::buildPolicyTablesRaw()), 12u);
  EXPECT_EQ(incr::maxScanReadBytes(mips::buildMipsPolicyTables()), 8u);
}

TEST(IncrTest, MaxScanReadBytesThrowsOnALiveNonAcceptingCycle) {
  // Start -> 1 on any byte; 1 loops on nop and accepts on anything else.
  // A run of nops keeps a match alive forever, so no scan window is
  // finite.
  re::Dfa Loop;
  Loop.Start = 0;
  Loop.Table.resize(3);
  Loop.Table[0].fill(1);
  Loop.Table[1].fill(2);
  Loop.Table[1][0x90] = 1;
  Loop.Table[2].fill(2);
  Loop.Accepts = {0, 0, 1};
  Loop.Rejects = {0, 0, 0};
  core::PolicyTables T = core::policyTables();
  T.DirectJump = Loop;
  EXPECT_THROW(incr::maxScanReadBytes(T), std::logic_error);
  // The same shape without the loop edge reads two bytes at most.
  Loop.Table[1][0x90] = 2;
  T.MaskedJump = T.NoControlFlow = T.DirectJump = Loop;
  EXPECT_EQ(incr::maxScanReadBytes(T), 2u);
}

// --- Open/patch equivalence --------------------------------------------

TEST(IncrTest, OpenMatchesFullCheckOnMixedImages) {
  incr::IncrementalVerifier V;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    std::vector<uint8_t> Img = workload(700, Seed);
    if (Seed % 2 == 0)
      Img[Img.size() / 3] = 0xC3; // break half of them
    incr::IncrResult R;
    incr::ImageId Id = V.open(Img, &R);
    EXPECT_EQ(R.ChunksRescanned, V.store().get(Id)->numChunks());
    expectBitIdentical(V, Id, Img, "open");
    // A reverify with no dirty chunks must not change the verdict.
    incr::IncrResult R2 = V.reverify(Id);
    EXPECT_EQ(R2.ChunksRescanned, 0u);
    EXPECT_EQ(R2.Ok, R.Ok);
    expectBitIdentical(V, Id, Img, "idle reverify");
  }
}

TEST(IncrTest, PatchAtOffsetZero) {
  std::vector<uint8_t> Img(256, 0x90);
  incr::IncrementalVerifier V;
  incr::ImageId Id = V.open(Img);
  ASSERT_TRUE(V.lastCheck(Id).Ok);

  Img[0] = 0x40; // inc eax
  incr::IncrResult R = V.patch(Id, 0, Img.data(), 1);
  EXPECT_TRUE(R.Ok);
  expectBitIdentical(V, Id, Img, "patch at 0");
}

TEST(IncrTest, PatchInFinalPartialChunk) {
  // 1000 bytes with 512-byte chunks: the last chunk is 488 bytes and
  // the image tail is not bundle-aligned.
  std::vector<uint8_t> Img(1000, 0x90);
  incr::IncrementalOptions IO;
  IO.ChunkBytes = 512;
  incr::IncrementalVerifier V(IO);
  incr::ImageId Id = V.open(Img);
  ASSERT_TRUE(V.lastCheck(Id).Ok);

  Img[999] = 0x40;
  V.patch(Id, 999, &Img[999], 1);
  expectBitIdentical(V, Id, Img, "patch last byte");

  Img[511] = 0x40; // straddles the chunk seam's scan window
  V.patch(Id, 511, &Img[511], 1);
  expectBitIdentical(V, Id, Img, "patch at seam");

  // A `mov eax, imm32` opcode as the last byte: the final chunk's scan
  // runs out of bytes mid-instruction and fails at its end, so the
  // splice must read Failed, not StopPos, to hand the no-parse on.
  Img[999] = 0xB8;
  incr::IncrResult R = V.patch(Id, 999, &Img[999], 1);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reason, core::RejectReason::NoParse);
  EXPECT_FALSE(R.Spliced);
  expectBitIdentical(V, Id, Img, "truncated last instruction");
}

TEST(IncrTest, AcceptRejectAcceptFlipRescansTheChunk) {
  std::vector<uint8_t> Img(512, 0x90);
  incr::IncrementalVerifier V;
  incr::ImageId Id = V.open(Img);
  ASSERT_TRUE(V.lastCheck(Id).Ok);

  // ret parses under no grammar of the aligned policy: reject.
  uint8_t Ret = 0xC3, Orig = 0x90;
  Img[100] = Ret;
  incr::IncrResult R1 = V.patch(Id, 100, &Ret, 1);
  EXPECT_FALSE(R1.Ok);
  EXPECT_EQ(R1.Reason, core::RejectReason::NoParse);
  expectBitIdentical(V, Id, Img, "reject flip");

  // Revert: the one dirty chunk is rescanned back to the accepted
  // bitmaps.
  Img[100] = Orig;
  incr::IncrResult R2 = V.patch(Id, 100, &Orig, 1);
  EXPECT_TRUE(R2.Ok);
  EXPECT_EQ(R2.ChunksRescanned, 1u);
  expectBitIdentical(V, Id, Img, "revert flip");
}

TEST(IncrTest, RandomPatchSequencesStayBitIdentical) {
  // Edge-geometry sweep: one-bundle chunks maximize seams; a tail-
  // truncated image keeps the final partial chunk in the loop.
  for (uint32_t CB : {32u, 128u}) {
    std::vector<uint8_t> Img = workload(900, 7 + CB);
    Img.resize(Img.size() - 13); // non-bundle-multiple tail
    incr::IncrementalOptions IO;
    IO.ChunkBytes = CB;
    incr::IncrementalVerifier V(IO);
    incr::ImageId Id = V.open(Img);
    expectBitIdentical(V, Id, Img, "open");

    Rng R(1234 + CB);
    for (int Step = 0; Step < 60; ++Step) {
      uint32_t Len = 1 + uint32_t(R.below(12));
      if (Len > Img.size())
        Len = uint32_t(Img.size());
      uint32_t Off = uint32_t(R.below(Img.size() - Len + 1));
      std::vector<uint8_t> Patch(Len);
      for (auto &B : Patch)
        B = R.below(4) ? uint8_t(0x90) : uint8_t(R.next());
      for (uint32_t I = 0; I < Len; ++I)
        Img[Off + I] = Patch[I];
      V.patch(Id, Off, Patch);
      expectBitIdentical(V, Id, Img, "random step");
    }
    V.close(Id);
  }
}

TEST(IncrTest, BatchedPatchesThenOneReverify) {
  // Several patchBytes calls before one reverify: the dirty list must
  // stay deduplicated and sorted, and the splice must walk several dirty
  // ranges in one pass. Every reverify re-resolves exactly the chunks
  // whose scan window some patch touched and is cross-checked against a
  // full check; the scripted batches overwrite whole bundles with nops,
  // which keeps the image accepted, so they must take the splice with
  // one window per run of adjacent dirty chunks.
  const std::vector<uint8_t> Nops(4 * core::BundleSize, 0x90);
  for (uint32_t CB : {32u, 128u, 512u}) {
    std::vector<uint8_t> Img = workload(16 * 512, 21 + CB);
    const uint32_t Size = uint32_t(Img.size());
    ASSERT_GE(Size, 14 * 512u);
    incr::IncrementalOptions IO;
    IO.ChunkBytes = CB;
    incr::IncrementalVerifier V(IO);
    incr::ImageId Id = V.open(Img);
    ASSERT_TRUE(V.lastCheck(Id).Ok);
    const uint32_t MaxRead = V.maxReadBytes();

    std::set<uint32_t> Dirty; // chunks whose window a patch met
    auto Patch = [&](uint32_t Off, const uint8_t *Bytes, uint32_t Len) {
      std::copy(Bytes, Bytes + Len, Img.begin() + Off);
      V.patchBytes(Id, Off, Bytes, Len);
      for (uint32_t C = 0; C * CB < Size; ++C)
        if (C * CB < Off + Len && (C + 1) * CB - 1 + MaxRead > Off)
          Dirty.insert(C);
    };
    auto NopBundles = [&](uint32_t Off, uint32_t Bundles) {
      Patch(Off, Nops.data(), Bundles * core::BundleSize);
    };
    auto Reverify = [&](const std::string &What, bool Scripted) {
      SCOPED_TRACE(What + ", chunk " + std::to_string(CB));
      incr::IncrResult R = V.reverify(Id);
      EXPECT_EQ(R.ChunksRescanned, Dirty.size());
      if (Scripted) {
        size_t Runs = 0;
        for (uint32_t C : Dirty)
          Runs += C == 0 || !Dirty.count(C - 1);
        EXPECT_TRUE(R.Ok);
        EXPECT_TRUE(R.Spliced);
        EXPECT_EQ(R.Windows.size(), Runs);
      }
      Dirty.clear();
      expectBitIdentical(V, Id, Img, What.c_str());
    };

    // The same chunk twice, then a lower chunk: descending offsets.
    NopBundles(5 * CB, 1);
    NopBundles(5 * CB, 1);
    NopBundles(5 * CB + CB - core::BundleSize, 1);
    NopBundles(2 * CB, 1);
    Reverify("same chunk twice, descending", true);

    // Overlapping patches, one straddling the base of chunk 8.
    NopBundles(8 * CB - core::BundleSize, 2);
    NopBundles(8 * CB, 1);
    NopBundles(11 * CB, 2);
    NopBundles(11 * CB + core::BundleSize, 2);
    Reverify("overlapping, chunk straddle", true);

    // A patch at a chunk base dirties its predecessor through the read
    // window's overhang; patches in both neighbours share one window.
    NopBundles(13 * CB, 1);
    NopBundles(12 * CB - core::BundleSize, 1);
    NopBundles(3 * CB, 1);
    Reverify("predecessor overhang", true);

    // Random batches of 2-6 patches, rejects and reverts included.
    Rng R(99 + CB);
    for (int Step = 0; Step < 40; ++Step) {
      uint32_t N = uint32_t(R.range(2, 6));
      for (uint32_t P = 0; P < N; ++P) {
        uint32_t Len = uint32_t(R.range(1, 2 * core::BundleSize));
        uint32_t Off = uint32_t(R.below(Size - Len + 1));
        std::vector<uint8_t> Bytes(Len);
        for (uint8_t &B : Bytes)
          B = R.below(4) ? uint8_t(0x90) : uint8_t(R.next());
        Patch(Off, Bytes.data(), Len);
      }
      Reverify("random batch " + std::to_string(Step), false);
    }
  }
}

TEST(IncrTest, ScanOverrunningItsChunkEndLeavesTheRejectToTheFullMerge) {
  // From an accepted nop image, a one-byte patch turns the last byte of
  // chunk 1 into the opcode of a five-byte `mov eax, imm32` whose
  // immediate is chunk 2's first four nops. Chunk 1 still parses, but
  // its new scan stops four bytes past its end, so chunk 2's base is no
  // instruction start. Chunk 2 is not dirty and keeps its old scan, and
  // chunk 1's window alone passes the final pass: only the splice's
  // end-of-chunk check sees the overrun and hands the reject to the
  // full join, which finds chunk 1 out of sync and checks the whole
  // image.
  for (uint32_t CB : {32u, 128u, 512u}) {
    SCOPED_TRACE("chunk " + std::to_string(CB));
    std::vector<uint8_t> Img(4 * 512, 0x90);
    incr::IncrementalOptions IO;
    IO.ChunkBytes = CB;
    incr::IncrementalVerifier V(IO);
    incr::ImageId Id = V.open(Img);
    ASSERT_TRUE(V.lastCheck(Id).Ok);

    const uint32_t Off = 2 * CB - 1;
    uint8_t Mov = 0xB8, Nop = 0x90;
    Img[Off] = Mov;
    incr::IncrResult R = V.patch(Id, Off, &Mov, 1);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Reason, core::RejectReason::UnalignedBundle);
    EXPECT_FALSE(R.Spliced);
    expectBitIdentical(V, Id, Img, "overrun");

    // Reverting rescans the one dirty chunk back to the accepted
    // bitmaps, and the next accepted patch splices again.
    Img[Off] = Nop;
    R = V.patch(Id, Off, &Nop, 1);
    EXPECT_TRUE(R.Ok);
    EXPECT_EQ(R.ChunksRescanned, 1u);
    expectBitIdentical(V, Id, Img, "revert");
    R = V.patch(Id, Off, &Nop, 1);
    EXPECT_TRUE(R.Ok);
    EXPECT_TRUE(R.Spliced);
    expectBitIdentical(V, Id, Img, "splice after revert");
  }
}

TEST(IncrTest, MaskedPairStraddlingAChunkBaseRescansBothChunks) {
  // Chunk 1 of an accepted nop image ends in `and eax, -32`, a plain
  // NoControlFlow instruction. Patching chunk 2's first two bytes to
  // `jmp eax` completes a masked pair that straddles chunk 2's base (a
  // bundle boundary). Chunk 1's scan read those two bytes through its
  // window's overhang, so the dirty rule must rescan it too. The
  // rescan count pins that: with only chunk 2 rescanned the verdict
  // would still agree, because chunk 2's fresh scan fails on a bare
  // `jmp eax` and the join then checks the whole image.
  for (uint32_t CB : {32u, 128u, 512u}) {
    SCOPED_TRACE("chunk " + std::to_string(CB));
    std::vector<uint8_t> Img(4 * 512, 0x90);
    const uint32_t Base = 2 * CB;
    const uint8_t And[] = {0x83, 0xE0, 0xE0}, Jmp[] = {0xFF, 0xE0};
    std::copy(And, And + 3, Img.begin() + Base - 3);
    incr::IncrementalOptions IO;
    IO.ChunkBytes = CB;
    incr::IncrementalVerifier V(IO);
    incr::ImageId Id = V.open(Img);
    ASSERT_TRUE(V.lastCheck(Id).Ok);

    std::copy(Jmp, Jmp + 2, Img.begin() + Base);
    incr::IncrResult R = V.patch(Id, Base, Jmp, 2);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Reason, core::RejectReason::UnalignedBundle);
    EXPECT_EQ(R.ChunksRescanned, 2u);
    expectBitIdentical(V, Id, Img, "straddling pair");
  }
}

TEST(IncrTest, IdenticalImagesOwnTheirScans) {
  std::vector<uint8_t> Img(2048, 0x90);
  incr::IncrementalVerifier V;
  incr::ImageId A = V.open(Img);
  incr::IncrResult R;
  incr::ImageId B = V.open(Img, &R);
  EXPECT_NE(A, B);
  EXPECT_EQ(V.store().count(), 2u);
  // Same content, same geometry: the second image still scans every
  // chunk itself.
  EXPECT_EQ(R.ChunksRescanned, V.store().get(B)->numChunks());

  V.close(A);
  EXPECT_EQ(V.store().count(), 1u);
  uint8_t X = 0x40;
  Img[5] = X;
  V.patch(B, 5, &X, 1); // survivor still verifies after the close
  expectBitIdentical(V, B, Img, "after sibling close");
}

// --- Invalid requests fail loudly --------------------------------------

TEST(IncrTest, InvalidRequestsThrow) {
  incr::IncrementalOptions Bad;
  Bad.ChunkBytes = core::BundleSize + 1; // not a bundle multiple
  EXPECT_THROW(incr::IncrementalVerifier{Bad}, std::invalid_argument);
  Bad.ChunkBytes = 0;
  EXPECT_THROW(incr::IncrementalVerifier{Bad}, std::invalid_argument);

  incr::IncrementalVerifier V;
  std::vector<uint8_t> Img(64, 0x90);
  incr::ImageId Id = V.open(Img);
  uint8_t B = 0x90;

  EXPECT_THROW(V.patch(Id, 0, &B, 0), std::invalid_argument);  // zero-length
  EXPECT_THROW(V.patch(Id, 64, &B, 1), std::invalid_argument); // off the end
  EXPECT_THROW(V.patch(Id, 60, &B, 5), std::invalid_argument); // leaves image
  EXPECT_THROW(V.patch(Id + 1, 0, &B, 1), std::invalid_argument);
  EXPECT_THROW(V.reverify(Id + 1), std::invalid_argument);
  EXPECT_THROW(V.lastCheck(Id + 1), std::invalid_argument);
  EXPECT_THROW(V.close(Id + 1), std::invalid_argument);

  // The failed calls left the image intact.
  EXPECT_TRUE(V.lastCheck(Id).Ok);
  V.close(Id);
  EXPECT_THROW(V.close(Id), std::invalid_argument); // double close
  EXPECT_EQ(V.store().count(), 0u);
}

TEST(IncrTest, EmptyImageOpensAndAccepts) {
  incr::IncrementalVerifier V;
  incr::IncrResult R;
  incr::ImageId Id = V.open({}, &R);
  EXPECT_TRUE(R.Ok);
  std::vector<uint8_t> Empty;
  expectBitIdentical(V, Id, Empty, "empty image");
  uint8_t B = 0x90;
  EXPECT_THROW(V.patch(Id, 0, &B, 1), std::invalid_argument);
  V.close(Id);
}

} // namespace
