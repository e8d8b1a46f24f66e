//===- tests/fuzz_differential_test.cpp -----------------------*- C++ -*-===//
//
// Units for the differential fuzz harness: the cross-verifier oracle
// (all four verdict paths must agree on compliant workloads, attack
// images, and the 0x66-prefixed direct branches NaCl's policy rejects),
// the grammar-directed mutator, and the delta-debugging minimizer.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "fuzz/StructuredMutator.h"
#include "nacl/Mutator.h"
#include "nacl/WorkloadGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace rocksalt;
using namespace rocksalt::fuzz;

namespace {

/// One shared oracle for the whole suite: its pools and DFA tables are
/// the expensive part, and reuse is exactly how the fuzz driver runs it.
DifferentialOracle &oracle() {
  static DifferentialOracle O;
  return O;
}

std::vector<uint8_t> workload(uint64_t Seed, uint32_t Bytes = 256) {
  nacl::WorkloadOptions WO;
  WO.TargetBytes = Bytes;
  WO.Seed = Seed;
  return nacl::generateWorkload(WO);
}

/// Pads with NOPs to a whole number of bundles.
std::vector<uint8_t> padded(std::vector<uint8_t> Code) {
  while (Code.size() % core::BundleSize)
    Code.push_back(0x90);
  return Code;
}

} // namespace

//===----------------------------------------------------------------------===//
// DifferentialOracle
//===----------------------------------------------------------------------===//

TEST(Oracle, AllPathsAcceptCompliantWorkloads) {
  for (uint64_t Seed : {7u, 8u, 9u}) {
    OracleReport Rep = oracle().run(workload(Seed));
    EXPECT_TRUE(Rep.Reference.Ok) << "seed " << Seed;
    EXPECT_TRUE(Rep.agree()) << "seed " << Seed << ": "
                             << Rep.Disagreements[0].Path << " — "
                             << Rep.Disagreements[0].Detail;
  }
}

TEST(Oracle, AllPathsAgreeOnTargetedAttacks) {
  // A random attack placement is not always a violation (FF E0 written
  // right after an existing AND forms a *legal* pair), so the invariant
  // is agreement on every image plus rejection of most of the sweep.
  Rng R(99);
  std::vector<uint8_t> Base = workload(11);
  unsigned Rejected = 0, Total = 0;
  for (uint64_t Round = 0; Round < 8; ++Round) {
    for (nacl::Attack A :
         {nacl::Attack::BareIndirectJump, nacl::Attack::InsertRet,
          nacl::Attack::InsertInt, nacl::Attack::StripMask,
          nacl::Attack::PrefixedBranch}) {
      auto Img = nacl::applyAttack(Base, A, R);
      ASSERT_TRUE(Img.has_value());
      OracleReport Rep = oracle().run(*Img);
      EXPECT_TRUE(Rep.agree()) << Rep.Disagreements[0].Path << " — "
                               << Rep.Disagreements[0].Detail;
      ++Total;
      Rejected += !Rep.Reference.Ok;
    }
  }
  EXPECT_GE(Rejected, Total / 2);
}

TEST(Oracle, SurvivesStructuredMutationStorm) {
  Rng R(2026);
  std::vector<uint8_t> Img = workload(21, 128);
  for (int I = 0; I < 200; ++I) {
    Img = mutateStructured(Img, R);
    OracleReport Rep = oracle().run(Img);
    ASSERT_TRUE(Rep.agree()) << "iter " << I << ": "
                             << Rep.Disagreements[0].Path << " — "
                             << Rep.Disagreements[0].Detail;
  }
}

TEST(Oracle, CountsRunsIntoMetrics) {
  svc::Metrics M;
  OracleOptions O;
  O.M = &M;
  DifferentialOracle Local(O);
  Local.run(workload(31, 64));
  Local.run(workload(32, 64));
  EXPECT_EQ(M.OracleRuns.get(), 2u);
  EXPECT_EQ(M.OracleDisagreements.get(), 0u);
}

// Satellite: NaCl's policy forbids operand-size-prefixed direct
// branches (a 0x66 jump has a 16-bit displacement, truncating EIP in a
// way the sandbox proof does not cover). The baseline decoder has an
// explicit carve-out rejecting them; all four paths must agree — on the
// verdict AND on where the parse chain died.
TEST(Oracle, PrefixedDirectBranchesRejectedByAllPaths) {
  struct Case {
    const char *Name;
    std::vector<uint8_t> Prefix;
  } Cases[] = {
      {"66 E9 (jmp rel16)", {0x66, 0xE9, 0x00, 0x00}},
      {"66 EB (jmp rel8)", {0x66, 0xEB, 0x00}},
      {"66 0F 84 (je rel16)", {0x66, 0x0F, 0x84, 0x00, 0x00}},
      {"66 0F 8D (jge rel16)", {0x66, 0x0F, 0x8D, 0x00, 0x00}},
      {"66 E8 (call rel16)", {0x66, 0xE8, 0x00, 0x00}},
  };
  for (const auto &C : Cases) {
    std::vector<uint8_t> Img = padded(C.Prefix);
    OracleReport Rep = oracle().run(Img);
    EXPECT_FALSE(Rep.Reference.Ok) << C.Name;
    EXPECT_EQ(Rep.Reference.Reason, core::RejectReason::NoParse) << C.Name;
    EXPECT_TRUE(Rep.agree()) << C.Name << ": " << Rep.Disagreements[0].Path
                             << " — " << Rep.Disagreements[0].Detail;
    // And mid-image, where the prefix also desynchronizes the chain.
    std::vector<uint8_t> Mid(core::BundleSize, 0x90);
    for (uint8_t B : C.Prefix)
      Mid.push_back(B);
    Mid = padded(std::move(Mid));
    Rep = oracle().run(Mid);
    EXPECT_FALSE(Rep.Reference.Ok) << C.Name << " mid-image";
    EXPECT_TRUE(Rep.agree()) << C.Name << " mid-image";
  }
}

//===----------------------------------------------------------------------===//
// StructuredMutator
//===----------------------------------------------------------------------===//

TEST(StructuredMutator, ChainPositionsMatchTheFigure5Walk) {
  // nop; mov eax, imm32; nacljmp eax — starts at 0, 1, 6; the pair is
  // one chain step.
  std::vector<uint8_t> Img = padded({0x90, 0xB8, 1, 2, 3, 4, //
                                     0x83, 0xE0, 0xE0, 0xFF, 0xE0});
  std::vector<uint32_t> P = chainPositions(Img);
  ASSERT_GE(P.size(), 4u);
  EXPECT_EQ(P[0], 0u);
  EXPECT_EQ(P[1], 1u);
  EXPECT_EQ(P[2], 6u);
  EXPECT_EQ(P[3], 11u);
}

TEST(StructuredMutator, DeterministicPerRngSeed) {
  std::vector<uint8_t> Base = workload(41, 128);
  for (uint64_t Seed = 1; Seed < 20; ++Seed) {
    Rng A(Seed), B(Seed);
    EXPECT_EQ(mutateStructured(Base, A), mutateStructured(Base, B));
  }
}

TEST(StructuredMutator, MutationsPreserveImageSize) {
  std::vector<uint8_t> Base = workload(42, 160);
  Rng R(7);
  std::vector<uint8_t> Img = Base;
  for (int I = 0; I < 100; ++I) {
    Img = mutateStructured(Img, R);
    EXPECT_EQ(Img.size(), Base.size());
  }
}

TEST(StructuredMutator, PrefixInjectChangesTheImage) {
  std::vector<uint8_t> Base(2 * core::BundleSize, 0x90);
  Rng R(5);
  auto Out = applyGrammarMutation(Base, GrammarMutation::PrefixInject, R);
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(Out->size(), Base.size());
  EXPECT_NE(*Out, Base);
}

TEST(StructuredMutator, MaskedPairCorruptNeedsAPair) {
  std::vector<uint8_t> NoPair(core::BundleSize, 0x90);
  Rng R(6);
  EXPECT_FALSE(
      applyGrammarMutation(NoPair, GrammarMutation::MaskedPairCorrupt, R)
          .has_value());

  std::vector<uint8_t> Pair =
      padded({0x83, 0xE3, 0xE0, 0xFF, 0xE3}); // nacljmp ebx
  bool Changed = false;
  for (uint64_t Seed = 1; Seed <= 10 && !Changed; ++Seed) {
    Rng R2(Seed);
    auto Out =
        applyGrammarMutation(Pair, GrammarMutation::MaskedPairCorrupt, R2);
    ASSERT_TRUE(Out.has_value());
    Changed = *Out != Pair;
  }
  EXPECT_TRUE(Changed);
}

TEST(StructuredMutator, SeamSpliceStraddlesABundleBoundary) {
  std::vector<uint8_t> Base(4 * core::BundleSize, 0x90);
  unsigned Straddles = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    Rng R(Seed);
    auto Out = applyGrammarMutation(Base, GrammarMutation::SeamSplice, R);
    ASSERT_TRUE(Out.has_value());
    // The spliced instruction's head (non-NOP bytes) must sit in the
    // last 5 bytes before some bundle boundary, i.e. it continues past
    // the boundary.
    bool Found = false;
    for (uint32_t Seam = core::BundleSize; Seam < Out->size() && !Found;
         Seam += core::BundleSize)
      for (uint32_t B = Seam - 5; B < Seam && !Found; ++B)
        Found = (*Out)[B] != 0x90;
    if (Found)
      ++Straddles;
  }
  EXPECT_GE(Straddles, 25u);
}

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

TEST(Minimizer, ShrinksToTheInterestingByte) {
  std::vector<uint8_t> Seed(256, 0x90);
  Seed[137] = 0xC3;
  auto Pred = [](const std::vector<uint8_t> &C) {
    return std::find(C.begin(), C.end(), 0xC3) != C.end();
  };
  MinimizeResult R = minimizeImage(Seed, Pred);
  ASSERT_EQ(R.Image.size(), 1u);
  EXPECT_EQ(R.Image[0], 0xC3);
  EXPECT_EQ(R.BytesRemoved, 255u);
  EXPECT_GT(R.Evals, 0u);
}

TEST(Minimizer, CanonicalizesNonEssentialBytes) {
  // Predicate pins only the size and the first byte; everything else
  // must come out as filler.
  std::vector<uint8_t> Seed = {0xAA, 0x11, 0x22, 0x33};
  auto Pred = [](const std::vector<uint8_t> &C) {
    return C.size() == 4 && C[0] == 0xAA;
  };
  MinimizeResult R = minimizeImage(Seed, Pred);
  ASSERT_EQ(R.Image.size(), 4u);
  EXPECT_EQ(R.Image[0], 0xAA);
  EXPECT_EQ(R.Image[1], 0x90);
  EXPECT_EQ(R.Image[2], 0x90);
  EXPECT_EQ(R.Image[3], 0x90);
}

TEST(Minimizer, CountsShrinkStepsAndHonorsTheBudget) {
  svc::Metrics M;
  MinimizeOptions O;
  O.M = &M;
  O.MaxEvals = 10;
  std::vector<uint8_t> Seed(512, 0x90);
  MinimizeResult R = minimizeImage(
      Seed, [](const std::vector<uint8_t> &) { return true; }, O);
  EXPECT_LE(R.Evals, 10u);
  EXPECT_EQ(M.ShrinkSteps.get(), R.Evals);
}

TEST(Minimizer, OracleRejectPredicateShrinksAnAttackImage) {
  // End-to-end: minimize "RockSalt rejects with the same reason" — the
  // exact predicate validator_cli --explain uses.
  std::vector<uint8_t> Img = workload(55, 256);
  // Plant a ret (never policy-legal) at an instruction start mid-image.
  std::vector<uint32_t> Starts = chainPositions(Img);
  ASSERT_GT(Starts.size(), 10u);
  Img[Starts[Starts.size() / 2]] = 0xC3;
  core::RockSalt RS;
  core::CheckResult Full = RS.check(Img);
  ASSERT_FALSE(Full.Ok);
  auto Pred = [&](const std::vector<uint8_t> &C) {
    core::CheckResult R = RS.check(C);
    return !R.Ok && R.Reason == Full.Reason;
  };
  MinimizeResult R = minimizeImage(Img, Pred);
  EXPECT_LT(R.Image.size(), 8u); // a lone ret (plus filler at most)
  EXPECT_TRUE(Pred(R.Image));
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

TEST(Corpus, HashIsStableAndContentSensitive) {
  std::vector<uint8_t> A = {1, 2, 3}, B = {1, 2, 4};
  EXPECT_EQ(imageHash(A), imageHash(A));
  EXPECT_NE(imageHash(A), imageHash(B));
  EXPECT_EQ(imageHash({}), 0xcbf29ce484222325ULL); // FNV-1a offset basis
}

TEST(Corpus, WriteThenLoadRoundTrips) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / "rocksalt_corpus_test")
          .string();
  std::filesystem::remove_all(Dir);
  std::vector<uint8_t> Img = workload(61, 96);
  std::string Path = writeReproducer(Dir, "disagree", Img);
  ASSERT_FALSE(Path.empty());
  EXPECT_NE(Path.find("disagree-"), std::string::npos);
  auto Entries = loadCorpus(Dir);
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Path, Path);
  EXPECT_EQ(Entries[0].Code, Img);
  // Same bytes, same name: idempotent.
  EXPECT_EQ(writeReproducer(Dir, "disagree", Img), Path);
  EXPECT_EQ(loadCorpus(Dir).size(), 1u);
  std::filesystem::remove_all(Dir);
}

TEST(Corpus, MissingDirectoryIsAnEmptyCorpus) {
  EXPECT_TRUE(loadCorpus("/nonexistent/rocksalt/corpus").empty());
}
