//===- tests/mips_policy_test.cpp -----------------------------*- C++ -*-===//
//
// The second registry tenant end to end: the MIPS NaCl policy tables
// (mips/MipsPolicy.h) — masked-jump discipline through $t9/$t6, direct
// jump target extraction, 16-byte bundle alignment — plus the tagged
// RSTB round-trip and the full 14-obligation meta-audit over the MIPS
// tables (the same analysis::auditPolicy the x86 CI gate runs).
//
//===----------------------------------------------------------------------===//

#include "analysis/PolicyAudit.h"
#include "core/TableRegistry.h"
#include "mips/Mips.h"
#include "mips/MipsPolicy.h"

#include <gtest/gtest.h>

#include <vector>

using namespace rocksalt;
using namespace rocksalt::mips;

namespace {

/// Appends one instruction word big-endian (the byte order the MIPS
/// grammars consume).
void putWord(std::vector<uint8_t> &Img, uint32_t W) {
  Img.push_back(uint8_t(W >> 24));
  Img.push_back(uint8_t(W >> 16));
  Img.push_back(uint8_t(W >> 8));
  Img.push_back(uint8_t(W));
}

uint32_t adduWord(uint8_t Rd = 3, uint8_t Rs = 1, uint8_t Rt = 2) {
  Instr I;
  I.Opc = Op::ADDU;
  I.Rs = Rs;
  I.Rt = Rt;
  I.Rd = Rd;
  return encode(I);
}

/// `and $t9, $t9, $t6` — the mask half of the MIPS nacljmp.
uint32_t maskWord() {
  Instr I;
  I.Opc = Op::AND;
  I.Rs = MipsJumpReg;
  I.Rt = MipsMaskReg;
  I.Rd = MipsJumpReg;
  return encode(I);
}

/// `jr $t9` — the jump half.
uint32_t jrWord(uint8_t Rs = MipsJumpReg) {
  Instr I;
  I.Opc = Op::JR;
  I.Rs = Rs;
  return encode(I);
}

uint32_t beqWord(uint16_t Imm) {
  Instr I;
  I.Opc = Op::BEQ;
  I.Rs = 1;
  I.Rt = 2;
  I.Imm = Imm;
  return encode(I);
}

uint32_t jWord(uint32_t Target26) {
  Instr I;
  I.Opc = Op::J;
  I.Target = Target26;
  return encode(I);
}

/// An all-NCF image of \p Words addu instructions.
std::vector<uint8_t> nops(uint32_t Words) {
  std::vector<uint8_t> Img;
  for (uint32_t I = 0; I < Words; ++I)
    putWord(Img, adduWord());
  return Img;
}

/// The production check (the fused verify driver), asserted
/// bit-identical to the reference three-table walk on the same image.
core::CheckResult check(const std::vector<uint8_t> &Img) {
  core::CheckResult Fused = checkMips(Img.data(), uint32_t(Img.size()));
  core::CheckResult Ref = checkMipsReference(
      *mipsTableEntry().Tables, Img.data(), uint32_t(Img.size()));
  EXPECT_EQ(Fused.Ok, Ref.Ok);
  EXPECT_EQ(Fused.Reason, Ref.Reason);
  EXPECT_EQ(Fused.Valid, Ref.Valid);
  EXPECT_EQ(Fused.Target, Ref.Target);
  EXPECT_EQ(Fused.PairJmp, Ref.PairJmp);
  return Fused;
}

TEST(MipsPolicy, CompliantStraightLineAccepted) {
  std::vector<uint8_t> Img = nops(8); // two 16-byte bundles
  core::CheckResult R = check(Img);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Reason, core::RejectReason::None);
  for (uint32_t I = 0; I < Img.size(); ++I)
    EXPECT_EQ(R.Valid[I] != 0, I % 4 == 0) << "offset " << I;
}

TEST(MipsPolicy, MaskedJumpPairAccepted) {
  // Bundle: addu addu and($t9,$t6) jr($t9) — the pair sits inside one
  // 16-byte bundle, jump half at offset 12.
  std::vector<uint8_t> Img;
  putWord(Img, adduWord());
  putWord(Img, adduWord());
  putWord(Img, maskWord());
  putWord(Img, jrWord());
  core::CheckResult R = check(Img);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.PairJmp[12], 1); // jump half flagged
  EXPECT_EQ(R.Valid[8], 1);    // pair starts at the mask
  EXPECT_EQ(R.Valid[12], 0);   // mid-pair: not an instruction start
}

TEST(MipsPolicy, NakedIndirectJumpRejected) {
  // `jr $t9` without the preceding mask is exactly what the sandbox
  // forbids — jr is carved out of NoControlFlow entirely.
  std::vector<uint8_t> Img = nops(3);
  putWord(Img, jrWord());
  core::CheckResult R = check(Img);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reason, core::RejectReason::NoParse);
}

TEST(MipsPolicy, JrThroughWrongRegisterRejected) {
  std::vector<uint8_t> Img = nops(2);
  putWord(Img, maskWord());
  putWord(Img, jrWord(/*Rs=*/8)); // jr $t0: not the sandboxed register
  core::CheckResult R = check(Img);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reason, core::RejectReason::NoParse);
}

TEST(MipsPolicy, MaskAloneIsJustAnAluOp) {
  // The mask half on its own is a plain `and` — NoControlFlow accepts
  // it once the longer MaskedJump match fails.
  std::vector<uint8_t> Img = nops(2);
  putWord(Img, maskWord());
  putWord(Img, adduWord());
  EXPECT_TRUE(check(Img).Ok);
}

TEST(MipsPolicy, PairStraddlingBundleBoundaryRejected) {
  // Mask at offset 12, jr at 16: the pair crosses the bundle seam, so
  // offset 16 (a bundle start) is mid-match and the alignment sweep
  // rejects — the classic halfway-jump attack surface.
  std::vector<uint8_t> Img = nops(3);
  putWord(Img, maskWord());
  putWord(Img, jrWord());
  while (Img.size() % MipsBundleSize)
    putWord(Img, adduWord());
  core::CheckResult R = check(Img);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reason, core::RejectReason::UnalignedBundle);
}

TEST(MipsPolicy, DirectJumpToInstructionStartAccepted) {
  // j to word index 0 — an absolute jump to the image base.
  std::vector<uint8_t> Img;
  putWord(Img, jWord(0));
  for (uint32_t I = 0; I < 3; ++I)
    putWord(Img, adduWord());
  core::CheckResult R = check(Img);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Target[0], 1);
}

TEST(MipsPolicy, BranchIntoPairInteriorRejected) {
  // beq at 0 with imm 2: dest = 4 + 2*4 = 12, the jump half of the
  // masked pair — a Target bit on a non-Valid byte (BadTarget).
  std::vector<uint8_t> Img;
  putWord(Img, beqWord(2));
  putWord(Img, adduWord());
  putWord(Img, maskWord());
  putWord(Img, jrWord());
  core::CheckResult R = check(Img);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reason, core::RejectReason::BadTarget);
}

TEST(MipsPolicy, JumpPastImageEndRejected) {
  std::vector<uint8_t> Img;
  putWord(Img, jWord(64)); // dest 256, way outside a 16-byte image
  for (uint32_t I = 0; I < 3; ++I)
    putWord(Img, adduWord());
  core::CheckResult R = check(Img);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reason, core::RejectReason::NoParse);
}

TEST(MipsPolicy, BackwardBranchInRangeAccepted) {
  // bne-shaped beq at offset 8 with imm -2: dest = 12 - 8 = 4.
  std::vector<uint8_t> Img = nops(2);
  putWord(Img, beqWord(uint16_t(-2)));
  putWord(Img, adduWord());
  core::CheckResult R = check(Img);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Target[4], 1);
}

TEST(MipsPolicy, TruncatedTrailingWordRejected) {
  std::vector<uint8_t> Img = nops(4);
  Img.push_back(0x00);
  Img.push_back(0x22); // half an instruction
  core::CheckResult R = check(Img);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reason, core::RejectReason::NoParse);
  // Every cut of the final word, including one inside a masked pair.
  std::vector<uint8_t> Pair = nops(2);
  putWord(Pair, maskWord());
  putWord(Pair, jrWord());
  for (uint32_t Cut = 1; Cut < 4; ++Cut) {
    std::vector<uint8_t> Short(Pair.begin(), Pair.end() - Cut);
    EXPECT_EQ(check(Short).Reason, core::RejectReason::NoParse) << Cut;
  }
}

TEST(MipsPolicy, SpecialWordThroughT9IsPlainNcf) {
  // addu $3, $t9, $2: a SPECIAL word with rs = $t9 shares the mask
  // word's first byte (0x03), which keeps MaskedJump alive — the full
  // chain, not the sweep, must resolve it as NoControlFlow.
  uint32_t W = adduWord(/*Rd=*/3, /*Rs=*/MipsJumpReg, /*Rt=*/2);
  ASSERT_NE(W, maskWord());
  ASSERT_EQ(W >> 24, maskWord() >> 24);
  ASSERT_TRUE(mipsTableEntry().Fused->MjAliveByte[W >> 24]);
  ASSERT_EQ(mipsTableEntry().Fused->ExcByte[W >> 24], 1);
  std::vector<uint8_t> Img = nops(1);
  putWord(Img, W);
  putWord(Img, adduWord());
  putWord(Img, adduWord());
  core::CheckResult R = check(Img);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Valid[4], 1);
  EXPECT_EQ(R.Valid[8], 1);
  for (uint8_t B : R.PairJmp)
    EXPECT_EQ(B, 0);
}

TEST(MipsPolicy, BranchOutOfRangeRejected) {
  // Forward past the end (dest = 4 + 8*4 = 36 in a 16-byte image) and
  // backward below zero (dest = 4 - 8*4 wraps): extract fails, so the
  // step fails as a whole.
  for (uint16_t Imm : {uint16_t(8), uint16_t(-8)}) {
    std::vector<uint8_t> Img;
    putWord(Img, beqWord(Imm));
    for (uint32_t I = 0; I < 3; ++I)
      putWord(Img, adduWord());
    core::CheckResult R = check(Img);
    EXPECT_FALSE(R.Ok) << Imm;
    EXPECT_EQ(R.Reason, core::RejectReason::NoParse) << Imm;
  }
}

//===----------------------------------------------------------------------===//
// Registry entry + tagged serialization.
//===----------------------------------------------------------------------===//

TEST(MipsPolicy, RegistryEntryMatchesPinnedShape) {
  const core::TableEntry &E = mipsTableEntry();
  EXPECT_EQ(E.Key.Isa, core::IsaMips);
  EXPECT_EQ(E.Key.PolicySet, core::PolicySetNacl);
  EXPECT_EQ(E.Tables->NoControlFlow.numStates(), MipsNoControlFlowStates);
  EXPECT_EQ(E.Tables->DirectJump.numStates(), MipsDirectJumpStates);
  EXPECT_EQ(E.Tables->MaskedJump.numStates(), MipsMaskedJumpStates);
  ASSERT_NE(E.Fused, nullptr);
  // The derived lane classes (DESIGN.md section 16.4): no chain-safe
  // byte; the mask's first byte is the one MaskedJump-alive byte, and
  // no start resolves on its second byte.
  EXPECT_EQ(E.Fused->SafeCount, 0u);
  EXPECT_EQ(E.Fused->MjAliveCount, 1u);
  EXPECT_EQ(E.Fused->ExcCount, 17u);
  EXPECT_EQ(E.Fused->Exc2Count, 0u);
  EXPECT_EQ(E.HashHex.size(), 64u);
  EXPECT_NE(E.HashHex, core::defaultTableEntry().HashHex);
}

TEST(MipsPolicy, TaggedBlobRoundTripsAndRejectsX86Expectation) {
  const core::TableEntry &E = mipsTableEntry();
  core::PolicyTables Back = core::deserializePolicyTables(
      E.Blob, core::IsaMips, core::PolicySetNacl);
  EXPECT_EQ(core::serializePolicyTables(Back, core::IsaMips,
                                        core::PolicySetNacl),
            E.Blob);
  // An x86 consumer must reject the blob at the header.
  EXPECT_THROW(core::deserializePolicyTables(E.Blob), std::runtime_error);
  EXPECT_THROW(core::loadPolicyTables(E.Blob, E.HashHex), std::runtime_error);
  // The hash check itself is tag-independent (content address).
  EXPECT_EQ(re::verifyBlobHashHex(E.Blob), E.HashHex);
}

TEST(MipsPolicy, RawAndMinimizedDecideIdentically) {
  core::PolicyTables Raw = buildMipsPolicyTablesRaw();
  const core::PolicyTables &Min = *mipsTableEntry().Tables;
  // Fixed-width ISA: minimization should change nothing, and the
  // verdicts must agree on every probe image in this file.
  std::vector<std::vector<uint8_t>> Probes;
  Probes.push_back(nops(8));
  {
    std::vector<uint8_t> Img = nops(2);
    putWord(Img, maskWord());
    putWord(Img, jrWord());
    Probes.push_back(std::move(Img));
  }
  {
    std::vector<uint8_t> Img = nops(3);
    putWord(Img, jrWord());
    Probes.push_back(std::move(Img));
  }
  for (const auto &Img : Probes) {
    uint32_t Size = uint32_t(Img.size());
    core::CheckResult A = checkMipsReference(Raw, Img.data(), Size);
    core::CheckResult B = checkMipsReference(Min, Img.data(), Size);
    core::CheckResult C = checkMips(Img.data(), Size); // fused Min
    for (const core::CheckResult *X : {&B, &C}) {
      EXPECT_EQ(A.Ok, X->Ok);
      EXPECT_EQ(A.Reason, X->Reason);
      EXPECT_EQ(A.Valid, X->Valid);
      EXPECT_EQ(A.Target, X->Target);
      EXPECT_EQ(A.PairJmp, X->PairJmp);
    }
  }
}

//===----------------------------------------------------------------------===//
// The 14-obligation meta-audit over the MIPS tables.
//===----------------------------------------------------------------------===//

TEST(MipsPolicy, MetaAuditDischargesAllFourteenObligations) {
  analysis::AuditReport R = analysis::auditMipsPolicy();
  EXPECT_TRUE(R.Pass) << R.render();
  EXPECT_EQ(R.Findings.size(), 14u);
  for (const analysis::AuditFinding &F : R.Findings)
    EXPECT_TRUE(F.Pass) << F.Check << ": " << F.Detail;
  EXPECT_LE(R.LargestMinimized, analysis::PaperMaxPolicyStates);
  // Spot-check the obligations by name — same set as the x86 gate.
  EXPECT_NE(R.find("disjoint(MaskedJump,NoControlFlow)"), nullptr);
  EXPECT_NE(R.find("decodes(MaskedJump)"), nullptr);
  EXPECT_NE(R.find("state-bound"), nullptr);
  EXPECT_NE(R.find("fused-classes"), nullptr);
}

} // namespace
