//===- tests/analysis_audit_test.cpp --------------------------*- C++ -*-===//
//
// The policy meta-verifier (analysis/PolicyAudit.h) as a CI gate: the
// shipped tables must discharge every obligation, and deliberately
// corrupted grammars must fail the right obligation with a byte-exact
// counterexample witness — proving the analyses decide the properties,
// not merely rubber-stamp them.
//
//===----------------------------------------------------------------------===//

#include "analysis/PolicyAudit.h"

#include "core/Verifier.h"

#include <gtest/gtest.h>

using namespace rocksalt;
using namespace rocksalt::analysis;

namespace {

/// Whole-string acceptance under a policy table.
bool accepts(const re::Dfa &D, const std::vector<uint8_t> &Bytes) {
  uint16_t S = static_cast<uint16_t>(D.Start);
  for (uint8_t B : Bytes)
    S = D.step(S, B);
  return D.Accepts[S];
}

/// The decoder references, built once for the whole suite (the audit
/// itself is milliseconds; the decoder strip dominates).
const DecoderDfas &decoders() {
  static DecoderDfas X = buildDecoderDfas();
  return X;
}

//===----------------------------------------------------------------------===//
// The gate: shipped tables discharge every obligation.
//===----------------------------------------------------------------------===//

TEST(PolicyAudit, ShippedTablesPass) {
  AuditReport R = auditPolicy(core::policyTables(), decoders());
  EXPECT_TRUE(R.Pass) << R.render();
  // Every individual obligation present and passing.
  for (const char *Check :
       {"disjoint(MaskedJump,NoControlFlow)", "disjoint(MaskedJump,DirectJump)",
        "disjoint(NoControlFlow,DirectJump)", "decodes(NoControlFlow)",
        "decodes(DirectJump)", "decodes(MaskedJump)", "health(MaskedJump)",
        "health(NoControlFlow)", "health(DirectJump)",
        "minimize-preserves(MaskedJump)", "minimize-preserves(NoControlFlow)",
        "minimize-preserves(DirectJump)", "state-bound", "fused-classes"}) {
    const AuditFinding *F = R.find(Check);
    ASSERT_NE(F, nullptr) << Check;
    EXPECT_TRUE(F->Pass) << Check << ": " << F->Detail;
  }
  ASSERT_EQ(R.Tables.size(), 3u);
  // The shipped tables are already minimized (core/Policy.cpp), so the
  // audit's raw and minimized counts coincide at the pinned constants.
  EXPECT_EQ(R.Tables[0].RawStates, core::MaskedJumpStates);
  EXPECT_EQ(R.Tables[1].RawStates, core::NoControlFlowStates);
  EXPECT_EQ(R.Tables[2].RawStates, core::DirectJumpStates);
  EXPECT_EQ(R.Tables[0].MinStates, core::MaskedJumpStates);
  EXPECT_EQ(R.Tables[1].MinStates, core::NoControlFlowStates);
  EXPECT_EQ(R.Tables[2].MinStates, core::DirectJumpStates);
  EXPECT_LE(R.LargestMinimized, PaperMaxPolicyStates);
}

TEST(PolicyAudit, ShippedEntryPointMatches) {
  AuditReport R = auditShippedPolicy();
  EXPECT_TRUE(R.Pass) << R.render();
  EXPECT_FALSE(R.render().empty());
}

//===----------------------------------------------------------------------===//
// Corrupted grammars fail the right obligation, with a real witness.
//===----------------------------------------------------------------------===//

TEST(PolicyAudit, OverlapCorruptionYieldsByteExactWitness) {
  // Corrupt NoControlFlow to also contain all of DirectJump: the
  // disjoint(NoControlFlow,DirectJump) obligation must fail, and the
  // witness must be the shortest lexicographically-least shared string —
  // jcc rel8 with the smallest opcode and displacement: 70 00.
  re::Factory F;
  core::PolicyGrammars G = core::buildPolicyGrammars(F);
  core::PolicyTables T;
  T.MaskedJump = re::buildDfa(F, G.MaskedJumpRe);
  T.NoControlFlow =
      re::buildDfa(F, F.alt(G.NoControlFlowRe, G.DirectJumpRe));
  T.DirectJump = re::buildDfa(F, G.DirectJumpRe);

  AuditReport R = auditPolicy(T, decoders());
  EXPECT_FALSE(R.Pass);
  const AuditFinding *D = R.find("disjoint(NoControlFlow,DirectJump)");
  ASSERT_NE(D, nullptr);
  EXPECT_FALSE(D->Pass);
  ASSERT_EQ(D->Witness.size(), 2u) << D->Detail;
  EXPECT_EQ(D->Witness[0], 0x70u);
  EXPECT_EQ(D->Witness[1], 0x00u);
  // The witness really is in both languages — replay it.
  EXPECT_TRUE(accepts(T.NoControlFlow, D->Witness));
  EXPECT_TRUE(accepts(T.DirectJump, D->Witness));
  // The counterexample family enumerates the violation class: the first
  // member is the witness itself and every member replays in both
  // languages.
  ASSERT_FALSE(D->Family.empty());
  EXPECT_EQ(D->Family[0], D->Witness);
  for (const std::vector<uint8_t> &S : D->Family) {
    EXPECT_TRUE(accepts(T.NoControlFlow, S));
    EXPECT_TRUE(accepts(T.DirectJump, S));
  }
  EXPECT_NE(D->Detail.find("family:"), std::string::npos) << D->Detail;
  // The untouched obligations still pass.
  const AuditFinding *M = R.find("disjoint(MaskedJump,DirectJump)");
  ASSERT_NE(M, nullptr);
  EXPECT_TRUE(M->Pass);
}

TEST(PolicyAudit, DecoderDriftYieldsWitness) {
  // Extend NoControlFlow with a byte the decoder grammar does not know
  // (0xF1, ICEBP — absent from the modeled subset): decodes() must fail
  // and the witness must be exactly that byte.
  re::Factory F;
  core::PolicyGrammars G = core::buildPolicyGrammars(F);
  core::PolicyTables T;
  T.MaskedJump = re::buildDfa(F, G.MaskedJumpRe);
  T.NoControlFlow = re::buildDfa(F, F.alt(G.NoControlFlowRe, F.byteLit(0xF1)));
  T.DirectJump = re::buildDfa(F, G.DirectJumpRe);

  AuditReport R = auditPolicy(T, decoders());
  EXPECT_FALSE(R.Pass);
  const AuditFinding *D = R.find("decodes(NoControlFlow)");
  ASSERT_NE(D, nullptr);
  EXPECT_FALSE(D->Pass);
  ASSERT_EQ(D->Witness.size(), 1u) << D->Detail;
  EXPECT_EQ(D->Witness[0], 0xF1u);
  EXPECT_TRUE(accepts(T.NoControlFlow, D->Witness));
  EXPECT_FALSE(accepts(decoders().One, D->Witness));
  // Every family member is policy-accepted yet undecodable (here the
  // injected byte is the entire difference language).
  ASSERT_FALSE(D->Family.empty());
  EXPECT_EQ(D->Family[0], D->Witness);
  for (const std::vector<uint8_t> &S : D->Family) {
    EXPECT_TRUE(accepts(T.NoControlFlow, S));
    EXPECT_FALSE(accepts(decoders().One, S));
  }
}

TEST(PolicyAudit, DeadStateCorruptionFailsHealth) {
  // Unflag the dead sink in a copy of the shipped DirectJump table: the
  // health obligation must notice the dead-unflagged state.
  core::PolicyTables T;
  {
    re::Factory F;
    core::PolicyGrammars G = core::buildPolicyGrammars(F);
    T.MaskedJump = re::buildDfa(F, G.MaskedJumpRe);
    T.NoControlFlow = re::buildDfa(F, G.NoControlFlowRe);
    T.DirectJump = re::buildDfa(F, G.DirectJumpRe);
  }
  for (size_t S = 0; S < T.DirectJump.numStates(); ++S)
    T.DirectJump.Rejects[S] = 0;

  AuditReport R = auditPolicy(T, decoders());
  EXPECT_FALSE(R.Pass);
  const AuditFinding *H = R.find("health(DirectJump)");
  ASSERT_NE(H, nullptr);
  EXPECT_FALSE(H->Pass);
  // Health of the untouched tables is unaffected.
  const AuditFinding *H2 = R.find("health(NoControlFlow)");
  ASSERT_NE(H2, nullptr);
  EXPECT_TRUE(H2->Pass);
}

TEST(PolicyAudit, LyingRejectFlagFailsFusedClasses) {
  // Flag one live state as rejecting in a copy of the shipped tables.
  // buildFusedPolicy reads the flag and lets the sweep take a start the
  // full chain could still match, so the decided obligation must fail
  // with the bytes that reach that state as witness:
  //  * the MaskedJump state behind the mask's first byte (83,
  //    `and r/m32, imm8`): MaskedJump is called dead on 83;
  //  * the DirectJump state behind 0F 80 (`jo rel32`): the 0F escape
  //    calls 80 a second byte that kills the jump.
  struct Case {
    re::Dfa core::PolicyTables::*Table;
    std::vector<uint8_t> Path;
  };
  for (const Case &C : {Case{&core::PolicyTables::MaskedJump, {0x83}},
                        Case{&core::PolicyTables::DirectJump, {0x0F, 0x80}}}) {
    core::PolicyTables T = core::policyTables();
    re::Dfa &D = T.*C.Table;
    uint32_t S = D.Start;
    for (uint8_t B : C.Path)
      S = D.step(uint16_t(S), B);
    ASSERT_FALSE(D.Rejects[S]);
    D.Rejects[S] = 1;

    AuditReport R = auditPolicy(T, decoders());
    EXPECT_FALSE(R.Pass);
    const AuditFinding *F = R.find("fused-classes");
    ASSERT_NE(F, nullptr);
    EXPECT_FALSE(F->Pass);
    EXPECT_EQ(F->Witness, C.Path) << F->Detail;
    // Untouched tables' obligations still pass.
    const AuditFinding *H = R.find("health(NoControlFlow)");
    ASSERT_NE(H, nullptr);
    EXPECT_TRUE(H->Pass);
  }
}

TEST(PolicyAudit, RenderMentionsEveryFinding) {
  AuditReport R = auditPolicy(core::policyTables(), decoders());
  std::string Text = R.render();
  for (const AuditFinding &F : R.Findings)
    EXPECT_NE(Text.find(F.Check), std::string::npos) << F.Check;
  EXPECT_NE(Text.find("PASS"), std::string::npos);
}

TEST(PolicyAudit, HexBytesRendering) {
  EXPECT_EQ(hexBytes({}), "");
  EXPECT_EQ(hexBytes({0x70, 0x00}), "70 00");
  EXPECT_EQ(hexBytes({0xFF, 0xE0}), "ff e0");
}

} // namespace
