//===- tests/analysis_dataflow_test.cpp -----------------------*- C++ -*-===//
//
// Tests for the lint's whole-image passes (analysis/Dataflow.h): the
// successor walks over hand-built graphs, the passes observed through
// lintImage (extended reachability through the computed-transfer hub,
// reaching masks across back edges, call-graph liveness from dead and
// computed entries), adversarial CFG shapes, and the contract
// that all three lint front ends — sequential chain re-scan, shard
// bitmaps, and the incremental linter's maintained chain — produce
// bit-identical verdicts, with error-severity diagnostics never firing
// on an accepted image.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include "incr/IncrementalVerifier.h"
#include "nacl/Assembler.h"
#include "nacl/WorkloadGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>

using namespace rocksalt;
using namespace rocksalt::analysis;

namespace {

const core::PolicyTables &tables() { return core::policyTables(); }
const core::FusedPolicy &fused() { return core::fusedPolicyTables(); }

uint32_t countKind(const CfgLintResult &R, LintKind K) {
  uint32_t N = 0;
  for (const LintDiag &D : R.Diags)
    N += D.Kind == K ? 1 : 0;
  return N;
}

/// Full structural equality between two lint results — fields, per-node
/// analysis values, diagnostics, and the rendered text. The assertion
/// form the differential contract (sequential == shards == incremental)
/// is checked in.
void expectLintEqual(const CfgLintResult &A, const CfgLintResult &B,
                     const char *What) {
  EXPECT_EQ(A.ParseComplete, B.ParseComplete) << What;
  EXPECT_EQ(A.Errors, B.Errors) << What;
  EXPECT_EQ(A.Warnings, B.Warnings) << What;
  EXPECT_EQ(A.Notes, B.Notes) << What;
  EXPECT_EQ(A.ReachableNodes, B.ReachableNodes) << What;
  EXPECT_EQ(A.ExtReachableNodes, B.ExtReachableNodes) << What;
  EXPECT_EQ(A.LiveIndirectOuts, B.LiveIndirectOuts) << What;
  EXPECT_EQ(A.Procs, B.Procs) << What;
  EXPECT_EQ(A.ReachableProcs, B.ReachableProcs) << What;
  ASSERT_EQ(A.Nodes.size(), B.Nodes.size()) << What;
  for (size_t I = 0; I < A.Nodes.size(); ++I) {
    const CfgNode &X = A.Nodes[I], &Y = B.Nodes[I];
    EXPECT_EQ(X.Begin, Y.Begin) << What << " node " << I;
    EXPECT_EQ(X.End, Y.End) << What << " node " << I;
    EXPECT_EQ(X.Kind, Y.Kind) << What << " node " << I;
    EXPECT_EQ(X.Fallthrough, Y.Fallthrough) << What << " node " << I;
    EXPECT_EQ(X.HasTarget, Y.HasTarget) << What << " node " << I;
    if (X.HasTarget && Y.HasTarget) {
      EXPECT_EQ(X.Target, Y.Target) << What << " node " << I;
    }
    EXPECT_EQ(X.IndirectOut, Y.IndirectOut) << What << " node " << I;
    EXPECT_EQ(X.IsCall, Y.IsCall) << What << " node " << I;
  }
  EXPECT_EQ(A.Reachable, B.Reachable) << What;
  EXPECT_EQ(A.ExtReachable, B.ExtReachable) << What;
  EXPECT_EQ(A.Guard, B.Guard) << What;
  ASSERT_EQ(A.Diags.size(), B.Diags.size()) << What << "\n--- A:\n"
                                            << A.render() << "--- B:\n"
                                            << B.render();
  for (size_t I = 0; I < A.Diags.size(); ++I) {
    EXPECT_EQ(A.Diags[I].Kind, B.Diags[I].Kind) << What << " diag " << I;
    EXPECT_EQ(A.Diags[I].Sev, B.Diags[I].Sev) << What << " diag " << I;
    EXPECT_EQ(A.Diags[I].Offset, B.Diags[I].Offset) << What << " diag " << I;
    EXPECT_EQ(A.Diags[I].Detail, B.Diags[I].Detail) << What << " diag " << I;
  }
  EXPECT_EQ(A.render(), B.render()) << What;
}

/// Hand-built straight-line / branch nodes for graph-walk unit tests (no
/// image behind them; the walks only read the edge-shape fields).
CfgNode node(uint32_t Begin, uint32_t End, bool Fallthrough,
             bool HasTarget = false, uint32_t Target = 0) {
  CfgNode N;
  N.Begin = Begin;
  N.End = End;
  N.Kind = HasTarget ? core::StepKind::DirectJump
                     : core::StepKind::NoControlFlow;
  N.Fallthrough = Fallthrough;
  N.HasTarget = HasTarget;
  N.Target = Target;
  return N;
}

//===----------------------------------------------------------------------===//
// Graph walks over hand-built nodes
//===----------------------------------------------------------------------===//

TEST(CfgWalks, ForwardReachOnDiamond) {
  // 0 branches to 2 and falls through to 1, which falls into 2; 2 falls
  // through to 3.
  std::vector<CfgNode> Nodes = {
      node(0, 2, true, true, 4), // 0: jcc -> node 2, ft -> node 1
      node(2, 4, true),          // 1: ft -> node 2
      node(4, 6, true),          // 2: ft -> node 3
      node(6, 8, false),         // 3: terminal
  };
  CfgGraph G(Nodes, 8);
  uint32_t Fan[2];
  EXPECT_EQ(G.succs(0, Fan), 2u); // the fallthrough and the branch
  ReachInfo R = reachability(G);
  EXPECT_EQ(R.Direct, (std::vector<uint8_t>{1, 1, 1, 1}));
  EXPECT_EQ(R.DirectCount, 4u);
}

TEST(CfgWalks, ForwardReachSkipsDeadCode) {
  std::vector<CfgNode> Nodes = {
      node(0, 2, true),           // 0: ft -> 1
      node(2, 4, false, true, 6), // 1: jmp -> 3, no ft
      node(4, 6, true),           // 2: dead (skipped by the jmp)
      node(6, 8, false),          // 3: terminal
  };
  CfgGraph G(Nodes, 8);
  ReachInfo R = reachability(G);
  EXPECT_EQ(R.Direct, (std::vector<uint8_t>{1, 1, 0, 1}));
  EXPECT_EQ(R.Ext, R.Direct); // no indirect out, so no hub
}

TEST(CfgWalks, BranchToNonNodeStartContributesNoEdge) {
  // Target 3 is the interior of node 1: succs(0) must report only the
  // fallthrough, and the flood must not invent reachability.
  std::vector<CfgNode> Nodes = {
      node(0, 2, false, true, 3), // jmp into 1's interior, no ft
      node(2, 4, true),
      node(4, 6, false),
  };
  CfgGraph G(Nodes, 6);
  uint32_t Fan[2];
  EXPECT_EQ(G.succs(0, Fan), 0u);
  EXPECT_EQ(G.nodeAt(3), CfgGraph::kNoNode);
  ReachInfo R = reachability(G);
  EXPECT_EQ(R.Direct, (std::vector<uint8_t>{1, 0, 0}));
}

TEST(CfgWalks, EmptyGraph) {
  std::vector<CfgNode> Nodes;
  CfgGraph G(Nodes, 0);
  ReachInfo R = reachability(G);
  EXPECT_TRUE(R.Direct.empty());
  EXPECT_TRUE(R.Ext.empty());
  EXPECT_EQ(R.DirectCount, 0u);
  EXPECT_EQ(R.ExtCount, 0u);
  EXPECT_TRUE(reachingMasks(G, R).empty());
  CallGraphInfo CG = recoverCallGraph(G, R);
  EXPECT_EQ(CG.Procs, 0u);
  EXPECT_EQ(CG.ReachableProcs, 0u);
}

//===----------------------------------------------------------------------===//
// Concrete passes, observed through lintImage's result fields
//===----------------------------------------------------------------------===//

TEST(DataflowPasses, HubClosureLiftsBundleStartsToExtReachable) {
  // Bundle 0 holds a live masked jump, then jumps over bundle 1. Bundle
  // 1 is direct-unreachable but the computed transfer may enter it, so
  // the hub closure marks its start ext-reachable and the note says a
  // live transfer may enter.
  nacl::Assembler A;
  A.maskedJump(x86::Reg::EAX);
  A.jmpTo("end");
  A.padToBundle();
  A.hlt(); // bundle 1: direct-unreachable
  A.padToBundle();
  A.alignedLabel("end");
  A.hlt();
  std::vector<uint8_t> Img = A.finish();
  ASSERT_TRUE(core::RockSalt().verify(Img));

  CfgLintResult R = lintImage(tables(), Img);
  EXPECT_EQ(R.Errors, 0u) << R.render();
  EXPECT_EQ(R.LiveIndirectOuts, 1u);
  EXPECT_GT(R.ExtReachableNodes, R.ReachableNodes);
  // The node opening bundle 1 is ext-reachable but not direct-reachable.
  bool Found = false;
  for (size_t I = 0; I < R.Nodes.size(); ++I)
    if (R.Nodes[I].Begin == core::BundleSize) {
      Found = true;
      EXPECT_FALSE(R.Reachable[I]);
      EXPECT_TRUE(R.ExtReachable[I]);
    }
  ASSERT_TRUE(Found);
  // The pair in bundle 0 is live, so no dead-pair warning; the masked
  // jump does not fall through, so both later bundles (the skipped one
  // AND "end") are direct-unreachable, and each note mentions the live
  // transfer count.
  EXPECT_EQ(countKind(R, LintKind::DeadMaskedPair), 0u) << R.render();
  ASSERT_EQ(countKind(R, LintKind::UnreachableBundle), 2u) << R.render();
  for (const LintDiag &D : R.Diags) {
    if (D.Kind == LintKind::UnreachableBundle) {
      EXPECT_NE(D.Detail.find("1 live computed transfer"), std::string::npos)
          << D.Detail;
    }
  }
}

TEST(DataflowPasses, NoLiveIndirectMeansDeadCodeNote) {
  // Same shape without the masked jump: bundle 1 is genuinely dead and
  // the note must say so.
  nacl::Assembler A;
  A.jmpTo("end");
  A.padToBundle();
  A.hlt();
  A.padToBundle();
  A.alignedLabel("end");
  A.hlt();
  std::vector<uint8_t> Img = A.finish();
  ASSERT_TRUE(core::RockSalt().verify(Img));

  CfgLintResult R = lintImage(tables(), Img);
  EXPECT_EQ(R.LiveIndirectOuts, 0u);
  EXPECT_EQ(R.ExtReachableNodes, R.ReachableNodes);
  ASSERT_EQ(countKind(R, LintKind::UnreachableBundle), 1u) << R.render();
  for (const LintDiag &D : R.Diags) {
    if (D.Kind == LintKind::UnreachableBundle) {
      EXPECT_NE(D.Detail.find("dead code"), std::string::npos) << D.Detail;
    }
  }
}

TEST(DataflowPasses, ReachingMaskTracksGuardThenMeetsAtBundleStart) {
  // A masked CALL pair at offset 0 installs guard 0 and falls through;
  // the straight-line tail of bundle 0 keeps the guard; bundle 1's
  // start meets in the unguarded computed entry (the pair is live) and
  // degrades to Many, which the rest of bundle 1 inherits.
  std::vector<uint8_t> Img = {0x83, 0xE0, 0xE0,  // and eax, -32
                              0xFF, 0xD0};       // call *eax
  Img.resize(64, 0x90);
  ASSERT_TRUE(core::RockSalt().verify(Img));

  CfgLintResult R = lintImage(tables(), Img);
  ASSERT_EQ(R.Guard.size(), R.Nodes.size());
  for (size_t I = 0; I < R.Nodes.size(); ++I) {
    if (R.Nodes[I].Begin == 0)
      EXPECT_EQ(R.Guard[I], 0u) << "the pair installs its own Begin";
    else if (R.Nodes[I].Begin < core::BundleSize)
      EXPECT_EQ(R.Guard[I], 0u) << "node " << I << " keeps the guard";
    else
      EXPECT_EQ(R.Guard[I], kGuardMany)
          << "node " << I << " meets the unguarded computed entry";
  }
}

TEST(DataflowPasses, GuardStaysNoneWithoutAnyPair) {
  std::vector<uint8_t> Img(64, 0x90);
  ASSERT_TRUE(core::RockSalt().verify(Img));
  CfgLintResult R = lintImage(tables(), Img);
  for (uint32_t V : R.Guard)
    EXPECT_EQ(V, kGuardNone);
}

TEST(DataflowPasses, CallGraphRecoversProceduresAndLiveness) {
  // Entry proc calls "fn": procedures are the address partition cut at
  // direct-call targets (entry + fn here), and the call edge makes
  // both interprocedurally live.
  nacl::Assembler A;
  A.callToAligned("fn");
  A.jmpTo("done");
  A.padToBundle();
  A.alignedLabel("fn");
  A.hlt();
  A.padToBundle();
  A.alignedLabel("done");
  A.hlt();
  std::vector<uint8_t> Img = A.finish();
  ASSERT_TRUE(core::RockSalt().verify(Img));

  CfgLintResult R = lintImage(tables(), Img);
  EXPECT_EQ(R.Errors, 0u) << R.render();
  EXPECT_EQ(R.Procs, 2u);          // entry + fn
  EXPECT_EQ(R.ReachableProcs, 2u); // the call makes fn live
  EXPECT_EQ(countKind(R, LintKind::UnreachableBundle), 0u) << R.render();
}

TEST(DataflowPasses, MutuallyRecursiveCallsCondenseToOneLiveScc) {
  // a calls b, b calls a: one SCC, both live from the entry.
  nacl::Assembler A;
  A.callToAligned("b");
  A.hlt();
  A.padToBundle();
  A.alignedLabel("b");
  A.callToAligned("a");
  A.hlt();
  A.padToBundle();
  A.alignedLabel("a");
  A.jmpTo("b");
  A.padToBundle();
  std::vector<uint8_t> Img = A.finish();
  ASSERT_TRUE(core::RockSalt().verify(Img));

  CfgLintResult R = lintImage(tables(), Img);
  EXPECT_EQ(R.Errors, 0u) << R.render();
  EXPECT_EQ(R.Procs, R.ReachableProcs) << R.render();
  EXPECT_GE(R.Procs, 2u);
}

TEST(DataflowPasses, ProceduresCalledOnlyFromDeadCodeStayDead) {
  // Bundle 0 loops on itself; the procedures at 32 and 64 call each
  // other and each jumps back to its own start, so nothing live enters
  // either of them.
  std::vector<uint8_t> Img(96, 0x90);
  auto Put = [&](uint32_t At, std::initializer_list<uint8_t> Bytes) {
    std::copy(Bytes.begin(), Bytes.end(), Img.begin() + At);
  };
  Put(30, {0xEB, 0xE0});                   // jmp 0
  Put(32, {0xE8, 0x1B, 0x00, 0x00, 0x00}); // call 64
  Put(62, {0xEB, 0xE0});                   // jmp 32
  Put(64, {0xE8, 0xDB, 0xFF, 0xFF, 0xFF}); // call 32
  Put(94, {0xEB, 0xE0});                   // jmp 64
  ASSERT_TRUE(core::RockSalt().verify(Img));
  CfgLintResult R = lintImage(tables(), Img);
  EXPECT_EQ(R.Procs, 3u) << R.render();
  EXPECT_EQ(R.ReachableProcs, 1u) << R.render();

  // A live masked call makes every bundle start a computed entry, so
  // both procedures are entered directly, not only through each other.
  Put(0, {0x83, 0xE0, 0xE0, 0xFF, 0xD0}); // and eax, -32; call *eax
  ASSERT_TRUE(core::RockSalt().verify(Img));
  R = lintImage(tables(), Img);
  EXPECT_EQ(R.LiveIndirectOuts, 1u);
  EXPECT_EQ(R.Procs, 3u) << R.render();
  EXPECT_EQ(R.ReachableProcs, 3u) << R.render();
}

TEST(DataflowPasses, BackEdgeBringsAConflictingGuardIntoTheLoopHeader) {
  // The pair at 0 installs guard 0 and falls into the loop header at 5;
  // the loop body's pair at 6 installs guard 6, and the jnz back to 5
  // meets it with guard 0 there. The header only learns of guard 6
  // through the back edge.
  std::vector<uint8_t> Img = {0x83, 0xE0, 0xE0, 0xFF, 0xD0, // 0: and/call eax
                              0x90,                         // 5: header
                              0x83, 0xE1, 0xE0, 0xFF, 0xD1, // 6: and/call ecx
                              0x75, 0xF8};                  // 11: jnz 5
  Img.resize(32, 0x90);
  ASSERT_TRUE(core::RockSalt().verify(Img));
  CfgLintResult R = lintImage(tables(), Img);
  ASSERT_GE(R.Guard.size(), 4u);
  EXPECT_EQ(R.Guard[0], 0u);
  EXPECT_EQ(R.Guard[1], kGuardMany);
  EXPECT_EQ(R.Guard[2], 6u);
  EXPECT_EQ(R.Guard[3], 6u);
}

//===----------------------------------------------------------------------===//
// Adversarial CFG shapes
//===----------------------------------------------------------------------===//

TEST(AdversarialCfg, OverlappingBranchesIntoSamePairInterior) {
  // Two distinct branches land inside the same masked pair: one
  // diagnostic per offending source, both naming the pair.
  std::vector<uint8_t> Img = {0xEB, 0x04,             // 0: jmp -> 6
                              0xEB, 0x02,             // 2: jmp -> 6
                              0x83, 0xE0, 0xE0,       // 4: and eax, -32
                              0xFF, 0xE0};            // 7: jmp *eax
  Img.resize(32, 0x90);
  core::CheckResult C = core::RockSalt().check(Img);
  ASSERT_FALSE(C.Ok);
  ASSERT_EQ(C.Reason, core::RejectReason::BadTarget);

  CfgLintResult R = lintImage(tables(), Img);
  EXPECT_TRUE(R.ParseComplete);
  ASSERT_EQ(countKind(R, LintKind::BranchIntoMaskedPair), 2u) << R.render();
  std::vector<uint32_t> Anchors;
  for (const LintDiag &D : R.Diags)
    if (D.Kind == LintKind::BranchIntoMaskedPair)
      Anchors.push_back(D.Offset);
  EXPECT_EQ(Anchors, (std::vector<uint32_t>{0, 2}));
}

TEST(AdversarialCfg, CallInFinalBundle) {
  // A call whose return point is mid-bundle warns; a call ending
  // exactly at the image end returns onto the (virtual) seam and must
  // not warn — and the missing fallthrough node must not trip the
  // passes.
  auto Build = [](uint32_t CallAt) {
    std::vector<uint8_t> Img(64, 0x90);
    Img[0] = 0xF4; // hlt entry
    Img[CallAt] = 0xE8;
    int32_t Rel = -int32_t(CallAt + 5); // back to offset 0 (aligned)
    std::memcpy(&Img[CallAt + 1], &Rel, 4);
    return Img;
  };

  std::vector<uint8_t> Mid = Build(32); // returns to 37: off-seam
  std::vector<uint8_t> End = Build(59); // returns to 64 == Size: seam
  ASSERT_TRUE(core::RockSalt().verify(Mid));
  ASSERT_TRUE(core::RockSalt().verify(End));

  CfgLintResult RM = lintImage(tables(), Mid);
  CfgLintResult RE = lintImage(tables(), End);
  EXPECT_EQ(RM.Errors, 0u) << RM.render();
  EXPECT_EQ(RE.Errors, 0u) << RE.render();
  EXPECT_EQ(countKind(RM, LintKind::CallRetNotSeam), 1u) << RM.render();
  EXPECT_EQ(countKind(RE, LintKind::CallRetNotSeam), 0u) << RE.render();
  // The final node is the call; its fallthrough edge leaves the image.
  ASSERT_FALSE(RE.Nodes.empty());
  const CfgNode &Last = RE.Nodes.back();
  EXPECT_TRUE(Last.IsCall);
  EXPECT_EQ(Last.End, 64u);
}

TEST(AdversarialCfg, BackEdgeLoopStaysQuiet) {
  // A self-loop bundle: jmp back to its own aligned start. The
  // worklist must converge on the cycle; the pad after the jmp is
  // unreachable but shares the reachable bundle start, so there is no
  // note to emit.
  nacl::Assembler A;
  A.alignedLabel("top");
  A.hlt();
  A.jmpTo("top");
  A.padToBundle();
  std::vector<uint8_t> Img = A.finish();
  ASSERT_TRUE(core::RockSalt().verify(Img));
  CfgLintResult R = lintImage(tables(), Img);
  EXPECT_EQ(R.Errors, 0u) << R.render();
  EXPECT_EQ(countKind(R, LintKind::UnreachableBundle), 0u) << R.render();
  EXPECT_EQ(R.ReachableNodes, 2u); // the hlt and the jmp
}

//===----------------------------------------------------------------------===//
// Differential: shard-derived lint is bit-identical to sequential
//===----------------------------------------------------------------------===//

TEST(DifferentialLint, ShardsMatchSequentialOnHandImages) {
  std::vector<std::pair<const char *, std::vector<uint8_t>>> Cases;
  {
    std::vector<uint8_t> I = {0xEB, 0x04, 0xEB, 0x02, 0x83,
                              0xE0, 0xE0, 0xFF, 0xE0};
    I.resize(96, 0x90);
    Cases.emplace_back("overlapping-branches", std::move(I));
  }
  {
    std::vector<uint8_t> I(96, 0x90);
    I[40] = 0xC3; // parse jams mid-image
    Cases.emplace_back("parse-stuck", std::move(I));
  }
  {
    std::vector<uint8_t> I(31, 0x90);
    I.push_back(0x89); // straddles the bundle seam
    I.push_back(0xC0);
    I.resize(96, 0x90);
    Cases.emplace_back("unaligned-bundle", std::move(I));
  }
  {
    std::vector<uint8_t> I = {0x83, 0xE0, 0xE0, 0xFF, 0xE0};
    I.resize(96, 0x90);
    Cases.emplace_back("live-pair", std::move(I));
  }

  for (auto &[Name, Img] : Cases) {
    CfgLintResult Seq = lintImage(tables(), Img);
    for (uint32_t Shards : {1u, 2u, 5u}) {
      CfgLintResult Par = lintImageFromShards(
          fused(), Img.data(), uint32_t(Img.size()), Shards);
      expectLintEqual(Seq, Par,
                      (std::string(Name) + " shards=" +
                       std::to_string(Shards)).c_str());
    }
  }
}

TEST(DifferentialLint, ShardsMatchSequentialOnWorkloads) {
  for (uint64_t Seed : {3, 17, 41}) {
    nacl::WorkloadOptions O;
    O.TargetBytes = 2048;
    O.Seed = Seed;
    std::vector<uint8_t> Img = nacl::generateWorkload(O);
    CfgLintResult Seq = lintImage(tables(), Img);
    EXPECT_EQ(Seq.Errors, 0u);
    for (uint32_t Shards : {1u, 3u, 8u}) {
      CfgLintResult Par = lintImageFromShards(
          fused(), Img.data(), uint32_t(Img.size()), Shards);
      expectLintEqual(Seq, Par, ("workload seed " + std::to_string(Seed) +
                                 " shards=" + std::to_string(Shards))
                                    .c_str());
    }
  }
}

//===----------------------------------------------------------------------===//
// Incremental lint: bit-identity to fresh, across chunk geometries
//===----------------------------------------------------------------------===//

class IncrementalFixture {
public:
  IncrementalFixture(std::vector<uint8_t> Img, uint32_t ChunkBytes)
      : Opts(makeOpts(ChunkBytes)), V(tables(), Opts), L(tables()) {
    incr::IncrResult R0;
    Id = V.open(std::move(Img), &R0);
    LastOk = R0.Ok;
    const incr::ImageEntry *E = V.store().get(Id);
    L.open(Id, E->Bytes.data(), E->size(), ChunkBytes);
  }

  /// Applies a patch through the verifier + linter and asserts the
  /// maintained lint is bit-identical to a fresh lint of the current
  /// bytes (snapshot fields and rendered text).
  IncrementalLinter::Summary patchAndCheck(uint32_t Off,
                                           const std::vector<uint8_t> &Bytes,
                                           const char *What) {
    incr::IncrResult R = V.patch(Id, Off, Bytes);
    LastOk = R.Ok;
    const incr::ImageEntry *E = V.store().get(Id);
    IncrementalLinter::Summary S =
        L.relint(Id, E->Bytes.data(), E->size(), R);
    CfgLintResult Fresh = lintImage(tables(), E->Bytes);
    CfgLintResult Snap = L.snapshot(Id);
    expectLintEqual(Fresh, Snap, What);
    EXPECT_EQ(L.render(Id), Fresh.render()) << What;
    EXPECT_EQ(S.Errors, Fresh.Errors) << What;
    EXPECT_EQ(S.Warnings, Fresh.Warnings) << What;
    EXPECT_EQ(S.Notes, Fresh.Notes) << What;
    EXPECT_EQ(S.ParseComplete, Fresh.ParseComplete) << What;
    return S;
  }

  bool lastOk() const { return LastOk; }

private:
  static incr::IncrementalOptions makeOpts(uint32_t ChunkBytes) {
    incr::IncrementalOptions O;
    O.ChunkBytes = ChunkBytes;
    return O;
  }
  incr::IncrementalOptions Opts;
  incr::IncrementalVerifier V;
  IncrementalLinter L;
  incr::ImageId Id = 0;
  bool LastOk = false;
};

TEST(IncrementalLint, MaskedPairAtChunkSeamGeometries) {
  // Masked pairs ending exactly on the 32- and 128-byte chunk seams;
  // patches land on both sides of each seam and must keep the
  // maintained lint bit-identical to fresh under both geometries.
  std::vector<uint8_t> Base(256, 0x90);
  auto PutPair = [&](uint32_t At) {
    const uint8_t Pair[5] = {0x83, 0xE0, 0xE0, 0xFF, 0xE0};
    std::memcpy(&Base[At], Pair, 5);
  };
  PutPair(27);  // ends at 32: the first 32-byte (and 128-byte interior) seam
  PutPair(123); // ends at 128: the first 128-byte seam
  ASSERT_TRUE(core::RockSalt().verify(Base));

  for (uint32_t ChunkBytes : {32u, 128u}) {
    SCOPED_TRACE("ChunkBytes=" + std::to_string(ChunkBytes));
    IncrementalFixture F(Base, ChunkBytes);

    // NCF corridor patch just after the first seam (fast-path shape).
    F.patchAndCheck(33, {0xF4}, "hlt after seam");
    EXPECT_TRUE(F.lastOk());
    // Patch in the same chunk as the pair: the window swallows the
    // pair, so the corridor precondition fails and the relint must
    // take a heavier path — verdicts still identical.
    F.patchAndCheck(20, {0xF4, 0xF4}, "patch before pair");
    EXPECT_TRUE(F.lastOk());
    // Overwrite the pair itself with straight-line code...
    F.patchAndCheck(27, {0x90, 0x90, 0x90, 0x90, 0x90}, "erase pair");
    EXPECT_TRUE(F.lastOk());
    // ...and restore it.
    F.patchAndCheck(27, {0x83, 0xE0, 0xE0, 0xFF, 0xE0}, "restore pair");
    EXPECT_TRUE(F.lastOk());
    // Break the image (mid-bundle RET): rejected patches fall back to
    // the full path and must still match fresh lint of the bad bytes.
    F.patchAndCheck(200, {0xC3}, "break with ret");
    EXPECT_FALSE(F.lastOk());
    // Heal it again.
    F.patchAndCheck(200, {0x90}, "heal");
    EXPECT_TRUE(F.lastOk());
  }
}

TEST(IncrementalLint, PureCorridorPatchTakesFastPath) {
  std::vector<uint8_t> Img(512, 0x90);
  IncrementalFixture F(Img, 128);
  IncrementalLinter::Summary S =
      F.patchAndCheck(260, {0xF4, 0xF4, 0xF4}, "nop->hlt corridor");
  EXPECT_TRUE(F.lastOk());
  EXPECT_TRUE(S.FastPath);
}

TEST(IncrementalLint, BranchPatchLeavesFastPath) {
  // Writing a branch into the window makes it a non-corridor: the
  // relint may not use the O(window) path, and must still agree.
  std::vector<uint8_t> Img(512, 0x90);
  IncrementalFixture F(Img, 128);
  // jmp -2 -> targets its own bundle start (accepted: 256 is aligned).
  IncrementalLinter::Summary S =
      F.patchAndCheck(256, {0xEB, 0xFE}, "self-loop jmp");
  EXPECT_TRUE(F.lastOk());
  EXPECT_FALSE(S.FastPath);
}

//===----------------------------------------------------------------------===//
// Property: error-severity diagnostics never fire on accepted images,
// on the sequential, shard, and incremental paths alike.
//===----------------------------------------------------------------------===//

TEST(LintProperty, ErrorsNeverFireOnAcceptedImages) {
  core::RockSalt V;
  for (uint64_t Seed : {2, 5, 11, 29, 47, 83}) {
    nacl::WorkloadOptions O;
    O.TargetBytes = 1536;
    O.Seed = Seed;
    std::vector<uint8_t> Img = nacl::generateWorkload(O);
    ASSERT_TRUE(V.verify(Img)) << "seed " << Seed;

    CfgLintResult Seq = lintImage(tables(), Img);
    EXPECT_EQ(Seq.Errors, 0u) << "seed " << Seed << "\n" << Seq.render();
    CfgLintResult Par =
        lintImageFromShards(fused(), Img.data(), uint32_t(Img.size()), 4);
    EXPECT_EQ(Par.Errors, 0u) << "seed " << Seed;

    // Incremental path: identity patches and a bundle-aligned NOP-sled
    // overwrite keep exercising relint; whenever the verifier accepts,
    // the maintained lint must hold zero errors too (and stay
    // bit-identical to fresh throughout, accepted or not).
    IncrementalFixture F(Img, 128);
    std::vector<uint8_t> Same(Img.begin() + 64, Img.begin() + 64 + 16);
    IncrementalLinter::Summary S1 =
        F.patchAndCheck(64, Same, "identity patch");
    EXPECT_TRUE(F.lastOk()) << "seed " << Seed;
    EXPECT_EQ(S1.Errors, 0u) << "seed " << Seed;

    uint32_t SledAt = (uint32_t(Img.size()) / 2) & ~31u;
    IncrementalLinter::Summary S2 =
        F.patchAndCheck(SledAt, std::vector<uint8_t>(32, 0x90), "nop sled");
    if (F.lastOk()) {
      EXPECT_EQ(S2.Errors, 0u) << "seed " << Seed;
    }
  }
}

} // namespace
