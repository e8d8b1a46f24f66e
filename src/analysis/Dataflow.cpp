//===- analysis/Dataflow.cpp - Whole-image dataflow over the CFG ----------===//
//
// The lint's passes, its three front ends and the incremental linter.
// Everything funnels into lintCfg, which is what keeps the sequential,
// shard-derived, and incremental lint paths bit-identical: they may
// recover the nodes differently, but the analysis and the diagnostics
// are one code path.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include "core/Shard.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::analysis;
using core::StepKind;

//===----------------------------------------------------------------------===//
// CfgGraph
//===----------------------------------------------------------------------===//

CfgGraph::CfgGraph(const std::vector<CfgNode> &Nodes, uint32_t Size)
    : NodesRef(&Nodes) {
  NodeAt.assign(Size, kNoNode);
  for (uint32_t I = 0; I < Nodes.size(); ++I)
    NodeAt[Nodes[I].Begin] = I;
}

unsigned CfgGraph::succs(uint32_t I, uint32_t Out[2]) const {
  const std::vector<CfgNode> &Nodes = *NodesRef;
  const CfgNode &N = Nodes[I];
  unsigned K = 0;
  if (N.Fallthrough && I + 1 < Nodes.size())
    Out[K++] = I + 1;
  if (N.HasTarget) {
    uint32_t J = nodeAt(N.Target);
    if (J != kNoNode && (K == 0 || Out[0] != J))
      Out[K++] = J;
  }
  return K;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

namespace {

/// Marks every node reachable from the nodes on \p Work, which are
/// already marked, and empties \p Work.
void flood(const CfgGraph &G, std::vector<uint8_t> &Mark,
           std::vector<uint32_t> &Work) {
  uint32_t Fan[2];
  while (!Work.empty()) {
    uint32_t I = Work.back();
    Work.pop_back();
    unsigned NS = G.succs(I, Fan);
    for (unsigned S = 0; S < NS; ++S)
      if (!Mark[Fan[S]]) {
        Mark[Fan[S]] = 1;
        Work.push_back(Fan[S]);
      }
  }
}

/// The reaching-mask meet: kGuardUnknown is its identity, equal values
/// stay, and two different values meet in kGuardMany.
uint32_t meetGuard(uint32_t A, uint32_t B) {
  if (A == kGuardUnknown)
    return B;
  if (B == kGuardUnknown)
    return A;
  return A == B ? A : kGuardMany;
}

} // namespace

ReachInfo analysis::reachability(const CfgGraph &G) {
  ReachInfo R;
  const std::vector<CfgNode> &Nodes = G.nodes();
  const uint32_t N = G.numNodes();
  R.Direct.assign(N, 0);
  if (!N)
    return R;

  std::vector<uint32_t> Work{0};
  R.Direct[0] = 1;
  flood(G, R.Direct, Work);
  bool Hub = false;
  for (uint32_t I = 0; I < N; ++I) {
    R.DirectCount += R.Direct[I];
    Hub = Hub || (R.Direct[I] && Nodes[I].IndirectOut);
  }
  R.Ext = R.Direct;
  R.ExtCount = R.DirectCount;
  if (!Hub)
    return R;

  // A live computed transfer may enter any bundle start; what those
  // reach beyond the direct set is the rest of Ext.
  for (uint32_t I = 0; I < N; ++I)
    if (!R.Ext[I] && Nodes[I].Begin % core::BundleSize == 0) {
      R.Ext[I] = 1;
      Work.push_back(I);
    }
  flood(G, R.Ext, Work);
  R.ExtCount = 0;
  for (uint32_t I = 0; I < N; ++I)
    if (R.Ext[I]) {
      ++R.ExtCount;
      R.LiveIndirectOuts += Nodes[I].IndirectOut;
    }
  return R;
}

std::vector<uint32_t> analysis::reachingMasks(const CfgGraph &G,
                                              const ReachInfo &R) {
  const std::vector<CfgNode> &Nodes = G.nodes();
  const uint32_t N = G.numNodes();
  const bool Hub = R.LiveIndirectOuts > 0;
  std::vector<uint32_t> In(N, kGuardUnknown), Out(N, kGuardUnknown);
  for (uint32_t I = 0; I < N; ++I)
    if (I == 0 || (Hub && Nodes[I].Begin % core::BundleSize == 0))
      In[I] = kGuardNone;

  // Each node pushes its Out into its successors' In. The address-order
  // pass visits every node at or past Pass later, so only a lowered In
  // below it (a back edge, or any edge once the pass is done) is queued.
  // An In descends at most twice, which bounds the re-visits.
  uint32_t Pass = 0;
  std::vector<uint32_t> Back;
  auto Visit = [&](uint32_t I) {
    const CfgNode &Nd = Nodes[I];
    uint32_t O = Nd.Kind == StepKind::MaskedJump ? Nd.Begin : In[I];
    if (O == Out[I])
      return;
    Out[I] = O;
    uint32_t Fan[2];
    unsigned NS = G.succs(I, Fan);
    for (unsigned S = 0; S < NS; ++S) {
      uint32_t J = Fan[S], M = meetGuard(In[J], O);
      if (M == In[J])
        continue;
      In[J] = M;
      if (J < Pass)
        Back.push_back(J);
    }
  };
  while (Pass < N)
    Visit(Pass++);
  while (!Back.empty()) {
    uint32_t I = Back.back();
    Back.pop_back();
    Visit(I);
  }
  return Out;
}

CallGraphInfo analysis::recoverCallGraph(const CfgGraph &G,
                                         const ReachInfo &R) {
  CallGraphInfo CG;
  const std::vector<CfgNode> &Nodes = G.nodes();
  const uint32_t N = G.numNodes();
  if (!N)
    return CG;

  // Procedure entries: the image entry plus every direct-call target
  // that is a node start, as an address partition.
  std::vector<uint32_t> Entries{0};
  for (const CfgNode &Nd : Nodes)
    if (Nd.IsCall && Nd.HasTarget) {
      uint32_t T = G.nodeAt(Nd.Target);
      if (T != CfgGraph::kNoNode)
        Entries.push_back(T);
    }
  std::sort(Entries.begin(), Entries.end());
  Entries.erase(std::unique(Entries.begin(), Entries.end()), Entries.end());
  const uint32_t P = uint32_t(Entries.size());
  CG.Procs = P;

  // Depth-first over procedures. A procedure's out-edges are the CFG
  // edges leaving its node range (direct calls are target edges, so
  // they are included).
  std::vector<uint8_t> Live(P, 0);
  std::vector<uint32_t> Work;
  auto Enter = [&](uint32_t Pi) {
    if (!Live[Pi]) {
      Live[Pi] = 1;
      Work.push_back(Pi);
    }
  };
  auto ProcOf = [&](uint32_t I) {
    return uint32_t(std::upper_bound(Entries.begin(), Entries.end(), I) -
                    Entries.begin() - 1);
  };
  Enter(0);
  for (uint32_t Pi = 1; Pi < P; ++Pi)
    if (R.Ext[Entries[Pi]])
      Enter(Pi);
  uint32_t Fan[2];
  while (!Work.empty()) {
    uint32_t Pi = Work.back();
    Work.pop_back();
    const uint32_t Begin = Entries[Pi], End = Pi + 1 < P ? Entries[Pi + 1] : N;
    for (uint32_t I = Begin; I < End; ++I) {
      unsigned NS = G.succs(I, Fan);
      for (unsigned S = 0; S < NS; ++S)
        if (Fan[S] < Begin || Fan[S] >= End)
          Enter(ProcOf(Fan[S]));
    }
  }
  for (uint8_t L : Live)
    CG.ReachableProcs += L;
  return CG;
}

//===----------------------------------------------------------------------===//
// Node recovery front ends
//===----------------------------------------------------------------------===//

void analysis::classifyCfgNode(CfgNode &N, const uint8_t *Code) {
  switch (N.Kind) {
  case StepKind::NoControlFlow:
    N.Fallthrough = true;
    break;
  case StepKind::DirectJump: {
    uint8_t B0 = Code[N.Begin];
    if (B0 == 0xEB || B0 == 0xE9) {
      // JMP rel8/rel32: unconditional, no fallthrough.
    } else if (B0 == 0xE8) {
      N.IsCall = true;
      N.Fallthrough = true; // the return point
    } else {
      // Jcc rel8 (70..7F) or 0F 8x rel32.
      N.Fallthrough = true;
    }
    break;
  }
  case StepKind::MaskedJump: {
    // The jump half is the last two bytes: FF /4 (jmp) or FF /2 (call).
    uint8_t ModRM = Code[N.End - 1];
    unsigned RegField = (ModRM >> 3) & 7;
    N.IndirectOut = true;
    if (RegField == 2) {
      N.IsCall = true;
      N.Fallthrough = true; // the return point
    }
    break;
  }
  case StepKind::Fail:
    break;
  }
}

RecoveredCfg analysis::recoverCfg(const core::PolicyTables &T,
                                  const uint8_t *Code, uint32_t Size) {
  RecoveredCfg R;
  R.ParseComplete = true;
  R.ParsedEnd = Size;
  uint32_t Pos = 0;
  while (Pos < Size) {
    CfgNode N;
    N.Begin = Pos;
    uint32_t Dest = 0;
    N.Kind = core::verifyStep(T, Code, &Pos, Size, &Dest);
    if (N.Kind == StepKind::Fail) {
      R.ParseComplete = false;
      R.ParsedEnd = N.Begin;
      break;
    }
    N.End = Pos;
    if (N.Kind == StepKind::DirectJump) {
      N.HasTarget = true;
      N.Target = Dest;
    }
    classifyCfgNode(N, Code);
    R.Nodes.push_back(N);
  }
  return R;
}

namespace {

int32_t rel32At(const uint8_t *Code, uint32_t Pos) {
  return int32_t(uint32_t(Code[Pos]) | (uint32_t(Code[Pos + 1]) << 8) |
                 (uint32_t(Code[Pos + 2]) << 16) |
                 (uint32_t(Code[Pos + 3]) << 24));
}

} // namespace

RecoveredCfg analysis::cfgFromCheck(const uint8_t *Code, uint32_t Size,
                                    const core::CheckResult &C) {
  RecoveredCfg R;
  R.ParseComplete = C.Reason != core::RejectReason::NoParse;
  std::vector<uint32_t> Pos;
  Pos.reserve(Size / 4 + 1);
  for (uint32_t I = 0; I < Size; ++I)
    if (C.Valid[I])
      Pos.push_back(I);

  size_t NumNodes = Pos.size();
  if (!R.ParseComplete) {
    // On NoParse the failing position is Valid-marked but matched no
    // grammar: it is the parse horizon, not a node.
    R.ParsedEnd = Pos.empty() ? 0 : Pos.back();
    if (NumNodes)
      --NumNodes;
  } else {
    R.ParsedEnd = Size;
  }

  R.Nodes.reserve(NumNodes);
  for (size_t I = 0; I < NumNodes; ++I) {
    CfgNode N;
    N.Begin = Pos[I];
    N.End = I + 1 < Pos.size() ? Pos[I + 1] : Size;
    uint32_t Len = N.End - N.Begin;
    uint8_t B0 = Code[N.Begin];
    // Kind re-derivation from the bitmaps and bytes alone — deliberately
    // independent of verifyStep's target extraction, which is what the
    // differential lint gate cross-checks. The policy grammars are
    // audited pairwise-disjoint, so byte-shape dispatch is unambiguous.
    if (Len >= core::MaskedJumpHalfLen &&
        C.PairJmp[N.End - core::MaskedJumpHalfLen]) {
      N.Kind = StepKind::MaskedJump;
    } else if (B0 == 0xEB || (B0 >= 0x70 && B0 <= 0x7F)) {
      N.Kind = StepKind::DirectJump;
      N.HasTarget = true;
      N.Target = N.End + uint32_t(int32_t(int8_t(Code[N.Begin + 1])));
    } else if (B0 == 0xE9 || B0 == 0xE8) {
      N.Kind = StepKind::DirectJump;
      N.HasTarget = true;
      N.Target = N.End + uint32_t(rel32At(Code, N.Begin + 1));
    } else if (B0 == 0x0F && Len >= 2 && Code[N.Begin + 1] >= 0x80 &&
               Code[N.Begin + 1] <= 0x8F) {
      N.Kind = StepKind::DirectJump;
      N.HasTarget = true;
      N.Target = N.End + uint32_t(rel32At(Code, N.Begin + 2));
    } else {
      N.Kind = StepKind::NoControlFlow;
    }
    classifyCfgNode(N, Code);
    R.Nodes.push_back(N);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// lintCfg — the shared back half
//===----------------------------------------------------------------------===//

namespace {

/// The one diagnostic kind the incremental fast path regenerates, so
/// its text lives in a helper both emitters share.
LintDiag unreachableBundleDiag(uint32_t B, uint32_t LiveOuts) {
  char Buf[192];
  if (LiveOuts)
    std::snprintf(Buf, sizeof(Buf),
                  "bundle %u is unreachable by direct flow; %u live computed "
                  "transfer(s) may still enter at this bundle start",
                  B / core::BundleSize, LiveOuts);
  else
    std::snprintf(Buf, sizeof(Buf),
                  "bundle %u is unreachable by direct flow and the image has "
                  "no live computed transfer — dead code",
                  B / core::BundleSize);
  return {LintSeverity::Note, LintKind::UnreachableBundle, B, Buf};
}

} // namespace

CfgLintResult analysis::lintCfg(RecoveredCfg &&Cfg, uint32_t Size,
                                svc::Metrics *M) {
  CfgLintResult R;
  R.ParseComplete = Cfg.ParseComplete;
  R.Nodes = std::move(Cfg.Nodes);
  const uint32_t ParsedEnd = Cfg.ParsedEnd;

  // The pass pipeline (graph + reachability + guards + call graph).
  auto T0 = std::chrono::steady_clock::now();
  CfgGraph G(R.Nodes, Size);
  ReachInfo Reach = reachability(G);
  R.Guard = reachingMasks(G, Reach);
  CallGraphInfo CG = recoverCallGraph(G, Reach);
  if (M)
    M->AnalysisDataflowNanos.record(uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count()));

  R.ReachableNodes = Reach.DirectCount;
  R.ExtReachableNodes = Reach.ExtCount;
  R.LiveIndirectOuts = Reach.LiveIndirectOuts;
  R.Procs = CG.Procs;
  R.ReachableProcs = CG.ReachableProcs;
  R.Reachable = std::move(Reach.Direct);
  R.ExtReachable = std::move(Reach.Ext);

  if (!R.ParseComplete)
    R.Diags.push_back({LintSeverity::Error, LintKind::ParseStuck, ParsedEnd,
                       "no policy grammar matches at this offset; "
                       "the image tail is unanalyzed"});

  char Buf[192];

  // Bundle boundaries must be instruction starts (Error), and should be
  // reachable (Note) — each within the parsed region. The note's detail
  // reports whether any live computed transfer can still enter.
  for (uint32_t B = 0; B < ParsedEnd; B += core::BundleSize) {
    uint32_t NI = G.nodeAt(B);
    if (NI == CfgGraph::kNoNode) {
      std::snprintf(Buf, sizeof(Buf),
                    "bundle %u starts inside an instruction — every 32-byte "
                    "boundary must be an instruction start",
                    B / core::BundleSize);
      R.Diags.push_back(
          {LintSeverity::Error, LintKind::UnalignedBundleStart, B, Buf});
    } else if (!R.Reachable[NI]) {
      R.Diags.push_back(unreachableBundleDiag(B, R.LiveIndirectOuts));
    }
  }

  // Direct-branch targets must land on node starts; landing inside a
  // masked pair is the sharpest hazard (it bypasses or splits the mask).
  for (const CfgNode &N : R.Nodes) {
    if (!N.HasTarget)
      continue;
    uint32_t Tgt = N.Target;
    if (G.nodeAt(Tgt) != CfgGraph::kNoNode)
      continue; // a well-formed edge
    const CfgNode *Container = nullptr;
    if (Tgt < ParsedEnd && !R.Nodes.empty()) {
      auto It = std::upper_bound(
          R.Nodes.begin(), R.Nodes.end(), Tgt,
          [](uint32_t V, const CfgNode &Node) { return V < Node.Begin; });
      if (It != R.Nodes.begin())
        Container = &*--It;
    }
    if (Container && Container->Kind == StepKind::MaskedJump &&
        Tgt > Container->Begin && Tgt < Container->End) {
      std::snprintf(Buf, sizeof(Buf),
                    "direct branch targets %04x, inside the masked pair "
                    "[%04x,%04x) — entering there bypasses the mask",
                    Tgt, Container->Begin, Container->End);
      R.Diags.push_back(
          {LintSeverity::Error, LintKind::BranchIntoMaskedPair, N.Begin, Buf});
    } else {
      std::snprintf(Buf, sizeof(Buf),
                    "direct branch targets %04x, which is not an "
                    "instruction start",
                    Tgt);
      R.Diags.push_back(
          {LintSeverity::Error, LintKind::BranchIntoInterior, N.Begin, Buf});
    }
  }

  // Call discipline and dead masked pairs, both now path-sensitive:
  // gated on extended reachability rather than raw address presence.
  for (uint32_t I = 0; I < R.Nodes.size(); ++I) {
    const CfgNode &N = R.Nodes[I];
    if (N.IsCall && (N.End % core::BundleSize) != 0 && R.ExtReachable[I]) {
      std::snprintf(Buf, sizeof(Buf),
                    "reachable call returns to %04x, which is not "
                    "bundle-aligned — a policy-compliant masked return "
                    "cannot come back here",
                    N.End);
      R.Diags.push_back(
          {LintSeverity::Warning, LintKind::CallRetNotSeam, N.Begin, Buf});
    }
    if (N.Kind == StepKind::MaskedJump && !R.ExtReachable[I]) {
      std::snprintf(Buf, sizeof(Buf),
                    "masked pair [%04x,%04x) is not live: neither direct flow "
                    "nor any live computed transfer reaches it — the "
                    "indirect transfer protects nothing",
                    N.Begin, N.End);
      R.Diags.push_back(
          {LintSeverity::Warning, LintKind::DeadMaskedPair, N.Begin, Buf});
    }
  }

  std::stable_sort(
      R.Diags.begin(), R.Diags.end(),
      [](const LintDiag &A, const LintDiag &B) { return A.Offset < B.Offset; });

  uint32_t DeadPairs = 0, OffSeamCalls = 0;
  for (const LintDiag &D : R.Diags) {
    switch (D.Sev) {
    case LintSeverity::Error:
      R.Errors++;
      break;
    case LintSeverity::Warning:
      R.Warnings++;
      break;
    case LintSeverity::Note:
      R.Notes++;
      break;
    }
    DeadPairs += D.Kind == LintKind::DeadMaskedPair;
    OffSeamCalls += D.Kind == LintKind::CallRetNotSeam;
  }

  if (M) {
    M->LintImages.add();
    M->LintErrors.add(R.Errors);
    M->LintWarnings.add(R.Warnings);
    M->LintNotes.add(R.Notes);
    M->LintDeadPairs.add(DeadPairs);
    M->LintOffSeamCalls.add(OffSeamCalls);
    M->LintLiveIndirectOuts.add(R.LiveIndirectOuts);
  }
  return R;
}

CfgLintResult analysis::lintImageFromShards(const core::FusedPolicy &P,
                                            const uint8_t *Code, uint32_t Size,
                                            uint32_t NumShards,
                                            svc::Metrics *M) {
  std::vector<core::ShardScan> Shards;
  core::partitionShards(Size, NumShards, Shards);
  for (core::ShardScan &S : Shards)
    core::scanShard(P, Code, Size, S);
  core::CheckResult C = core::mergeShardScans(P, Code, Size, Shards);
  return lintCfg(cfgFromCheck(Code, Size, C), Size, M);
}

//===----------------------------------------------------------------------===//
// IncrementalLinter
//===----------------------------------------------------------------------===//

void IncrementalLinter::rebuildState(State &S, const CfgLintResult &R,
                                     uint32_t Size, uint32_t ChunkBytes) {
  S.Size = Size;
  S.ChunkBytes = ChunkBytes;
  uint32_t NC = ChunkBytes ? (Size + ChunkBytes - 1) / ChunkBytes : 0;
  S.Chunks.assign(NC, {});
  for (uint32_t I = 0; I < R.Nodes.size(); ++I) {
    ChunkLint &Ch = S.Chunks[R.Nodes[I].Begin / ChunkBytes];
    Ch.Nodes.push_back(R.Nodes[I]);
    Ch.Reach.push_back(R.Reachable[I]);
    Ch.Ext.push_back(R.ExtReachable[I]);
    Ch.Guard.push_back(R.Guard[I]);
  }
  for (const LintDiag &D : R.Diags)
    S.Chunks[D.Offset / ChunkBytes].Diags.push_back(D);
  S.NodeCount = R.Nodes.size();
  S.Errors = R.Errors;
  S.Warnings = R.Warnings;
  S.Notes = R.Notes;
  S.ReachableNodes = R.ReachableNodes;
  S.ExtReachableNodes = R.ExtReachableNodes;
  S.LiveIndirectOuts = R.LiveIndirectOuts;
  S.Procs = R.Procs;
  S.ReachableProcs = R.ReachableProcs;
  S.ParseComplete = R.ParseComplete;
}

IncrementalLinter::Summary IncrementalLinter::summaryOf(const State &S,
                                                        bool Fast) const {
  Summary Sum;
  Sum.ParseComplete = S.ParseComplete;
  Sum.FastPath = Fast;
  Sum.Errors = S.Errors;
  Sum.Warnings = S.Warnings;
  Sum.Notes = S.Notes;
  return Sum;
}

IncrementalLinter::Summary IncrementalLinter::open(incr::ImageId Id,
                                                   const uint8_t *Code,
                                                   uint32_t Size,
                                                   uint32_t ChunkBytes) {
  if (ChunkBytes == 0 || ChunkBytes % core::BundleSize != 0)
    throw std::invalid_argument("lint chunk granularity must be a nonzero "
                                "multiple of the bundle size");
  CfgLintResult R = lintImage(Tables, Code, Size, Met);
  State &S = States[Id];
  rebuildState(S, R, Size, ChunkBytes);
  S.Valid = R.ParseComplete && R.Errors == 0;
  return summaryOf(S, false);
}

IncrementalLinter::Summary IncrementalLinter::fullRelint(State &S,
                                                         incr::ImageId,
                                                         const uint8_t *Code,
                                                         uint32_t Size,
                                                         bool Accepted) {
  CfgLintResult R = lintImage(Tables, Code, Size, Met);
  rebuildState(S, R, Size, S.ChunkBytes);
  S.Valid = Accepted && R.ParseComplete && R.Errors == 0;
  return summaryOf(S, false);
}

IncrementalLinter::Summary
IncrementalLinter::relint(incr::ImageId Id, const uint8_t *Code, uint32_t Size,
                          const incr::IncrResult &R) {
  auto It = States.find(Id);
  if (It == States.end())
    throw std::invalid_argument("unknown image handle");
  State &S = It->second;
  if (Met)
    Met->LintIncrRelints.add();
  if (!R.Ok || !R.Spliced || !S.Valid || Size != S.Size)
    return fullRelint(S, Id, Code, Size, R.Ok);

  const uint32_t CB = S.ChunkBytes;

  // Plan every window before touching any state: re-derive its nodes
  // from the new bytes, locate what it replaces, and decide fast-path
  // eligibility. Any surprise (the maintained chain out of step with a
  // window edge) falls back to the full path with the state untouched.
  struct WinPlan {
    uint32_t Begin = 0, End = 0;
    std::vector<CfgNode> NewNodes;
    uint8_t EntryReach = 0, EntryExt = 0;
    uint32_t EntryGuard = kGuardUnknown;
    uint32_t OldNodes = 0, OldReach = 0, OldExt = 0, OldDiags = 0;
    bool Fast = false;
  };
  std::vector<WinPlan> Plans;
  Plans.reserve(R.Windows.size());
  bool AllFast = true;

  for (const incr::SpliceWindow &W : R.Windows) {
    if (W.Begin >= W.End)
      continue;
    WinPlan P;
    P.Begin = W.Begin;
    P.End = W.End;

    bool NewNcf = true;
    uint32_t Pos = W.Begin;
    while (Pos < W.End) {
      CfgNode N;
      N.Begin = Pos;
      uint32_t Dest = 0;
      N.Kind = core::verifyStep(Tables, Code, &Pos, Size, &Dest);
      if (N.Kind == StepKind::Fail)
        return fullRelint(S, Id, Code, Size, true);
      N.End = Pos;
      if (N.Kind == StepKind::DirectJump) {
        N.HasTarget = true;
        N.Target = Dest;
      }
      classifyCfgNode(N, Code);
      if (N.Kind != StepKind::NoControlFlow)
        NewNcf = false;
      P.NewNodes.push_back(N);
    }
    if (Pos != W.End)
      return fullRelint(S, Id, Code, Size, true); // overshot the window

    // Walk the replaced old nodes/diags, capturing the entry values
    // (the first replaced node's stored analysis results — valid as
    // entry values because everything feeding the window is unchanged).
    uint32_t FirstC = W.Begin / CB;
    uint32_t LastC = (W.End - 1) / CB;
    bool OldNcf = true, DiagsAllNotes = true, First = true;
    for (uint32_t C = FirstC; C <= LastC && C < S.Chunks.size(); ++C) {
      const ChunkLint &Ch = S.Chunks[C];
      for (size_t I = 0; I < Ch.Nodes.size(); ++I) {
        const CfgNode &N = Ch.Nodes[I];
        if (N.Begin < W.Begin)
          continue;
        if (N.Begin >= W.End)
          break;
        if (First) {
          if (N.Begin != W.Begin)
            return fullRelint(S, Id, Code, Size, true);
          P.EntryReach = Ch.Reach[I];
          P.EntryExt = Ch.Ext[I];
          P.EntryGuard = Ch.Guard[I];
          First = false;
        }
        if (N.Kind != StepKind::NoControlFlow)
          OldNcf = false;
        ++P.OldNodes;
        P.OldReach += Ch.Reach[I];
        P.OldExt += Ch.Ext[I];
      }
      for (const LintDiag &D : Ch.Diags) {
        if (D.Offset < W.Begin)
          continue;
        if (D.Offset >= W.End)
          break;
        if (D.Sev != LintSeverity::Note)
          DiagsAllNotes = false;
        ++P.OldDiags;
      }
    }
    if (First)
      return fullRelint(S, Id, Code, Size, true); // no node at window start

    P.Fast = NewNcf && OldNcf && DiagsAllNotes && !W.InteriorTargetsBefore &&
             !W.InteriorTargetsAfter;
    if (!P.Fast)
      AllFast = false;
    Plans.push_back(std::move(P));
  }

  if (!AllFast) {
    // Middle path: splice the maintained node list (no chain re-scan of
    // untouched regions) and re-run the full pass pipeline over it.
    RecoveredCfg Cfg;
    Cfg.ParseComplete = true;
    Cfg.ParsedEnd = Size;
    Cfg.Nodes.reserve(size_t(S.NodeCount));
    size_t Wi = 0;
    for (const ChunkLint &Ch : S.Chunks)
      for (const CfgNode &N : Ch.Nodes) {
        while (Wi < Plans.size() && Plans[Wi].End <= N.Begin) {
          for (const CfgNode &NN : Plans[Wi].NewNodes)
            Cfg.Nodes.push_back(NN);
          ++Wi;
        }
        if (Wi < Plans.size() && N.Begin >= Plans[Wi].Begin &&
            N.Begin < Plans[Wi].End)
          continue; // replaced by the window
        Cfg.Nodes.push_back(N);
      }
    while (Wi < Plans.size()) {
      for (const CfgNode &NN : Plans[Wi].NewNodes)
        Cfg.Nodes.push_back(NN);
      ++Wi;
    }
    CfgLintResult Full = lintCfg(std::move(Cfg), Size, Met);
    rebuildState(S, Full, Size, CB);
    S.Valid = true;
    return summaryOf(S, false);
  }

  // Fast path: every window is a straight-line corridor on both sides
  // with no branches in. Entry values propagate unchanged through it
  // (the only In contributions are the fallthrough and, at bundle
  // starts when a live indirect out exists, the computed-entry hub),
  // and the only window-owned diagnostics are unreachable-bundle notes.
  for (WinPlan &P : Plans) {
    const bool LiveHub = S.LiveIndirectOuts > 0;
    const size_t NN = P.NewNodes.size();
    std::vector<uint8_t> NewExt(NN);
    std::vector<uint32_t> NewGuard(NN);
    uint8_t Ext = P.EntryExt;
    uint32_t Gd = P.EntryGuard;
    uint32_t NewExtSum = 0;
    for (size_t I = 0; I < NN; ++I) {
      if (I && LiveHub && P.NewNodes[I].Begin % core::BundleSize == 0) {
        Ext = 1;
        Gd = meetGuard(Gd, kGuardNone);
      }
      NewExt[I] = Ext;
      NewGuard[I] = Gd;
      NewExtSum += Ext;
    }
    const uint32_t NewReachSum = P.EntryReach ? uint32_t(NN) : 0;

    std::vector<LintDiag> NewDiags;
    if (!P.EntryReach)
      for (uint32_t B = (P.Begin + core::BundleSize - 1) &
                        ~uint32_t(core::BundleSize - 1);
           B < P.End; B += core::BundleSize)
        NewDiags.push_back(unreachableBundleDiag(B, S.LiveIndirectOuts));

    // Swap the window's contribution into the chunked state.
    uint32_t FirstC = P.Begin / CB;
    uint32_t LastC = (P.End - 1) / CB;
    size_t NI = 0, DI = 0;
    for (uint32_t C = FirstC; C <= LastC && C < S.Chunks.size(); ++C) {
      ChunkLint &Ch = S.Chunks[C];
      ChunkLint Next;
      size_t Keep = 0;
      while (Keep < Ch.Nodes.size() && Ch.Nodes[Keep].Begin < P.Begin)
        ++Keep;
      Next.Nodes.assign(Ch.Nodes.begin(), Ch.Nodes.begin() + Keep);
      Next.Reach.assign(Ch.Reach.begin(), Ch.Reach.begin() + Keep);
      Next.Ext.assign(Ch.Ext.begin(), Ch.Ext.begin() + Keep);
      Next.Guard.assign(Ch.Guard.begin(), Ch.Guard.begin() + Keep);
      uint64_t ChunkEnd = uint64_t(C + 1) * CB;
      while (NI < NN && P.NewNodes[NI].Begin < ChunkEnd) {
        Next.Nodes.push_back(P.NewNodes[NI]);
        Next.Reach.push_back(P.EntryReach);
        Next.Ext.push_back(NewExt[NI]);
        Next.Guard.push_back(NewGuard[NI]);
        ++NI;
      }
      for (size_t I = Keep; I < Ch.Nodes.size(); ++I)
        if (Ch.Nodes[I].Begin >= P.End) {
          Next.Nodes.push_back(Ch.Nodes[I]);
          Next.Reach.push_back(Ch.Reach[I]);
          Next.Ext.push_back(Ch.Ext[I]);
          Next.Guard.push_back(Ch.Guard[I]);
        }
      size_t KeepD = 0;
      while (KeepD < Ch.Diags.size() && Ch.Diags[KeepD].Offset < P.Begin)
        ++KeepD;
      Next.Diags.assign(Ch.Diags.begin(), Ch.Diags.begin() + KeepD);
      while (DI < NewDiags.size() && NewDiags[DI].Offset < ChunkEnd)
        Next.Diags.push_back(std::move(NewDiags[DI++]));
      for (size_t I = KeepD; I < Ch.Diags.size(); ++I)
        if (Ch.Diags[I].Offset >= P.End)
          Next.Diags.push_back(Ch.Diags[I]);
      Ch = std::move(Next);
    }

    S.NodeCount = S.NodeCount + NN - P.OldNodes;
    S.ReachableNodes = S.ReachableNodes - P.OldReach + NewReachSum;
    S.ExtReachableNodes = S.ExtReachableNodes - P.OldExt + NewExtSum;
    S.Notes = S.Notes - P.OldDiags + uint32_t(NewDiags.size());
  }
  if (Met)
    Met->LintIncrFastPath.add();
  return summaryOf(S, true);
}

std::string IncrementalLinter::render(incr::ImageId Id) const {
  auto It = States.find(Id);
  if (It == States.end())
    throw std::invalid_argument("unknown image handle");
  const State &S = It->second;
  std::string Out;
  for (const ChunkLint &Ch : S.Chunks)
    for (const LintDiag &D : Ch.Diags)
      renderLintDiagLine(Out, D);
  renderLintSummaryLine(Out, size_t(S.NodeCount), S.ReachableNodes,
                        S.ExtReachableNodes, S.ReachableProcs, S.Procs,
                        S.Errors, S.Warnings, S.Notes, S.ParseComplete);
  return Out;
}

CfgLintResult IncrementalLinter::snapshot(incr::ImageId Id) const {
  auto It = States.find(Id);
  if (It == States.end())
    throw std::invalid_argument("unknown image handle");
  const State &S = It->second;
  CfgLintResult R;
  R.ParseComplete = S.ParseComplete;
  R.Nodes.reserve(size_t(S.NodeCount));
  for (const ChunkLint &Ch : S.Chunks) {
    R.Nodes.insert(R.Nodes.end(), Ch.Nodes.begin(), Ch.Nodes.end());
    R.Reachable.insert(R.Reachable.end(), Ch.Reach.begin(), Ch.Reach.end());
    R.ExtReachable.insert(R.ExtReachable.end(), Ch.Ext.begin(), Ch.Ext.end());
    R.Guard.insert(R.Guard.end(), Ch.Guard.begin(), Ch.Guard.end());
    R.Diags.insert(R.Diags.end(), Ch.Diags.begin(), Ch.Diags.end());
  }
  R.Errors = S.Errors;
  R.Warnings = S.Warnings;
  R.Notes = S.Notes;
  R.ReachableNodes = S.ReachableNodes;
  R.ExtReachableNodes = S.ExtReachableNodes;
  R.LiveIndirectOuts = S.LiveIndirectOuts;
  R.Procs = S.Procs;
  R.ReachableProcs = S.ReachableProcs;
  return R;
}

void IncrementalLinter::close(incr::ImageId Id) { States.erase(Id); }
