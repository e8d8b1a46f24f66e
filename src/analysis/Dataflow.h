//===- analysis/Dataflow.h - Whole-image dataflow over the CFG -*- C++ -*-===//
///
/// \file
/// A worklist fixpoint engine over the CFG that `analysis/CfgLint.h`
/// recovers from the Figure-5 match chain, plus the concrete passes that
/// turn the lint from single-pass heuristics into real static analysis:
///
///  * **extended reachability** — direct flow from the image entry plus
///    the computed-transfer closure (once any reachable node performs a
///    masked indirect transfer, every bundle start is a live target, so
///    reachability must be iterated through that "hub" to a fixpoint);
///  * **indirect-target liveness** — how many live computed transfers
///    exist, which decides whether a direct-flow-unreachable bundle is
///    still enterable or genuinely dead;
///  * **reaching-mask analysis** — a forward must-analysis computing, per
///    node, the masked-pair guard that dominates it (or that no single
///    guard does), meeting in the unguarded indirect entry at every
///    bundle start whenever a live indirect transfer exists;
///  * **call-graph recovery** — procedures from direct-call targets,
///    SCC-condensed call edges, and interprocedural reachability.
///
/// The same passes run over nodes recovered three ways — the sequential
/// chain re-scan, the shard scan/merge bitmaps of `core::Shard`, and the
/// incremental verifier's spliced match chain — and the three paths are
/// held bit-identical by the `fuzz_differential --lint` gate. The
/// incremental path (`IncrementalLinter`) re-lints a patched image in
/// O(patch window): lint state is kept chunked alongside the verifier's
/// chunk geometry, and an accepted splice whose windows are pure
/// straight-line corridors (no control flow in or out, before or after)
/// updates only those chunks' nodes and diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_ANALYSIS_DATAFLOW_H
#define ROCKSALT_ANALYSIS_DATAFLOW_H

#include "analysis/CfgLint.h"
#include "incr/IncrementalVerifier.h"

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace rocksalt {
namespace analysis {

//===----------------------------------------------------------------------===//
// CFG adjacency
//===----------------------------------------------------------------------===//

/// Successor/predecessor structure over recovered nodes. Edges are the
/// direct-flow edges of the lint CFG: fallthrough to the next node in
/// address order, and the direct-branch edge when the target is a node
/// start. Computed transfers contribute no edges here — the passes model
/// them through the bundle-start hub instead.
class CfgGraph {
public:
  static constexpr uint32_t kNoNode = UINT32_MAX;

  CfgGraph(const std::vector<CfgNode> &Nodes, uint32_t Size);

  uint32_t numNodes() const { return uint32_t(NodesRef->size()); }
  const std::vector<CfgNode> &nodes() const { return *NodesRef; }

  /// Node index starting at \p Offset, or kNoNode.
  uint32_t nodeAt(uint32_t Offset) const {
    return Offset < NodeAt.size() ? NodeAt[Offset] : kNoNode;
  }

  /// Writes the successors of node \p I into \p Out (at most 2) and
  /// returns how many there are.
  unsigned succs(uint32_t I, uint32_t Out[2]) const;

  /// Predecessors of node \p I (CSR form, built on construction).
  std::pair<const uint32_t *, const uint32_t *> preds(uint32_t I) const {
    return {PredLst.data() + PredOff[I], PredLst.data() + PredOff[I + 1]};
  }

private:
  const std::vector<CfgNode> *NodesRef;
  std::vector<uint32_t> NodeAt;  ///< offset -> node index
  std::vector<uint32_t> PredOff; ///< CSR offsets, numNodes()+1
  std::vector<uint32_t> PredLst; ///< CSR predecessor lists
};

//===----------------------------------------------------------------------===//
// The generic worklist engine
//===----------------------------------------------------------------------===//

enum class DataflowDir : uint8_t { Forward, Backward };

/// Fixpoint solution: per-node In/Out values and the number of transfer
/// evaluations the worklist performed (an effort metric for tests).
template <typename Lattice> struct DataflowResult {
  std::vector<typename Lattice::Value> In, Out;
  uint64_t Steps = 0;
};

/// Solves a dataflow problem over \p G to fixpoint. The lattice supplies
///   Value   bottom()                     — the identity of join
///   Value   boundary(uint32_t Node)      — extra In contribution (the
///                                          entry seed / indirect entry)
///   bool    join(Value &Dst, Value Src)  — Dst ⊔= Src, true iff changed
///   Value   transfer(uint32_t N, Value)  — the node transfer function
/// Direction selects which adjacency feeds In: predecessors' Out for
/// Forward, successors' Out for Backward. Join may be a meet — the
/// engine only requires monotonicity over a finite-height order.
template <typename Lattice>
DataflowResult<Lattice> runDataflow(const CfgGraph &G, Lattice &L,
                                    DataflowDir Dir) {
  const uint32_t N = G.numNodes();
  DataflowResult<Lattice> R;
  R.In.assign(N, L.bottom());
  R.Out.assign(N, L.bottom());
  if (!N)
    return R;

  std::deque<uint32_t> Work;
  std::vector<uint8_t> Queued(N, 1);
  for (uint32_t I = 0; I < N; ++I)
    Work.push_back(Dir == DataflowDir::Forward ? I : N - 1 - I);

  uint32_t Fan[2];
  while (!Work.empty()) {
    uint32_t I = Work.front();
    Work.pop_front();
    Queued[I] = 0;

    typename Lattice::Value In = L.boundary(I);
    if (Dir == DataflowDir::Forward) {
      auto [P, E] = G.preds(I);
      for (; P != E; ++P)
        L.join(In, R.Out[*P]);
    } else {
      unsigned NS = G.succs(I, Fan);
      for (unsigned S = 0; S < NS; ++S)
        L.join(In, R.Out[Fan[S]]);
    }
    R.In[I] = In;
    typename Lattice::Value Out = L.transfer(I, In);
    ++R.Steps;
    if (!L.join(R.Out[I], Out))
      continue;
    R.Out[I] = Out;

    if (Dir == DataflowDir::Forward) {
      unsigned NS = G.succs(I, Fan);
      for (unsigned S = 0; S < NS; ++S)
        if (!Queued[Fan[S]]) {
          Queued[Fan[S]] = 1;
          Work.push_back(Fan[S]);
        }
    } else {
      auto [P, E] = G.preds(I);
      for (; P != E; ++P)
        if (!Queued[*P]) {
          Queued[*P] = 1;
          Work.push_back(*P);
        }
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Concrete passes
//===----------------------------------------------------------------------===//

/// Extended reachability: Direct is the classic direct-flow DFS from
/// node 0; Ext adds the computed-transfer closure (every bundle-start
/// node becomes reachable once any ext-reachable node has an indirect
/// out, iterated to fixpoint — one extra engine run suffices, since the
/// hub fires at most once). LiveIndirectOuts counts the ext-reachable
/// indirect transfers: the image's live computed-transfer sources.
struct ReachInfo {
  std::vector<uint8_t> Direct;
  std::vector<uint8_t> Ext;
  uint32_t DirectCount = 0;
  uint32_t ExtCount = 0;
  uint32_t LiveIndirectOuts = 0;
};

ReachInfo reachability(const CfgGraph &G);

/// Reaching-mask lattice points that are not guard offsets.
constexpr uint32_t kGuardUnknown = 0xFFFFFFFFu; ///< no path reaches the node
constexpr uint32_t kGuardNone = 0xFFFFFFFEu;    ///< an unguarded path reaches
constexpr uint32_t kGuardMany = 0xFFFFFFFDu;    ///< conflicting guards meet

/// Forward must-analysis: for each node, the Begin offset of the masked
/// pair whose guard is in force after the node executes (a masked pair
/// installs its own Begin; everything else propagates), met across all
/// paths. Whenever the image has a live indirect transfer, every bundle
/// start additionally meets in kGuardNone — the unguarded computed
/// entry. Every masked pair's own jump is guarded by its own mask by
/// construction; the value is per-node metadata (surfaced through
/// --lint-json) rather than a new diagnostic.
std::vector<uint32_t> reachingMasks(const CfgGraph &G, const ReachInfo &R);

/// Recovered call graph: procedures are the address partition induced by
/// direct-call targets (plus the entry at offset 0); edges are direct
/// calls and intraprocedural flow that crosses a procedure boundary
/// (fallthrough or branch into another procedure's body). SCC
/// condensation makes interprocedural reachability a DAG walk seeded at
/// the entry procedure and at every procedure whose entry node is
/// ext-reachable (computed transfers can enter any aligned procedure).
struct CallGraphInfo {
  std::vector<uint32_t> ProcEntryNode; ///< per proc: entry node index
  std::vector<uint32_t> ProcOf;        ///< per node: owning proc
  std::vector<uint32_t> SccOf;         ///< per proc: condensation id
  std::vector<uint8_t> ProcReachable;  ///< per proc: interprocedurally live
  uint32_t NumSccs = 0;
  uint32_t ReachableProcs = 0;
};

CallGraphInfo recoverCallGraph(const CfgGraph &G, const ReachInfo &R);

//===----------------------------------------------------------------------===//
// Shared lint back half
//===----------------------------------------------------------------------===//

/// Nodes recovered by one of the three front ends, before analysis.
struct RecoveredCfg {
  std::vector<CfgNode> Nodes; ///< address order, tiling [0, ParsedEnd)
  bool ParseComplete = true;
  uint32_t ParsedEnd = 0; ///< where the chain stopped (Size when complete)
};

/// Fills the edge-shape fields of a just-matched node from its bytes
/// (fallthrough / call / indirect-out), shared by every node-recovery
/// front end.
void classifyCfgNode(CfgNode &N, const uint8_t *Code);

/// Sequential front end: re-runs the Figure-5 match chain.
RecoveredCfg recoverCfg(const core::PolicyTables &T, const uint8_t *Code,
                        uint32_t Size);

/// Shard front end: node boundaries from the Valid bitmap of a
/// shard scan/merge, pair detection from PairJmp, kinds and
/// branch targets re-derived from the bytes alone — an independent
/// re-derivation the differential lint gate compares against the
/// sequential front end.
RecoveredCfg cfgFromCheck(const uint8_t *Code, uint32_t Size,
                          const core::CheckResult &C);

/// The shared back half of every lint path: runs the passes above over
/// \p Cfg and emits the severity-graded diagnostics. All three lint
/// front ends funnel here, which is what makes their results comparable
/// bit-for-bit. Timing of the pass pipeline is recorded into
/// \p M->AnalysisDataflowNanos when \p M is non-null.
CfgLintResult lintCfg(RecoveredCfg &&Cfg, uint32_t Size, svc::Metrics *M);

/// Whole-image lint derived from the shard scan/join of core/Shard
/// (\p NumShards fresh shard scans, concatenated when in sync and
/// checked whole otherwise), then `cfgFromCheck` and the shared back
/// half. Bit-identical to `lintImage` over the tables \p P was fused
/// from, on every input. No production path calls it: it is the
/// `lint_differential` gate's leg that carries `cfgFromCheck`, the
/// independent CFG re-derivation held against `recoverCfg`.
CfgLintResult lintImageFromShards(const core::FusedPolicy &P,
                                  const uint8_t *Code, uint32_t Size,
                                  uint32_t NumShards,
                                  svc::Metrics *M = nullptr);

//===----------------------------------------------------------------------===//
// Incremental lint
//===----------------------------------------------------------------------===//

/// O(patch-window) re-lint of images maintained by an
/// `incr::IncrementalVerifier`. Lint state is chunked on the verifier's
/// chunk geometry: per chunk, the nodes beginning inside it, their
/// reachability / guard metadata, and the diagnostics anchored inside
/// it. After an accepted spliced re-verification, each splice window is
/// examined:
///
///  * **fast path** — the window was a pure straight-line corridor both
///    before and after the patch (every replaced and replacement node is
///    NoControlFlow, and no direct branch targets the window interior on
///    either side). Then nothing outside the window can change: the
///    corridor's entry reachability and guard propagate unchanged
///    through it, the only in-window diagnostics are unreachable-bundle
///    notes, and the update is O(window).
///  * **middle path** — some window has control flow: the maintained
///    nodes are spliced and the full pass pipeline re-runs over them
///    (no chain re-scan, so still cheaper than a fresh lint).
///  * **full path** — no maintained state or a rejected verdict: fresh
///    `lintImage`, state rebuilt from its result.
///
/// Every path produces verdicts (diags, counts, render) bit-identical
/// to a fresh `lintImage` on the image's current bytes — the
/// `lint_differential` gate holds all three to that.
///
/// Not thread-safe; one instance per session, beside its verifier.
class IncrementalLinter {
public:
  explicit IncrementalLinter(const core::PolicyTables &T,
                             svc::Metrics *M = nullptr)
      : Tables(T), Met(M) {}

  IncrementalLinter(const IncrementalLinter &) = delete;
  IncrementalLinter &operator=(const IncrementalLinter &) = delete;

  /// Summary of one (re-)lint, O(1) to return; the full result is
  /// materialized on demand by `snapshot` and `render`.
  struct Summary {
    bool ParseComplete = false;
    bool FastPath = false; ///< all windows took the O(window) path
    uint32_t Errors = 0, Warnings = 0, Notes = 0;
  };

  /// Full lint of a freshly opened image; captures chunked state.
  /// \p ChunkBytes must match the verifier's geometry for the image.
  Summary open(incr::ImageId Id, const uint8_t *Code, uint32_t Size,
               uint32_t ChunkBytes);

  /// Re-lints after a patch, given the verifier's result for it.
  Summary relint(incr::ImageId Id, const uint8_t *Code, uint32_t Size,
                 const incr::IncrResult &R);

  /// Renders exactly what `lintImage(...).render()` would print for the
  /// image's current bytes — O(diagnostics), not O(image).
  std::string render(incr::ImageId Id) const;

  /// Materializes the maintained state as a full CfgLintResult
  /// (O(image); the differential gate's comparison form).
  CfgLintResult snapshot(incr::ImageId Id) const;

  void close(incr::ImageId Id);
  bool tracks(incr::ImageId Id) const { return States.count(Id) != 0; }

private:
  struct ChunkLint {
    std::vector<CfgNode> Nodes;  ///< nodes with Begin inside the chunk
    std::vector<uint8_t> Reach;  ///< per node: direct-flow reachable
    std::vector<uint8_t> Ext;    ///< per node: ext-reachable
    std::vector<uint32_t> Guard; ///< per node: reaching-mask Out value
    std::vector<LintDiag> Diags; ///< diags with Offset inside the chunk
  };
  struct State {
    bool Valid = false; ///< chunked state mirrors an accepted image
    uint32_t Size = 0, ChunkBytes = 0;
    std::vector<ChunkLint> Chunks;
    // Maintained aggregate counts (the summary line's inputs).
    uint64_t NodeCount = 0;
    uint32_t Errors = 0, Warnings = 0, Notes = 0;
    uint32_t ReachableNodes = 0, ExtReachableNodes = 0;
    uint32_t LiveIndirectOuts = 0;
    uint32_t Procs = 0, ReachableProcs = 0;
    bool ParseComplete = false;
  };

  Summary fullRelint(State &S, incr::ImageId Id, const uint8_t *Code,
                     uint32_t Size, bool Accepted);
  void rebuildState(State &S, const CfgLintResult &R, uint32_t Size,
                    uint32_t ChunkBytes);
  Summary summaryOf(const State &S, bool Fast) const;

  const core::PolicyTables &Tables;
  svc::Metrics *Met;
  std::unordered_map<incr::ImageId, State> States;
};

} // namespace analysis
} // namespace rocksalt

#endif // ROCKSALT_ANALYSIS_DATAFLOW_H
