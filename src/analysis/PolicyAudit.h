//===- analysis/PolicyAudit.h - Meta-verification of the checker -*- C++ -*-===//
///
/// \file
/// Static analysis of the checker's own artifacts: the properties the
/// paper proves in Coq *about* the three policy grammars (sections 3.2
/// and 4.1), re-verified here as executable, counterexample-producing
/// decision procedures over the shipped DFA tables. Where a Coq lemma
/// certifies the construction, this audit certifies the artifact — a
/// regenerated, hand-patched, or bit-rotted table fails with a concrete
/// byte string, not a proof obligation.
///
/// Obligations (each maps to a finding by name):
///
///  * disjoint(X, Y)      — the three policy languages are pairwise
///                          disjoint, so the Figure-5 match chain's
///                          try-order (MaskedJump, NoControlFlow,
///                          DirectJump) can never silently reclassify a
///                          whole match (the paper's grammar-disjointness
///                          side condition);
///  * decodes(X)          — every string a policy DFA accepts lies inside
///                          the decodable x86 language (the stripped full
///                          decoder grammar; MaskedJump, which spans two
///                          instructions, is checked against the
///                          two-instruction language). Catches
///                          policy/decoder drift when either side is
///                          edited alone;
///  * health(X)           — the table's accept/reject classification is
///                          exact: every state reachable, every dead
///                          state flagged (dfaMatch bails as early as
///                          possible), no live state flagged (no viable
///                          prefix abandoned), reject states closed;
///  * minimize-preserves(X) — Hopcroft minimization of the table is
///                          language-equivalent to it (certifies the
///                          minimized state counts reported below);
///  * state-bound         — the largest minimized policy DFA stays within
///                          the paper's 61-state claim;
///  * fused-classes       — every byte class the verify lanes branch on
///                          (core::FusedPolicy: the sweep's exceptional
///                          bytes, the MaskedJump gate, the 0F escape,
///                          restart rows) licenses only shortcuts the
///                          three Figure-6 walks also take, for every
///                          suffix, judged by the tables' live states.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_ANALYSIS_POLICYAUDIT_H
#define ROCKSALT_ANALYSIS_POLICYAUDIT_H

#include "core/Policy.h"
#include "regex/Algebra.h"

#include <string>
#include <string_view>
#include <vector>

namespace rocksalt {
namespace analysis {

/// The paper's reported ceiling on policy DFA size (section 3.2: "the
/// largest DFA has 61 states").
constexpr uint32_t PaperMaxPolicyStates = 61;

/// Reference DFAs for a decodable instruction language, built from a
/// stripped top-level decoder grammar (prefixes included for x86).
struct DecoderDfas {
  re::Dfa One;  ///< exactly one instruction
  re::Dfa Pair; ///< exactly two instructions (masked-jump shape)
};

/// Builds both reference DFAs from x86::x86Grammars().Full.
DecoderDfas buildDecoderDfas();

/// Builds both reference DFAs from the MIPS decoder grammar
/// (mips::mipsDecoderRegex) — the audit itself is ISA-generic, only
/// the decoder references differ.
DecoderDfas buildMipsDecoderDfas();

/// One audit obligation's outcome.
struct AuditFinding {
  std::string Check;            ///< e.g. "disjoint(NoControlFlow,DirectJump)"
  bool Pass = false;
  std::string Detail;           ///< human-readable explanation
  std::vector<uint8_t> Witness; ///< counterexample byte string (on failure)
  /// The counterexample *family*: up to 3 shortest members of the
  /// offending product language in length-then-lex order (the first, when
  /// present, equals Witness). One witness shows that an obligation
  /// fails; the family shows the shape of the violation class.
  std::vector<std::vector<uint8_t>> Family;
};

/// Per-table structural statistics.
struct TableStats {
  std::string Name;
  uint32_t RawStates = 0;
  uint32_t MinStates = 0;
  re::DfaHealth Health;
};

struct AuditReport {
  bool Pass = false; ///< conjunction of all findings
  std::vector<AuditFinding> Findings;
  std::vector<TableStats> Tables;
  uint32_t LargestMinimized = 0;
  double WallMs = 0;

  /// Finding lookup by check name (nullptr when absent).
  const AuditFinding *find(std::string_view Check) const;

  /// Renders the full report (stats table + one line per finding).
  std::string render() const;
};

/// Audits an arbitrary set of policy tables against the given decoder
/// references. Tests feed deliberately corrupted tables through this to
/// prove the analyses produce correct witnesses.
AuditReport auditPolicy(const core::PolicyTables &T, const DecoderDfas &X);

/// Audits the shipped tables (core::policyTables()) against freshly
/// built decoder references. This is the CI gate.
AuditReport auditShippedPolicy();

/// Audits the registry's MIPS tables (mips::mipsTableEntry()) against
/// the MIPS decoder references — the same 14 obligations as x86
/// (`mips_meta_audit` gate).
AuditReport auditMipsPolicy();

/// Hex rendering of a witness byte string ("70 00").
std::string hexBytes(const std::vector<uint8_t> &Bytes);

} // namespace analysis
} // namespace rocksalt

#endif // ROCKSALT_ANALYSIS_POLICYAUDIT_H
