//===- regex/FusedTables.h - Fused cache-resident DFA tables ---*- C++ -*-===//
///
/// \file
/// Flattens a family of small DFAs (the three policy tables: 42 + 8 + 25
/// = 75 states) into ONE contiguous, cache-resident transition array
/// with 8-bit state ids. The verifier's per-byte inner loop then walks a
/// single 256-byte row per state instead of chasing a
/// `vector<array<uint16_t,256>>` per table: the whole fused transition
/// array is 75 x 256 = 18.75 KiB — it fits in L1 — where the legacy
/// layout spends 37.5 KiB across three separately-allocated vectors.
///
/// The fusion is a *renumbering plus layout* change only. Every sub-DFA
/// keeps its own start state and its exact transition/accept/reject
/// structure under the id map (`id(sub, local)`); a fused match from
/// sub-DFA k's start is certified bit-identical to `core::dfaMatch`
/// over the source table (tests/fused_tables_test.cpp and the fuzz
/// harness's fused-vs-legacy differential).
///
/// Two precomputed acceleration structures ride on the fused form,
/// both exact (never heuristic), plus the byte classes callers derive:
///
///  * **class-ordered ids**: fused states are numbered continue states
///    first, then accepting states, then rejecting states, so the
///    per-byte accept/reject test is a register compare against
///    `AcceptBase`/`RejectBase` instead of a second dependent load from
///    a flags array — the inner loop's serial chain is exactly one L1
///    load per byte;
///
///  * **restart rows**: no matcher ever steps OUT of an accept or
///    reject state (dfaMatch and fusedMatch both return the moment they
///    land in one), so accepting states' rows are semantically dead —
///    each is rewritten into a copy of its sub-DFA's start row. A
///    streaming scanner (the verifier's NoControlFlow sweep) then walks
///    straight through instruction boundaries: the load from an accept
///    state's row IS the restart, with no select or branch on the
///    loop-carried path. Reject rows keep their source mirror;
///
///  * callers (core/Policy.h) derive per-byte chain classes from the
///    start-state rows — see `core::FusedPolicy`'s exceptional-byte
///    class.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_REGEX_FUSEDTABLES_H
#define ROCKSALT_REGEX_FUSEDTABLES_H

#include "regex/Dfa.h"

#include <cstdint>
#include <vector>

namespace rocksalt {
namespace re {

/// Fused per-state flags (mirrors Dfa::Accepts / Dfa::Rejects).
constexpr uint8_t FusedAccept = 1;
constexpr uint8_t FusedReject = 2;

/// The hard ceiling on fused states: ids live in uint8_t cells.
constexpr uint32_t MaxFusedStates = 256;

/// A family of DFAs flattened into one transition array. State ids are
/// globally renumbered by behavioral class — ids in [0, AcceptBase) are
/// continue states, [AcceptBase, RejectBase) accepting, and
/// [RejectBase, NumStates) rejecting (a state carrying both source
/// flags classifies as rejecting, matching dfaMatch's reject-first
/// check order). Sub-DFA k's local state s maps to fused id
/// `Ids[Offsets[k] + s]`.
struct FusedTables {
  /// Row-major transitions: Trans[state * 256 + byte] -> next fused id.
  /// Continue and reject rows mirror the source tables under the id
  /// map; each ACCEPT state's row is a copy of its sub-DFA's start row
  /// (the "restart row" — its source row is unreachable by any matcher,
  /// which return on accept before ever stepping again).
  std::vector<uint8_t> Trans;
  /// FusedAccept / FusedReject bits per fused state — the raw source
  /// mirror, kept for derivations and validation; the hot path uses the
  /// id ranges instead.
  std::vector<uint8_t> Flags;
  /// Fused start id of each source DFA, in fusion order.
  std::vector<uint8_t> Starts;
  /// Index of sub-DFA k's block within Ids: fused id of local state s
  /// is Ids[Offsets[k] + s].
  std::vector<uint32_t> Offsets;
  /// Local-to-fused id map, all sub-DFAs concatenated in fusion order.
  std::vector<uint8_t> Ids;
  /// First accepting id / first rejecting id (class boundaries).
  uint32_t AcceptBase = 0;
  uint32_t RejectBase = 0;
  uint32_t NumStates = 0;

  uint8_t id(unsigned Sub, uint32_t Local) const {
    return Ids[Offsets[Sub] + Local];
  }
  uint8_t step(uint8_t State, uint8_t Byte) const {
    return Trans[(uint32_t(State) << 8) | Byte];
  }
  /// Behavioral accept: true iff dfaMatch would return success in this
  /// state (accepting and not rejecting — reject wins ties).
  bool accepts(uint8_t State) const {
    return State >= AcceptBase && State < RejectBase;
  }
  bool rejects(uint8_t State) const { return State >= RejectBase; }
};

/// Fuses \p Dfas (in order) into one flat table. Validates that every
/// transition target is in range and that the combined state count fits
/// 8-bit ids; throws std::length_error / std::invalid_argument
/// otherwise. Deterministic: identical inputs produce identical arrays.
FusedTables fuseDfas(const std::vector<const Dfa *> &Dfas);

/// Figure-6 `dfaMatch` over the fused layout, from sub-DFA \p Sub's
/// start: executes transitions over Code[*Pos..Size); on an accept
/// advances *Pos past the shortest accepted prefix and returns true; on
/// a reject state or exhaustion leaves *Pos unchanged and returns
/// false. Bit-identical decisions to core::dfaMatch on the source
/// table. The serial dependence per byte is the single Trans load —
/// accept/reject resolve by comparing the id against the class bases.
inline bool fusedMatch(const FusedTables &F, unsigned Sub,
                       const uint8_t *Code, uint32_t *Pos, uint32_t Size) {
  const uint8_t *Tr = F.Trans.data();
  const uint32_t AB = F.AcceptBase, RB = F.RejectBase;
  uint32_t S = F.Starts[Sub];
  uint32_t P = *Pos;
  uint32_t Off = 0;

  while (P + Off < Size) {
    S = Tr[(S << 8) | Code[P + Off]];
    ++Off;
    if (S >= AB) {
      if (S >= RB)
        return false;
      *Pos = P + Off;
      return true;
    }
  }
  return false;
}

} // namespace re
} // namespace rocksalt

#endif // ROCKSALT_REGEX_FUSEDTABLES_H
