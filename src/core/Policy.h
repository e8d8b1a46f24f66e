//===- core/Policy.h - The NaCl sandbox policy grammars --------*- C++ -*-===//
///
/// \file
/// The declarative heart of RockSalt (paper section 3.2): the aligned
/// NaCl sandbox policy is captured by three grammars, reusing the decoder
/// DSL, and compiled offline to DFA tables. The verifier's trusted core
/// (core/Verifier.h) then consists of those tables plus a few tens of
/// lines of table-walking code.
///
///  * MaskedJump — the two-instruction "nacljmp": AND r, $-32 followed
///    immediately by JMP/CALL *r through the same register (ESP
///    excluded), transliterated from the paper's nacl_MASK_p /
///    nacl_JMP_p / nacl_CALL_p definitions;
///  * DirectJump — JMP rel8/rel32, Jcc rel8/rel32, CALL rel32;
///  * NoControlFlow — the legal straight-line instructions, with the
///    prefix discipline NaCl allows (operand-size override on data ops,
///    rep on string ops, lock on memory read-modify-writes; segment
///    overrides are always rejected).
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_CORE_POLICY_H
#define ROCKSALT_CORE_POLICY_H

#include "regex/Dfa.h"
#include "regex/FusedTables.h"
#include "x86/Grammars.h"

#include <array>
#include <string_view>

namespace rocksalt {
namespace core {

/// The bundle size of the aligned policy (the paper's 32).
constexpr uint32_t BundleSize = 32;

/// The mask immediate: AND r, 0xFFFFFFE0 keeps addresses bundle-aligned
/// (encoded as the sign-extended imm8 0xE0).
constexpr uint8_t SafeMaskByte = 0xE0;

/// Byte length of the jump half (JMP/CALL *r, FF /4 or FF /2) of a
/// masked-jump pair. The jump half is always the *last* two bytes of a
/// MaskedJump match, so its position is derived as (end of match) -
/// MaskedJumpHalfLen rather than (start of match) + (mask length) — the
/// mask half is free to grow without desynchronizing the PairJmp bitmap
/// (a guard test pins the current 3+2 shape).
constexpr uint32_t MaskedJumpHalfLen = 2;

/// The three policy grammars, still carrying semantic actions (useful for
/// the inversion-principle tests), plus their stripped regexes.
struct PolicyGrammars {
  gram::Grammar<x86::Instr> NoControlFlow;
  /// MaskedJump spans two instructions, so its semantic value is the pair
  /// (mask, jump); we expose only the stripped regex plus a recognizer.
  re::Regex NoControlFlowRe = nullptr;
  re::Regex DirectJumpRe = nullptr;
  re::Regex MaskedJumpRe = nullptr;
};

/// The generated DFA tables the trusted verifier core consumes.
struct PolicyTables {
  re::Dfa NoControlFlow;
  re::Dfa DirectJump;
  re::Dfa MaskedJump;
};

/// Exact state counts of the shipped (minimized, canonically
/// BFS-numbered) tables. Tests pin against these names rather than
/// magic numbers; buildPolicyTables() asserts them, so a grammar edit
/// that changes a table size fails loudly in one place.
constexpr uint32_t NoControlFlowStates = 42;
constexpr uint32_t DirectJumpStates = 8;
constexpr uint32_t MaskedJumpStates = 25;

/// Indices of the policy DFAs inside the fused transition array, in the
/// Figure-5 match-priority order (MaskedJump is tried first, then
/// NoControlFlow, then DirectJump).
enum FusedSub : unsigned {
  FusedMaskedJump = 0,
  FusedNoControlFlow = 1,
  FusedDirectJump = 2
};

/// The verify fast path's working set: the three policy DFAs fused into
/// one L1-resident 8-bit transition array (regex/FusedTables.h) plus
/// the per-byte chain-entry classes derived from the start-state rows.
///
/// SafeByte[b] is the *chain-safe* class — the self-loop byte set of
/// the virtual chain-start superstate: b is safe iff MaskedJump's first
/// transition on b is a reject AND NoControlFlow's first transition on
/// b is an accept. At any chain position whose byte is safe, the whole
/// Figure-5 step is decided by that byte alone: MaskedJump can never
/// match (dfaMatch dies on its first byte), NoControlFlow matches its
/// shortest prefix — exactly one byte — and DirectJump is never
/// consulted. The verify lanes do not read it; it only refines ExcByte
/// below (a safe byte is never exceptional).
///
/// MjAliveByte[b] complements it on the slow side: b keeps the
/// MaskedJump attempt alive (only the few mask-prefix bytes do), so the
/// chain step can skip the whole MaskedJump walk for every other byte.
///
/// ExcByte[b] is the *chain-exceptional* class driving the verify inner
/// loop's branchless NoControlFlow sweep: b is exceptional iff a chain
/// step starting on it could resolve as anything but a NoControlFlow
/// match. Non-exceptional (ExcByte[b] == 0) means MaskedJump's and
/// DirectJump's first transitions on b both reject (or b is safe, where
/// the one-byte NoControlFlow accept outranks DirectJump in the
/// Figure-5 order), so the step's verdict is exactly "NoControlFlow
/// match or whole-chain fail" and the sweep may walk the NoControlFlow
/// DFA alone, restarting on accept without consulting the other two
/// tables. ExcByte[b] == 2 is the second-byte-resolvable subclass: b
/// keeps only DirectJump alive, landing it in the shared Exc2State,
/// and Exc2Dead[b1] tells whether the actual second byte kills it (the
/// two-byte opcode prefix 0F on the shipped tables: only 0F 8x is a
/// jump, every other second byte is ordinary NoControlFlow). A start
/// with ExcByte 2 and a dead second byte stays in the sweep; 1 means
/// the full chain must run.
///
/// All classes are exact, derived from the tables — never heuristic —
/// which is why the fused engine stays bit-identical to the legacy one.
struct FusedPolicy {
  re::FusedTables F;
  std::array<uint8_t, 256> SafeByte{};
  std::array<uint8_t, 256> MjAliveByte{};
  std::array<uint8_t, 256> ExcByte{};
  std::array<uint8_t, 256> Exc2Dead{};
  uint32_t SafeCount = 0;    ///< |SafeByte|
  uint32_t MjAliveCount = 0; ///< |MjAliveByte|
  uint32_t ExcCount = 0;     ///< bytes with ExcByte != 0
  uint32_t Exc2Count = 0;    ///< bytes with ExcByte == 2
  /// Fused DirectJump state every ExcByte==2 start byte lands in (the
  /// one Exc2Dead is derived from); MaxFusedStates when the class is
  /// empty.
  uint32_t Exc2State = re::MaxFusedStates;
};

/// Fuses \p T into the verify fast path's layout. Deterministic; pure
/// table preprocessing (roughly 20 KiB of writes — microseconds).
FusedPolicy buildFusedPolicy(const PolicyTables &T);

/// The fused form of policyTables(): the default x86 registry entry's
/// Fused member (core/TableRegistry.h). Fused at registration time
/// from the exact tables policyTables() returns — the two can never
/// disagree, even after an adoptPolicyTables(). The production
/// verifier entry points all drive this instance.
const FusedPolicy &fusedPolicyTables();

/// Builds the policy grammars in \p F. (Regexes are interned in F, so the
/// factory must outlive the result.)
PolicyGrammars buildPolicyGrammars(re::Factory &F);

/// Compiles the policy DFAs by raw derivative closure, without
/// minimization — the historical shipped form, kept for the
/// differential gate certifying that minimization changed no verdict.
PolicyTables buildPolicyTablesRaw();

/// Compiles the shipped policy DFAs: derivative closure followed by
/// Hopcroft minimization with canonical BFS numbering, so identical
/// grammars always produce bit-identical tables. Deterministic; called
/// once and cached by the verifier.
PolicyTables buildPolicyTables();

/// Returns the default x86 tables — the x86/"nacl" entry of the
/// process-wide core::TableRegistry: the adopted instance when
/// adoptPolicyTables() registered first, else a lazily built one.
const PolicyTables &policyTables();

/// Parses, structure-checks, and hash-verifies an RSTB blob (e.g. one
/// served by the verification service's tables endpoint). When
/// \p ExpectHashHex is non-empty the blob's content address must equal
/// it exactly. The blob's ISA / policy-set tags must match
/// \p ExpectIsa / \p ExpectPolicySet (pass the MIPS tags to load a
/// MIPS blob; the defaults reject anything that is not x86/nacl at the
/// header). Throws std::runtime_error on any mismatch or corruption.
PolicyTables loadPolicyTables(const std::vector<uint8_t> &Blob,
                              std::string_view ExpectHashHex = {},
                              std::string_view ExpectIsa = "x86",
                              std::string_view ExpectPolicySet = "nacl");

/// Registers \p T as the (Isa, PolicySet) entry of the table registry,
/// letting a process that obtained tables by blob skip the per-process
/// grammar rebuild entirely. Succeeds (returns true) when the key is
/// free, or when it is already bound to tables with the same canonical
/// content hash (idempotent). Throws std::runtime_error — it never
/// silently loses the race with first use — when a *different* table
/// set is already registered and in use under that key.
bool adoptPolicyTables(PolicyTables T, std::string_view Isa = "x86",
                       std::string_view PolicySet = "nacl");

/// Serializes \p T into the versioned "RSTB" binary format
/// (regex/TableIO.h) under the given identity tags, tables in the
/// fixed order NoControlFlow, DirectJump, MaskedJump. Byte-identical
/// for identical tables and tags. The one-argument form writes the
/// default x86/"nacl" tags.
std::vector<uint8_t> serializePolicyTables(const PolicyTables &T,
                                           std::string_view Isa,
                                           std::string_view PolicySet);
std::vector<uint8_t> serializePolicyTables(const PolicyTables &T);

/// Parses a blob produced by serializePolicyTables, re-verifying the
/// embedded content hash, structure, and identity tags (defaults
/// expect x86/"nacl"; pass other tags — or empty to accept any — for
/// other ISAs). Throws std::runtime_error on any corruption, tag
/// mismatch, or unexpected table names/order.
PolicyTables deserializePolicyTables(const std::vector<uint8_t> &Blob,
                                     std::string_view ExpectIsa = "x86",
                                     std::string_view ExpectPolicySet = "nacl");

/// The content-address (SHA-256, lowercase hex) of the serialized form
/// of \p T — the cache key CI pins against drift. The one-argument
/// form addresses the default x86/"nacl" serialization; the tagged
/// form addresses any ISA's.
std::string policyTableHashHex(const PolicyTables &T);
std::string policyTableHashHex(const PolicyTables &T, std::string_view Isa,
                               std::string_view PolicySet);

/// The form names included in NoControlFlow (exposed for the workload
/// generator, which emits only policy-legal instructions, and for tests).
const std::vector<std::string> &noControlFlowFormNames();

} // namespace core
} // namespace rocksalt

#endif // ROCKSALT_CORE_POLICY_H
