//===- core/Verifier.h - The RockSalt NaCl checker -------------*- C++ -*-===//
///
/// \file
/// The RockSalt verifier: a direct port of the paper's Figures 5 and 6.
/// The run-time trusted computing base is table-walking code; everything
/// interesting lives in the generated DFA tables (core/Policy.h).
///
/// The Figure-5 chain is written once, in core/ChainDriver.h, generic
/// over ISA traits and over a sink that decides what gets recorded.
/// This header declares the x86 entry points built from it:
///
///  * the **reference walk** — `dfaMatch` per table per byte over the
///    three separate uint16-id tables, exactly the C of the paper's
///    Figure 6 (`verifyStep`/`verifyImage`/`checkLegacy` over
///    PolicyTables). It is the differential reference;
///
///  * the **production driver** — one L1-resident 8-bit transition
///    array (core::FusedPolicy) walked in two lanes: the branchless
///    NoControlFlow sweep and the full chain step (`verifyImage` over
///    FusedPolicy, and `RockSalt`). The shard scan and the incremental
///    verifier drive it too; its single chain step is
///    `chainStep<X86Isa>` in core/ChainDriver.h.
///
/// The two are certified bit-identical (verdict, reject reason, and the
/// Valid/Target/PairJmp bitmaps) by tests/fused_tables_test.cpp and the
/// `fused_equivalence` fuzz gate; DESIGN.md section 15 gives the
/// argument for why the equivalence holds by construction.
///
/// `check` is an instrumented variant returning the `valid` and `target`
/// arrays plus the positions of the jump halves of masked-jump pairs;
/// the sandbox monitor and the proofs-as-tests use it. `verify` is the
/// bare boolean of Figure 5.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_CORE_VERIFIER_H
#define ROCKSALT_CORE_VERIFIER_H

#include "core/Policy.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace rocksalt {
namespace core {

/// Figure 6: executes DFA transitions over code[*Pos..Size); on an accept
/// advances *Pos past the shortest accepted prefix and returns true; on a
/// reject state or exhaustion leaves *Pos unchanged and returns false.
bool dfaMatch(const re::Dfa &A, const uint8_t *Code, uint32_t *Pos,
              uint32_t Size);

/// Which grammar matched at a chain position (or nothing did).
enum class StepKind : uint8_t { MaskedJump, NoControlFlow, DirectJump, Fail };

/// One step of the Figure-5 match chain at *Pos: tries MaskedJump, then
/// NoControlFlow, then DirectJump, in the same order as `verifyImage`.
/// On a match advances *Pos past it and returns the kind; for DirectJump
/// the extracted pc-relative destination is stored in *TargetOut (a step
/// whose destination lies outside [0, Size) fails instead, like the
/// paper's `extract`). On Fail leaves *Pos unchanged. This is the
/// reference walk's step; the lint's CFG recovery walks it too.
StepKind verifyStep(const PolicyTables &T, const uint8_t *Code, uint32_t *Pos,
                    uint32_t Size, uint32_t *TargetOut);

/// Figure 5: returns true iff the image respects the aligned sandbox
/// policy.
bool verifyImage(const PolicyTables &T, const uint8_t *Code, uint32_t Size);

/// Figure 5 through the production driver (verdict sink).
bool verifyImage(const FusedPolicy &P, const uint8_t *Code, uint32_t Size);

/// Why an image was rejected (None when accepted).
enum class RejectReason : uint8_t {
  None,          ///< accepted
  NoParse,       ///< no policy grammar matched at some chain position
  BadTarget,     ///< a direct jump lands on a non-instruction-start
  UnalignedBundle///< a 32-byte boundary is not an instruction start
};

const char *rejectReasonName(RejectReason R);

/// Instrumented result for monitors and tests.
struct CheckResult {
  bool Ok = false;
  RejectReason Reason = RejectReason::None;
  std::vector<uint8_t> Valid;   ///< instruction-start positions
  std::vector<uint8_t> Target;  ///< direct-jump target positions
  std::vector<uint8_t> PairJmp; ///< jump halves of masked-jump pairs
};

/// The final pass of Figure 5 over an already-scanned image: every
/// direct-jump target and every bundle boundary must be an instruction
/// start. Sets R.Ok and R.Reason (assumes the scan itself succeeded;
/// scan failures set NoParse before reaching this). \p Bundle must be
/// a power of two: the ISA traits' bundle size (x86 32, MIPS 16).
void finalizeCheck(CheckResult &R, uint32_t Bundle = BundleSize);

/// The instrumented check over the reference walk (three separate
/// uint16-id tables, per-byte dfaMatch). This is the differential
/// reference the production driver is certified against; the fuzz
/// harness's `--fused` mode runs it in lockstep with RockSalt::check on
/// every image and demands bit-identical results.
CheckResult checkLegacy(const PolicyTables &T, const uint8_t *Code,
                        uint32_t Size);

/// The checker with its cached tables. Drives the fused tables; the
/// default constructor shares the process-wide fused singleton, the
/// FusedPolicy constructor borrows a caller-owned fused form (what the
/// long-lived services hold), and the PolicyTables constructor fuses a
/// private copy — use it only for one-off table sets (tests, loaded
/// blobs), not in per-request paths.
class RockSalt {
  std::shared_ptr<const FusedPolicy> Owned; ///< only for the fusing ctor
  const FusedPolicy &Fused;

public:
  RockSalt() : Fused(fusedPolicyTables()) {}
  explicit RockSalt(const FusedPolicy &P) : Fused(P) {}
  explicit RockSalt(const PolicyTables &T)
      : Owned(std::make_shared<const FusedPolicy>(buildFusedPolicy(T))),
        Fused(*Owned) {}

  const FusedPolicy &fused() const { return Fused; }

  /// The production entry point (Figure 5).
  bool verify(const uint8_t *Code, uint32_t Size) const {
    return verifyImage(Fused, Code, Size);
  }
  bool verify(const std::vector<uint8_t> &Code) const {
    return verify(Code.data(), static_cast<uint32_t>(Code.size()));
  }

  /// Instrumented variant (same decisions, richer result).
  CheckResult check(const uint8_t *Code, uint32_t Size) const;
  CheckResult check(const std::vector<uint8_t> &Code) const {
    return check(Code.data(), static_cast<uint32_t>(Code.size()));
  }
};

} // namespace core
} // namespace rocksalt

#endif // ROCKSALT_CORE_VERIFIER_H
