//===- core/ChainDriver.h - The Figure-5 chain, written once ---*- C++ -*-===//
///
/// \file
/// Every verify path in the library runs the Figure-5 match chain from
/// this header. The chain is generic over two compile-time parameters:
///
///  * **ISA traits** — the bundle size, the byte length of a masked
///    pair's jump half, and the paper's `extract` (the destination of a
///    just-matched direct jump). `X86Isa` below is the x86 instance;
///    mips/MipsPolicy.cpp defines the MIPS one. A further ISA needs only
///    its tables and a traits struct.
///
///  * **a sink** — what the driver records at instruction starts,
///    masked-pair jump halves and direct-jump targets. The verdict sink
///    (core/Verifier.cpp: a Valid bitmap plus a sparse target list),
///    `BitmapSink` below (the full CheckResult) and the shard sink
///    (core/Shard.cpp: a start bitmap and sparse target and pair-jump
///    lists over one shard) are the three in use.
///
/// Two walks live here. `referenceStep` / `referenceCheck` are the
/// paper's literal Figure 6 — three `dfaMatch` calls per chain position
/// over the separate uint16-id tables — and stay the differential
/// reference every production path is certified against. `driveChain`
/// is the production engine over the fused tables (core::FusedPolicy),
/// with two lanes: the branchless NoControlFlow sweep
/// (core/NcfSweep.h) and the full chain step (`chainStep`). Both lanes
/// engage from table-derived byte classes only. DESIGN.md section 15
/// gives the equivalence argument.
///
/// A sink provides:
///
///   void mark(uint32_t Q, uint8_t IsStart); // every byte the sweep eats
///   void start(uint32_t Q);                 // a full chain step's start
///   void pairJump(uint32_t Q);              // a masked pair's jump half
///   void target(uint32_t Dest);             // a direct jump's destination
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_CORE_CHAINDRIVER_H
#define ROCKSALT_CORE_CHAINDRIVER_H

#include "core/NcfSweep.h"
#include "core/Verifier.h"

namespace rocksalt {
namespace core {

/// x86 traits: the 32-byte bundle, the two-byte `jmp/call *r` jump
/// half, and rel8/rel32 target extraction.
struct X86Isa {
  static constexpr uint32_t BundleSize = core::BundleSize;
  static constexpr uint32_t MaskedJumpHalfLen = core::MaskedJumpHalfLen;

  /// The paper's `extract`: pulls the pc-relative displacement out of
  /// the DirectJump instruction spanning [Start, End). Returns false
  /// when the destination lies outside [0, Size).
  static bool extractTarget(const uint8_t *Code, uint32_t Start,
                            uint32_t End, uint32_t Size, uint32_t *TargetOut) {
    uint8_t B0 = Code[Start];
    int32_t Disp;
    if (B0 == 0xEB || (B0 >= 0x70 && B0 <= 0x7F)) {
      Disp = static_cast<int8_t>(Code[End - 1]);
    } else {
      // E8/E9 rel32 or 0F 8x rel32: the displacement is the last 4 bytes.
      uint32_t Raw = uint32_t(Code[End - 4]) | (uint32_t(Code[End - 3]) << 8) |
                     (uint32_t(Code[End - 2]) << 16) |
                     (uint32_t(Code[End - 1]) << 24);
      Disp = static_cast<int32_t>(Raw);
    }
    int64_t Dest = int64_t(End) + Disp;
    if (Dest < 0 || Dest >= int64_t(Size))
      return false;
    *TargetOut = static_cast<uint32_t>(Dest);
    return true;
  }
};

//===----------------------------------------------------------------------===//
// The reference walk (Figure 6, verbatim)
//===----------------------------------------------------------------------===//

/// One step of the reference chain at *Pos: MaskedJump, then
/// NoControlFlow, then DirectJump, each a shortest-match `dfaMatch`
/// over its own table. Contract as core::verifyStep.
template <typename Isa>
StepKind referenceStep(const PolicyTables &T, const uint8_t *Code,
                       uint32_t *Pos, uint32_t Size, uint32_t *TargetOut) {
  uint32_t SavedPos = *Pos;
  if (dfaMatch(T.MaskedJump, Code, Pos, Size))
    return StepKind::MaskedJump;
  if (dfaMatch(T.NoControlFlow, Code, Pos, Size))
    return StepKind::NoControlFlow;
  if (dfaMatch(T.DirectJump, Code, Pos, Size)) {
    if (Isa::extractTarget(Code, SavedPos, *Pos, Size, TargetOut))
      return StepKind::DirectJump;
    *Pos = SavedPos;
  }
  return StepKind::Fail;
}

/// The reference instrumented check: the chain above from position 0,
/// every result into the three bitmaps, then the final pass.
template <typename Isa>
CheckResult referenceCheck(const PolicyTables &T, const uint8_t *Code,
                           uint32_t Size) {
  CheckResult R;
  R.Valid.assign(Size, 0);
  R.Target.assign(Size, 0);
  R.PairJmp.assign(Size, 0);

  uint32_t Pos = 0;
  while (Pos < Size) {
    R.Valid[Pos] = 1;
    uint32_t Dest = 0;
    switch (referenceStep<Isa>(T, Code, &Pos, Size, &Dest)) {
    case StepKind::MaskedJump:
      R.PairJmp[Pos - Isa::MaskedJumpHalfLen] = 1;
      break;
    case StepKind::NoControlFlow:
      break;
    case StepKind::DirectJump:
      R.Target[Dest] = 1;
      break;
    case StepKind::Fail:
      R.Ok = false;
      R.Reason = RejectReason::NoParse;
      return R;
    }
  }

  finalizeCheck(R, Isa::BundleSize);
  return R;
}

//===----------------------------------------------------------------------===//
// The production chain (fused tables, two lanes)
//===----------------------------------------------------------------------===//

/// One chain step over the fused tables: the identical decisions and
/// *Pos movement to referenceStep. The MjAliveByte gate is an exact
/// consequence of MaskedJump's start row (core/Policy.h).
template <typename Isa>
StepKind chainStep(const FusedPolicy &P, const uint8_t *Code, uint32_t *Pos,
                   uint32_t Size, uint32_t *TargetOut) {
  uint32_t SavedPos = *Pos;
  if (SavedPos < Size) {
    uint8_t B0 = Code[SavedPos];
    // MjAliveByte gate: when MaskedJump's first transition on B0 is a
    // reject, dfaMatch over it returns false after one step — skip the
    // walk entirely. Exact: an alive first transition (continue OR
    // accept) still takes the full fused walk.
    if (P.MjAliveByte[B0] &&
        re::fusedMatch(P.F, FusedMaskedJump, Code, Pos, Size))
      return StepKind::MaskedJump;
  }
  if (re::fusedMatch(P.F, FusedNoControlFlow, Code, Pos, Size))
    return StepKind::NoControlFlow;
  if (re::fusedMatch(P.F, FusedDirectJump, Code, Pos, Size)) {
    if (Isa::extractTarget(Code, SavedPos, *Pos, Size, TargetOut))
      return StepKind::DirectJump;
    *Pos = SavedPos;
  }
  return StepKind::Fail;
}

/// Runs the chain from *Pos while the position is below \p Limit
/// (<= \p Size); the last instruction may run past Limit, and no byte
/// at or past Size is read. Returns true when the chain reached a
/// position >= Limit (left in *Pos), false on a chain fail (*Pos is
/// then unspecified; the failing instruction's start is the last start
/// reported). Reports every instruction start, pair jump half and
/// target to \p K exactly as referenceStep would find them.
template <typename Isa, typename Sink>
bool driveChain(const FusedPolicy &P, const uint8_t *Code, uint32_t Size,
                uint32_t Limit, uint32_t *Pos, Sink &K) {
  uint32_t Q = *Pos;
  while (Q < Limit) {
    uint8_t B0 = Code[Q];
    // Lane 1, the NoControlFlow sweep: every step it covers could only
    // resolve as NoControlFlow, so it records starts and nothing else,
    // and stops at the first start at or past Limit.
    if (P.ExcByte[B0] != 1) {
      switch (detail::ncfSweep(
          P, Code, Size, Limit, &Q,
          [&K](uint32_t At, uint8_t IsStart) { K.mark(At, IsStart); })) {
      case detail::SweepStop::ExcStart:
        break; // lane 2 takes the exceptional start
      case detail::SweepStop::Bound:
      case detail::SweepStop::CleanEnd:
        continue; // Q >= Limit (or == Size): the loop exits
      case detail::SweepStop::Fail:
        *Pos = Q;
        return false;
      }
    }
    // Lane 2, the full Figure-5 step.
    K.start(Q);
    uint32_t Dest = 0;
    switch (chainStep<Isa>(P, Code, &Q, Size, &Dest)) {
    case StepKind::MaskedJump:
      // The jump half is the last bytes of the matched pair, whatever
      // the mask half's length.
      K.pairJump(Q - Isa::MaskedJumpHalfLen);
      break;
    case StepKind::NoControlFlow:
      break;
    case StepKind::DirectJump:
      K.target(Dest);
      break;
    case StepKind::Fail:
      *Pos = Q;
      return false;
    }
  }
  *Pos = Q;
  return true;
}

/// The part of the whole-image sinks that records starts into a Valid
/// bitmap.
struct ValidBitmapSink {
  uint8_t *Valid;

  void mark(uint32_t Q, uint8_t IsStart) { Valid[Q] = IsStart; }
  void start(uint32_t Q) { Valid[Q] = 1; }
};

/// The bitmaps sink: the full instrumented CheckResult.
struct BitmapSink : ValidBitmapSink {
  uint8_t *Target;
  uint8_t *PairJmp;

  void pairJump(uint32_t Q) { PairJmp[Q] = 1; }
  void target(uint32_t Dest) { Target[Dest] = 1; }
};

/// The instrumented whole-image check over the fused tables: the driver
/// into the bitmaps sink, then the final pass with the ISA's bundle.
/// Bit-identical to referenceCheck<Isa> over the tables P was fused
/// from. RockSalt::check and mips::checkMips are its two instances.
template <typename Isa>
CheckResult checkImage(const FusedPolicy &P, const uint8_t *Code,
                       uint32_t Size) {
  CheckResult R;
  R.Valid.assign(Size, 0);
  R.Target.assign(Size, 0);
  R.PairJmp.assign(Size, 0);
  BitmapSink K{{R.Valid.data()}, R.Target.data(), R.PairJmp.data()};
  uint32_t Pos = 0;
  if (!driveChain<Isa>(P, Code, Size, Size, &Pos, K)) {
    R.Ok = false;
    R.Reason = RejectReason::NoParse;
    return R;
  }
  finalizeCheck(R, Isa::BundleSize);
  return R;
}

} // namespace core
} // namespace rocksalt

#endif // ROCKSALT_CORE_CHAINDRIVER_H
