//===- core/NcfSweep.h - The branchless NoControlFlow sweep ----*- C++ -*-===//
///
/// \file
/// The first lane of the verify chain (core/ChainDriver.h): from a chain
/// position whose byte is non-exceptional, stream bytes through the
/// fused table — one load per byte; restart rows
/// (regex/FusedTables.cpp pass 4) make instruction-boundary restarts
/// free — recording instruction starts through the sink's `mark`.
/// Exact: a non-exceptional start byte kills MaskedJump's and (modulo
/// the safe-byte accept priority) DirectJump's first transitions, so
/// the full Figure-5 step IS the NoControlFlow verdict there; the
/// sweep hands back to the full chain at the first hard-exceptional
/// start byte. Chain-safe bytes are non-exceptional, so runs of them
/// are swept like any other NoControlFlow bytes. DESIGN.md section 15.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_CORE_NCFSWEEP_H
#define ROCKSALT_CORE_NCFSWEEP_H

#include "core/Policy.h"

namespace rocksalt {
namespace core {
namespace detail {

/// How the sweep stopped.
enum class SweepStop {
  ExcStart, ///< at a hard-exceptional instruction start (*Pos points at it)
  Bound,    ///< at an instruction start >= Limit (*Pos points at it)
  CleanEnd, ///< consumed the image with the last instruction complete
  Fail      ///< chain fail: NoControlFlow rejected or the image ended
            ///< mid-instruction, from a non-exceptional start
};

/// Walks the NoControlFlow DFA from \p *Pos (which must be a chain
/// position whose byte has ExcByte != 1), calling
/// `Mark(Q, IsStart)` for every byte consumed — IsStart is 1 exactly
/// at instruction starts — until a hard-exceptional start, an
/// instruction start at or past \p Limit, the end of the image, or a
/// chain fail. Instructions may straddle \p Limit; the sweep only
/// *stops* at starts, mirroring the Figure-5 loop's `Pos < Limit`
/// condition. On ExcStart/Bound, *Pos is the stopping start; on
/// CleanEnd, *Pos == Size; on Fail it is unspecified: every caller
/// needs only the verdict, and the failing instruction's start is the
/// last one marked.
template <typename MarkFn>
SweepStop ncfSweep(const FusedPolicy &P, const uint8_t *Code, uint32_t Size,
                   uint32_t Limit, uint32_t *Pos, MarkFn Mark) {
  const re::FusedTables &F = P.F;
  const uint8_t *Tr = F.Trans.data();
  const uint8_t *Exc = P.ExcByte.data();
  const uint8_t *Exc2 = P.Exc2Dead.data();
  const uint32_t AcceptBase = F.AcceptBase, RejectBase = F.RejectBase;
  uint32_t S = F.Starts[FusedNoControlFlow];
  uint32_t Q = *Pos;
  uint8_t IsStart = 1;

  while (Q < Size) {
    uint8_t B = Code[Q];
    uint8_t E = Exc[B];
    // Second-byte escape, computed branchlessly so the common 0F-start
    // stays on the fall-through path: a DirectJump-only start whose
    // actual second byte kills the jump (0F followed by anything but
    // 8x) is still a pure NoControlFlow step. The escape peek indexes
    // Code[Q] when no next byte exists — in bounds, and the escape is
    // masked off in that case.
    uint32_t HasNext = Q + 1 < Size;
    uint8_t NextDead = uint8_t(Exc2[Code[Q + HasNext]] & HasNext);
    uint8_t Escape = uint8_t((E == 2) & NextDead);
    uint8_t HardExc = uint8_t(uint8_t(E != 0) & uint8_t(Escape ^ 1));
    if (IsStart & (HardExc | uint8_t(Q >= Limit))) {
      *Pos = Q;
      return Q >= Limit ? SweepStop::Bound : SweepStop::ExcStart;
    }
    Mark(Q, IsStart);
    // Accept rows are restart rows, so this one load advances THROUGH
    // instruction boundaries; the accept test only feeds the off-chain
    // IsStart flag.
    S = Tr[(S << 8) | B];
    if (S >= RejectBase)
      return SweepStop::Fail;
    IsStart = uint8_t(S >= AcceptBase);
    ++Q;
  }
  *Pos = Q;
  return IsStart ? SweepStop::CleanEnd : SweepStop::Fail;
}

} // namespace detail
} // namespace core
} // namespace rocksalt

#endif // ROCKSALT_CORE_NCFSWEEP_H
