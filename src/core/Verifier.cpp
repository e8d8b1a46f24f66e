//===- core/Verifier.cpp - The checker's entry points ----------*- C++ -*-===//
//
// The x86 entry points declared in Verifier.h, each an instance of the
// one Figure-5 chain in core/ChainDriver.h: the reference walk over the
// three separate tables, and the production driver over the fused
// array. DESIGN.md section 15 states why the two decide identically;
// the fuzz harness's `--fused` mode and tests/fused_tables_test.cpp
// enforce it bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"

#include "core/ChainDriver.h"

using namespace rocksalt;
using namespace rocksalt::core;

bool core::dfaMatch(const re::Dfa &A, const uint8_t *Code, uint32_t *Pos,
                    uint32_t Size) {
  // 32-bit state: Dfa.Start is uint32_t, and a uint16_t here would wrap
  // silently if the table ever outgrew the 16-bit id range (buildDfa
  // rejects such tables, but the TCB should not rely on that alone).
  uint32_t State = A.Start;
  uint32_t Off = 0;

  while (*Pos + Off < Size) {
    State = A.Table[State][Code[*Pos + Off]];
    Off++;
    if (A.Rejects[State])
      break;
    if (A.Accepts[State]) {
      *Pos += Off;
      return true;
    }
  }
  return false;
}

StepKind core::verifyStep(const PolicyTables &T, const uint8_t *Code,
                          uint32_t *Pos, uint32_t Size, uint32_t *TargetOut) {
  return referenceStep<X86Isa>(T, Code, Pos, Size, TargetOut);
}

const char *core::rejectReasonName(RejectReason R) {
  switch (R) {
  case RejectReason::None:
    return "none";
  case RejectReason::NoParse:
    return "no-parse";
  case RejectReason::BadTarget:
    return "bad-target";
  case RejectReason::UnalignedBundle:
    return "unaligned-bundle";
  }
  return "?";
}

void core::finalizeCheck(CheckResult &R, uint32_t Bundle) {
  uint32_t Size = static_cast<uint32_t>(R.Valid.size());
  // Branchless violation sweep first: the common (accepting) image pays
  // one vectorizable pass instead of a data-dependent branch per byte.
  uint8_t AnyBad = 0;
  for (uint32_t I = 0; I < Size; ++I)
    AnyBad |= uint8_t(R.Target[I] & (R.Valid[I] ^ 1));
  for (uint32_t I = 0; I < Size; I += Bundle)
    AnyBad |= uint8_t(R.Valid[I] ^ 1);
  if (!AnyBad) {
    R.Ok = true;
    R.Reason = RejectReason::None;
    return;
  }
  // Some violation exists: replay the exact scan to pin the reason
  // (first violating position; bad-target outranks alignment there).
  R.Ok = false;
  R.Reason = RejectReason::None;
  for (uint32_t I = 0; I < Size && R.Reason == RejectReason::None; ++I) {
    if (R.Target[I] && !R.Valid[I])
      R.Reason = RejectReason::BadTarget;
    else if (!(I & (Bundle - 1)) && !R.Valid[I])
      R.Reason = RejectReason::UnalignedBundle;
  }
}

bool core::verifyImage(const PolicyTables &T, const uint8_t *Code,
                       uint32_t Size) {
  uint32_t Pos = 0;
  bool Ok = true;
  std::vector<uint8_t> Valid(Size, 0);
  std::vector<uint8_t> Target(Size, 0);

  while (Pos < Size) {
    Valid[Pos] = 1;
    uint32_t Dest = 0;
    switch (verifyStep(T, Code, &Pos, Size, &Dest)) {
    case StepKind::MaskedJump:
    case StepKind::NoControlFlow:
      break;
    case StepKind::DirectJump:
      Target[Dest] = 1;
      break;
    case StepKind::Fail:
      return false;
    }
  }

  for (uint32_t I = 0; I < Size; ++I)
    Ok = Ok && (!Target[I] || Valid[I]) && ((I & (BundleSize - 1)) || Valid[I]);

  return Ok;
}

namespace {

/// The verdict sink: the Valid bitmap plus the direct-jump destinations.
/// Direct jumps are sparse, so a destination list beats a second
/// image-sized bitmap (no 1 MiB clear, no full-image final pass).
struct VerdictSink : ValidBitmapSink {
  std::vector<uint32_t> Targets;

  void pairJump(uint32_t) {}
  void target(uint32_t Dest) { Targets.push_back(Dest); }
};

} // namespace

bool core::verifyImage(const FusedPolicy &P, const uint8_t *Code,
                       uint32_t Size) {
  std::vector<uint8_t> Valid(Size, 0);
  VerdictSink K{{Valid.data()}, {}};
  uint32_t Pos = 0;
  if (!driveChain<X86Isa>(P, Code, Size, Size, &Pos, K))
    return false;

  uint8_t Aligned = 1;
  for (uint32_t I = 0; I < Size; I += BundleSize)
    Aligned &= Valid[I];
  if (!Aligned)
    return false;
  for (uint32_t T : K.Targets)
    if (!Valid[T])
      return false;
  return true;
}

CheckResult core::checkLegacy(const PolicyTables &T, const uint8_t *Code,
                              uint32_t Size) {
  return referenceCheck<X86Isa>(T, Code, Size);
}

CheckResult RockSalt::check(const uint8_t *Code, uint32_t Size) const {
  return checkImage<X86Isa>(Fused, Code, Size);
}
