//===- nacl/SandboxMonitor.cpp --------------------------------*- C++ -*-===//

#include "nacl/SandboxMonitor.h"

#include <cstdio>

using namespace rocksalt;
using namespace rocksalt::nacl;

SandboxMonitor::SandboxMonitor(sem::Cpu &C, core::CheckResult R,
                               uint32_t Base, uint32_t Size)
    : Cpu(C), Check(std::move(R)), CodeBase(Base), CodeSize(Size) {
  for (int S = 0; S < 6; ++S) {
    SegVal0[S] = C.M.SegVal[S];
    SegBase0[S] = C.M.SegBase[S];
    SegLimit0[S] = C.M.SegLimit[S];
  }
  // Definition 1, item 5: the code bytes must never change. Writes go
  // through the hook, so we can detect any store into the code region —
  // including one a buggy checker would have allowed via an escaped
  // segment.
  Cpu.Hooks.OnWrite = [this](uint32_t Phys, uint8_t, uint8_t) {
    if (Phys - CodeBase < CodeSize && !PendingWriteViolation)
      PendingWriteViolation = Violation{Steps, "write into code segment"};
  };
}

std::optional<std::string> SandboxMonitor::checkInvariants() const {
  // Items 2-3: segment registers point at their original segments.
  for (int S = 0; S < 6; ++S) {
    if (Cpu.M.SegVal[S] != SegVal0[S] || Cpu.M.SegBase[S] != SegBase0[S] ||
        Cpu.M.SegLimit[S] != SegLimit0[S])
      return "segment register " + std::to_string(S) + " changed";
  }

  if (!Cpu.M.running())
    return std::nullopt; // fault/halt are safe terminal states

  // Item 4 + Definitions 2-3: the PC is a checker-validated instruction
  // start, or the jump half of a masked pair (the intermediate state of
  // the 2-safe argument).
  // A PC at or beyond the CS limit will fault on the next fetch — the
  // segment hardware, not the checker, provides the bound (the mask only
  // guarantees alignment). That is a safe pending stop, not a violation.
  uint32_t Pc = Cpu.M.Pc;
  if (Pc >= CodeSize)
    return std::nullopt;
  if (!Check.Valid[Pc] && !Check.PairJmp[Pc]) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "pc 0x%x is not a validated position",
                  Pc);
    return std::string(Buf);
  }
  return std::nullopt;
}

std::optional<SandboxMonitor::Violation>
SandboxMonitor::runMonitored(uint64_t MaxSteps) {
  // The initial state must itself be locally safe.
  if (std::optional<std::string> V = checkInvariants())
    return Violation{0, *V};

  while (Steps < MaxSteps && Cpu.M.running()) {
    rtl::Status St = Cpu.step();
    ++Steps;
    if (PendingWriteViolation)
      return PendingWriteViolation;
    if (St == rtl::Status::Error)
      return Violation{Steps, "model error state reached"};
    if (std::optional<std::string> V = checkInvariants())
      return Violation{Steps, *V};
  }
  return std::nullopt;
}
