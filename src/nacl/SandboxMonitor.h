//===- nacl/SandboxMonitor.h - Safety theorem as a monitor -----*- C++ -*-===//
///
/// \file
/// The paper's correctness theorem (section 4), recast as a runtime
/// monitor: for checker-accepted code, every reachable state must be
/// "appropriate" (Definition 1 — segments unchanged, code bytes
/// unchanged, PC inside the code segment) and "locally safe or the
/// second half of a masked-jump pair" (Definitions 2-3, the k-safety
/// argument with k <= 2). Property tests drive thousands of generated
/// binaries through the monitor; any violation on accepted code would be
/// a checker soundness bug.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_NACL_SANDBOXMONITOR_H
#define ROCKSALT_NACL_SANDBOXMONITOR_H

#include "core/Verifier.h"
#include "sem/Cpu.h"

#include <optional>
#include <string>

namespace rocksalt {
namespace nacl {

class SandboxMonitor {
public:
  struct Violation {
    uint64_t Step = 0;
    std::string What;
  };

  /// Attaches to \p C (installing a write hook) for code loaded at
  /// physical [CodeBase, CodeBase+CodeSize) with the checker's \p R.
  SandboxMonitor(sem::Cpu &C, core::CheckResult R, uint32_t CodeBase,
                 uint32_t CodeSize);

  /// Runs up to \p MaxSteps instructions, checking the invariants after
  /// every step. Returns the first violation, or std::nullopt if the run
  /// stayed safe (including safe terminal states).
  std::optional<Violation> runMonitored(uint64_t MaxSteps);

  uint64_t stepsExecuted() const { return Steps; }

private:
  sem::Cpu &Cpu;
  core::CheckResult Check;
  uint32_t CodeBase, CodeSize;
  uint64_t Steps = 0;

  // Initial-state snapshot (Definition 1).
  uint16_t SegVal0[6];
  uint32_t SegBase0[6], SegLimit0[6];

  std::optional<Violation> PendingWriteViolation;

  std::optional<std::string> checkInvariants() const;
};

} // namespace nacl
} // namespace rocksalt

#endif // ROCKSALT_NACL_SANDBOXMONITOR_H
