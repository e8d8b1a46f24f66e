//===- tests/safety_property_test.cpp -------------------------*- C++ -*-===//
//
// The paper's Theorem 1 as a dynamic property: every checker-accepted
// binary, executed from a locally-safe initial state, keeps the sandbox
// invariants at every step (segments unchanged, code immutable, PC on
// validated positions, all memory traffic inside the data segments). The
// SandboxMonitor checks Definitions 1-3 after each instruction.
//
//===----------------------------------------------------------------------===//

#include "nacl/Assembler.h"
#include "nacl/SandboxMonitor.h"
#include "nacl/WorkloadGen.h"

#include <gtest/gtest.h>

using namespace rocksalt;
using namespace rocksalt::core;
using namespace rocksalt::nacl;
using x86::Instr;
using x86::Opcode;
using x86::Operand;
using x86::Reg;

namespace {

constexpr uint32_t CodeBase = 0x10000;
constexpr uint32_t DataBase = 0x400000;
constexpr uint32_t DataSize = 0x10000;

/// Verifies, loads, and monitors a binary; returns the violation if any.
std::optional<SandboxMonitor::Violation>
runAccepted(const std::vector<uint8_t> &Code, uint64_t MaxSteps,
            uint64_t OracleSeed = 7) {
  RockSalt V;
  CheckResult R = V.check(Code);
  EXPECT_TRUE(R.Ok) << "binary must be accepted first";
  sem::Cpu C(OracleSeed);
  C.configureSandbox(CodeBase, static_cast<uint32_t>(Code.size()), DataBase,
                     DataSize, Code);
  SandboxMonitor Mon(C, std::move(R), CodeBase,
                     static_cast<uint32_t>(Code.size()));
  return Mon.runMonitored(MaxSteps);
}

} // namespace

TEST(SafetyProperty, StraightLineProgramStaysSafe) {
  Assembler A;
  Instr I;
  I.Op = Opcode::MOV;
  I.Op1 = Operand::reg(Reg::EAX);
  I.Op2 = Operand::imm(0x100);
  A.emit(I);
  I.Op1 = Operand::mem(x86::Addr::base(Reg::EAX, 4));
  I.Op2 = Operand::reg(Reg::EAX);
  A.emit(I);
  A.hlt();
  auto V = runAccepted(A.finish(), 100);
  EXPECT_FALSE(V.has_value()) << V->What;
}

TEST(SafetyProperty, MaskedJumpLandsOnBundle) {
  // Compute a (deliberately misaligned) target; the mask must force it
  // to a bundle boundary where execution continues safely.
  Assembler A;
  Instr I;
  I.Op = Opcode::MOV;
  I.Op1 = Operand::reg(Reg::EBX);
  I.Op2 = Operand::imm(67); // misaligned: masks down to 64
  A.emit(I);
  A.maskedJump(Reg::EBX);
  A.padToBundle(); // bundle 1 (32..63) is all NOPs
  A.padToBundle();
  // Bundle at 64: halt.
  while (A.here() < 64)
    A.emit(Instr{});
  A.hlt();
  auto V = runAccepted(A.finish(), 100);
  EXPECT_FALSE(V.has_value()) << V->What;
}

TEST(SafetyProperty, ComputedLoopRunsSafely) {
  // A small loop: ecx counts down with a conditional backward jump.
  Assembler A;
  Instr I;
  I.Op = Opcode::MOV;
  I.Op1 = Operand::reg(Reg::ECX);
  I.Op2 = Operand::imm(10);
  A.emit(I);
  A.alignedLabel("loop");
  Instr Dec;
  Dec.Op = Opcode::DEC;
  Dec.Op1 = Operand::reg(Reg::ECX);
  A.emit(Dec);
  A.jccTo(x86::Cond::NE, "loop");
  A.hlt();
  auto V = runAccepted(A.finish(), 1000);
  EXPECT_FALSE(V.has_value()) << V->What;
}

TEST(SafetyProperty, GeneratedWorkloadsRunSafely) {
  // The headline sweep: random compliant binaries execute under the
  // monitor with arbitrary register states and never violate the
  // invariants, whatever they do (fault/halt are safe outcomes).
  WorkloadOptions Opts;
  Opts.TargetBytes = 1024;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    Opts.Seed = Seed;
    std::vector<uint8_t> Code = generateWorkload(Opts);
    auto V = runAccepted(Code, 2000, /*OracleSeed=*/Seed);
    EXPECT_FALSE(V.has_value())
        << "seed " << Seed << " step " << V->Step << ": " << V->What;
  }
}

TEST(SafetyProperty, MonitorCatchesUncheckedBinary) {
  // Sanity for the monitor itself: running a *rejected* binary (bare
  // indirect jump to a wild target) must trip an invariant — the monitor
  // is not vacuous.
  std::vector<uint8_t> Code = {
      0xB8, 0x0D, 0x00, 0x00, 0x00, // mov eax, 13 (misaligned target)
      0xFF, 0xE0,                   // jmp *eax  (unmasked!)
  };
  while (Code.size() % 32)
    Code.push_back(0x90);

  RockSalt V;
  EXPECT_FALSE(V.verify(Code));

  // Execute it anyway with a fabricated "all valid" result the checker
  // would never produce, except PairJmp/Valid reflect the real parse; the
  // jump lands at 13, which is not a validated position.
  CheckResult Fake;
  Fake.Ok = true;
  Fake.Valid.assign(Code.size(), 0);
  Fake.Valid[0] = Fake.Valid[5] = 1; // the two real instructions
  for (size_t I = 16; I < Code.size(); ++I)
    Fake.Valid[I] = 1; // padding nops; the jump target 13 stays invalid
  Fake.Target.assign(Code.size(), 0);
  Fake.PairJmp.assign(Code.size(), 0);

  sem::Cpu C(3);
  C.configureSandbox(CodeBase, static_cast<uint32_t>(Code.size()), DataBase,
                     DataSize, Code);
  SandboxMonitor Mon(C, Fake, CodeBase, static_cast<uint32_t>(Code.size()));
  auto Violation = Mon.runMonitored(100);
  ASSERT_TRUE(Violation.has_value());
  EXPECT_NE(Violation->What.find("not a validated position"),
            std::string::npos);
}

TEST(SafetyProperty, MonitorCatchesSegmentEscape) {
  // If segment-tampering code were ever accepted, the monitor would
  // catch the changed segment registers.
  std::vector<uint8_t> Code = {
      0xB8, 0x10, 0x00, 0x00, 0x00, // mov eax, 0x10
      0x8E, 0xD8,                   // mov ds, eax
      0xF4,                         // hlt
  };
  while (Code.size() % 32)
    Code.push_back(0x90);

  CheckResult Fake;
  Fake.Ok = true;
  Fake.Valid.assign(Code.size(), 1);
  Fake.Target.assign(Code.size(), 0);
  Fake.PairJmp.assign(Code.size(), 0);

  sem::Cpu C(3);
  C.configureSandbox(CodeBase, static_cast<uint32_t>(Code.size()), DataBase,
                     DataSize, Code);
  SandboxMonitor Mon(C, Fake, CodeBase, static_cast<uint32_t>(Code.size()));
  auto Violation = Mon.runMonitored(100);
  ASSERT_TRUE(Violation.has_value());
  EXPECT_NE(Violation->What.find("segment register"), std::string::npos);
}

TEST(SafetyProperty, DataWritesStayInDataSegment) {
  // Every write a compliant program performs must land in the data
  // region; we watch physical writes directly.
  WorkloadOptions Opts;
  Opts.TargetBytes = 512;
  for (uint64_t Seed = 60; Seed < 70; ++Seed) {
    Opts.Seed = Seed;
    std::vector<uint8_t> Code = generateWorkload(Opts);
    RockSalt V;
    CheckResult R = V.check(Code);
    ASSERT_TRUE(R.Ok);

    sem::Cpu C(Seed);
    C.configureSandbox(CodeBase, static_cast<uint32_t>(Code.size()),
                       DataBase, DataSize, Code);
    bool BadWrite = false;
    C.Hooks.OnWrite = [&](uint32_t Phys, uint8_t, uint8_t) {
      if (Phys < DataBase || Phys >= DataBase + DataSize)
        BadWrite = true;
    };
    C.run(1500);
    EXPECT_FALSE(BadWrite) << "seed " << Seed;
  }
}
