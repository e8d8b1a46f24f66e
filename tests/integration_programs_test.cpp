//===- tests/integration_programs_test.cpp --------------------*- C++ -*-===//
//
// End-to-end integration: real little programs assembled by the
// NaCl-izer, accepted by the checker, executed on the model under the
// sandbox monitor, with results read back from data memory. This is the
// "compile real applications and run them through the simulator" claim
// of paper section 6.1, at the scale this substrate supports.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "nacl/Assembler.h"
#include "nacl/SandboxMonitor.h"
#include "sem/Cpu.h"

#include <gtest/gtest.h>

using namespace rocksalt;
using namespace rocksalt::nacl;
using x86::Addr;
using x86::Cond;
using x86::Instr;
using x86::Opcode;
using x86::Operand;
using x86::Reg;

namespace {

constexpr uint32_t CodeBase = 0x10000;
constexpr uint32_t DataBase = 0x400000;
constexpr uint32_t DataSize = 0x10000;

Instr movImm(Reg R, uint32_t V) {
  Instr I;
  I.Op = Opcode::MOV;
  I.Op1 = Operand::reg(R);
  I.Op2 = Operand::imm(V);
  return I;
}
Instr binop(Opcode Op, Operand A, Operand B) {
  Instr I;
  I.Op = Op;
  I.Op1 = A;
  I.Op2 = B;
  return I;
}
Instr unop(Opcode Op, Operand A) {
  Instr I;
  I.Op = Op;
  I.Op1 = A;
  return I;
}

/// Verifies + runs under the monitor; asserts acceptance and safety.
sem::Cpu runVerified(Assembler &A, uint64_t MaxSteps,
                     std::function<void(sem::Cpu &)> Setup = {}) {
  std::vector<uint8_t> Code = A.finish();
  core::RockSalt V;
  core::CheckResult R = V.check(Code);
  EXPECT_TRUE(R.Ok);

  sem::Cpu C;
  C.configureSandbox(CodeBase, static_cast<uint32_t>(Code.size()), DataBase,
                     DataSize, Code);
  if (Setup)
    Setup(C);
  nacl::SandboxMonitor Mon(C, std::move(R), CodeBase,
                           static_cast<uint32_t>(Code.size()));
  auto Violation = Mon.runMonitored(MaxSteps);
  EXPECT_FALSE(Violation.has_value())
      << "step " << Violation->Step << ": " << Violation->What;
  return C;
}

} // namespace

TEST(Programs, MemcpyViaRepMovs) {
  Assembler A;
  A.emit(movImm(Reg::ESI, 0x100));
  A.emit(movImm(Reg::EDI, 0x200));
  A.emit(movImm(Reg::ECX, 64));
  Instr Cld;
  Cld.Op = Opcode::CLD;
  A.emit(Cld);
  Instr Movs;
  Movs.Op = Opcode::MOVS;
  Movs.W = false;
  Movs.Pfx.Rep = x86::Prefix::RepKind::Rep;
  A.emit(Movs);
  A.hlt();

  sem::Cpu C = runVerified(A, 1000, [](sem::Cpu &Cpu) {
    for (int I = 0; I < 64; ++I)
      Cpu.M.Mem.store8(DataBase + 0x100 + I, uint8_t(I * 3 + 1));
  });
  for (int I = 0; I < 64; ++I)
    ASSERT_EQ(C.M.Mem.load8(DataBase + 0x200 + I), uint8_t(I * 3 + 1));
}

TEST(Programs, StrlenViaRepneScas) {
  Assembler A;
  A.emit(movImm(Reg::EDI, 0x300));
  A.emit(movImm(Reg::ECX, 0xFFFF));
  A.emit(movImm(Reg::EAX, 0)); // scan for NUL
  Instr Cld;
  Cld.Op = Opcode::CLD;
  A.emit(Cld);
  Instr Scas;
  Scas.Op = Opcode::SCAS;
  Scas.W = false;
  Scas.Pfx.Rep = x86::Prefix::RepKind::RepNe;
  A.emit(Scas);
  // length = 0xFFFF - ecx - 1; computed into EBX.
  A.emit(movImm(Reg::EBX, 0xFFFF));
  A.emit(binop(Opcode::SUB, Operand::reg(Reg::EBX), Operand::reg(Reg::ECX)));
  A.emit(unop(Opcode::DEC, Operand::reg(Reg::EBX)));
  A.hlt();

  const char *Str = "better, faster, stronger";
  sem::Cpu C = runVerified(A, 1000, [Str](sem::Cpu &Cpu) {
    for (size_t I = 0; Str[I]; ++I)
      Cpu.M.Mem.store8(DataBase + 0x300 + uint32_t(I), uint8_t(Str[I]));
  });
  EXPECT_EQ(C.M.Regs[3], strlen(Str));
}

TEST(Programs, BubbleSort) {
  // Sort 16 dwords at data offset 0x400 (classic nested loops with
  // conditional branches and scaled-index addressing).
  Assembler A;
  constexpr uint32_t N = 16;
  A.emit(movImm(Reg::EDX, 0)); // i = 0
  A.alignedLabel("outer");
  A.emit(movImm(Reg::ECX, 0)); // j = 0
  A.alignedLabel("inner");
  // eax = arr[j]; ebx = arr[j+1]
  A.emit(binop(Opcode::MOV, Operand::reg(Reg::EAX),
               Operand::mem(Addr::indexOnly(Reg::ECX, x86::Scale::S4,
                                            0x400))));
  A.emit(binop(Opcode::MOV, Operand::reg(Reg::EBX),
               Operand::mem(Addr::indexOnly(Reg::ECX, x86::Scale::S4,
                                            0x404))));
  A.emit(binop(Opcode::CMP, Operand::reg(Reg::EAX),
               Operand::reg(Reg::EBX)));
  A.jccTo(Cond::BE, "noswap");
  A.emit(binop(Opcode::MOV,
               Operand::mem(Addr::indexOnly(Reg::ECX, x86::Scale::S4,
                                            0x400)),
               Operand::reg(Reg::EBX)));
  A.emit(binop(Opcode::MOV,
               Operand::mem(Addr::indexOnly(Reg::ECX, x86::Scale::S4,
                                            0x404)),
               Operand::reg(Reg::EAX)));
  A.label("noswap");
  A.emit(unop(Opcode::INC, Operand::reg(Reg::ECX)));
  A.emit(binop(Opcode::CMP, Operand::reg(Reg::ECX),
               Operand::imm(N - 1)));
  A.jccTo(Cond::B, "inner");
  A.emit(unop(Opcode::INC, Operand::reg(Reg::EDX)));
  A.emit(binop(Opcode::CMP, Operand::reg(Reg::EDX), Operand::imm(N)));
  A.jccTo(Cond::B, "outer");
  A.hlt();

  sem::Cpu C = runVerified(A, 100000, [](sem::Cpu &Cpu) {
    // A descending array — worst case.
    for (uint32_t I = 0; I < N; ++I)
      Cpu.M.Mem.store(DataBase + 0x400 + 4 * I, 4, 1000 - I * 13);
  });
  for (uint32_t I = 0; I + 1 < N; ++I)
    ASSERT_LE(C.M.Mem.load(DataBase + 0x400 + 4 * I, 4),
              C.M.Mem.load(DataBase + 0x400 + 4 * (I + 1), 4))
        << I;
}

TEST(Programs, ChecksumWithFunctionCall) {
  // A call/masked-return idiom: caller pushes, callee sums an array and
  // "returns" by popping into a register and nacljmp-ing through it (the
  // NaCl replacement for RET).
  Assembler A;
  A.emit(movImm(Reg::ESI, 0x500)); // array base
  A.emit(movImm(Reg::ECX, 8));     // count
  A.callToAligned("sum"); // ends on a bundle boundary: exact return
  A.label("after");
  // Result arrives in EAX; store to 0x600.
  A.emit(binop(Opcode::MOV, Operand::mem(Addr::disp(0x600)),
               Operand::reg(Reg::EAX)));
  A.hlt();

  A.alignedLabel("sum");
  A.emit(movImm(Reg::EAX, 0));
  A.alignedLabel("sumloop");
  A.emit(binop(Opcode::ADD, Operand::reg(Reg::EAX),
               Operand::mem(Addr::base(Reg::ESI))));
  A.emit(binop(Opcode::ADD, Operand::reg(Reg::ESI), Operand::imm(4)));
  A.emit(unop(Opcode::DEC, Operand::reg(Reg::ECX)));
  A.jccTo(Cond::NE, "sumloop");
  // NaCl return: pop the return address and masked-jump through it.
  A.emit(unop(Opcode::POP, Operand::reg(Reg::EBX)));
  A.maskedJump(Reg::EBX);

  sem::Cpu C = runVerified(A, 10000, [](sem::Cpu &Cpu) {
    for (uint32_t I = 0; I < 8; ++I)
      Cpu.M.Mem.store(DataBase + 0x500 + 4 * I, 4, I + 1);
  });
  EXPECT_EQ(C.M.Mem.load(DataBase + 0x600, 4), 36u); // 1+...+8
  EXPECT_EQ(C.M.St, rtl::Status::Halted);
}

TEST(Programs, CollatzIterations) {
  // Count Collatz steps for n=27 (111 steps) using div-free arithmetic:
  // test parity with TEST, n/2 via SHR, 3n+1 via LEA.
  Assembler A;
  A.emit(movImm(Reg::EAX, 27)); // n
  A.emit(movImm(Reg::ECX, 0));  // steps
  A.alignedLabel("loop");
  A.emit(binop(Opcode::CMP, Operand::reg(Reg::EAX), Operand::imm(1)));
  A.jccTo(Cond::E, "done");
  A.emit(binop(Opcode::TEST, Operand::reg(Reg::EAX), Operand::imm(1)));
  A.jccTo(Cond::NE, "odd");
  // even: n >>= 1
  {
    Instr Shr;
    Shr.Op = Opcode::SHR;
    Shr.Op1 = Operand::reg(Reg::EAX);
    Shr.Op2 = Operand::imm(1);
    A.emit(Shr);
  }
  A.jmpTo("next");
  A.alignedLabel("odd");
  // odd: n = 3n + 1 = lea eax, [eax + 2*eax + 1]
  {
    Instr Lea;
    Lea.Op = Opcode::LEA;
    Lea.Op1 = Operand::reg(Reg::EAX);
    Lea.Op2 = Operand::mem(
        Addr::baseIndex(Reg::EAX, Reg::EAX, x86::Scale::S2, 1));
    A.emit(Lea);
  }
  A.label("next");
  A.emit(unop(Opcode::INC, Operand::reg(Reg::ECX)));
  A.jmpTo("loop");
  A.alignedLabel("done");
  A.hlt();

  sem::Cpu C = runVerified(A, 100000);
  EXPECT_EQ(C.M.Regs[1], 111u);
  EXPECT_EQ(C.M.Regs[0], 1u);
}

TEST(Programs, RepeatedCallsWithMaskedReturns) {
  // 64 calls through the NaCl call/masked-return idiom; every return
  // address is bundle-aligned (callToAligned), so control returns
  // exactly and the counter reaches 64.
  Assembler A;
  A.emit(movImm(Reg::EDX, 0));
  A.emit(movImm(Reg::ECX, 64));
  A.alignedLabel("spin");
  A.callToAligned("level");
  A.emit(unop(Opcode::DEC, Operand::reg(Reg::ECX)));
  A.jccTo(Cond::NE, "spin");
  A.hlt();
  A.alignedLabel("level");
  A.emit(unop(Opcode::INC, Operand::reg(Reg::EDX)));
  A.emit(unop(Opcode::POP, Operand::reg(Reg::EBX)));
  A.maskedJump(Reg::EBX);

  sem::Cpu C = runVerified(A, 10000);
  EXPECT_EQ(C.M.Regs[2], 64u);
  EXPECT_EQ(C.M.Regs[1], 0u);
  EXPECT_EQ(C.M.St, rtl::Status::Halted);
}
