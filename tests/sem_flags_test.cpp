//===- tests/sem_flags_test.cpp -------------------------------*- C++ -*-===//
//
// Precise flag semantics, checked against hand-computed vectors from the
// Intel manual's flag definitions. These are independent of both
// interpreter implementations (the differential suite proves the two
// implementations agree; this suite pins them to the architecture).
//
//===----------------------------------------------------------------------===//

#include "sem/Cpu.h"
#include "x86/Encoder.h"
#include "x86/Printer.h"

#include <gtest/gtest.h>

#include <cstddef>

using namespace rocksalt;
using namespace rocksalt::sem;
using namespace rocksalt::x86;
using rtl::Flag;

namespace {

/// One flag-vector case: run `Op dst_reg, imm` (at width W) with the
/// given input and incoming CF, and compare result + all six arithmetic
/// flags. -1 means "don't check".
struct FlagCase {
  Opcode Op;
  bool W; // false = 8-bit
  /// gtest names each case after the bytes of its FlagCase, so the two
  /// bytes between W and A are a field, not padding: as padding they held
  /// leftover stack bytes and the case names changed from run to run. A
  /// non-zero tag keeps the name a case is already known by.
  uint16_t NameTag;
  uint32_t A;
  uint32_t B;
  int CfIn; // -1: none
  uint32_t Result;
  int CF, OF, SF, ZF, AF, PF;

  FlagCase(Opcode Op, bool W, uint32_t A, uint32_t B, int CfIn,
           uint32_t Result, int CF, int OF, int SF, int ZF, int AF, int PF,
           uint16_t NameTag = 0)
      : Op(Op), W(W), NameTag(NameTag), A(A), B(B), CfIn(CfIn),
        Result(Result), CF(CF), OF(OF), SF(SF), ZF(ZF), AF(AF), PF(PF) {}
};
static_assert(sizeof(FlagCase) == 44 && offsetof(FlagCase, A) == 4,
              "FlagCase must have no padding: its bytes name the cases");

class FlagVector : public ::testing::TestWithParam<FlagCase> {};

Cpu runCase(const FlagCase &C) {
  Cpu Cpu;
  std::vector<uint8_t> Code;

  // Seed EBX with the input value.
  Instr Seed;
  Seed.Op = Opcode::MOV;
  Seed.Op1 = Operand::reg(Reg::EBX);
  Seed.Op2 = Operand::imm(C.A);
  auto B0 = encodeOrDie(Seed);
  Code.insert(Code.end(), B0.begin(), B0.end());

  // The operation under test: op bl/ebx, imm (or unary on bl/ebx).
  Instr I;
  I.Op = C.Op;
  I.W = C.W;
  I.Op1 = Operand::reg(Reg::EBX);
  if (C.Op != Opcode::NOT && C.Op != Opcode::NEG && C.Op != Opcode::INC &&
      C.Op != Opcode::DEC)
    I.Op2 = Operand::imm(C.B);
  auto B1 = encodeOrDie(I);
  Code.insert(Code.end(), B1.begin(), B1.end());
  while (Code.size() % 32)
    Code.push_back(0x90);

  Cpu.configureSandbox(0x1000, 0x1000, 0x100000, 0x10000, Code);
  Cpu.step(); // mov
  if (C.CfIn >= 0)
    Cpu.M.Flags[static_cast<unsigned>(Flag::CF)] = C.CfIn;
  Cpu.step(); // the op
  return Cpu;
}

} // namespace

TEST_P(FlagVector, MatchesIntelManual) {
  const FlagCase &C = GetParam();
  Cpu Cpu = runCase(C);

  uint32_t Mask = C.W ? 0xFFFFFFFF : 0xFF;
  EXPECT_EQ(Cpu.M.Regs[3] & Mask, C.Result & Mask);
  auto Fl = [&](Flag F) { return int(Cpu.M.Flags[unsigned(F)]); };
  struct Check {
    int Expected;
    Flag F;
    const char *Name;
  } Checks[] = {{C.CF, Flag::CF, "CF"}, {C.OF, Flag::OF, "OF"},
                {C.SF, Flag::SF, "SF"}, {C.ZF, Flag::ZF, "ZF"},
                {C.AF, Flag::AF, "AF"}, {C.PF, Flag::PF, "PF"}};
  for (const Check &K : Checks) {
    if (K.Expected >= 0) {
      EXPECT_EQ(Fl(K.F), K.Expected) << K.Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Add, FlagVector,
    ::testing::Values(
        // op      W     A           B         cf  result      CF OF SF ZF AF PF
        FlagCase{Opcode::ADD, true, 1, 1, -1, 2, 0, 0, 0, 0, 0, 0},
        FlagCase{Opcode::ADD, true, 0xFFFFFFFF, 1, -1, 0, 1, 0, 0, 1, 1, 1},
        FlagCase{Opcode::ADD, true, 0x7FFFFFFF, 1, -1, 0x80000000, 0, 1, 1,
                 0, 1, 1},
        FlagCase{Opcode::ADD, true, 0x0F, 1, -1, 0x10, 0, 0, 0, 0, 1, 0},
        FlagCase{Opcode::ADD, false, 0x80, 0x80, -1, 0x00, 1, 1, 0, 1, 0,
                 1, 0x1B01},
        FlagCase{Opcode::ADD, false, 0x7F, 0x01, -1, 0x80, 0, 1, 1, 0, 1,
                 0}));

INSTANTIATE_TEST_SUITE_P(
    Sub, FlagVector,
    ::testing::Values(
        FlagCase{Opcode::SUB, true, 5, 3, -1, 2, 0, 0, 0, 0, 0, 0, 0x2F64},
        FlagCase{Opcode::SUB, true, 3, 5, -1, 0xFFFFFFFE, 1, 0, 1, 0, 1,
                 0, 0x7C00},
        FlagCase{Opcode::SUB, true, 0x80000000, 1, -1, 0x7FFFFFFF, 0, 1, 0,
                 0, 1, 1},
        FlagCase{Opcode::SUB, true, 7, 7, -1, 0, 0, 0, 0, 1, 0, 1},
        FlagCase{Opcode::CMP, true, 3, 5, -1, 3 /*unchanged*/, 1, 0, 1, 0,
                 1, 0, 0xABF3}));

INSTANTIATE_TEST_SUITE_P(
    CarryChains, FlagVector,
    ::testing::Values(
        FlagCase{Opcode::ADC, true, 0xFFFFFFFF, 0, 1, 0, 1, 0, 0, 1, 1, 1},
        FlagCase{Opcode::ADC, true, 1, 1, 1, 3, 0, 0, 0, 0, 0, 1},
        FlagCase{Opcode::SBB, true, 0, 0, 1, 0xFFFFFFFF, 1, 0, 1, 0, 1, 1,
                 0xAAB1},
        FlagCase{Opcode::SBB, true, 5, 2, 1, 2, 0, 0, 0, 0, 0, 0},
        FlagCase{Opcode::ADC, false, 0xFF, 0xFF, 1, 0xFF, 1, 0, 1, 0, 1,
                 1, 0xABF3}));

INSTANTIATE_TEST_SUITE_P(
    Logic, FlagVector,
    ::testing::Values(
        FlagCase{Opcode::AND, true, 0xFF00FF00, 0x0F0F0F0F, -1, 0x0F000F00,
                 0, 0, 0, 0, 0, 1, 0xAAB1},
        FlagCase{Opcode::OR, true, 0, 0, -1, 0, 0, 0, 0, 1, 0, 1},
        FlagCase{Opcode::XOR, true, 0xAAAAAAAA, 0xAAAAAAAA, -1, 0, 0, 0, 0,
                 1, 0, 1, 0xCD71},
        FlagCase{Opcode::TEST, true, 0x80000000, 0x80000000, -1,
                 0x80000000 /*unchanged*/, 0, 0, 1, 0, 0, 1}));

INSTANTIATE_TEST_SUITE_P(
    IncDecNeg, FlagVector,
    ::testing::Values(
        // INC/DEC preserve CF (seeded via CfIn and checked unchanged).
        FlagCase{Opcode::INC, false, 0xFF, 0, 1, 0x00, 1, 0, 0, 1, 1, 1},
        FlagCase{Opcode::INC, false, 0x7F, 0, 0, 0x80, 0, 1, 1, 0, 1, 0},
        FlagCase{Opcode::DEC, false, 0x00, 0, 0, 0xFF, 0, 0, 1, 0, 1, 1},
        FlagCase{Opcode::DEC, false, 0x80, 0, 1, 0x7F, 1, 1, 0, 0, 1, 0},
        FlagCase{Opcode::NEG, true, 1, 0, -1, 0xFFFFFFFF, 1, 0, 1, 0, 1,
                 1},
        FlagCase{Opcode::NEG, true, 0, 0, -1, 0, 0, 0, 0, 1, 0, 1, 0x7C16},
        FlagCase{Opcode::NEG, true, 0x80000000, 0, -1, 0x80000000, 1, 1, 1,
                 0, 0, 1, 0xAAB1}));

INSTANTIATE_TEST_SUITE_P(
    Shifts, FlagVector,
    ::testing::Values(
        FlagCase{Opcode::SHL, true, 0x80000001, 1, -1, 0x00000002, 1, 1, 0,
                 0, -1, 0},
        FlagCase{Opcode::SHL, true, 0x40000000, 1, -1, 0x80000000, 0, 1, 1,
                 0, -1, 1},
        FlagCase{Opcode::SHR, true, 0x00000003, 1, -1, 0x00000001, 1, 0, 0,
                 0, -1, 0},
        FlagCase{Opcode::SHR, true, 0x80000000, 1, -1, 0x40000000, 0, 1, 0,
                 0, -1, 1},
        FlagCase{Opcode::SAR, true, 0x80000000, 1, -1, 0xC0000000, 0, 0, 1,
                 0, -1, 1},
        FlagCase{Opcode::SAR, true, 0x00000003, 1, -1, 0x00000001, 1, 0, 0,
                 0, -1, 0},
        // Rotates: only CF/OF change (SF/ZF/PF untouched => unchecked).
        FlagCase{Opcode::ROL, true, 0x80000000, 1, -1, 0x00000001, 1, 1,
                 -1, -1, -1, -1},
        FlagCase{Opcode::ROR, true, 0x00000001, 1, -1, 0x80000000, 1, 1,
                 -1, -1, -1, -1},
        FlagCase{Opcode::RCL, false, 0x80, 1, 1, 0x01, 1, 1, -1, -1, -1,
                 -1, 0xABF3},
        // RCR result 0x80: OF = msb ^ msb-1 of the result = 1.
        FlagCase{Opcode::RCR, false, 0x01, 1, 1, 0x80, 1, 1, -1, -1, -1,
                 -1}));

//===----------------------------------------------------------------------===//
// Non-parameterizable flag scenarios.
//===----------------------------------------------------------------------===//

namespace {

Instr movImm(Reg R, uint32_t V) {
  Instr I;
  I.Op = Opcode::MOV;
  I.Op1 = Operand::reg(R);
  I.Op2 = Operand::imm(V);
  return I;
}

Cpu runProgram(const std::vector<Instr> &Prog) {
  std::vector<uint8_t> Code;
  for (const Instr &I : Prog) {
    auto B = encodeOrDie(I);
    Code.insert(Code.end(), B.begin(), B.end());
  }
  while (Code.size() % 32)
    Code.push_back(0x90);
  Cpu C;
  C.configureSandbox(0x1000, 0x1000, 0x100000, 0x10000, Code);
  C.run(Prog.size());
  return C;
}

} // namespace

TEST(FlagScenarios, MulSetsCarryIffHighHalfNonZero) {
  Instr Mul;
  Mul.Op = Opcode::MUL;
  Mul.W = false;
  Mul.Op1 = Operand::reg(Reg::EBX); // BL
  Cpu C = runProgram({movImm(Reg::EAX, 200), movImm(Reg::EBX, 2), Mul});
  EXPECT_EQ(C.M.Regs[0] & 0xFFFF, 400u);
  EXPECT_TRUE(C.M.Flags[0]); // CF
  EXPECT_TRUE(C.M.Flags[8]); // OF

  Cpu D = runProgram({movImm(Reg::EAX, 10), movImm(Reg::EBX, 3), Mul});
  EXPECT_EQ(D.M.Regs[0] & 0xFFFF, 30u);
  EXPECT_FALSE(D.M.Flags[0]);
  EXPECT_FALSE(D.M.Flags[8]);
}

TEST(FlagScenarios, ImulTwoOperandOverflow) {
  Instr Imul;
  Imul.Op = Opcode::IMUL;
  Imul.Op1 = Operand::reg(Reg::EBX);
  Imul.Op2 = Operand::reg(Reg::ECX);
  Cpu C = runProgram(
      {movImm(Reg::EBX, 0x10000), movImm(Reg::ECX, 0x10000), Imul});
  EXPECT_EQ(C.M.Regs[3], 0u);
  EXPECT_TRUE(C.M.Flags[0]);
  EXPECT_TRUE(C.M.Flags[8]);

  Cpu D = runProgram({movImm(Reg::EBX, 3), movImm(Reg::ECX, 4), Imul});
  EXPECT_EQ(D.M.Regs[3], 12u);
  EXPECT_FALSE(D.M.Flags[0]);
}

TEST(FlagScenarios, DaaDecimalAdjust) {
  // AL = 0x9C, CF=AF=0: DAA gives AL=0x02, CF=1, AF=1.
  Instr MovAl;
  MovAl.Op = Opcode::MOV;
  MovAl.W = false;
  MovAl.Op1 = Operand::reg(Reg::EAX);
  MovAl.Op2 = Operand::imm(0x9C);
  Instr Clc;
  Clc.Op = Opcode::CLC;
  Instr Daa;
  Daa.Op = Opcode::DAA;
  Cpu C = runProgram({MovAl, Clc, Daa});
  EXPECT_EQ(C.M.Regs[0] & 0xFF, 0x02u);
  EXPECT_TRUE(C.M.Flags[0]); // CF
  EXPECT_TRUE(C.M.Flags[2]); // AF
}

TEST(FlagScenarios, AaaAsciiAdjust) {
  // AL = 0x0F: AAA gives AL=5, AH+=1, CF=AF=1.
  Instr MovAx;
  MovAx.Op = Opcode::MOV;
  MovAx.Pfx.OpSize = true; // mov ax, 0x000F
  MovAx.Op1 = Operand::reg(Reg::EAX);
  MovAx.Op2 = Operand::imm(0x000F);
  Instr Aaa;
  Aaa.Op = Opcode::AAA;
  Cpu C = runProgram({MovAx, Aaa});
  EXPECT_EQ(C.M.Regs[0] & 0xFF, 0x05u);
  EXPECT_EQ((C.M.Regs[0] >> 8) & 0xFF, 0x01u);
  EXPECT_TRUE(C.M.Flags[0]);
  EXPECT_TRUE(C.M.Flags[2]);
}

TEST(FlagScenarios, AamSplitsDigits) {
  Instr MovAl;
  MovAl.Op = Opcode::MOV;
  MovAl.W = false;
  MovAl.Op1 = Operand::reg(Reg::EAX);
  MovAl.Op2 = Operand::imm(123);
  Instr Aam;
  Aam.Op = Opcode::AAM;
  Aam.Op1 = Operand::imm(10);
  Cpu C = runProgram({MovAl, Aam});
  EXPECT_EQ(C.M.Regs[0] & 0xFF, 3u);         // AL = 123 % 10
  EXPECT_EQ((C.M.Regs[0] >> 8) & 0xFF, 12u); // AH = 123 / 10
  EXPECT_TRUE(C.M.Flags[1]);                 // PF of 3 (two bits, even)
  EXPECT_FALSE(C.M.Flags[3]);                // ZF
}

TEST(FlagScenarios, BtFamilySetsCarryFromBit) {
  Instr Bt;
  Bt.Op = Opcode::BT;
  Bt.Op1 = Operand::reg(Reg::EBX);
  Bt.Op2 = Operand::imm(4);
  Cpu C = runProgram({movImm(Reg::EBX, 0x10), Bt});
  EXPECT_TRUE(C.M.Flags[0]);

  Instr Btc = Bt;
  Btc.Op = Opcode::BTC;
  Cpu D = runProgram({movImm(Reg::EBX, 0x10), Btc});
  EXPECT_TRUE(D.M.Flags[0]);
  EXPECT_EQ(D.M.Regs[3], 0u); // bit toggled off

  // Register bit index is taken modulo the width.
  Instr BtReg;
  BtReg.Op = Opcode::BT;
  BtReg.Op1 = Operand::reg(Reg::EBX);
  BtReg.Op2 = Operand::reg(Reg::ECX);
  Cpu E = runProgram(
      {movImm(Reg::EBX, 0x10), movImm(Reg::ECX, 36 /* = 4 mod 32 */),
       BtReg});
  EXPECT_TRUE(E.M.Flags[0]);
}

TEST(FlagScenarios, ShldCountZeroTouchesNothing) {
  Instr Stc;
  Stc.Op = Opcode::STC;
  Instr Shld;
  Shld.Op = Opcode::SHLD;
  Shld.Op1 = Operand::reg(Reg::EBX);
  Shld.Op2 = Operand::reg(Reg::ECX);
  Shld.Op3 = Operand::imm(0);
  Cpu C = runProgram({movImm(Reg::EBX, 0x1234), movImm(Reg::ECX, 0xFFFF),
                      Stc, Shld});
  EXPECT_EQ(C.M.Regs[3], 0x1234u);
  EXPECT_TRUE(C.M.Flags[0]); // CF untouched
}

TEST(FlagScenarios, ShldShiftsInFromSource) {
  Instr Shld;
  Shld.Op = Opcode::SHLD;
  Shld.Op1 = Operand::reg(Reg::EBX);
  Shld.Op2 = Operand::reg(Reg::ECX);
  Shld.Op3 = Operand::imm(8);
  Cpu C = runProgram({movImm(Reg::EBX, 0x12345678),
                      movImm(Reg::ECX, 0xABCDEF01), Shld});
  EXPECT_EQ(C.M.Regs[3], 0x345678ABu);

  Instr Shrd = Shld;
  Shrd.Op = Opcode::SHRD;
  Cpu D = runProgram({movImm(Reg::EBX, 0x12345678),
                      movImm(Reg::ECX, 0xABCDEF01), Shrd});
  EXPECT_EQ(D.M.Regs[3], 0x01123456u);
}

TEST(FlagScenarios, CmcTogglesCldDfDirection) {
  Instr Stc;
  Stc.Op = Opcode::STC;
  Instr Cmc;
  Cmc.Op = Opcode::CMC;
  Cpu C = runProgram({Stc, Cmc});
  EXPECT_FALSE(C.M.Flags[0]);

  Instr Std;
  Std.Op = Opcode::STD;
  Cpu D = runProgram({Std});
  EXPECT_TRUE(D.M.Flags[7]); // DF
}
