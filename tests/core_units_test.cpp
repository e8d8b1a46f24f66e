//===- tests/core_units_test.cpp ------------------------------*- C++ -*-===//
//
// Focused unit tests for the trusted core's pieces (paper Figure 6
// semantics of `match`), the NaCl assembler, the workload generator, the
// mutator, and the trusted runtime.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "nacl/Assembler.h"
#include "nacl/Mutator.h"
#include "nacl/TrustedRuntime.h"
#include "nacl/WorkloadGen.h"
#include "x86/FastDecoder.h"

#include <gtest/gtest.h>

using namespace rocksalt;
using namespace rocksalt::core;
using namespace rocksalt::nacl;

//===----------------------------------------------------------------------===//
// dfaMatch — the exact contract of Figure 6.
//===----------------------------------------------------------------------===//

namespace {

/// A tiny DFA accepting "AB" or "A" built by hand through the regex
/// pipeline.
re::Dfa twoStringDfa(re::Factory &F) {
  return re::buildDfa(
      F, F.alt(F.byteLit('A'), F.cat(F.byteLit('B'), F.byteLit('C'))));
}

} // namespace

TEST(DfaMatch, AdvancesPosExactlyPastShortestAccept) {
  re::Factory F;
  re::Dfa D = twoStringDfa(F);
  const uint8_t Code[] = {'A', 'X', 'Y'};
  uint32_t Pos = 0;
  ASSERT_TRUE(dfaMatch(D, Code, &Pos, 3));
  EXPECT_EQ(Pos, 1u);
}

TEST(DfaMatch, LeavesPosUnchangedOnFailure) {
  re::Factory F;
  re::Dfa D = twoStringDfa(F);
  const uint8_t Code[] = {'Z', 'A'};
  uint32_t Pos = 0;
  EXPECT_FALSE(dfaMatch(D, Code, &Pos, 2));
  EXPECT_EQ(Pos, 0u);
  // But matching at position 1 succeeds.
  Pos = 1;
  EXPECT_TRUE(dfaMatch(D, Code, &Pos, 2));
  EXPECT_EQ(Pos, 2u);
}

TEST(DfaMatch, StopsAtRejectState) {
  re::Factory F;
  re::Dfa D = twoStringDfa(F);
  const uint8_t Code[] = {'B', 'X', 'C'}; // diverges after B
  uint32_t Pos = 0;
  EXPECT_FALSE(dfaMatch(D, Code, &Pos, 3));
  EXPECT_EQ(Pos, 0u);
}

TEST(DfaMatch, RunsOutOfInputWithoutAccepting) {
  re::Factory F;
  re::Dfa D = twoStringDfa(F);
  const uint8_t Code[] = {'B'};
  uint32_t Pos = 0;
  EXPECT_FALSE(dfaMatch(D, Code, &Pos, 1));
}

TEST(DfaMatch, EmptyInputNeverMatches) {
  re::Factory F;
  re::Dfa D = twoStringDfa(F);
  uint32_t Pos = 0;
  EXPECT_FALSE(dfaMatch(D, nullptr, &Pos, 0));
}

//===----------------------------------------------------------------------===//
// Assembler.
//===----------------------------------------------------------------------===//

TEST(Assembler, PadsBeforeStraddlingInstruction) {
  Assembler A;
  for (int I = 0; I < 30; ++I)
    A.emit(x86::Instr{}); // 30 one-byte NOPs
  // A 5-byte mov would straddle the 32-byte boundary; the assembler must
  // pad to offset 32 first.
  x86::Instr Mov;
  Mov.Op = x86::Opcode::MOV;
  Mov.Op1 = x86::Operand::reg(x86::Reg::EAX);
  Mov.Op2 = x86::Operand::imm(0x11223344);
  A.emit(Mov);
  std::vector<uint8_t> Code = A.finish();
  EXPECT_EQ(Code[30], 0x90);
  EXPECT_EQ(Code[31], 0x90);
  EXPECT_EQ(Code[32], 0xB8); // mov eax, imm32 at the bundle start
}

TEST(Assembler, ForwardAndBackwardFixups) {
  Assembler A;
  A.jmpTo("fwd");
  A.label("back");
  A.emit(x86::Instr{});
  A.label("fwd");
  A.jmpTo("back");
  std::vector<uint8_t> Code = A.finish();

  // First jump: at 0, 5 bytes, targets offset 6.
  auto J1 = x86::fastDecode(Code);
  ASSERT_TRUE(J1);
  EXPECT_EQ(J1->I.Op1.ImmVal, 1u); // 6 - 5
  // Second jump: at 6, targets offset 5 (disp = 5 - 11 = -6).
  auto J2 = x86::fastDecode(Code.data() + 6, Code.size() - 6);
  ASSERT_TRUE(J2);
  EXPECT_EQ(static_cast<int32_t>(J2->I.Op1.ImmVal), -6);
}

TEST(Assembler, AlignedLabelIsBundleAligned) {
  Assembler A;
  A.emit(x86::Instr{});
  A.alignedLabel("entry");
  uint32_t Here = A.here();
  EXPECT_EQ(Here % BundleSize, 0u);
  EXPECT_NE(Here, 0u);
  A.hlt();
  (void)A.finish();
}

TEST(Assembler, FinishPadsToWholeBundles) {
  Assembler A;
  A.emit(x86::Instr{});
  std::vector<uint8_t> Code = A.finish();
  EXPECT_EQ(Code.size() % BundleSize, 0u);
}

TEST(Assembler, MaskedFormsVerify) {
  RockSalt V;
  for (x86::Reg R : {x86::Reg::EAX, x86::Reg::ECX, x86::Reg::EDX,
                     x86::Reg::EBX, x86::Reg::EBP, x86::Reg::ESI,
                     x86::Reg::EDI}) {
    Assembler A;
    A.maskedJump(R);
    A.maskedCall(R);
    EXPECT_TRUE(V.verify(A.finish())) << x86::regName(R);
  }
}

//===----------------------------------------------------------------------===//
// WorkloadGen / Mutator.
//===----------------------------------------------------------------------===//

TEST(WorkloadGen, RespectsTargetSizeRoughly) {
  WorkloadOptions Opts;
  Opts.TargetBytes = 4096;
  Opts.Seed = 5;
  std::vector<uint8_t> Code = generateWorkload(Opts);
  EXPECT_GE(Code.size(), 4096u);
  EXPECT_LE(Code.size(), 4096u + 512u);
  EXPECT_EQ(Code.size() % BundleSize, 0u);
}

TEST(WorkloadGen, DeterministicPerSeed) {
  WorkloadOptions Opts;
  Opts.TargetBytes = 1024;
  Opts.Seed = 9;
  EXPECT_EQ(generateWorkload(Opts), generateWorkload(Opts));
  WorkloadOptions Other = Opts;
  Other.Seed = 10;
  EXPECT_NE(generateWorkload(Opts), generateWorkload(Other));
}

TEST(WorkloadGen, SafeInstrsAreAlwaysEncodable) {
  Rng R(77);
  for (int I = 0; I < 2000; ++I) {
    x86::Instr Ins = randomSafeInstr(R);
    EXPECT_TRUE(x86::encode(Ins).has_value());
  }
}

TEST(Mutator, TargetedAttacksChangeTheImage) {
  WorkloadOptions Opts;
  Opts.TargetBytes = 512;
  Opts.Seed = 3;
  Opts.MaskedJumpRate = 100;
  std::vector<uint8_t> Code = generateWorkload(Opts);
  Rng R(4);
  for (Attack A :
       {Attack::BareIndirectJump, Attack::InsertRet, Attack::InsertInt,
        Attack::StripMask, Attack::SegmentOverride, Attack::FarCall,
        Attack::WriteSegReg, Attack::PrefixedBranch}) {
    auto Bad = applyAttack(Code, A, R);
    if (!Bad)
      continue;
    EXPECT_NE(*Bad, Code) << int(A);
    EXPECT_EQ(Bad->size(), Code.size());
  }
}

TEST(Mutator, RandomMutationFlipsExactlyOneSite) {
  std::vector<uint8_t> Code(128, 0x90);
  Rng R(5);
  for (int I = 0; I < 100; ++I) {
    std::vector<uint8_t> M = mutateRandom(Code, R);
    int Diffs = 0;
    for (size_t J = 0; J < Code.size(); ++J)
      Diffs += Code[J] != M[J];
    EXPECT_LE(Diffs, 1);
  }
}

//===----------------------------------------------------------------------===//
// TrustedRuntime.
//===----------------------------------------------------------------------===//

namespace {

sem::Cpu loadProgram(const std::vector<uint8_t> &Code) {
  sem::Cpu C;
  C.configureSandbox(0x10000, static_cast<uint32_t>(Code.size()), 0x400000,
                     0x10000, Code);
  return C;
}

} // namespace

TEST(TrustedRuntime, ExitServiceStopsWithCode) {
  Assembler A;
  x86::Instr MovEax;
  MovEax.Op = x86::Opcode::MOV;
  MovEax.Op1 = x86::Operand::reg(x86::Reg::EAX);
  MovEax.Op2 = x86::Operand::imm(TrustedRuntime::SvcExit);
  x86::Instr MovEbx = MovEax;
  MovEbx.Op1 = x86::Operand::reg(x86::Reg::EBX);
  MovEbx.Op2 = x86::Operand::imm(7);
  A.emit(MovEbx);
  A.emit(MovEax);
  A.hlt();
  sem::Cpu C = loadProgram(A.finish());
  TrustedRuntime RT;
  auto R = RT.run(C, 1000);
  EXPECT_TRUE(R.Exited);
  EXPECT_EQ(R.ExitCode, 7u);
}

TEST(TrustedRuntime, WriteServiceCopiesFromDataSegment) {
  Assembler A;
  auto Mov = [](x86::Reg R, uint32_t V) {
    x86::Instr I;
    I.Op = x86::Opcode::MOV;
    I.Op1 = x86::Operand::reg(R);
    I.Op2 = x86::Operand::imm(V);
    return I;
  };
  A.emit(Mov(x86::Reg::EAX, TrustedRuntime::SvcWrite));
  A.emit(Mov(x86::Reg::EBX, 0x80)); // data offset
  A.emit(Mov(x86::Reg::ECX, 5));    // length
  A.hlt();
  A.emit(Mov(x86::Reg::EAX, TrustedRuntime::SvcExit));
  A.emit(Mov(x86::Reg::EBX, 0));
  A.hlt();
  sem::Cpu C = loadProgram(A.finish());
  const char *Msg = "hello";
  for (int I = 0; I < 5; ++I)
    C.M.Mem.store8(0x400000 + 0x80 + I, Msg[I]);
  TrustedRuntime RT;
  auto R = RT.run(C, 1000);
  EXPECT_EQ(R.Output, "hello");
  EXPECT_TRUE(R.Exited);
}

TEST(TrustedRuntime, FaultTerminatesWithoutExit) {
  // A program that jumps outside the code segment: the runtime reports
  // the fault rather than an exit.
  std::vector<uint8_t> Code = {0xB8, 0x00, 0x10, 0x00, 0x00, // mov eax,4096
                               0x83, 0xE0, 0xE0,             // and eax,-32
                               0xFF, 0xE0};                  // jmp *eax
  while (Code.size() % 32)
    Code.push_back(0x90);
  sem::Cpu C = loadProgram(Code);
  TrustedRuntime RT;
  auto R = RT.run(C, 1000);
  EXPECT_FALSE(R.Exited);
  EXPECT_EQ(R.Final, rtl::Status::Fault);
}

//===----------------------------------------------------------------------===//
// MaskedJump shape guard — the PairJmp bitmap derivation.
//===----------------------------------------------------------------------===//

// The checker marks the jump half of a masked pair at
// (end of match) - MaskedJumpHalfLen. That derivation is correct for any
// mask-half length, but MaskedJumpHalfLen itself hard-codes that the
// jump half is exactly two bytes. This test walks the compiled
// MaskedJump DFA and fails if the grammar ever accepts a string whose
// length is not mask(3) + jump(2) = 5 — i.e. if someone grows the
// grammar without revisiting the PairJmp positions.
TEST(Policy, MaskedJumpAcceptsOnlyFiveByteStrings) {
  const re::Dfa &D = policyTables().MaskedJump;
  // Breadth-first reachability: Reach[d] = states reachable by some
  // d-byte string. Depth-cap far above any plausible pair encoding.
  constexpr unsigned MaxDepth = 24;
  std::vector<uint8_t> Reach(D.numStates(), 0), Next;
  Reach[D.Start] = 1;
  std::vector<unsigned> AcceptDepths;
  for (unsigned Depth = 0; Depth <= MaxDepth; ++Depth) {
    for (size_t S = 0; S < D.numStates(); ++S)
      if (Reach[S] && D.Accepts[S])
        AcceptDepths.push_back(Depth);
    Next.assign(D.numStates(), 0);
    for (size_t S = 0; S < D.numStates(); ++S) {
      if (!Reach[S] || D.Rejects[S])
        continue;
      for (unsigned B = 0; B < 256; ++B)
        Next[D.step(uint16_t(S), uint8_t(B))] = 1;
    }
    Reach.swap(Next);
  }
  ASSERT_EQ(AcceptDepths.size(), 1u)
      << "MaskedJump accepts strings of several lengths; the PairJmp "
         "derivation in the chain driver (check, scanShard) must be "
         "revisited";
  EXPECT_EQ(AcceptDepths[0], 3u + MaskedJumpHalfLen);
}

// The other half of the guard: every sampled MaskedJump string really
// ends in a two-byte FF-group jump, so (end - MaskedJumpHalfLen) is the
// jump half's first byte.
TEST(Policy, MaskedJumpMatchesEndInTwoByteJumpHalf) {
  re::Factory F;
  PolicyGrammars P = buildPolicyGrammars(F);
  uint64_t RngState = 1234;
  unsigned Sampled = 0;
  for (int I = 0; I < 200; ++I) {
    auto Bytes = F.sampleBytes(P.MaskedJumpRe, RngState);
    if (!Bytes)
      continue;
    ++Sampled;
    ASSERT_GE(Bytes->size(), MaskedJumpHalfLen);
    size_t Jmp = Bytes->size() - MaskedJumpHalfLen;
    EXPECT_EQ((*Bytes)[Jmp], 0xFF);
    uint8_t Group = (*Bytes)[Jmp + 1] & 0xF8;
    EXPECT_TRUE(Group == 0xE0 || Group == 0xD0)
        << "modrm " << unsigned((*Bytes)[Jmp + 1]);
  }
  EXPECT_GE(Sampled, 50u);
}
