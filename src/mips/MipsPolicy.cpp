//===- mips/MipsPolicy.cpp ------------------------------------*- C++ -*-===//

#include "mips/MipsPolicy.h"

#include "core/ChainDriver.h"
#include "regex/Algebra.h"

#include <stdexcept>
#include <string>

using namespace rocksalt;
using namespace rocksalt::mips;
using re::Factory;
using re::Regex;

namespace {

/// A 32-bit instruction word as the MSB-first bit string the grammars
/// consume (mips/Mips.h feeds words big-endian, four bytes most- to
/// least-significant).
std::string wordBits(uint32_t W) {
  std::string S(32, '0');
  for (int I = 0; I < 32; ++I)
    if ((W >> (31 - I)) & 1)
      S[I] = '1';
  return S;
}

/// The fixed mask half: `and $t9, $t9, $t6`.
uint32_t maskWord() {
  Instr I;
  I.Opc = Op::AND;
  I.Rs = MipsJumpReg;
  I.Rt = MipsMaskReg;
  I.Rd = MipsJumpReg;
  return encode(I);
}

/// The fixed jump half: `jr $t9` (rt, rd, shamt all zero).
uint32_t jrWord() {
  Instr I;
  I.Opc = Op::JR;
  I.Rs = MipsJumpReg;
  return encode(I);
}

/// nacljmp for MIPS: the one allowed indirect-jump sequence, eight
/// fixed bytes (contrast x86's per-register union — MIPS NaCl routes
/// every indirect jump through $t9).
Regex mipsMaskedJumpRe(Factory &F) {
  return F.cat(F.bits(wordBits(maskWord())), F.bits(wordBits(jrWord())));
}

bool isDirectJumpForm(const std::string &Name) {
  return Name == "beq" || Name == "bne" || Name == "j" || Name == "jal";
}

/// Control-flow forms are carved out of NoControlFlow: the direct
/// jumps go to DirectJump, and `jr` goes nowhere — a naked indirect
/// jump is exactly what the sandbox forbids (it is only legal as the
/// second half of the masked pair).
bool isControlFlowForm(const std::string &Name) {
  return Name == "jr" || isDirectJumpForm(Name);
}

struct MipsPolicyRegexes {
  Regex NoControlFlow = nullptr;
  Regex DirectJump = nullptr;
  Regex MaskedJump = nullptr;
};

MipsPolicyRegexes buildMipsPolicyRegexes(Factory &F) {
  std::vector<Regex> Ncf, Dj;
  for (const auto &[Name, Gr] : mipsGrammars().Forms) {
    if (isDirectJumpForm(Name))
      Dj.push_back(Gr.strip(F));
    else if (!isControlFlowForm(Name))
      Ncf.push_back(Gr.strip(F));
  }
  MipsPolicyRegexes P;
  P.NoControlFlow = F.altN(std::move(Ncf));
  P.DirectJump = F.altN(std::move(Dj));
  P.MaskedJump = mipsMaskedJumpRe(F);
  return P;
}

} // namespace

re::Regex mips::mipsDecoderRegex(Factory &F) {
  return mipsGrammars().Full.strip(F);
}

core::PolicyTables mips::buildMipsPolicyTablesRaw() {
  Factory F;
  MipsPolicyRegexes P = buildMipsPolicyRegexes(F);
  core::PolicyTables T;
  T.NoControlFlow = re::buildDfa(F, P.NoControlFlow);
  T.DirectJump = re::buildDfa(F, P.DirectJump);
  T.MaskedJump = re::buildDfa(F, P.MaskedJump);
  return T;
}

core::PolicyTables mips::buildMipsPolicyTables() {
  core::PolicyTables T = buildMipsPolicyTablesRaw();
  T.NoControlFlow = re::minimizeDfa(T.NoControlFlow);
  T.DirectJump = re::minimizeDfa(T.DirectJump);
  T.MaskedJump = re::minimizeDfa(T.MaskedJump);
  if (T.NoControlFlow.numStates() != MipsNoControlFlowStates ||
      T.DirectJump.numStates() != MipsDirectJumpStates ||
      T.MaskedJump.numStates() != MipsMaskedJumpStates)
    throw std::logic_error(
        "MIPS policy table state counts diverged from the pinned constants "
        "in mips/MipsPolicy.h (got " +
        std::to_string(T.NoControlFlow.numStates()) + "/" +
        std::to_string(T.DirectJump.numStates()) + "/" +
        std::to_string(T.MaskedJump.numStates()) +
        ") — a grammar change altered the minimized tables");
  return T;
}

const core::TableEntry &mips::mipsTableEntry() {
  return core::TableRegistry::instance().getOrBuild(
      core::TableKey{core::IsaMips, core::PolicySetNacl,
                     re::TableFormatVersion},
      buildMipsPolicyTables);
}

namespace {

/// MIPS traits for the Figure-5 chain (core/ChainDriver.h): the 16-byte
/// bundle, the 4-byte `jr $t9` jump half, and MIPS target extraction.
struct MipsIsa {
  static constexpr uint32_t BundleSize = MipsBundleSize;
  static constexpr uint32_t MaskedJumpHalfLen = MipsMaskedJumpHalfLen;

  /// The paper's `extract` for MIPS: the destination of the direct jump
  /// whose match spans [Start, End). beq/bne branch pc-relative from
  /// the *following* word (End here — the model has no delay slot);
  /// j/jal carry an absolute word index within the image. Returns false
  /// when the destination lies outside [0, Size), like the x86 extract.
  static bool extractTarget(const uint8_t *Code, uint32_t Start, uint32_t End,
                            uint32_t Size, uint32_t *DestOut) {
    uint8_t Opcode = Code[Start] >> 2;
    uint32_t Dest;
    if (Opcode == 0x04 || Opcode == 0x05) { // beq / bne
      uint16_t Imm =
          uint16_t((uint16_t(Code[Start + 2]) << 8) | Code[Start + 3]);
      Dest = End + (uint32_t(int32_t(int16_t(Imm))) << 2);
    } else { // j / jal
      uint32_t Target26 = (uint32_t(Code[Start] & 0x03) << 24) |
                          (uint32_t(Code[Start + 1]) << 16) |
                          (uint32_t(Code[Start + 2]) << 8) | Code[Start + 3];
      Dest = Target26 << 2;
    }
    if (Dest >= Size)
      return false;
    *DestOut = Dest;
    return true;
  }
};

} // namespace

core::CheckResult mips::checkMipsReference(const core::PolicyTables &T,
                                           const uint8_t *Code,
                                           uint32_t Size) {
  return core::referenceCheck<MipsIsa>(T, Code, Size);
}

core::CheckResult mips::checkMips(const uint8_t *Code, uint32_t Size) {
  return core::checkImage<MipsIsa>(*mipsTableEntry().Fused, Code, Size);
}
