//===- e2ebench/MipsGen.cpp ----------------------------------------------===//

#include "MipsGen.h"

#include "mips/Mips.h"
#include "mips/MipsPolicy.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

using namespace rocksalt;

namespace e2e {

namespace {

enum Slot : uint8_t { Plain, Branch, PairMask, PairJump };

/// The no-control-flow forms and the fields each one uses; every field
/// it does not use stays zero.
const mips::Op PlainOps[] = {
    mips::Op::ADDU, mips::Op::SUBU,  mips::Op::AND,  mips::Op::OR,
    mips::Op::XOR,  mips::Op::NOR,   mips::Op::SLT,  mips::Op::SLTU,
    mips::Op::SLL,  mips::Op::SRL,   mips::Op::SRA,  mips::Op::ADDIU,
    mips::Op::ANDI, mips::Op::ORI,   mips::Op::XORI, mips::Op::SLTI,
    mips::Op::SLTIU, mips::Op::LUI,  mips::Op::LW,   mips::Op::SW};

mips::Instr randomPlain(mips::Op Opc, Rng &R) {
  mips::Instr I;
  I.Opc = Opc;
  switch (Opc) {
  case mips::Op::SLL:
  case mips::Op::SRL:
  case mips::Op::SRA:
    I.Rt = uint8_t(R.below(32));
    I.Rd = uint8_t(R.below(32));
    I.Shamt = uint8_t(R.below(32));
    break;
  case mips::Op::ADDU:
  case mips::Op::SUBU:
  case mips::Op::AND:
  case mips::Op::OR:
  case mips::Op::XOR:
  case mips::Op::NOR:
  case mips::Op::SLT:
  case mips::Op::SLTU:
    I.Rs = uint8_t(R.below(32));
    I.Rt = uint8_t(R.below(32));
    I.Rd = uint8_t(R.below(32));
    break;
  case mips::Op::LUI:
    I.Rt = uint8_t(R.below(32));
    I.Imm = uint16_t(R.below(65536));
    break;
  default: // the remaining I-type forms
    I.Rs = uint8_t(R.below(32));
    I.Rt = uint8_t(R.below(32));
    I.Imm = uint16_t(R.below(65536));
    break;
  }
  return I;
}

/// Confirms once, through the grammar decoder, that the field layouts
/// above encode words the decoder reads back unchanged. (Decoding every
/// generated word would cost seconds: the decoder parses by derivatives.)
void checkPlainLayouts() {
  static const bool Checked = [] {
    Rng R(0x5EED);
    for (mips::Op Opc : PlainOps)
      for (int K = 0; K < 4; ++K) {
        mips::Instr I = randomPlain(Opc, R);
        std::optional<mips::Instr> D = mips::decode(mips::encode(I));
        if (!D || !(*D == I))
          throw std::logic_error(std::string("MIPS form ") +
                                 mips::opName(Opc) + " does not round-trip");
      }
    return true;
  }();
  (void)Checked;
}

} // namespace

std::vector<uint8_t> generateMipsModule(const MipsModuleOptions &O, Rng &R) {
  checkPlainLayouts();
  const uint32_t WordsPerBundle = mips::MipsBundleSize / 4;
  uint32_t Bundles = O.TargetBytes / mips::MipsBundleSize;
  if (Bundles == 0)
    Bundles = 1;
  const uint32_t N = Bundles * WordsPerBundle;

  // Lay out the slots first, so branch targets can be drawn from the
  // final set of instruction starts (every word but a pair's jr half).
  std::vector<uint8_t> Kind(N, Plain);
  for (uint32_t B = 0; B < Bundles; ++B) {
    uint32_t Base = B * WordsPerBundle;
    if (R.chance(O.PairRate, 1000)) {
      uint32_t K = uint32_t(R.below(WordsPerBundle - 1)); // pair fits inside
      Kind[Base + K] = PairMask;
      Kind[Base + K + 1] = PairJump;
    }
    for (uint32_t K = 0; K < WordsPerBundle; ++K)
      if (Kind[Base + K] == Plain && R.chance(O.BranchRate, 1000))
        Kind[Base + K] = Branch;
  }
  // A word index that is an instruction start (never a jr half).
  auto StartAt = [&](uint32_t W) { return Kind[W] == PairJump ? W - 1 : W; };

  mips::Instr Mask;
  Mask.Opc = mips::Op::AND;
  Mask.Rs = mips::MipsJumpReg;
  Mask.Rt = mips::MipsMaskReg;
  Mask.Rd = mips::MipsJumpReg;
  mips::Instr Jr;
  Jr.Opc = mips::Op::JR;
  Jr.Rs = mips::MipsJumpReg;

  std::vector<uint8_t> Out;
  Out.reserve(size_t(N) * 4);
  for (uint32_t W = 0; W < N; ++W) {
    uint32_t Word = 0;
    switch (Kind[W]) {
    case Plain:
      Word = mips::encode(randomPlain(
          PlainOps[R.below(sizeof PlainOps / sizeof PlainOps[0])], R));
      break;
    case PairMask:
      Word = mips::encode(Mask);
      break;
    case PairJump:
      Word = mips::encode(Jr);
      break;
    case Branch: {
      mips::Instr I;
      uint64_t Pick = R.below(4);
      if (Pick < 2) {
        // beq/bne: pc-relative from the next word, 16-bit word offset.
        I.Opc = Pick == 0 ? mips::Op::BEQ : mips::Op::BNE;
        I.Rs = uint8_t(R.below(32));
        I.Rt = uint8_t(R.below(32));
        // One word of slack below: StartAt may step back onto a pair.
        int64_t Lo = std::max<int64_t>(0, int64_t(W) + 1 - 32767);
        int64_t Hi = std::min<int64_t>(int64_t(N) - 1, int64_t(W) + 1 + 32767);
        uint64_t Span = uint64_t(Hi - Lo + 1);
        uint32_t T = StartAt(uint32_t(Lo + int64_t(R.below(Span))));
        I.Imm = uint16_t(int16_t(int64_t(T) - (int64_t(W) + 1)));
      } else {
        // j/jal: absolute word index within the module.
        I.Opc = Pick == 2 ? mips::Op::J : mips::Op::JAL;
        I.Target = StartAt(uint32_t(R.below(N)));
      }
      Word = mips::encode(I);
      break;
    }
    }
    for (int S = 24; S >= 0; S -= 8)
      Out.push_back(uint8_t(Word >> S)); // big-endian
  }
  return Out;
}

} // namespace e2e
