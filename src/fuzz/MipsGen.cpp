//===- fuzz/MipsGen.cpp - Seeded MIPS images for the differential ---------===//

#include "fuzz/MipsGen.h"

#include "mips/Mips.h"
#include "mips/MipsPolicy.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

using namespace rocksalt;
using namespace rocksalt::fuzz;

namespace {

constexpr uint32_t WordsPerBundle = mips::MipsBundleSize / 4;

/// The NoControlFlow forms. The grammar accepts any value in every
/// field a form encodes, so all fields are drawn at random; encode
/// drops the ones a format does not carry.
const mips::Op PlainOps[] = {
    mips::Op::ADDU,  mips::Op::SUBU, mips::Op::AND,  mips::Op::OR,
    mips::Op::XOR,   mips::Op::NOR,  mips::Op::SLT,  mips::Op::SLTU,
    mips::Op::SLL,   mips::Op::SRL,  mips::Op::SRA,  mips::Op::ADDIU,
    mips::Op::ANDI,  mips::Op::ORI,  mips::Op::XORI, mips::Op::SLTI,
    mips::Op::SLTIU, mips::Op::LUI,  mips::Op::LW,   mips::Op::SW};

uint32_t plainWord(Rng &R) {
  mips::Instr I;
  I.Opc = PlainOps[R.below(std::size(PlainOps))];
  I.Rs = uint8_t(R.below(32));
  I.Rt = uint8_t(R.below(32));
  I.Rd = uint8_t(R.below(32));
  I.Shamt = uint8_t(R.below(32));
  I.Imm = uint16_t(R.below(65536));
  return mips::encode(I);
}

/// A direct jump from word \p From to word \p To: beq/bne pc-relative
/// from the following word, j/jal absolute.
uint32_t jumpWord(uint32_t From, uint32_t To, Rng &R) {
  mips::Instr I;
  int64_t Rel = int64_t(To) - int64_t(From + 1);
  if (R.flip() && Rel >= INT16_MIN && Rel <= INT16_MAX) {
    I.Opc = R.flip() ? mips::Op::BEQ : mips::Op::BNE;
    I.Rs = uint8_t(R.below(32));
    I.Rt = uint8_t(R.below(32));
    I.Imm = uint16_t(int16_t(Rel));
  } else {
    I.Opc = R.flip() ? mips::Op::J : mips::Op::JAL;
    I.Target = To;
  }
  return mips::encode(I);
}

uint32_t maskWord() {
  mips::Instr I;
  I.Opc = mips::Op::AND;
  I.Rs = mips::MipsJumpReg;
  I.Rt = mips::MipsMaskReg;
  I.Rd = mips::MipsJumpReg;
  return mips::encode(I);
}

uint32_t jrWord() {
  mips::Instr I;
  I.Opc = mips::Op::JR;
  I.Rs = mips::MipsJumpReg;
  return mips::encode(I);
}

} // namespace

std::vector<uint8_t> fuzz::generateMipsImage(uint32_t TargetBytes, Rng &R) {
  uint32_t Bundles = TargetBytes / mips::MipsBundleSize;
  if (!Bundles)
    Bundles = 1;
  std::vector<uint32_t> Words(Bundles * WordsPerBundle);
  for (uint32_t B = 0; B < Bundles; ++B) {
    // One bundle in four carries a masked pair, at a slot where both
    // halves fit inside the bundle.
    uint32_t PairAt = R.below(4) ? WordsPerBundle
                                 : uint32_t(R.below(WordsPerBundle - 1));
    for (uint32_t S = 0; S < WordsPerBundle; ++S) {
      uint32_t W = B * WordsPerBundle + S;
      if (S == PairAt) {
        Words[W] = maskWord();
        Words[W + 1] = jrWord();
        ++S;
      } else if (!R.below(8)) {
        // Bundle starts are always instruction starts here.
        Words[W] = jumpWord(W, uint32_t(R.below(Bundles)) * WordsPerBundle, R);
      } else {
        Words[W] = plainWord(R);
      }
    }
  }
  std::vector<uint8_t> Img;
  Img.reserve(Words.size() * 4);
  for (uint32_t W : Words)
    for (int Shift = 24; Shift >= 0; Shift -= 8)
      Img.push_back(uint8_t(W >> Shift));
  return Img;
}

std::vector<uint8_t> fuzz::mutateMipsImage(const std::vector<uint8_t> &Img,
                                           Rng &R) {
  std::vector<uint8_t> Out = Img;
  if (Out.empty())
    return Out;
  size_t At = R.below(Out.size());
  if (R.below(3)) {
    Out[At] ^= uint8_t(1 + R.below(255));
    return Out;
  }
  size_t N = 1 + R.below(3);
  if (R.flip())
    Out.insert(Out.begin() + At, N, uint8_t(R.below(256)));
  else
    Out.erase(Out.begin() + At, Out.begin() + std::min(At + N, Out.size()));
  return Out;
}
