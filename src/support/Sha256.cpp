//===- support/Sha256.cpp -------------------------------------*- C++ -*-===//

#include "support/Sha256.h"

#include <algorithm>
#include <cstring>

using namespace rocksalt::support;

namespace {

constexpr uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t rotr(uint32_t X, unsigned N) { return (X >> N) | (X << (32 - N)); }

} // namespace

Sha256::Sha256() {
  State[0] = 0x6a09e667;
  State[1] = 0xbb67ae85;
  State[2] = 0x3c6ef372;
  State[3] = 0xa54ff53a;
  State[4] = 0x510e527f;
  State[5] = 0x9b05688c;
  State[6] = 0x1f83d9ab;
  State[7] = 0x5be0cd19;
}

void Sha256::compress(const uint8_t *Block) {
  uint32_t W[64];
  for (int I = 0; I < 16; ++I)
    W[I] = (uint32_t(Block[4 * I]) << 24) | (uint32_t(Block[4 * I + 1]) << 16) |
           (uint32_t(Block[4 * I + 2]) << 8) | uint32_t(Block[4 * I + 3]);
  for (int I = 16; I < 64; ++I) {
    uint32_t S0 = rotr(W[I - 15], 7) ^ rotr(W[I - 15], 18) ^ (W[I - 15] >> 3);
    uint32_t S1 = rotr(W[I - 2], 17) ^ rotr(W[I - 2], 19) ^ (W[I - 2] >> 10);
    W[I] = W[I - 16] + S0 + W[I - 7] + S1;
  }

  uint32_t A = State[0], B = State[1], C = State[2], D = State[3];
  uint32_t E = State[4], Fv = State[5], G = State[6], H = State[7];
  for (int I = 0; I < 64; ++I) {
    uint32_t S1 = rotr(E, 6) ^ rotr(E, 11) ^ rotr(E, 25);
    uint32_t Ch = (E & Fv) ^ (~E & G);
    uint32_t T1 = H + S1 + Ch + K[I] + W[I];
    uint32_t S0 = rotr(A, 2) ^ rotr(A, 13) ^ rotr(A, 22);
    uint32_t Maj = (A & B) ^ (A & C) ^ (B & C);
    uint32_t T2 = S0 + Maj;
    H = G;
    G = Fv;
    Fv = E;
    E = D + T1;
    D = C;
    C = B;
    B = A;
    A = T1 + T2;
  }
  State[0] += A;
  State[1] += B;
  State[2] += C;
  State[3] += D;
  State[4] += E;
  State[5] += Fv;
  State[6] += G;
  State[7] += H;
}

void Sha256::update(const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  TotalLen += Len;
  if (BufLen) {
    size_t Take = std::min(Len, sizeof(Buf) - BufLen);
    std::memcpy(Buf + BufLen, P, Take);
    BufLen += Take;
    P += Take;
    Len -= Take;
    if (BufLen == sizeof(Buf)) {
      compress(Buf);
      BufLen = 0;
    }
  }
  while (Len >= sizeof(Buf)) {
    compress(P);
    P += sizeof(Buf);
    Len -= sizeof(Buf);
  }
  if (Len) {
    std::memcpy(Buf, P, Len);
    BufLen = Len;
  }
}

std::array<uint8_t, 32> Sha256::digest() {
  uint64_t BitLen = TotalLen * 8;
  uint8_t Pad[72] = {0x80};
  size_t PadLen = (BufLen < 56) ? 56 - BufLen : 120 - BufLen;
  for (int I = 0; I < 8; ++I)
    Pad[PadLen + I] = uint8_t(BitLen >> (56 - 8 * I));
  update(Pad, PadLen + 8);

  std::array<uint8_t, 32> Out;
  for (int I = 0; I < 8; ++I) {
    Out[4 * I] = uint8_t(State[I] >> 24);
    Out[4 * I + 1] = uint8_t(State[I] >> 16);
    Out[4 * I + 2] = uint8_t(State[I] >> 8);
    Out[4 * I + 3] = uint8_t(State[I]);
  }
  return Out;
}

std::array<uint8_t, 32> Sha256::hash(const void *Data, size_t Len) {
  Sha256 H;
  H.update(Data, Len);
  return H.digest();
}

std::string Sha256::hex(const std::array<uint8_t, 32> &Digest) {
  static const char *Digits = "0123456789abcdef";
  std::string S;
  S.reserve(64);
  for (uint8_t B : Digest) {
    S.push_back(Digits[B >> 4]);
    S.push_back(Digits[B & 0xF]);
  }
  return S;
}
