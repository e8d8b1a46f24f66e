//===- regex/TableIO.cpp --------------------------------------*- C++ -*-===//

#include "regex/TableIO.h"

#include "support/Sha256.h"

#include <cstring>
#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::re;

namespace {

constexpr char Magic[4] = {'R', 'S', 'T', 'B'};
constexpr size_t HashOffset = 12;
constexpr size_t PayloadOffset = HashOffset + 32;

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(uint8_t(V));
  Out.push_back(uint8_t(V >> 8));
  Out.push_back(uint8_t(V >> 16));
  Out.push_back(uint8_t(V >> 24));
}

void putU16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back(uint8_t(V));
  Out.push_back(uint8_t(V >> 8));
}

bool validTag(std::string_view Tag) {
  if (Tag.empty() || Tag.size() > MaxTableTagLen)
    return false;
  for (char C : Tag)
    if (!((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '_' ||
          C == '-'))
      return false;
  return true;
}

/// Bounds-checked little-endian reader over the blob.
class Reader {
public:
  Reader(const std::vector<uint8_t> &Blob, size_t Pos)
      : Blob(Blob), Pos(Pos) {}

  uint32_t u32() {
    need(4);
    uint32_t V = uint32_t(Blob[Pos]) | (uint32_t(Blob[Pos + 1]) << 8) |
                 (uint32_t(Blob[Pos + 2]) << 16) |
                 (uint32_t(Blob[Pos + 3]) << 24);
    Pos += 4;
    return V;
  }

  uint16_t u16() {
    need(2);
    uint16_t V = uint16_t(Blob[Pos] | (Blob[Pos + 1] << 8));
    Pos += 2;
    return V;
  }

  uint8_t u8() {
    need(1);
    return Blob[Pos++];
  }

  std::string str(size_t Len) {
    need(Len);
    std::string S(reinterpret_cast<const char *>(Blob.data() + Pos), Len);
    Pos += Len;
    return S;
  }

  bool atEnd() const { return Pos == Blob.size(); }

private:
  void need(size_t N) {
    if (Blob.size() - Pos < N)
      throw std::runtime_error("table blob truncated");
  }

  const std::vector<uint8_t> &Blob;
  size_t Pos;
};

/// Reads one identity tag (u32 length + bytes) with the same charset
/// and length discipline the writer enforces.
std::string readTag(Reader &R, const char *What) {
  uint32_t Len = R.u32();
  if (Len == 0 || Len > MaxTableTagLen)
    throw std::runtime_error(std::string("table blob ") + What +
                             " tag has bad length");
  std::string Tag = R.str(Len);
  if (!validTag(Tag))
    throw std::runtime_error(std::string("table blob ") + What +
                             " tag has bad characters");
  return Tag;
}

} // namespace

std::vector<uint8_t> re::serializeTables(
    const std::vector<std::pair<std::string, const Dfa *>> &Tables,
    std::string_view Isa, std::string_view PolicySet) {
  if (!validTag(Isa))
    throw std::runtime_error("bad ISA tag for table serialization");
  if (!validTag(PolicySet))
    throw std::runtime_error("bad policy-set tag for table serialization");

  std::vector<uint8_t> Out(Magic, Magic + 4);
  putU32(Out, TableFormatVersion);
  putU32(Out, uint32_t(Tables.size()));
  Out.resize(PayloadOffset); // hash placeholder, filled below

  putU32(Out, uint32_t(Isa.size()));
  Out.insert(Out.end(), Isa.begin(), Isa.end());
  putU32(Out, uint32_t(PolicySet.size()));
  Out.insert(Out.end(), PolicySet.begin(), PolicySet.end());

  for (const auto &[Name, D] : Tables) {
    putU32(Out, uint32_t(Name.size()));
    Out.insert(Out.end(), Name.begin(), Name.end());
    putU32(Out, D->Start);
    putU32(Out, uint32_t(D->numStates()));
    for (const auto &Row : D->Table)
      for (uint16_t Target : Row)
        putU16(Out, Target);
    for (uint8_t A : D->Accepts)
      Out.push_back(A ? 1 : 0);
    for (uint8_t R : D->Rejects)
      Out.push_back(R ? 1 : 0);
  }

  auto Digest = support::Sha256::hash(Out.data() + PayloadOffset,
                                      Out.size() - PayloadOffset);
  std::memcpy(Out.data() + HashOffset, Digest.data(), Digest.size());
  return Out;
}

TableBundle re::deserializeTables(const std::vector<uint8_t> &Blob,
                                  std::string_view ExpectIsa,
                                  std::string_view ExpectPolicySet) {
  if (Blob.size() < PayloadOffset)
    throw std::runtime_error("table blob truncated");
  if (std::memcmp(Blob.data(), Magic, 4) != 0)
    throw std::runtime_error("table blob has bad magic");

  Reader R(Blob, 4);
  TableBundle Bundle;
  Bundle.Version = R.u32();
  if (Bundle.Version != TableFormatVersion && Bundle.Version != TableFormatV1)
    throw std::runtime_error("unsupported table format version");
  uint32_t Count = R.u32();

  std::array<uint8_t, 32> Stored;
  for (auto &B : Stored)
    B = R.u8();
  auto Actual = support::Sha256::hash(Blob.data() + PayloadOffset,
                                      Blob.size() - PayloadOffset);
  if (Stored != Actual)
    throw std::runtime_error("table blob content hash mismatch");
  Bundle.HashHex = support::Sha256::hex(Stored);

  // Identity tags: explicit in v2, implied for legacy v1 blobs (which
  // all predate the multi-ISA registry). Checked before any table
  // payload is read so a wrong-ISA blob is rejected at the header.
  if (Bundle.Version == TableFormatV1) {
    Bundle.Isa = TableV1ImpliedIsa;
    Bundle.PolicySet = TableV1ImpliedPolicySet;
  } else {
    Bundle.Isa = readTag(R, "ISA");
    Bundle.PolicySet = readTag(R, "policy-set");
  }
  if (!ExpectIsa.empty() && Bundle.Isa != ExpectIsa)
    throw std::runtime_error("table blob is tagged for ISA '" + Bundle.Isa +
                             "' but '" + std::string(ExpectIsa) +
                             "' tables were expected");
  if (!ExpectPolicySet.empty() && Bundle.PolicySet != ExpectPolicySet)
    throw std::runtime_error(
        "table blob is tagged for policy set '" + Bundle.PolicySet +
        "' but '" + std::string(ExpectPolicySet) + "' was expected");

  for (uint32_t T = 0; T < Count; ++T) {
    uint32_t NameLen = R.u32();
    std::string Name = R.str(NameLen);
    Dfa D;
    D.Start = R.u32();
    uint32_t NumStates = R.u32();
    if (NumStates > MaxDfaStates)
      throw std::runtime_error("table state count exceeds MaxDfaStates");
    if (D.Start >= NumStates)
      throw std::runtime_error("table start state out of range");
    D.Table.resize(NumStates);
    for (auto &Row : D.Table)
      for (uint16_t &Target : Row) {
        Target = R.u16();
        if (Target >= NumStates)
          throw std::runtime_error("table transition target out of range");
      }
    D.Accepts.resize(NumStates);
    D.Rejects.resize(NumStates);
    for (uint8_t &A : D.Accepts)
      if ((A = R.u8()) > 1)
        throw std::runtime_error("table accept flag is not boolean");
    for (uint8_t &Rej : D.Rejects)
      if ((Rej = R.u8()) > 1)
        throw std::runtime_error("table reject flag is not boolean");
    Bundle.Tables.emplace_back(std::move(Name), std::move(D));
  }

  if (!R.atEnd())
    throw std::runtime_error("table blob has trailing bytes");
  return Bundle;
}

std::string re::blobHashHex(const std::vector<uint8_t> &Blob) {
  if (Blob.size() < PayloadOffset)
    throw std::runtime_error("table blob truncated");
  std::array<uint8_t, 32> Stored;
  std::memcpy(Stored.data(), Blob.data() + HashOffset, 32);
  return support::Sha256::hex(Stored);
}

std::string re::verifyBlobHashHex(const std::vector<uint8_t> &Blob) {
  if (Blob.size() < PayloadOffset)
    throw std::runtime_error("table blob truncated");
  if (std::memcmp(Blob.data(), Magic, 4) != 0)
    throw std::runtime_error("table blob has bad magic");
  Reader R(Blob, 4);
  uint32_t Version = R.u32();
  if (Version != TableFormatVersion && Version != TableFormatV1)
    throw std::runtime_error("unsupported table format version");
  std::array<uint8_t, 32> Stored;
  std::memcpy(Stored.data(), Blob.data() + HashOffset, 32);
  auto Actual = support::Sha256::hash(Blob.data() + PayloadOffset,
                                      Blob.size() - PayloadOffset);
  if (Stored != Actual)
    throw std::runtime_error("table blob content hash mismatch");
  return support::Sha256::hex(Stored);
}
