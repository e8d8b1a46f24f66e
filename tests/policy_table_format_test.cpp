//===- tests/policy_table_format_test.cpp ---------------------*- C++ -*-===//
//
// The versioned policy-table format (regex/TableIO.h) as a CI gate:
// round-trip bit-identity, the pinned golden content hash, rejection of
// corrupted/truncated blobs, the RSTB v2 ISA/policy-set tag discipline
// (mismatches rejected at the header, legacy v1 blobs pinned by a
// golden-hash writer), and the differential gate proving the minimized
// shipped tables decide exactly as the legacy raw tables on every image
// in the fuzz reproducer corpus.
//
//===----------------------------------------------------------------------===//

#include "core/Policy.h"
#include "fuzz/Corpus.h"
#include "regex/Algebra.h"
#include "regex/TableIO.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string_view>

#ifndef ROCKSALT_CORPUS_DIR
#error "build must define ROCKSALT_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

using namespace rocksalt;
using namespace rocksalt::core;

namespace {

/// The content-address of the shipped tables. The serialized form is a
/// pure function of the policy grammars, the canonical numbering, and
/// the format version, so this only moves when one of those changes.
/// To refresh after an intentional grammar/format change:
///   ./build/examples/validator_cli --dump-tables
/// and copy the printed hash here (and into the EXPECTED_HASH of the
/// table_hash_drift ctest gate in tests/CMakeLists.txt).
constexpr const char *GoldenHash =
    "05fc276c046e485711f8203340f0ab5273f312d054bbdb48a2e148eb0417e8db";

/// The content-address the same tables carried in RSTB v1 (no identity
/// tags in the hashed payload). Pinned so the v1-reading compatibility
/// path — blobs produced by pre-registry builds — can never silently
/// drift: WriteV1Blob below re-derives a v1 blob from the shipped
/// tables and must land on exactly this hash.
constexpr const char *GoldenHashV1 =
    "604048c7dfe681dbbaef0aa6e60650ec1387d6cc69cec9c1e0f90e2312bc571b";

const PolicyTables &shipped() { return policyTables(); }

std::vector<uint8_t> shippedBlob() { return serializePolicyTables(shipped()); }

bool sameDfa(const re::Dfa &A, const re::Dfa &B) {
  return A.Start == B.Start && A.Table == B.Table && A.Accepts == B.Accepts &&
         A.Rejects == B.Rejects;
}

/// A from-scratch RSTB v1 writer: the pre-registry format — same record
/// layout, version 1, and *no* identity tags in the hashed payload.
/// Lives here (not in TableIO) so the shipped reader's v1 path is
/// exercised against an independent producer, exactly like a blob from
/// an old build.
std::vector<uint8_t> writeV1Blob(const PolicyTables &T) {
  auto PutU32 = [](std::vector<uint8_t> &Out, uint32_t V) {
    Out.push_back(uint8_t(V));
    Out.push_back(uint8_t(V >> 8));
    Out.push_back(uint8_t(V >> 16));
    Out.push_back(uint8_t(V >> 24));
  };
  const std::pair<const char *, const re::Dfa *> Tables[] = {
      {"NoControlFlow", &T.NoControlFlow},
      {"DirectJump", &T.DirectJump},
      {"MaskedJump", &T.MaskedJump}};

  std::vector<uint8_t> Out = {'R', 'S', 'T', 'B'};
  PutU32(Out, 1); // RSTB v1
  PutU32(Out, 3);
  Out.resize(44); // 32-byte hash placeholder at offset 12
  for (const auto &[Name, D] : Tables) {
    std::string_view N(Name);
    PutU32(Out, uint32_t(N.size()));
    Out.insert(Out.end(), N.begin(), N.end());
    PutU32(Out, D->Start);
    PutU32(Out, uint32_t(D->numStates()));
    for (const auto &Row : D->Table)
      for (uint16_t Target : Row) {
        Out.push_back(uint8_t(Target));
        Out.push_back(uint8_t(Target >> 8));
      }
    for (uint8_t A : D->Accepts)
      Out.push_back(A ? 1 : 0);
    for (uint8_t R : D->Rejects)
      Out.push_back(R ? 1 : 0);
  }
  auto Digest = support::Sha256::hash(Out.data() + 44, Out.size() - 44);
  std::copy(Digest.begin(), Digest.end(), Out.begin() + 12);
  return Out;
}

//===----------------------------------------------------------------------===//
// SHA-256 building block (FIPS 180-4 vectors).
//===----------------------------------------------------------------------===//

TEST(Sha256, FipsVectors) {
  const std::string Million(1000000, 'a');
  const std::pair<std::string_view, const char *> Vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Million,
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  for (const auto &[Msg, Want] : Vectors)
    EXPECT_EQ(
        support::Sha256::hex(support::Sha256::hash(Msg.data(), Msg.size())),
        Want);
}

TEST(Sha256, StreamingMatchesOneShot) {
  std::string M(1000, 'x');
  support::Sha256 S;
  for (size_t I = 0; I < M.size(); I += 7)
    S.update(M.data() + I, std::min<size_t>(7, M.size() - I));
  EXPECT_EQ(support::Sha256::hex(S.digest()),
            support::Sha256::hex(support::Sha256::hash(M.data(), M.size())));
}

//===----------------------------------------------------------------------===//
// Round-trip and determinism.
//===----------------------------------------------------------------------===//

TEST(TableFormat, RoundTripBitIdentical) {
  std::vector<uint8_t> Blob = shippedBlob();
  PolicyTables T2 = deserializePolicyTables(Blob);
  EXPECT_TRUE(sameDfa(T2.NoControlFlow, shipped().NoControlFlow));
  EXPECT_TRUE(sameDfa(T2.DirectJump, shipped().DirectJump));
  EXPECT_TRUE(sameDfa(T2.MaskedJump, shipped().MaskedJump));
  EXPECT_EQ(serializePolicyTables(T2), Blob);
}

TEST(TableFormat, SerializationIsDeterministic) {
  // Two independent clean builds from the grammars: identical bytes,
  // identical hash. This is the cacheability claim — no iteration-order
  // or address-dependent artifact may leak into the encoding.
  std::vector<uint8_t> A = serializePolicyTables(buildPolicyTables());
  std::vector<uint8_t> B = serializePolicyTables(buildPolicyTables());
  EXPECT_EQ(A, B);
  EXPECT_EQ(re::blobHashHex(A), re::blobHashHex(B));
}

TEST(TableFormat, GoldenContentHash) {
  EXPECT_EQ(policyTableHashHex(shipped()), GoldenHash)
      << "policy tables drifted — if the grammar change is intentional, "
         "refresh GoldenHash per the comment above";
}

TEST(TableFormat, HeaderFieldsAndShippedSizes) {
  re::TableBundle Bundle = re::deserializeTables(shippedBlob());
  EXPECT_EQ(Bundle.Version, re::TableFormatVersion);
  EXPECT_EQ(Bundle.HashHex, GoldenHash);
  EXPECT_EQ(Bundle.Isa, re::TableV1ImpliedIsa);
  EXPECT_EQ(Bundle.PolicySet, re::TableV1ImpliedPolicySet);
  ASSERT_EQ(Bundle.Tables.size(), 3u);
  EXPECT_EQ(Bundle.Tables[0].first, "NoControlFlow");
  EXPECT_EQ(Bundle.Tables[0].second.numStates(), NoControlFlowStates);
  EXPECT_EQ(Bundle.Tables[1].first, "DirectJump");
  EXPECT_EQ(Bundle.Tables[1].second.numStates(), DirectJumpStates);
  EXPECT_EQ(Bundle.Tables[2].first, "MaskedJump");
  EXPECT_EQ(Bundle.Tables[2].second.numStates(), MaskedJumpStates);
}

//===----------------------------------------------------------------------===//
// Corruption is rejected, never silently parsed.
//===----------------------------------------------------------------------===//

TEST(TableFormat, BadMagicRejected) {
  std::vector<uint8_t> Blob = shippedBlob();
  Blob[0] ^= 0xFF;
  EXPECT_THROW(re::deserializeTables(Blob), std::runtime_error);
}

TEST(TableFormat, UnsupportedVersionRejected) {
  std::vector<uint8_t> Blob = shippedBlob();
  Blob[4] += 1; // version is LE u32 at offset 4
  EXPECT_THROW(re::deserializeTables(Blob), std::runtime_error);
}

TEST(TableFormat, PayloadBitFlipFailsHashCheck) {
  std::vector<uint8_t> Blob = shippedBlob();
  Blob[Blob.size() / 2] ^= 0x01;
  EXPECT_THROW(re::deserializeTables(Blob), std::runtime_error);
}

TEST(TableFormat, StoredHashBitFlipRejected) {
  std::vector<uint8_t> Blob = shippedBlob();
  Blob[12] ^= 0x01; // first byte of the stored hash
  EXPECT_THROW(re::deserializeTables(Blob), std::runtime_error);
}

TEST(TableFormat, TruncationRejectedAtEveryBoundary) {
  std::vector<uint8_t> Blob = shippedBlob();
  // Representative truncation points: inside the header, at the end of
  // the header, mid-payload, and one byte short of complete.
  for (size_t Keep : {size_t(0), size_t(3), size_t(11), size_t(44),
                      Blob.size() / 3, Blob.size() - 1})
    EXPECT_THROW(re::deserializeTables(
                     std::vector<uint8_t>(Blob.begin(), Blob.begin() + Keep)),
                 std::runtime_error)
        << "kept " << Keep << " bytes";
}

TEST(TableFormat, TrailingBytesRejected) {
  std::vector<uint8_t> Blob = shippedBlob();
  Blob.push_back(0x00);
  EXPECT_THROW(re::deserializeTables(Blob), std::runtime_error);
}

//===----------------------------------------------------------------------===//
// RSTB v2 identity tags: mismatches die at the header, v1 blobs imply
// x86/nacl and stay readable bit-for-bit (pinned by a golden hash).
//===----------------------------------------------------------------------===//

TEST(TableFormat, IsaTagMismatchRejectedAtHeader) {
  // The same tables serialized under a different ISA tag: an x86 load
  // must reject it with a diagnostic naming both sides, and must do so
  // from the header alone — before any table record is parsed.
  std::vector<uint8_t> Blob = serializePolicyTables(shipped(), "mips", "nacl");
  try {
    deserializePolicyTables(Blob); // default expectation: x86/nacl
    FAIL() << "wrong-ISA blob was accepted";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("tagged for ISA 'mips'"),
              std::string::npos)
        << E.what();
    EXPECT_NE(std::string(E.what()).find("'x86'"), std::string::npos)
        << E.what();
  }
  // The right expectation reads it back fine.
  PolicyTables T2 = deserializePolicyTables(Blob, "mips", "nacl");
  EXPECT_TRUE(sameDfa(T2.MaskedJump, shipped().MaskedJump));
}

TEST(TableFormat, PolicySetTagMismatchRejected) {
  std::vector<uint8_t> Blob = serializePolicyTables(shipped(), "x86", "strict");
  EXPECT_THROW(deserializePolicyTables(Blob), std::runtime_error);
  PolicyTables T2 = deserializePolicyTables(Blob, "x86", "strict");
  EXPECT_TRUE(sameDfa(T2.NoControlFlow, shipped().NoControlFlow));
}

TEST(TableFormat, BadTagRejectedAtSerialization) {
  EXPECT_THROW(serializePolicyTables(shipped(), "X86", "nacl"),
               std::runtime_error); // uppercase outside the tag charset
  EXPECT_THROW(serializePolicyTables(shipped(), "", "nacl"),
               std::runtime_error);
  EXPECT_THROW(serializePolicyTables(shipped(),
                                     std::string(re::MaxTableTagLen + 1, 'a'),
                                     "nacl"),
               std::runtime_error);
}

TEST(TableFormat, V1GoldenBlobStillReads) {
  // A v1 blob written by an independent local writer from the shipped
  // tables: the pre-registry format. Its content hash is pinned — the
  // v1 layout may never drift — and the reader must accept it, implying
  // the x86/nacl identity, with bit-identical tables.
  std::vector<uint8_t> V1 = writeV1Blob(shipped());
  EXPECT_EQ(re::blobHashHex(V1), GoldenHashV1);
  EXPECT_EQ(re::verifyBlobHashHex(V1), GoldenHashV1);

  re::TableBundle Bundle = re::deserializeTables(V1);
  EXPECT_EQ(Bundle.Version, re::TableFormatV1);
  EXPECT_EQ(Bundle.Isa, "x86");
  EXPECT_EQ(Bundle.PolicySet, "nacl");
  ASSERT_EQ(Bundle.Tables.size(), 3u);
  EXPECT_TRUE(sameDfa(Bundle.Tables[0].second, shipped().NoControlFlow));
  EXPECT_TRUE(sameDfa(Bundle.Tables[1].second, shipped().DirectJump));
  EXPECT_TRUE(sameDfa(Bundle.Tables[2].second, shipped().MaskedJump));

  // The core loader path too: a v1 blob satisfies an x86/nacl
  // expectation (implied tags) but can never satisfy a mips one.
  PolicyTables T2 = loadPolicyTables(V1, GoldenHashV1);
  EXPECT_TRUE(sameDfa(T2.MaskedJump, shipped().MaskedJump));
  EXPECT_THROW(loadPolicyTables(V1, GoldenHashV1, "mips", "nacl"),
               std::runtime_error);
}

//===----------------------------------------------------------------------===//
// Minimized vs legacy: no verdict may change.
//===----------------------------------------------------------------------===//

TEST(TableFormat, MinimizedAndLegacyTablesLanguageEqual) {
  PolicyTables Raw = buildPolicyTablesRaw();
  EXPECT_EQ(re::equivalenceWitness(Raw.NoControlFlow,
                                   shipped().NoControlFlow),
            std::nullopt);
  EXPECT_EQ(re::equivalenceWitness(Raw.DirectJump, shipped().DirectJump),
            std::nullopt);
  EXPECT_EQ(re::equivalenceWitness(Raw.MaskedJump, shipped().MaskedJump),
            std::nullopt);
}

TEST(TableFormat, MinimizedAndLegacyDecideCorpusIdentically) {
  PolicyTables Raw = buildPolicyTablesRaw();
  auto Entries = fuzz::loadCorpus(ROCKSALT_CORPUS_DIR);
  ASSERT_GE(Entries.size(), 7u) << "corpus dir: " << ROCKSALT_CORPUS_DIR;

  auto CheckPair = [](const re::Dfa &A, const re::Dfa &B,
                      const std::vector<uint8_t> &Code,
                      const std::string &Path, const char *Table) {
    // Walk both tables in lockstep; the accept/reject classification
    // must agree after every prefix, not just at the end — the checker
    // consults both flags mid-image (paper Figure 6).
    uint16_t SA = uint16_t(A.Start), SB = uint16_t(B.Start);
    for (size_t I = 0; I < Code.size(); ++I) {
      SA = A.step(SA, Code[I]);
      SB = B.step(SB, Code[I]);
      EXPECT_EQ(A.Accepts[SA] != 0, B.Accepts[SB] != 0)
          << Table << " accept skew at byte " << I << " of " << Path;
      EXPECT_EQ(A.Rejects[SA] != 0, B.Rejects[SB] != 0)
          << Table << " reject skew at byte " << I << " of " << Path;
    }
  };

  for (const auto &E : Entries) {
    CheckPair(Raw.NoControlFlow, shipped().NoControlFlow, E.Code, E.Path,
              "NoControlFlow");
    CheckPair(Raw.DirectJump, shipped().DirectJump, E.Code, E.Path,
              "DirectJump");
    CheckPair(Raw.MaskedJump, shipped().MaskedJump, E.Code, E.Path,
              "MaskedJump");
  }
}

} // namespace
