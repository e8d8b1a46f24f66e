//===- tests/fuzz_corpus_test.cpp -----------------------------*- C++ -*-===//
//
// Replays the regression corpus (tests/corpus/*.bin) through the full
// differential oracle. The corpus holds two kinds of file:
//
//  * hand-seeded edge images, named accept-*/reject-* after their
//    expected reference verdict (bundle-straddling pairs, prefixed
//    branches, truncated tails);
//  * fuzz-found reproducers (disagree-*), written by fuzz_differential
//    --minimize after a cross-verifier disagreement. Once the underlying
//    bug is fixed the image stays here so all four verdict paths keep
//    agreeing on it forever.
//
// Either way, every entry must be verdict-agreed by every path — a
// corpus entry failing here means a fixed bug has come back.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Oracle.h"

#include <gtest/gtest.h>

#ifndef ROCKSALT_CORPUS_DIR
#error "build must define ROCKSALT_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

using namespace rocksalt;
using namespace rocksalt::fuzz;

namespace {

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

} // namespace

TEST(Corpus, SeedEntriesExist) {
  // The hand-seeded images are committed; an empty corpus means the
  // build is replaying the wrong directory.
  auto Entries = loadCorpus(ROCKSALT_CORPUS_DIR);
  EXPECT_GE(Entries.size(), 7u) << "corpus dir: " << ROCKSALT_CORPUS_DIR;
}

TEST(Corpus, EveryEntryIsVerdictAgreedByAllPaths) {
  DifferentialOracle Oracle;
  auto Entries = loadCorpus(ROCKSALT_CORPUS_DIR);
  for (const auto &E : Entries) {
    ASSERT_FALSE(E.Code.empty()) << E.Path;
    OracleReport Rep = Oracle.run(E.Code);
    EXPECT_TRUE(Rep.agree())
        << baseName(E.Path) << ": " << Rep.Disagreements[0].Path << " — "
        << Rep.Disagreements[0].Detail;

    // The name prefix pins the reference verdict for seeded entries.
    std::string Name = baseName(E.Path);
    if (Name.rfind("accept-", 0) == 0) {
      EXPECT_TRUE(Rep.Reference.Ok) << Name;
    } else if (Name.rfind("reject-", 0) == 0) {
      EXPECT_FALSE(Rep.Reference.Ok) << Name;
    }
  }
}
