//===- tests/regex_algebra_test.cpp ---------------------------*- C++ -*-===//
//
// Tests for the DFA algebra (regex/Algebra.h): product construction
// membership must agree with direct evaluation of the component DFAs,
// minimization must preserve the language while never growing the state
// count, witness extraction must return the shortest
// (lexicographically-least) counterexample, and the structural health
// audit must accept derivative-built tables and flag corrupted ones.
//
//===----------------------------------------------------------------------===//

#include "regex/Algebra.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace rocksalt::re;

namespace {

/// Runs \p Bytes through \p D exactly as the verifier's matcher would,
/// without early-reject bailing (acceptance of the whole string).
bool accepts(const Dfa &D, const std::vector<uint8_t> &Bytes) {
  uint16_t S = static_cast<uint16_t>(D.Start);
  for (uint8_t B : Bytes)
    S = D.step(S, B);
  return D.Accepts[S];
}

/// A literal byte-string regex.
Regex lit(Factory &F, std::initializer_list<uint8_t> Bytes) {
  Regex R = F.epsRe();
  for (uint8_t B : Bytes)
    R = F.cat(R, F.byteLit(B));
  return R;
}

std::vector<uint8_t> bytes(std::initializer_list<uint8_t> B) { return B; }

//===----------------------------------------------------------------------===//
// Product construction.
//===----------------------------------------------------------------------===//

TEST(Product, MembershipAgreesWithComponents) {
  Factory F;
  // A = (ab|ac|ad)* — three two-byte words, arbitrarily repeated.
  Regex A = F.star(F.altN({lit(F, {'a', 'b'}), lit(F, {'a', 'c'}),
                           lit(F, {'a', 'd'})}));
  // B = (ab|ae)* — shares "ab" with A.
  Regex B = F.star(F.alt(lit(F, {'a', 'b'}), lit(F, {'a', 'e'})));
  Dfa DA = buildDfa(F, A), DB = buildDfa(F, B);

  Dfa U = productDfa(DA, DB, SetOp::Union);
  Dfa I = productDfa(DA, DB, SetOp::Intersect);
  Dfa D = productDfa(DA, DB, SetOp::Difference);
  Dfa X = productDfa(DA, DB, SetOp::SymmetricDiff);

  // Sample members of both languages, plus strings in neither.
  uint64_t Rng = 42;
  std::vector<std::vector<uint8_t>> Samples = {
      {}, {'a'}, {'a', 'b'}, {'a', 'c'}, {'a', 'e'}, {'a', 'b', 'a', 'e'},
      {'a', 'c', 'a', 'b'}, {'z'}, {'a', 'b', 'a'}};
  for (int K = 0; K < 200; ++K) {
    if (auto S = F.sampleBytes(A, Rng))
      Samples.push_back(std::move(*S));
    if (auto S = F.sampleBytes(B, Rng))
      Samples.push_back(std::move(*S));
  }
  for (const auto &S : Samples) {
    bool InA = accepts(DA, S), InB = accepts(DB, S);
    EXPECT_EQ(accepts(U, S), InA || InB);
    EXPECT_EQ(accepts(I, S), InA && InB);
    EXPECT_EQ(accepts(D, S), InA && !InB);
    EXPECT_EQ(accepts(X, S), InA != InB);
  }
}

TEST(Product, IntersectionIsSubsetOfBothFactors) {
  Factory F;
  Regex A = F.star(F.alt(lit(F, {'x', 'y'}), lit(F, {'x', 'z'})));
  Regex B = F.star(F.alt(lit(F, {'x', 'y'}), F.byteLit('w')));
  Dfa DA = buildDfa(F, A), DB = buildDfa(F, B);
  Dfa I = productDfa(DA, DB, SetOp::Intersect);

  // L(A ∩ B) ⊆ L(A) and ⊆ L(B): the differences are empty.
  EXPECT_TRUE(languageEmpty(productDfa(I, DA, SetOp::Difference)));
  EXPECT_TRUE(languageEmpty(productDfa(I, DB, SetOp::Difference)));
  // And sampled members of the intersection are in both.
  uint64_t Rng = 7;
  Regex IRe = F.star(lit(F, {'x', 'y'}));
  for (int K = 0; K < 100; ++K)
    if (auto S = F.sampleBytes(IRe, Rng)) {
      EXPECT_TRUE(accepts(I, *S));
      EXPECT_TRUE(accepts(DA, *S));
      EXPECT_TRUE(accepts(DB, *S));
    }
}

//===----------------------------------------------------------------------===//
// Emptiness and witnesses.
//===----------------------------------------------------------------------===//

TEST(Witness, ShortestAndLexLeast) {
  Factory F;
  // Shortest member of b|a|cd is one byte; lexicographically least of
  // the one-byte members is 'a'.
  Dfa D = buildDfa(
      F, F.altN({F.byteLit('b'), F.byteLit('a'), lit(F, {'c', 'd'})}));
  auto W = shortestAccepted(D);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(*W, bytes({'a'}));
}

TEST(Witness, StarAcceptsEmptyString) {
  Factory F;
  Dfa D = buildDfa(F, F.star(F.byteLit('q')));
  auto W = shortestAccepted(D);
  ASSERT_TRUE(W.has_value());
  EXPECT_TRUE(W->empty());
}

TEST(Witness, VoidIsEmpty) {
  Factory F;
  Dfa D = buildDfa(F, F.voidRe());
  EXPECT_FALSE(shortestAccepted(D).has_value());
  EXPECT_TRUE(languageEmpty(D));
}

TEST(Witness, IntersectionWitnessFixture) {
  Factory F;
  // A = ab|ac, B = ab|ad: the only shared string is "ab".
  Dfa DA = buildDfa(F, F.alt(lit(F, {'a', 'b'}), lit(F, {'a', 'c'})));
  Dfa DB = buildDfa(F, F.alt(lit(F, {'a', 'b'}), lit(F, {'a', 'd'})));
  auto W = intersectionWitness(DA, DB);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(*W, bytes({'a', 'b'}));
  EXPECT_TRUE(accepts(DA, *W));
  EXPECT_TRUE(accepts(DB, *W));
}

TEST(Witness, DisjointLanguagesHaveNoWitness) {
  Factory F;
  Dfa DA = buildDfa(F, lit(F, {'a', 'b'}));
  Dfa DB = buildDfa(F, lit(F, {'c', 'd'}));
  EXPECT_FALSE(intersectionWitness(DA, DB).has_value());
}

TEST(Witness, InclusionWitnessFixture) {
  Factory F;
  // A = ab|ac, B = ab|ad: "ac" is in A but not B ("ab" is lex-smaller
  // but included, so the witness must be "ac").
  Dfa DA = buildDfa(F, F.alt(lit(F, {'a', 'b'}), lit(F, {'a', 'c'})));
  Dfa DB = buildDfa(F, F.alt(lit(F, {'a', 'b'}), lit(F, {'a', 'd'})));
  auto W = inclusionWitness(DA, DB);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(*W, bytes({'a', 'c'}));
  EXPECT_TRUE(accepts(DA, *W));
  EXPECT_FALSE(accepts(DB, *W));
}

TEST(Witness, InclusionHoldsForSubset) {
  Factory F;
  Dfa Sub = buildDfa(F, lit(F, {'a', 'b'}));
  Dfa Super = buildDfa(F, F.alt(lit(F, {'a', 'b'}), lit(F, {'a', 'c'})));
  EXPECT_FALSE(inclusionWitness(Sub, Super).has_value());
  // And the converse direction fails with the extra string.
  auto W = inclusionWitness(Super, Sub);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(*W, bytes({'a', 'c'}));
}

//===----------------------------------------------------------------------===//
// Minimization.
//===----------------------------------------------------------------------===//

TEST(Minimize, PreservesLanguageOnSampledRegexes) {
  Factory F;
  std::vector<Regex> Cases = {
      F.star(F.altN({lit(F, {'a', 'b'}), lit(F, {'a', 'c'}), F.byteLit('z')})),
      F.cat(F.star(F.byteLit('n')), lit(F, {'e', 'n', 'd'})),
      F.alt(F.epsRe(), lit(F, {'x'})),
      F.seq({F.anyByte(), F.anyByte(), F.byteLit(0x90)}),
  };
  uint64_t Rng = 99;
  for (Regex R : Cases) {
    Dfa D = buildDfa(F, R);
    Dfa Min = minimizeDfa(D);
    EXPECT_LE(Min.numStates(), D.numStates());
    // Language equality, decided exactly.
    EXPECT_FALSE(equivalenceWitness(D, Min).has_value());
    // And spot-checked on sampled members.
    for (int K = 0; K < 50; ++K) {
      if (auto S = F.sampleBytes(R, Rng)) {
        EXPECT_TRUE(accepts(Min, *S));
      }
    }
  }
}

TEST(Minimize, CollapsesHandBloatedDfa) {
  // Two hand-built equivalent accept states (language: "a" on either
  // path), plus an unreachable state: minimization must fold them.
  Dfa D;
  D.Start = 0;
  D.Table.assign(5, {});
  for (auto &Row : D.Table)
    Row.fill(4); // dead sink
  D.Table[0]['a'] = 1;
  D.Table[0]['b'] = 2; // "ba" also accepted, via the twin accept state
  D.Table[2]['a'] = 3;
  D.Accepts = {0, 1, 0, 1, 0};
  D.Rejects = {0, 0, 0, 0, 1};

  Dfa Min = minimizeDfa(D);
  // {start}, {mid}, {accept twin folded}, {sink} = 4 states.
  EXPECT_EQ(Min.numStates(), 4u);
  EXPECT_FALSE(equivalenceWitness(D, Min).has_value());
  EXPECT_TRUE(accepts(Min, bytes({'a'})));
  EXPECT_TRUE(accepts(Min, bytes({'b', 'a'})));
  EXPECT_FALSE(accepts(Min, bytes({'b'})));
}

TEST(Minimize, IsIdempotent) {
  Factory F;
  Dfa D = buildDfa(
      F, F.star(F.alt(lit(F, {'a', 'b'}), lit(F, {'c', 'd'}))));
  Dfa M1 = minimizeDfa(D);
  Dfa M2 = minimizeDfa(M1);
  EXPECT_EQ(M1.numStates(), M2.numStates());
  // Canonical numbering makes the fixpoint bit-identical.
  EXPECT_EQ(M1.Start, M2.Start);
  EXPECT_EQ(M1.Table, M2.Table);
  EXPECT_EQ(M1.Accepts, M2.Accepts);
  EXPECT_EQ(M1.Rejects, M2.Rejects);
}

//===----------------------------------------------------------------------===//
// Structural health audit.
//===----------------------------------------------------------------------===//

TEST(Health, DerivativeDfaIsHealthy) {
  Factory F;
  Dfa D = buildDfa(F, F.alt(lit(F, {'a', 'b'}), lit(F, {'c'})));
  DfaHealth H = auditDfa(D);
  EXPECT_TRUE(H.ok());
  EXPECT_EQ(H.NumStates, D.numStates());
  EXPECT_EQ(H.NumDead, 1u); // the canonical Void sink, flagged
}

TEST(Health, DetectsUnflaggedDeadState) {
  Factory F;
  Dfa D = buildDfa(F, lit(F, {'a', 'b'}));
  DfaHealth Before = auditDfa(D);
  ASSERT_TRUE(Before.ok());
  // Unflag a dead state: the matcher would keep scanning hopelessly.
  for (size_t S = 0; S < D.numStates(); ++S)
    if (D.Rejects[S])
      D.Rejects[S] = 0;
  DfaHealth After = auditDfa(D);
  EXPECT_FALSE(After.ok());
  EXPECT_GT(After.DeadUnflagged, 0u);
}

TEST(Health, DetectsLiveFlaggedReject) {
  Factory F;
  Dfa D = buildDfa(F, lit(F, {'a', 'b'}));
  // Flag the start state (live) as a reject: an acceptance bug.
  D.Rejects[D.Start] = 1;
  DfaHealth H = auditDfa(D);
  EXPECT_FALSE(H.ok());
  EXPECT_GT(H.LiveFlaggedReject, 0u);
}

//===----------------------------------------------------------------------===//
// k-shortest witness enumeration.
//===----------------------------------------------------------------------===//

TEST(KShortest, LengthThenLexOrderPinned) {
  Factory F;
  // L = a(b|c)* — infinite language with a dense short prefix tree.
  Dfa D = buildDfa(F, F.cat(F.byteLit('a'),
                            F.star(F.alt(F.byteLit('b'), F.byteLit('c')))));
  auto W = kShortestAccepted(D, 7);
  ASSERT_EQ(W.size(), 7u);
  EXPECT_EQ(W[0], bytes({'a'}));
  EXPECT_EQ(W[1], bytes({'a', 'b'}));
  EXPECT_EQ(W[2], bytes({'a', 'c'}));
  EXPECT_EQ(W[3], bytes({'a', 'b', 'b'}));
  EXPECT_EQ(W[4], bytes({'a', 'b', 'c'}));
  EXPECT_EQ(W[5], bytes({'a', 'c', 'b'}));
  EXPECT_EQ(W[6], bytes({'a', 'c', 'c'}));
  // Every witness is a member, the first equals shortestAccepted, and
  // the list is strictly increasing in (length, lex) order — hence
  // pairwise distinct.
  auto First = shortestAccepted(D);
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(W[0], *First);
  for (size_t I = 0; I < W.size(); ++I) {
    EXPECT_TRUE(accepts(D, W[I])) << "witness " << I;
    if (I) {
      bool Ordered = W[I - 1].size() < W[I].size() ||
                     (W[I - 1].size() == W[I].size() && W[I - 1] < W[I]);
      EXPECT_TRUE(Ordered) << "witness " << I;
    }
  }
}

TEST(KShortest, FiniteLanguageDrainsBelowK) {
  Factory F;
  // |L| = 3: enumeration must stop at 3 no matter how many were asked.
  Dfa D = buildDfa(F, F.altN({lit(F, {'x'}), lit(F, {'y', 'z'}),
                              lit(F, {'y', 'y', 'y'})}));
  auto W = kShortestAccepted(D, 100);
  ASSERT_EQ(W.size(), 3u);
  EXPECT_EQ(W[0], bytes({'x'}));
  EXPECT_EQ(W[1], bytes({'y', 'z'}));
  EXPECT_EQ(W[2], bytes({'y', 'y', 'y'}));
}

TEST(KShortest, EmptyLanguageAndZeroK) {
  Factory F;
  Dfa Empty = buildDfa(F, F.voidRe());
  EXPECT_TRUE(kShortestAccepted(Empty, 5).empty());
  Dfa D = buildDfa(F, lit(F, {'a'}));
  EXPECT_TRUE(kShortestAccepted(D, 0).empty());
}

TEST(KShortest, EpsilonIsTheShortestMember) {
  Factory F;
  Dfa D = buildDfa(F, F.star(F.byteLit('q')));
  auto W = kShortestAccepted(D, 3);
  ASSERT_EQ(W.size(), 3u);
  EXPECT_TRUE(W[0].empty()); // the empty string
  EXPECT_EQ(W[1], bytes({'q'}));
  EXPECT_EQ(W[2], bytes({'q', 'q'}));
}

TEST(Product, OversizedProductThrows) {
  // Two DFAs whose reachable product would exceed the uint16_t id space
  // cannot be represented; the construction must refuse, not wrap.
  // (Cheap proxy: 300 x 300 byte-counting DFAs modulo coprime lengths.)
  auto CounterDfa = [](uint32_t Mod) {
    Dfa D;
    D.Start = 0;
    D.Table.assign(Mod, {});
    for (uint32_t S = 0; S < Mod; ++S)
      D.Table[S].fill(static_cast<uint16_t>((S + 1) % Mod));
    D.Accepts.assign(Mod, 0);
    D.Accepts[0] = 1;
    D.Rejects.assign(Mod, 0);
    return D;
  };
  Dfa A = CounterDfa(331), B = CounterDfa(317);
  EXPECT_THROW(productDfa(A, B, SetOp::Intersect), std::length_error);
}

} // namespace
