//===- tests/soundness_sweep_test.cpp -------------------------*- C++ -*-===//
//
// The end-to-end soundness property as a parameterized sweep: for each
// seed, generate a compliant binary, require both checkers to accept it,
// run it under the sandbox monitor from several oracle-seeded machine
// states, and require zero invariant violations. Each seed is its own
// test instance so a failure pinpoints the offending workload.
//
//===----------------------------------------------------------------------===//

#include "core/BaselineChecker.h"
#include "core/Verifier.h"
#include "nacl/Mutator.h"
#include "nacl/SandboxMonitor.h"
#include "nacl/WorkloadGen.h"

#include <gtest/gtest.h>

using namespace rocksalt;
using namespace rocksalt::core;
using namespace rocksalt::nacl;

namespace {

constexpr uint32_t CodeBase = 0x20000;
constexpr uint32_t DataBase = 0x800000;
constexpr uint32_t DataSize = 0x8000;

class SoundnessSweep : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(SoundnessSweep, AcceptedBinaryRunsSafely) {
  uint64_t Seed = GetParam();
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  Opts.TargetBytes = 1536;
  // Vary the construct mix with the seed so the sweep covers different
  // shapes (branch-heavy, indirect-heavy, straight-line).
  Opts.DirectJumpRate = 20 + (Seed % 5) * 25;
  Opts.MaskedJumpRate = (Seed % 3) * 20;
  Opts.CallRate = (Seed % 4) * 15;
  std::vector<uint8_t> Code = generateWorkload(Opts);

  RockSalt V;
  CheckResult R = V.check(Code);
  ASSERT_TRUE(R.Ok);
  ASSERT_TRUE(baselineVerify(Code));

  // Several runs from different machine states: registers (and thus
  // indirect-jump targets and memory traffic) differ each time.
  for (uint64_t OracleSeed : {Seed * 3 + 1, Seed * 7 + 2, Seed * 11 + 3}) {
    sem::Cpu C;
    C.configureSandbox(CodeBase, static_cast<uint32_t>(Code.size()),
                       DataBase, DataSize, Code);
    Rng Rand(OracleSeed);
    for (int I = 0; I < 8; ++I)
      if (I != 4) // keep ESP sane
        C.M.Regs[I] = static_cast<uint32_t>(Rand.next());
    SandboxMonitor Mon(C, R, CodeBase, static_cast<uint32_t>(Code.size()));
    auto Violation = Mon.runMonitored(1500);
    ASSERT_FALSE(Violation.has_value())
        << "oracle " << OracleSeed << " step " << Violation->Step << ": "
        << Violation->What;
  }
}

TEST_P(SoundnessSweep, MutatedVariantNeverViolatesWhenAccepted) {
  // The stronger statement: even a *mutated* binary, as long as the
  // checker still accepts it, must run safely. This is the soundness
  // property on adversarial inputs rather than generator outputs.
  uint64_t Seed = GetParam();
  WorkloadOptions Opts;
  Opts.Seed = Seed + 1000;
  Opts.TargetBytes = 768;
  std::vector<uint8_t> Code = generateWorkload(Opts);

  RockSalt V;
  Rng Rand(Seed * 13 + 5);
  int AcceptedMutants = 0;
  for (int I = 0; I < 40; ++I) {
    std::vector<uint8_t> M = mutateRandom(Code, Rand);
    CheckResult R = V.check(M);
    if (!R.Ok)
      continue;
    ++AcceptedMutants;
    sem::Cpu C(Seed + I);
    C.configureSandbox(CodeBase, static_cast<uint32_t>(M.size()), DataBase,
                       DataSize, M);
    SandboxMonitor Mon(C, std::move(R), CodeBase,
                       static_cast<uint32_t>(M.size()));
    auto Violation = Mon.runMonitored(1000);
    ASSERT_FALSE(Violation.has_value())
        << "mutant " << I << " step " << Violation->Step << ": "
        << Violation->What;
    Code = std::move(M); // walk the mutation chain
  }
  // Most single-byte mutations of immediates stay legal, so the property
  // must actually have been exercised.
  EXPECT_GT(AcceptedMutants, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessSweep,
                         ::testing::Range<uint64_t>(1, 21));
