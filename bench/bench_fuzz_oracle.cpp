//===- bench/bench_fuzz_oracle.cpp -----------------------------*- C++ -*-===//
//
// Throughput of the differential fuzz harness: images/second through the
// full cross-verifier oracle (all four verdict paths), through the
// structured mutator alone, and through one minimizer run. This is what
// sizes the CI smoke budget — the smoke gate pushes >=10k images, so
// oracle throughput directly bounds how much disagreement-hunting a
// fixed CI window buys.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "fuzz/StructuredMutator.h"
#include "nacl/WorkloadGen.h"

#include <benchmark/benchmark.h>

using namespace rocksalt;

namespace {

std::vector<uint8_t> image(uint32_t Bytes) {
  nacl::WorkloadOptions Opts;
  Opts.TargetBytes = Bytes;
  Opts.Seed = 0x5EED + Bytes;
  return nacl::generateWorkload(Opts);
}

void benchOracleFull(benchmark::State &State) {
  fuzz::DifferentialOracle Oracle;
  std::vector<uint8_t> Code = image(uint32_t(State.range(0)));
  Rng R(1);
  for (auto _ : State) {
    Code = fuzz::mutateStructured(Code, R);
    benchmark::DoNotOptimize(Oracle.run(Code).agree());
  }
  State.SetItemsProcessed(State.iterations());
  State.SetBytesProcessed(int64_t(State.iterations()) * Code.size());
}

void benchMutatorOnly(benchmark::State &State) {
  std::vector<uint8_t> Code = image(uint32_t(State.range(0)));
  Rng R(1);
  for (auto _ : State) {
    Code = fuzz::mutateStructured(Code, R);
    benchmark::DoNotOptimize(Code.data());
  }
  State.SetItemsProcessed(State.iterations());
}

void benchMinimizer(benchmark::State &State) {
  // Shrink a planted violation back out of a compliant image — the cost
  // profile of one fuzz-found disagreement.
  std::vector<uint8_t> Seed = image(uint32_t(State.range(0)));
  std::vector<uint32_t> Starts = fuzz::chainPositions(Seed);
  Seed[Starts[Starts.size() / 2]] = 0xC3;
  core::RockSalt V;
  for (auto _ : State) {
    fuzz::MinimizeResult R = fuzz::minimizeImage(
        Seed, [&](const std::vector<uint8_t> &C) { return !V.verify(C); });
    benchmark::DoNotOptimize(R.Image.data());
  }
  State.SetItemsProcessed(State.iterations());
}

} // namespace

BENCHMARK(benchOracleFull)->Arg(384)->Arg(2048);
BENCHMARK(benchMutatorOnly)->Arg(384)->Arg(2048);
BENCHMARK(benchMinimizer)->Arg(384);

BENCHMARK_MAIN();
