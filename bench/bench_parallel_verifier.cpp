//===- bench/bench_parallel_verifier.cpp -----------------------*- C++ -*-===//
//
// Scaling of the chunk-parallel verification service: MB/s of
// ParallelVerifier at 1/2/4/8 pool threads against two sequential
// baselines on the same image, plus batch throughput through
// VerifierPool. ParallelVerifier builds the full CheckResult, so the
// like-for-like baseline is RockSalt::check; the boolean
// RockSalt::verify is the faster one and is reported too, and every
// row prints its speed-up over both. The custom main prints a scaling
// table and emits one JSON line per configuration (appended to
// BENCH_parallel_verifier.json when ROCKSALT_BENCH_JSON is set, else
// stdout) so runs can be diffed across PRs.
//
//===----------------------------------------------------------------------===//

#include "nacl/WorkloadGen.h"
#include "svc/ParallelVerifier.h"
#include "svc/VerifierPool.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

using namespace rocksalt;

namespace {

const std::vector<uint8_t> &imageOfSize(uint32_t Bytes) {
  static std::map<uint32_t, std::vector<uint8_t>> Cache;
  auto It = Cache.find(Bytes);
  if (It != Cache.end())
    return It->second;
  nacl::WorkloadOptions Opts;
  Opts.TargetBytes = Bytes;
  Opts.Seed = 0x5EED + Bytes;
  return Cache.emplace(Bytes, nacl::generateWorkload(Opts)).first->second;
}

void benchSequential(benchmark::State &State) {
  const std::vector<uint8_t> &Code =
      imageOfSize(static_cast<uint32_t>(State.range(0)));
  core::RockSalt V;
  for (auto _ : State) {
    bool Ok = V.verify(Code);
    benchmark::DoNotOptimize(Ok);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Code.size());
}

void benchParallel(benchmark::State &State) {
  const std::vector<uint8_t> &Code =
      imageOfSize(static_cast<uint32_t>(State.range(0)));
  unsigned Threads = static_cast<unsigned>(State.range(1));
  svc::Metrics M;
  svc::VerifierPool Pool(svc::VerifierPool::Options{Threads}, &M);
  svc::ParallelVerifier PV(Pool);
  for (auto _ : State) {
    bool Ok = PV.verify(Code.data(), uint32_t(Code.size()));
    benchmark::DoNotOptimize(Ok);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Code.size());
  State.counters["threads"] = double(Threads);
}

/// Batch mode: many small images through the pool at once.
void benchPoolBatch(benchmark::State &State) {
  unsigned Threads = static_cast<unsigned>(State.range(0));
  std::vector<std::vector<uint8_t>> Images;
  uint64_t Bytes = 0;
  for (uint32_t I = 0; I < 64; ++I) {
    nacl::WorkloadOptions Opts;
    Opts.TargetBytes = 16384;
    Opts.Seed = 0xBA7C4 + I;
    Images.push_back(nacl::generateWorkload(Opts));
    Bytes += Images.back().size();
  }
  svc::Metrics M;
  svc::VerifierPool Pool(svc::VerifierPool::Options{Threads}, &M);
  for (auto _ : State) {
    auto Futures = Pool.submit(Images);
    for (auto &F : Futures)
      benchmark::DoNotOptimize(F.get().Ok);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Bytes));
  State.counters["threads"] = double(Threads);
}

BENCHMARK(benchSequential)->Arg(1 << 20)->Arg(4 << 20);
BENCHMARK(benchParallel)
    ->Args({4 << 20, 1})
    ->Args({4 << 20, 2})
    ->Args({4 << 20, 4})
    ->Args({4 << 20, 8});
BENCHMARK(benchPoolBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

double timeIt(const std::function<bool()> &Fn) {
  // One warmup, then the best of 5 timed reps (min filters scheduler
  // noise, which matters for the scaling ratios).
  Fn();
  double Best = 1e100;
  for (int I = 0; I < 5; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(Fn());
    auto T1 = std::chrono::steady_clock::now();
    Best = std::min(Best, std::chrono::duration<double>(T1 - T0).count());
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  const std::vector<uint8_t> &Code = imageOfSize(4 << 20);
  double MiB = double(Code.size()) / (1 << 20);
  unsigned Hw = std::thread::hardware_concurrency();

  core::RockSalt Seq;
  double SeqSecs =
      timeIt([&] { return Seq.verify(Code.data(), uint32_t(Code.size())); });
  double CheckSecs = timeIt(
      [&] { return Seq.check(Code.data(), uint32_t(Code.size())).Ok; });

  std::FILE *Json = stdout;
  bool OwnFile = false;
  if (std::getenv("ROCKSALT_BENCH_JSON")) {
    Json = std::fopen("BENCH_parallel_verifier.json", "a");
    OwnFile = Json != nullptr;
    if (!Json)
      Json = stdout;
  }

  std::printf("\n--- parallel verification service scaling (%.0f MiB image, "
              "%u hardware thread%s) ---\n",
              MiB, Hw, Hw == 1 ? "" : "s");
  if (Hw < 2)
    std::printf("NOTE: single-CPU host — thread scaling is capped at 1x "
                "here; the shard scan itself is embarrassingly parallel.\n");
  std::printf("%-26s %10s %10s %10s %10s\n", "configuration", "seconds",
              "MB/s", "vs verify", "vs check");
  std::printf("%-26s %10.4f %10.1f %9.2fx %9.2fx\n", "sequential verify",
              SeqSecs, MiB / SeqSecs, 1.0, CheckSecs / SeqSecs);
  std::printf("%-26s %10.4f %10.1f %9.2fx %9.2fx\n", "sequential check",
              CheckSecs, MiB / CheckSecs, SeqSecs / CheckSecs, 1.0);
  std::fprintf(Json,
               "{\"bench\":\"parallel_verifier\",\"config\":\"sequential\","
               "\"threads\":0,\"bytes\":%zu,\"seconds\":%.6f,"
               "\"mb_per_s\":%.1f,\"speedup_vs_sequential\":1.0}\n",
               Code.size(), SeqSecs, MiB / SeqSecs);
  std::fprintf(Json,
               "{\"bench\":\"parallel_verifier\","
               "\"config\":\"sequential_check\",\"threads\":0,"
               "\"bytes\":%zu,\"seconds\":%.6f,\"mb_per_s\":%.1f,"
               "\"speedup_vs_sequential\":%.3f,\"speedup_vs_check\":1.0}\n",
               Code.size(), CheckSecs, MiB / CheckSecs, SeqSecs / CheckSecs);

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    svc::Metrics M;
    svc::VerifierPool Pool(svc::VerifierPool::Options{Threads}, &M);
    svc::ParallelVerifier PV(Pool);
    double Secs =
        timeIt([&] { return PV.verify(Code.data(), uint32_t(Code.size())); });
    char Label[64];
    std::snprintf(Label, sizeof(Label), "parallel, %u thread%s", Threads,
                  Threads == 1 ? "" : "s");
    std::printf("%-26s %10.4f %10.1f %9.2fx %9.2fx\n", Label, Secs,
                MiB / Secs, SeqSecs / Secs, CheckSecs / Secs);
    std::fprintf(Json,
                 "{\"bench\":\"parallel_verifier\",\"config\":\"parallel\","
                 "\"threads\":%u,\"hw_threads\":%u,\"bytes\":%zu,"
                 "\"seconds\":%.6f,\"mb_per_s\":%.1f,"
                 "\"speedup_vs_sequential\":%.3f,\"speedup_vs_check\":%.3f}\n",
                 Threads, Hw, Code.size(), Secs, MiB / Secs, SeqSecs / Secs,
                 CheckSecs / Secs);
  }
  if (OwnFile)
    std::fclose(Json);
  return 0;
}
