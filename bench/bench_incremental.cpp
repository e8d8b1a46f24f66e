//===- bench/bench_incremental.cpp -----------------------------*- C++ -*-===//
//
// Experiment E13: the incremental-re-verification economics of the
// mutating-image (JIT) workload. A code cache that overwrites 64 bytes
// of a 1 MiB verified image either pays a full O(image) re-check per
// update or an O(patch) incremental re-verify (dirty chunks re-scanned,
// everything re-merged) with an identical verdict. This bench measures
// both, plus the one-time open cost, and emits one JSON line per
// quantity (appended to BENCH_incr.json when ROCKSALT_BENCH_JSON is
// set, else stdout).
//
// The acceptance line: a 64-byte patch on a 1 MiB accepted image must
// re-verify at least 5x faster than the full check — below that the
// subsystem has regressed into pointless bookkeeping.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "incr/IncrementalVerifier.h"
#include "nacl/WorkloadGen.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace rocksalt;

namespace {

constexpr uint32_t ImageBytes = 1u << 20; // 1 MiB
constexpr uint32_t PatchBytes = 64;       // two bundles

std::vector<uint8_t> makeImage() {
  nacl::WorkloadOptions WO;
  // Undershoot, then pad up to exactly 1 MiB with nops (truncating down
  // would cut an instruction mid-stream and reject the whole image).
  WO.TargetBytes = ImageBytes - 16384;
  WO.Seed = 1302;
  std::vector<uint8_t> Img = nacl::generateWorkload(WO);
  if (Img.size() > ImageBytes)
    std::abort();
  Img.resize(ImageBytes, 0x90);
  return Img;
}

/// A 64-byte patch of single-byte instructions: a nop sled or an
/// inc-eax sled. Alternating the two means consecutive visits to one
/// offset change the content, and single-byte instructions keep every
/// byte an instruction start, so direct jumps elsewhere in the image
/// that target the patched window stay valid — the bench measures the
/// accepted steady state, the JIT workload's common case.
void fillPatch(std::vector<uint8_t> &Out, bool IncSled) {
  Out.assign(PatchBytes, IncSled ? 0x40 : 0x90); // inc eax / nop
}

template <typename F> double medianMs(F Fn, int Reps = 15) {
  std::vector<double> Ms;
  for (int I = 0; I < Reps; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    auto T1 = std::chrono::steady_clock::now();
    Ms.push_back(std::chrono::duration<double, std::milli>(T1 - T0).count());
  }
  std::sort(Ms.begin(), Ms.end());
  return Ms[Ms.size() / 2];
}

} // namespace

static void benchFullCheck1M(benchmark::State &State) {
  std::vector<uint8_t> Img = makeImage();
  core::RockSalt V;
  for (auto _ : State) {
    core::CheckResult R = V.check(Img);
    benchmark::DoNotOptimize(R.Ok);
  }
}
BENCHMARK(benchFullCheck1M)->Unit(benchmark::kMillisecond);

static void benchPatch64On1M(benchmark::State &State) {
  std::vector<uint8_t> Img = makeImage();
  incr::IncrementalVerifier Incr;
  incr::ImageId Id = Incr.open(Img);
  std::vector<uint8_t> Patch;
  uint32_t Slot = 0;
  for (auto _ : State) {
    uint32_t Off = (Slot * 37 % (ImageBytes / PatchBytes)) * PatchBytes;
    fillPatch(Patch, Slot & 1);
    ++Slot;
    incr::IncrResult R = Incr.patch(Id, Off, Patch.data(), PatchBytes);
    benchmark::DoNotOptimize(R.Ok);
  }
}
BENCHMARK(benchPatch64On1M)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::vector<uint8_t> Img = makeImage();
  core::RockSalt Full;
  core::CheckResult Base = Full.check(Img);
  if (!Base.Ok) {
    std::fprintf(stderr, "bench_incremental: 1 MiB workload not accepted?\n");
    return 1;
  }

  double OpenMs;
  incr::IncrementalVerifier Incr;
  {
    auto T0 = std::chrono::steady_clock::now();
    incr::IncrResult R;
    Incr.open(Img, &R);
    auto T1 = std::chrono::steady_clock::now();
    OpenMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (!R.Ok) {
      std::fprintf(stderr, "bench_incremental: incremental open rejected?\n");
      return 1;
    }
  }
  // The measured instance: a fresh verifier.
  incr::IncrementalVerifier Timed;
  incr::ImageId Id = Timed.open(Img);

  double FullMs = medianMs([&] {
    core::CheckResult R = Full.check(Img);
    benchmark::DoNotOptimize(R.Ok);
  });

  std::vector<uint8_t> Patch;
  uint32_t Slot = 0;
  uint64_t Rescans = 0;
  bool AllAccepted = true;
  double PatchMs = medianMs([&] {
    // Rotate bundle-aligned offsets so no rep revisits content it wrote
    // before (every timed patch is a genuine dirty-chunk re-scan).
    uint32_t Off = (Slot * 37 % (ImageBytes / PatchBytes)) * PatchBytes;
    fillPatch(Patch, Slot & 1);
    ++Slot;
    incr::IncrResult R = Timed.patch(Id, Off, Patch.data(), PatchBytes);
    Rescans += R.ChunksRescanned;
    AllAccepted = AllAccepted && R.Ok;
    benchmark::DoNotOptimize(R.Ok);
  });
  if (!AllAccepted) {
    // A rejected image re-verifies through the full merge by design; a
    // reject here means the bench measured the wrong path.
    std::fprintf(stderr, "bench_incremental: a bench patch was rejected\n");
    return 1;
  }
  double Speedup = PatchMs > 0 ? FullMs / PatchMs : 0;

  std::printf("\n--- E13: incremental re-verification (1 MiB image, "
              "64-byte patches, %u-byte chunks) ---\n",
              incr::IncrementalOptions{}.ChunkBytes);
  std::printf("open (initial chunked scan):   %8.3f ms\n", OpenMs);
  std::printf("full re-check per patch:       %8.3f ms\n", FullMs);
  std::printf("incremental re-verify (64 B):  %8.3f ms  (%.1fx faster; "
              "%llu chunk rescans over the run)\n",
              PatchMs, Speedup, static_cast<unsigned long long>(Rescans));
  if (Speedup < 5.0)
    std::printf("*** incremental patch re-verify did NOT beat the full "
                "check by >= 5x — the incr subsystem regressed ***\n");

  std::FILE *Json = stdout;
  bool OwnFile = false;
  if (std::getenv("ROCKSALT_BENCH_JSON")) {
    Json = std::fopen("BENCH_incr.json", "a");
    OwnFile = Json != nullptr;
    if (!Json)
      Json = stdout;
  }
  auto Line = [&](const char *Metric, double V) {
    std::fprintf(Json,
                 "{\"bench\":\"incr\",\"metric\":\"%s\",\"value\":%.4f}\n",
                 Metric, V);
  };
  Line("open_1m_ms", OpenMs);
  Line("full_check_1m_ms", FullMs);
  Line("patch64_ms", PatchMs);
  Line("patch64_speedup_x", Speedup);
  std::fprintf(Json,
               "{\"bench\":\"incr\",\"metric\":\"chunk_bytes\","
               "\"value\":%u}\n",
               incr::IncrementalOptions{}.ChunkBytes);
  if (OwnFile)
    std::fclose(Json);
  return Speedup >= 5.0 ? 0 : 1;
}
