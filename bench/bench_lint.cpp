//===- bench/bench_lint.cpp ------------------------------------*- C++ -*-===//
//
// Experiment E15: the incremental-lint economics of the mutating-image
// (JIT) workload. A code cache that overwrites 64 bytes of a 1 MiB
// accepted image either pays a full O(image) lint per update (chain
// re-scan, CFG recovery, full pass pipeline) or an O(patch window)
// incremental re-lint riding the verifier's splice windows, with a
// byte-identical report. This bench measures both, plus the one-time
// lint-state seeding cost and the fresh lint's two halves (CFG recovery
// and the passes with their diagnostics), and emits one JSON line per
// quantity (appended to BENCH_lint.json when ROCKSALT_BENCH_JSON is
// set, else stdout).
//
// The acceptance line: a 64-byte patch on a 1 MiB accepted image must
// re-lint at least 10x faster than a fresh `lintImage` — below that the
// maintained chunk state has regressed into pointless bookkeeping.
//
//===----------------------------------------------------------------------===//

#include "analysis/CfgLint.h"
#include "analysis/Dataflow.h"
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

/// Builds the 1 MiB image and reports where its nop-padded tail starts.
/// The pad is the bench's patch arena: a JIT code cache reserves exactly
/// this kind of straight-line scratch space and overwrites it in place,
/// which is the incremental linter's fast-path shape — patching over the
/// generated workload body instead would replace control flow and
/// (correctly) force the O(nodes) middle path on every rep.
std::vector<uint8_t> makeImage(uint32_t &PadBase) {
  nacl::WorkloadOptions WO;
  // Undershoot, then pad up to exactly 1 MiB with nops (truncating down
  // would cut an instruction mid-stream and reject the whole image).
  WO.TargetBytes = ImageBytes - 16384;
  WO.Seed = 1502;
  std::vector<uint8_t> Img = nacl::generateWorkload(WO);
  if (Img.size() > ImageBytes)
    std::abort();
  // Skip a few bundles past the workload's end so a splice window that
  // widens to chunk boundaries never reaches back into real code.
  PadBase = (uint32_t(Img.size()) + 1024 + core::BundleSize - 1) &
            ~uint32_t(core::BundleSize - 1);
  Img.resize(ImageBytes, 0x90);
  return Img;
}

/// A 64-byte sled of single-byte instructions, alternating content so
/// consecutive visits to one offset are genuine changes. Single-byte
/// instructions keep the window a pure straight-line corridor — the
/// incremental linter's fast path, the JIT workload's common case.
void fillPatch(std::vector<uint8_t> &Out, bool IncSled) {
  Out.assign(PatchBytes, IncSled ? 0x40 : 0x90); // inc eax / nop
}

double medianOf(std::vector<double> Ms) {
  std::sort(Ms.begin(), Ms.end());
  return Ms[Ms.size() / 2];
}

} // namespace

static void benchFullLint1M(benchmark::State &State) {
  uint32_t PadBase = 0;
  std::vector<uint8_t> Img = makeImage(PadBase);
  const core::PolicyTables &T = core::policyTables();
  for (auto _ : State) {
    analysis::CfgLintResult L = analysis::lintImage(T, Img);
    benchmark::DoNotOptimize(L.Errors);
  }
}
BENCHMARK(benchFullLint1M)->Unit(benchmark::kMillisecond);

static void benchRelint64On1M(benchmark::State &State) {
  uint32_t PadBase = 0;
  std::vector<uint8_t> Img = makeImage(PadBase);
  const core::PolicyTables &T = core::policyTables();
  incr::IncrementalVerifier Incr;
  analysis::IncrementalLinter Linter(T);
  incr::ImageId Id = Incr.open(Img);
  Linter.open(Id, Img.data(), ImageBytes, incr::IncrementalOptions{}.ChunkBytes);
  const uint32_t Slots = (ImageBytes - PatchBytes - PadBase) / PatchBytes;
  std::vector<uint8_t> Patch;
  uint32_t Slot = 0;
  for (auto _ : State) {
    uint32_t Off = PadBase + (Slot * 37 % Slots) * PatchBytes;
    fillPatch(Patch, Slot & 1);
    ++Slot;
    incr::IncrResult R = Incr.patch(Id, Off, Patch.data(), PatchBytes);
    for (uint32_t B = 0; B < PatchBytes; ++B)
      Img[Off + B] = Patch[B];
    analysis::IncrementalLinter::Summary S =
        Linter.relint(Id, Img.data(), ImageBytes, R);
    benchmark::DoNotOptimize(S.Errors);
  }
}
BENCHMARK(benchRelint64On1M)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  uint32_t PadBase = 0;
  std::vector<uint8_t> Img = makeImage(PadBase);
  const core::PolicyTables &T = core::policyTables();
  core::RockSalt Full;
  if (!Full.check(Img).Ok) {
    std::fprintf(stderr, "bench_lint: 1 MiB workload not accepted?\n");
    return 1;
  }

  // One-time seeding: open the verifier, then capture the chunked lint
  // state with a full lint.
  incr::IncrementalVerifier Timed;
  incr::ImageId Id = Timed.open(Img);
  analysis::IncrementalLinter Linter(T);
  double OpenMs;
  {
    auto T0 = std::chrono::steady_clock::now();
    analysis::IncrementalLinter::Summary S =
        Linter.open(Id, Img.data(), ImageBytes,
                    incr::IncrementalOptions{}.ChunkBytes);
    auto T1 = std::chrono::steady_clock::now();
    OpenMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (S.Errors) {
      std::fprintf(stderr, "bench_lint: accepted image lints errors?\n");
      return 1;
    }
  }

  // Each rep times a fresh lintImage, then its two halves run apart:
  // recoverCfg (the chain re-scan) and lintCfg (passes + diagnostics).
  // Every result outlives its timer, so no timed span frees one.
  auto MsSince = [](std::chrono::steady_clock::time_point T0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T0)
        .count();
  };
  std::vector<double> FullRuns, RecoverRuns, PassRuns;
  for (int I = 0; I < 15; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    analysis::CfgLintResult Fresh = analysis::lintImage(T, Img);
    FullRuns.push_back(MsSince(T0));

    T0 = std::chrono::steady_clock::now();
    analysis::RecoveredCfg Cfg =
        analysis::recoverCfg(T, Img.data(), ImageBytes);
    RecoverRuns.push_back(MsSince(T0));
    T0 = std::chrono::steady_clock::now();
    analysis::CfgLintResult Split =
        analysis::lintCfg(std::move(Cfg), ImageBytes, nullptr);
    PassRuns.push_back(MsSince(T0));
    benchmark::DoNotOptimize(Fresh.Errors + Split.Errors);
  }
  double FullMs = medianOf(FullRuns);
  double RecoverMs = medianOf(RecoverRuns);
  double PassMs = medianOf(PassRuns);

  // Per patch: the verifier's re-verify runs untimed (that cost is E13's
  // number); only the re-lint is measured, against the fresh full lint.
  const uint32_t Slots = (ImageBytes - PatchBytes - PadBase) / PatchBytes;
  std::vector<uint8_t> Patch;
  std::vector<double> RelintRuns;
  uint32_t Slot = 0, FastPaths = 0;
  for (int I = 0; I < 15; ++I) {
    uint32_t Off = PadBase + (Slot * 37 % Slots) * PatchBytes;
    fillPatch(Patch, Slot & 1);
    ++Slot;
    incr::IncrResult R = Timed.patch(Id, Off, Patch.data(), PatchBytes);
    for (uint32_t B = 0; B < PatchBytes; ++B)
      Img[Off + B] = Patch[B];
    if (!R.Ok) {
      std::fprintf(stderr, "bench_lint: a bench patch was rejected\n");
      return 1;
    }
    auto T0 = std::chrono::steady_clock::now();
    analysis::IncrementalLinter::Summary S =
        Linter.relint(Id, Img.data(), ImageBytes, R);
    auto T1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(S.Errors);
    FastPaths += S.FastPath ? 1 : 0;
    RelintRuns.push_back(
        std::chrono::duration<double, std::milli>(T1 - T0).count());
  }
  double RelintMs = medianOf(RelintRuns);
  double Speedup = RelintMs > 0 ? FullMs / RelintMs : 0;

  // The speed claim is only worth stating if the maintained report is
  // still the real report after all fifteen splices.
  if (Linter.render(Id) != analysis::lintImage(T, Img).render()) {
    std::fprintf(stderr,
                 "bench_lint: incremental render diverged from full lint\n");
    return 1;
  }

  std::printf("\n--- E15: incremental re-lint (1 MiB image, 64-byte "
              "patches, %u-byte chunks) ---\n",
              incr::IncrementalOptions{}.ChunkBytes);
  std::printf("lint-state seeding (full lint): %8.3f ms\n", OpenMs);
  std::printf("fresh lintImage per patch:      %8.3f ms\n", FullMs);
  std::printf("  CFG recovery (recoverCfg):    %8.3f ms\n", RecoverMs);
  std::printf("  passes + diags (lintCfg):     %8.3f ms\n", PassMs);
  std::printf("incremental re-lint (64 B):     %8.3f ms  (%.1fx faster; "
              "%u/15 fast-path windows)\n",
              RelintMs, Speedup, FastPaths);
  if (Speedup < 10.0)
    std::printf("*** incremental re-lint did NOT beat the fresh lint by "
                ">= 10x — the lint state has regressed ***\n");

  std::FILE *Json = stdout;
  bool OwnFile = false;
  if (std::getenv("ROCKSALT_BENCH_JSON")) {
    Json = std::fopen("BENCH_lint.json", "a");
    OwnFile = Json != nullptr;
    if (!Json)
      Json = stdout;
  }
  auto Line = [&](const char *Metric, double V) {
    std::fprintf(Json,
                 "{\"bench\":\"lint\",\"metric\":\"%s\",\"value\":%.4f}\n",
                 Metric, V);
  };
  Line("lint_open_1m_ms", OpenMs);
  Line("full_lint_1m_ms", FullMs);
  Line("recover_cfg_1m_ms", RecoverMs);
  Line("lint_cfg_1m_ms", PassMs);
  Line("relint64_ms", RelintMs);
  Line("relint64_speedup_x", Speedup);
  Line("relint64_fastpath_frac", FastPaths / 15.0);
  if (OwnFile)
    std::fclose(Json);
  return Speedup >= 10.0 ? 0 : 1;
}
