//===- e2ebench/Main.cpp - The benchmark binary ---------------------------===//
///
/// \file
/// Modes (run.py drives them; each is a fresh process):
///
///   gen   --workload W --seed N --out FILE
///         inputs and known answers for one workload and seed;
///   setup --workload W --input FILE --workdir DIR
///         set-up only: prints `setup_s <seconds>`;
///   run   --workload W --input FILE --seconds S --workdir DIR [--corrupt]
///         untraced: set-up, one closed-loop window, checks, then the
///         characterisation line, the host-noise line and the result line
///         with every end-to-end metric. --corrupt falsifies one known
///         answer first (the self-test: the run must then fail);
///   trace --workload W --inputs ML JP SM --seconds S --workdir DIR
///         traced: sets up all three workloads with spans, runs W
///         untraced then traced (a quarter of S each; the difference is
///         the tracing overhead) and the other two traced (a quarter
///         each), then prints every per-layer metric.
///
/// Exit codes: 0 ok, 2 usage or I/O error, 3 a wrong answer.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>

using namespace e2e;

namespace {

struct Args {
  std::string Mode;
  std::map<std::string, std::string> Opt;
  std::vector<std::string> Inputs;
  bool Corrupt = false;

  const std::string &get(const std::string &K) const {
    auto It = Opt.find(K);
    if (It == Opt.end())
      throw std::invalid_argument("missing --" + K);
    return It->second;
  }
};

Args parse(int Argc, char **Argv) {
  if (Argc < 2)
    throw std::invalid_argument("usage: rsbench gen|setup|run|trace ...");
  Args A;
  A.Mode = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--corrupt") {
      A.Corrupt = true;
    } else if (K == "--inputs") {
      while (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0)
        A.Inputs.push_back(Argv[++I]);
    } else if (K.rfind("--", 0) == 0 && I + 1 < Argc) {
      A.Opt[K.substr(2)] = Argv[++I];
    } else {
      throw std::invalid_argument("bad argument '" + K + "'");
    }
  }
  return A;
}

double seconds(const Args &A) {
  double S = std::stod(A.get("seconds"));
  if (!(S > 0 && S <= 600))
    throw std::invalid_argument("--seconds must be in (0, 600]");
  return S;
}

int runMode(const Args &A) {
  std::unique_ptr<Workload> W =
      loadWorkload(A.get("workload"), A.get("input"), A.get("workdir"));
  if (A.Corrupt)
    W->corruptOneAnswer();
  Tracer T;
  const int64_t T0 = nowNs();
  W->setup(T);
  const double SetupS = double(nowNs() - T0) / 1e9;
  if (A.Mode == "setup") {
    std::printf("setup_s %s\n", num(SetupS).c_str());
    return 0;
  }
  HostSample H0 = HostSample::now();
  Window Win = W->run(seconds(A), T);
  HostSample H1 = HostSample::now();
  W->finish();
  std::printf("characterisation: %s\n", W->characterisation().c_str());
  std::printf("host: %s\n", hostRecord(H0, H1, Win.ElapsedS).c_str());
  std::printf("%s\n", resultJson(true, Win.Attempted, Win.Failed,
                                 endToEndMetrics(Win, SetupS))
                          .c_str());
  return 0;
}

int traceMode(const Args &A) {
  const std::string Named = A.get("workload");
  if (A.Inputs.size() != 3)
    throw std::invalid_argument("--inputs needs the three input files");
  std::vector<std::unique_ptr<Workload>> Ws;
  size_t NamedIdx = 3;
  for (size_t I = 0; I < 3; ++I) {
    Ws.push_back(loadWorkload(WorkloadNames[I], A.Inputs[I], A.get("workdir")));
    if (Named == WorkloadNames[I])
      NamedIdx = I;
  }
  if (NamedIdx == 3)
    throw std::invalid_argument("unknown workload '" + Named + "'");
  const double Quarter = seconds(A) / 4;

  Tracer T;
  T.On = true;
  for (auto &W : Ws)
    W->setup(T);
  HostSample H0 = HostSample::now();
  uint64_t Attempted = 0, Failed = 0;
  Window Untraced, Traced;
  for (size_t I = 0; I < 3; ++I) {
    if (I == NamedIdx) {
      T.On = false;
      Untraced = Ws[I]->run(Quarter, T);
      T.On = true;
      Attempted += Untraced.Attempted;
      Failed += Untraced.Failed;
    }
    Window Win = Ws[I]->run(Quarter, T);
    Attempted += Win.Attempted;
    Failed += Win.Failed;
    if (I == NamedIdx)
      Traced = std::move(Win);
  }
  HostSample H1 = HostSample::now();
  std::vector<Metric> Ms;
  for (auto &W : Ws) {
    W->finish();
    W->layerMetrics(T, Ms);
  }
  Ms.push_back({"trace.overhead_p50_ms",
                Traced.quantileMs(0.5) - Untraced.quantileMs(0.5), "ms"});
  Ms.push_back({"trace.overhead_ops_per_s",
                Traced.opsPerS() - Untraced.opsPerS(), "1/s"});
  std::printf("characterisation: %s\n", Ws[NamedIdx]->characterisation().c_str());
  std::printf("host: %s\n", hostRecord(H0, H1, 4 * Quarter).c_str());
  std::printf("%s\n", resultJson(true, Attempted, Failed, Ms).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    Args A = parse(Argc, Argv);
    if (A.Mode == "gen") {
      uint64_t Seed = std::stoull(A.get("seed"));
      writeFile(A.get("out"), generateInputs(A.get("workload"), Seed));
      return 0;
    }
    if (A.Mode == "setup" || A.Mode == "run")
      return runMode(A);
    if (A.Mode == "trace")
      return traceMode(A);
    throw std::invalid_argument("unknown mode '" + A.Mode + "'");
  } catch (const std::exception &E) {
    std::fflush(stdout);
    std::fprintf(stderr, "rsbench: %s\n", E.what());
    return 2;
  }
}
