//===- e2ebench/Common.cpp ----------------------------------------------===//

#include "Common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2e {

void wrongAnswer(const std::string &What) {
  std::fflush(stdout);
  std::fprintf(stderr, "e2ebench: WRONG ANSWER: %s\n", What.c_str());
  std::fflush(stderr);
  // No unwinding: service threads may still be running, and a wrong
  // verdict must never turn into a printed result.
  std::_Exit(3);
}

void Writer::u32(uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Buf.push_back(uint8_t(V >> (8 * I)));
}

void Writer::u64(uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Buf.push_back(uint8_t(V >> (8 * I)));
}

void Writer::f64(double V) {
  uint64_t U;
  std::memcpy(&U, &V, sizeof U);
  u64(U);
}

void Writer::bytes(const std::vector<uint8_t> &B) {
  u32(uint32_t(B.size()));
  Buf.insert(Buf.end(), B.begin(), B.end());
}

void Writer::str(const std::string &S) {
  u32(uint32_t(S.size()));
  Buf.insert(Buf.end(), S.begin(), S.end());
}

Reader::Reader(const std::string &Path) : In(Path, std::ios::binary) {
  if (!In)
    throw std::runtime_error("cannot read " + Path);
}

void Reader::read(void *Dst, size_t N) {
  In.read(static_cast<char *>(Dst), std::streamsize(N));
  if (size_t(In.gcount()) != N)
    throw std::runtime_error("truncated input file");
}

uint8_t Reader::u8() {
  uint8_t V;
  read(&V, 1);
  return V;
}

uint32_t Reader::u32() {
  uint8_t B[4];
  read(B, 4);
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= uint32_t(B[I]) << (8 * I);
  return V;
}

uint64_t Reader::u64() {
  uint64_t Lo = u32();
  return Lo | uint64_t(u32()) << 32;
}

double Reader::f64() {
  uint64_t U = u64();
  double V;
  std::memcpy(&V, &U, sizeof V);
  return V;
}

std::vector<uint8_t> Reader::bytes() {
  uint32_t N = u32();
  if (N > (1u << 28))
    throw std::runtime_error("oversized field in input file");
  std::vector<uint8_t> B(N);
  if (N)
    read(B.data(), N);
  return B;
}

std::string Reader::str() {
  std::vector<uint8_t> B = bytes();
  return std::string(B.begin(), B.end());
}

bool Reader::done() { return In.peek() == std::ifstream::traits_type::eof(); }

void writeFile(const std::string &Path, const std::vector<uint8_t> &Data) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F.write(reinterpret_cast<const char *>(Data.data()), long(Data.size()));
  if (!F)
    throw std::runtime_error("cannot write " + Path);
}

static const char InputMagic[] = "E2EBIN1";

void writeHeader(Writer &W, const std::string &Workload, uint64_t Seed) {
  W.str(InputMagic);
  W.str(Workload);
  W.u64(Seed);
}

void readHeader(Reader &R, const std::string &Workload) {
  if (R.str() != InputMagic)
    throw std::runtime_error("not a benchmark input file");
  std::string W = R.str();
  if (W != Workload)
    throw std::runtime_error("input file is for workload '" + W +
                             "', expected '" + Workload + "'");
  R.u64(); // the seed, for readers of the file
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * double(V.size()));
  size_t Idx = Rank < 1 ? 0 : size_t(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

void Window::begin(int64_t Start, double Seconds) {
  StartNs = Start;
  SliceNs = std::max<int64_t>(1, int64_t(Seconds * 1e9) / Slices);
  Marks.clear();
}

void Window::end(int64_t EndNs) {
  tick(EndNs);
  mark(EndNs);
  ElapsedS = double(EndNs - StartNs) / 1e9;
}

double Window::quantileMs(double Q) const {
  std::vector<double> Per;
  size_t From = 0;
  for (const Mark &M : Marks) {
    if (M.Lat > From) {
      std::vector<uint32_t> S(LatNs.begin() + long(From),
                              LatNs.begin() + long(M.Lat));
      double Rank = std::ceil(Q * double(S.size()));
      size_t Idx = Rank < 1 ? 0 : std::min(size_t(Rank) - 1, S.size() - 1);
      std::nth_element(S.begin(), S.begin() + long(Idx), S.end());
      Per.push_back(double(S[Idx]) / 1e6);
    }
    From = M.Lat;
  }
  return median(Per);
}

double Window::opsPerS() const {
  std::vector<double> Per;
  size_t Done = 0;
  int64_t At = StartNs;
  for (const Mark &M : Marks) {
    if (M.At > At)
      Per.push_back(double(M.Lat - Done) / (double(M.At - At) / 1e9));
    Done = M.Lat;
    At = M.At;
  }
  return median(Per);
}

std::map<std::string, std::vector<double>> Tracer::selfTimes() const {
  std::vector<double> ChildNs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += double(S.T1 - S.T0);
  std::map<std::string, std::vector<double>> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name].push_back(double(Spans[I].T1 - Spans[I].T0) -
                                 ChildNs[I]);
  return Out;
}

HostSample HostSample::now() {
  HostSample H;
  std::ifstream F("/proc/stat");
  std::string Cpu;
  F >> Cpu;
  if (Cpu != "cpu")
    return H;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already included in user/nice.
  for (int I = 0; I < 8; ++I) {
    uint64_t V = 0;
    F >> V;
    H.Total += V;
    if (I == 7)
      H.Steal = V;
  }
  return H;
}

std::string hostRecord(const HostSample &Begin, const HostSample &End,
                       double WindowS) {
  double Steal = 0;
  if (End.Total > Begin.Total)
    Steal = double(End.Steal - Begin.Steal) / double(End.Total - Begin.Total);
  double Load[1] = {0};
  if (getloadavg(Load, 1) != 1)
    Load[0] = -1;
  return "{\"steal_share\": " + num(Steal) +
         ", \"loadavg_1m\": " + num(Load[0]) +
         ", \"window_s\": " + num(WindowS) + "}";
}

double peakRssMiB() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string num(double V) {
  if (!std::isfinite(V))
    return "0";
  char B[40];
  std::snprintf(B, sizeof B, "%.17g", V);
  return B;
}

std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Ms) {
  std::ostringstream O;
  O << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      O << ", ";
    O << '"' << Ms[I].Name << "\": {\"value\": " << num(Ms[I].Value)
      << ", \"unit\": \"" << Ms[I].Unit << "\"}";
  }
  O << "}}";
  return O.str();
}

std::vector<Metric> endToEndMetrics(const Window &W, double SetupS) {
  return {
      {"setup_s", SetupS, "s"},
      {"verdict_p50_ms", W.quantileMs(0.5), "ms"},
      {"verdict_p90_ms", W.quantileMs(0.9), "ms"},
      {"ops_per_s", W.opsPerS(), "1/s"},
      {"peak_rss_mib", peakRssMiB(), "MiB"},
      {"fail_ratio", double(W.Failed + 1) / double(W.Attempted + 2), "ratio"},
  };
}

} // namespace e2e
