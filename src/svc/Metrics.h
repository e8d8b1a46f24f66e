//===- svc/Metrics.h - Lock-free service metrics ---------------*- C++ -*-===//
///
/// \file
/// A small lock-free counter/histogram layer for the verification
/// service: plain atomics, no locks anywhere on the record path, so the
/// pool's hot loop can count events without serializing. Counters are
/// cache-line padded to keep unrelated counters from false-sharing.
///
/// `Histogram` is a power-of-two-bucketed log histogram (bucket i holds
/// values whose bit width is i), which is enough resolution for latency
/// and size distributions at zero contention cost.
///
/// `Metrics::dump()` renders a plain-text exposition (one `name value`
/// line per scalar, `name_bucket{le=...}` lines per histogram) consumed
/// by `validator_cli --stats` and the benches.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_SVC_METRICS_H
#define ROCKSALT_SVC_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>

namespace rocksalt {
namespace svc {

/// A monotonically increasing counter (relaxed atomics: totals matter,
/// inter-counter ordering does not).
class alignas(64) Counter {
  std::atomic<uint64_t> V{0};

public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t get() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }
};

/// An instantaneous up/down gauge (queue depth, in-flight jobs).
class alignas(64) Gauge {
  std::atomic<int64_t> V{0};

public:
  void add(int64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  void sub(int64_t N = 1) { V.fetch_sub(N, std::memory_order_relaxed); }
  int64_t get() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }
};

/// Log2-bucketed histogram: bucket i counts values v with bit_width(v)
/// == i, i.e. v in [2^(i-1), 2^i). The last bucket doubles as the
/// overflow bucket (values with bit_width 64 are clamped into it), so it
/// has no finite upper edge. Tracks count/sum/max alongside.
class alignas(64) Histogram {
public:
  static constexpr unsigned NumBuckets = 64;

private:
  std::atomic<uint64_t> Buckets[NumBuckets];
  std::atomic<uint64_t> Count{0}, Sum{0}, Max{0};

public:
  Histogram() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
  }

  void record(uint64_t V);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t C = count();
    return C ? double(sum()) / double(C) : 0.0;
  }
  uint64_t bucket(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  /// Upper-bound estimate of the \p Q quantile. Domain (0, 1]:
  /// out-of-domain Q is clamped into it (Q <= 0 reports the minimum
  /// observation's bucket edge, Q > 1 the maximum's); NaN asserts in
  /// debug builds and returns 0 in release.
  uint64_t quantile(double Q) const;

  void reset();
};

/// Every metric the verification service exports.
struct Metrics {
  // Image-level outcomes.
  Counter ImagesSubmitted;  ///< entered a pool queue
  Counter ImagesVerified;   ///< finished (accepted + rejected)
  Counter ImagesAccepted;
  Counter ImagesRejected;
  Counter RejectNoParse;    ///< reject: no grammar matched
  Counter RejectBadTarget;  ///< reject: direct jump into mid-instruction
  Counter RejectUnaligned;  ///< reject: bundle boundary not instr start
  Counter BytesVerified;

  // Incremental re-verify internals (incr/IncrementalVerifier).
  Counter ShardsScanned;    ///< dirty chunks rescanned (every dirty chunk)

  // Pool internals.
  Counter TasksRun;
  Counter TasksStolen;      ///< tasks taken from another worker's deque
  Gauge QueueDepth;         ///< tasks enqueued but not yet started

  // Differential-fuzzing internals (src/fuzz).
  Counter OracleRuns;          ///< images run through the full oracle
  Counter OracleDisagreements; ///< images on which any verdict path diverged
  Counter ShrinkSteps;         ///< minimizer predicate evaluations

  // CFG lint (src/analysis).
  Counter LintImages;   ///< images run through lintImage
  Counter LintErrors;   ///< error-severity diagnostics emitted
  Counter LintWarnings; ///< warning-severity diagnostics emitted
  Counter LintNotes;    ///< note-severity diagnostics emitted

  // Whole-image dataflow lint (src/analysis/Dataflow).
  Counter LintLiveIndirectOuts; ///< ext-reachable computed transfers seen
  Counter LintDeadPairs;        ///< dead-masked-pair diagnostics emitted
  Counter LintOffSeamCalls;     ///< call-ret-not-seam diagnostics emitted
  Counter LintIncrRelints;      ///< incremental re-lints performed
  Counter LintIncrFastPath;     ///< ... that took the O(window) fast path

  // Verification service (src/svc/Service).
  Counter SvcVerifyRequests; ///< verify request frames handled
  Counter SvcLintRequests;   ///< lint request frames handled
  Counter SvcAuditRequests;  ///< audit request frames handled
  Counter SvcTablesRequests; ///< tables request frames handled
  Counter SvcTablesHashHits; ///< tables requests short-circuited by hash
  Counter SvcErrors;         ///< malformed bodies answered with an error
  Counter SvcSessions;       ///< serve-loop sessions completed
  Counter SvcMetricsRequests; ///< metrics scrape frames handled

  // Event-driven multi-session serving (src/svc/EventLoop).
  Gauge SvcSessionsActive;       ///< sessions currently multiplexed
  Counter SvcBytesIn;            ///< request bytes read off session fds
  Counter SvcBytesOut;           ///< response bytes written to session fds
  Counter SvcAcceptErrors;       ///< accept() failures (all non-EINTR errnos)
  Counter SvcAcceptBackoffs;     ///< EMFILE/ENFILE backoff periods entered
  Counter SvcBackpressurePauses; ///< sessions whose reads paused on budget
  Counter SvcPeerDrops;          ///< sessions dropped on EPIPE/ECONNRESET

  // Incremental re-verification (src/incr + the service's patch path).
  Counter SvcImageOpenRequests;  ///< image-open request frames handled
  Counter SvcPatchRequests;      ///< patch request frames handled
  Counter SvcImageCloseRequests; ///< image-close request frames handled

  // Distributions.
  Histogram VerifyNanos;          ///< wall time per image verification
  Histogram BatchImages;          ///< images per submit() call
  Histogram SvcRequestNanos;      ///< wall time per service request frame
  Histogram SvcPatchNanos;        ///< wall time per patch re-verification
  Histogram AnalysisDataflowNanos; ///< wall time per dataflow pass pipeline

  /// Plain-text exposition of every metric: one `name value` line per
  /// scalar, Prometheus-style cumulative `name_bucket{le="..."}` lines
  /// per histogram — the scrape format served by the MetricsRequest
  /// frame kind and `validator_cli --connect --metrics`.
  std::string exposition() const;

  /// Back-compat alias for exposition() (--stats, benches, tests).
  std::string dump() const { return exposition(); }

  /// Zeroes everything (tests and benches between phases).
  void reset();
};

/// The process-wide default instance (services can own private ones).
Metrics &globalMetrics();

} // namespace svc
} // namespace rocksalt

#endif // ROCKSALT_SVC_METRICS_H
