//===- svc/Metrics.cpp - Lock-free service metrics ------------------------===//

#include "svc/Metrics.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>

using namespace rocksalt;
using namespace rocksalt::svc;

void Histogram::record(uint64_t V) {
  unsigned B = static_cast<unsigned>(std::bit_width(V)); // 0 for V == 0
  Buckets[B >= NumBuckets ? NumBuckets - 1 : B].fetch_add(
      1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(V, std::memory_order_relaxed);
  uint64_t Prev = Max.load(std::memory_order_relaxed);
  while (Prev < V &&
         !Max.compare_exchange_weak(Prev, V, std::memory_order_relaxed))
    ;
}

uint64_t Histogram::quantile(double Q) const {
  // The documented domain is (0, 1]. NaN has no defensible answer (it
  // used to fall through every comparison and report max()); Q outside
  // the domain is clamped, so Q <= 0 asks for the minimum observation
  // instead of fabricating an answer from bucket 0's edge.
  assert(!std::isnan(Q) && "Histogram::quantile(NaN)");
  if (std::isnan(Q))
    return 0;
  uint64_t C = count();
  if (!C)
    return 0;
  if (Q > 1.0)
    Q = 1.0;
  double Want = Q * double(C);
  if (Want < 1.0)
    Want = 1.0; // clamp Q <= 0 (and tiny Q) to the first observation
  uint64_t Seen = 0;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    Seen += bucket(I);
    if (double(Seen) < Want)
      continue;
    // The last bucket is the overflow bucket (it also holds clamped
    // bit_width-64 values), so its finite power-of-two edge would
    // under-report; the observed max is the tight upper bound there.
    if (I == NumBuckets - 1)
      return max();
    return I ? (uint64_t(1) << I) - 1 : 0; // upper edge of bucket I
  }
  return max();
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
}

namespace {

void dumpScalar(std::string &Out, const char *Name, uint64_t V) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%s %llu\n", Name,
                static_cast<unsigned long long>(V));
  Out += Buf;
}

void dumpHistogram(std::string &Out, const char *Name, const Histogram &H) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%s_count %llu\n%s_sum %llu\n%s_max %llu\n%s_p50 %llu\n"
                "%s_p99 %llu\n",
                Name, static_cast<unsigned long long>(H.count()), Name,
                static_cast<unsigned long long>(H.sum()), Name,
                static_cast<unsigned long long>(H.max()), Name,
                static_cast<unsigned long long>(H.quantile(0.50)), Name,
                static_cast<unsigned long long>(H.quantile(0.99)));
  Out += Buf;
  // Prometheus-style cumulative buckets: each `le` line carries the count
  // of values at or below that edge, terminated by the mandatory +Inf
  // bucket. The last bucket is the overflow bucket (clamped bit_width-64
  // values land there too), so it has no finite edge: its count appears
  // only in the +Inf line.
  uint64_t Cum = 0;
  for (unsigned I = 0; I + 1 < Histogram::NumBuckets; ++I) {
    uint64_t B = H.bucket(I);
    if (!B)
      continue;
    Cum += B;
    std::snprintf(Buf, sizeof(Buf), "%s_bucket{le=\"%llu\"} %llu\n", Name,
                  static_cast<unsigned long long>(
                      I ? (uint64_t(1) << I) - 1 : 0),
                  static_cast<unsigned long long>(Cum));
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "%s_bucket{le=\"+Inf\"} %llu\n", Name,
                static_cast<unsigned long long>(H.count()));
  Out += Buf;
}

} // namespace

std::string Metrics::exposition() const {
  std::string Out;
  Out.reserve(2048);
  dumpScalar(Out, "images_submitted", ImagesSubmitted.get());
  dumpScalar(Out, "images_verified", ImagesVerified.get());
  dumpScalar(Out, "images_accepted", ImagesAccepted.get());
  dumpScalar(Out, "images_rejected", ImagesRejected.get());
  dumpScalar(Out, "reject_no_parse", RejectNoParse.get());
  dumpScalar(Out, "reject_bad_target", RejectBadTarget.get());
  dumpScalar(Out, "reject_unaligned_bundle", RejectUnaligned.get());
  dumpScalar(Out, "bytes_verified", BytesVerified.get());
  dumpScalar(Out, "shards_scanned", ShardsScanned.get());
  dumpScalar(Out, "tasks_run", TasksRun.get());
  dumpScalar(Out, "tasks_stolen", TasksStolen.get());
  dumpScalar(Out, "fuzz_oracle_runs", OracleRuns.get());
  dumpScalar(Out, "fuzz_disagreements", OracleDisagreements.get());
  dumpScalar(Out, "fuzz_shrink_steps", ShrinkSteps.get());
  dumpScalar(Out, "lint_images", LintImages.get());
  dumpScalar(Out, "lint_errors", LintErrors.get());
  dumpScalar(Out, "lint_warnings", LintWarnings.get());
  dumpScalar(Out, "lint_notes", LintNotes.get());
  dumpScalar(Out, "lint_live_indirect_outs", LintLiveIndirectOuts.get());
  dumpScalar(Out, "lint_dead_pairs", LintDeadPairs.get());
  dumpScalar(Out, "lint_offseam_calls", LintOffSeamCalls.get());
  dumpScalar(Out, "lint_incr_relints", LintIncrRelints.get());
  dumpScalar(Out, "lint_incr_fastpath", LintIncrFastPath.get());
  dumpScalar(Out, "svc_verify_requests", SvcVerifyRequests.get());
  dumpScalar(Out, "svc_lint_requests", SvcLintRequests.get());
  dumpScalar(Out, "svc_audit_requests", SvcAuditRequests.get());
  dumpScalar(Out, "svc_tables_requests", SvcTablesRequests.get());
  dumpScalar(Out, "svc_tables_hash_hits", SvcTablesHashHits.get());
  dumpScalar(Out, "svc_errors", SvcErrors.get());
  dumpScalar(Out, "svc_sessions", SvcSessions.get());
  dumpScalar(Out, "svc_metrics_requests", SvcMetricsRequests.get());
  dumpScalar(Out, "svc_sessions_active",
             static_cast<uint64_t>(SvcSessionsActive.get() < 0
                                       ? 0
                                       : SvcSessionsActive.get()));
  dumpScalar(Out, "svc_bytes_in", SvcBytesIn.get());
  dumpScalar(Out, "svc_bytes_out", SvcBytesOut.get());
  dumpScalar(Out, "svc_accept_errors", SvcAcceptErrors.get());
  dumpScalar(Out, "svc_accept_backoffs", SvcAcceptBackoffs.get());
  dumpScalar(Out, "svc_backpressure_pauses", SvcBackpressurePauses.get());
  dumpScalar(Out, "svc_peer_drops", SvcPeerDrops.get());
  dumpScalar(Out, "svc_image_open_requests", SvcImageOpenRequests.get());
  dumpScalar(Out, "svc_patch_requests", SvcPatchRequests.get());
  dumpScalar(Out, "svc_image_close_requests", SvcImageCloseRequests.get());
  dumpScalar(Out, "queue_depth", static_cast<uint64_t>(
                                     QueueDepth.get() < 0 ? 0
                                                          : QueueDepth.get()));
  dumpHistogram(Out, "verify_nanos", VerifyNanos);
  dumpHistogram(Out, "batch_images", BatchImages);
  dumpHistogram(Out, "svc_request_nanos", SvcRequestNanos);
  dumpHistogram(Out, "svc_patch_nanos", SvcPatchNanos);
  dumpHistogram(Out, "analysis_dataflow_nanos", AnalysisDataflowNanos);
  return Out;
}

void Metrics::reset() {
  ImagesSubmitted.reset();
  ImagesVerified.reset();
  ImagesAccepted.reset();
  ImagesRejected.reset();
  RejectNoParse.reset();
  RejectBadTarget.reset();
  RejectUnaligned.reset();
  BytesVerified.reset();
  ShardsScanned.reset();
  TasksRun.reset();
  TasksStolen.reset();
  QueueDepth.reset();
  OracleRuns.reset();
  OracleDisagreements.reset();
  ShrinkSteps.reset();
  LintImages.reset();
  LintErrors.reset();
  LintWarnings.reset();
  LintNotes.reset();
  LintLiveIndirectOuts.reset();
  LintDeadPairs.reset();
  LintOffSeamCalls.reset();
  LintIncrRelints.reset();
  LintIncrFastPath.reset();
  SvcVerifyRequests.reset();
  SvcLintRequests.reset();
  SvcAuditRequests.reset();
  SvcTablesRequests.reset();
  SvcTablesHashHits.reset();
  SvcErrors.reset();
  SvcSessions.reset();
  SvcMetricsRequests.reset();
  SvcSessionsActive.reset();
  SvcBytesIn.reset();
  SvcBytesOut.reset();
  SvcAcceptErrors.reset();
  SvcAcceptBackoffs.reset();
  SvcBackpressurePauses.reset();
  SvcPeerDrops.reset();
  SvcImageOpenRequests.reset();
  SvcPatchRequests.reset();
  SvcImageCloseRequests.reset();
  VerifyNanos.reset();
  BatchImages.reset();
  SvcRequestNanos.reset();
  SvcPatchNanos.reset();
  AnalysisDataflowNanos.reset();
}

Metrics &svc::globalMetrics() {
  static Metrics M;
  return M;
}
