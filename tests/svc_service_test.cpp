//===- tests/svc_service_test.cpp ------------------------------*- C++ -*-===//
//
// The long-running verification service: every request kind's response
// must be bit-identical to the one-shot path it wraps (verify vs
// core::RockSalt::check, lint vs analysis::lintImage, audit vs
// analysis::auditShippedPolicy, tables vs core::serializePolicyTables),
// the framed codec must reject every malformed shape loudly, the
// tables-by-hash negotiation must short-circuit the blob transfer, and
// a serveFd session must survive malformed bodies while dying on
// malformed framing.
//
//===----------------------------------------------------------------------===//

#include "analysis/CfgLint.h"
#include "analysis/PolicyAudit.h"
#include "core/Policy.h"
#include "core/Verifier.h"
#include "nacl/Mutator.h"
#include "nacl/WorkloadGen.h"
#include "svc/Protocol.h"
#include "svc/Service.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

using namespace rocksalt;
using svc::proto::Frame;
using svc::proto::MsgKind;
using svc::proto::ProtocolError;

namespace {

/// A mixed accept/reject batch: compliant workloads, random mutations,
/// and a targeted attack.
std::vector<std::vector<uint8_t>> mixedImages(uint32_t N, uint32_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<uint8_t>> Images;
  for (uint32_t I = 0; I < N; ++I) {
    nacl::WorkloadOptions WO;
    WO.TargetBytes = 384 + 64 * (I % 4);
    WO.Seed = Seed + I;
    std::vector<uint8_t> Img = nacl::generateWorkload(WO);
    if (I % 3 == 1)
      Img = nacl::mutateRandom(Img, R);
    if (I % 3 == 2)
      if (auto Bad = nacl::applyAttack(Img, nacl::Attack::InsertRet, R))
        Img = *Bad;
    Images.push_back(std::move(Img));
  }
  return Images;
}

/// AuditReport::render() ends with "audit: PASS (1.2 ms)\n" — the wall
/// time is the only nondeterministic byte in the report, so identity
/// comparisons strip the final line.
std::string stripTimingLine(const std::string &Render) {
  size_t End = Render.rfind("\naudit: ");
  return End == std::string::npos ? Render : Render.substr(0, End + 1);
}

/// Round-trips a request through the framed shell and decodes the
/// expected response kind.
Frame dispatch(svc::Service &S, MsgKind Kind, const std::vector<uint8_t> &Body,
               bool *ShutdownOut = nullptr) {
  std::vector<uint8_t> Req;
  svc::proto::appendFrame(Req, Kind, Body);
  Frame In;
  size_t Pos = 0;
  EXPECT_TRUE(svc::proto::parseFrame(Req.data(), Req.size(), &Pos, &In));
  std::vector<uint8_t> Resp = S.handleFrame(In, ShutdownOut);
  Frame Out;
  Pos = 0;
  EXPECT_TRUE(svc::proto::parseFrame(Resp.data(), Resp.size(), &Pos, &Out));
  EXPECT_EQ(Pos, Resp.size());
  return Out;
}

// --- In-process API: bit-identity with the one-shot paths --------------

TEST(ServiceTest, VerifyMatchesOneShotChecker) {
  svc::Service S(svc::ServiceOptions{2, nullptr});
  std::vector<std::vector<uint8_t>> Images = mixedImages(18, 300);
  core::RockSalt Seq;

  std::vector<svc::proto::VerifyVerdict> V = S.verify(Images); // copies in
  ASSERT_EQ(V.size(), Images.size());
  uint32_t Rejects = 0;
  for (size_t I = 0; I < Images.size(); ++I) {
    core::CheckResult R = Seq.check(Images[I]);
    EXPECT_EQ(V[I].Ok, R.Ok) << "image " << I;
    EXPECT_EQ(V[I].Reason, R.Reason) << "image " << I;
    Rejects += V[I].Ok ? 0 : 1;
  }
  EXPECT_GT(Rejects, 0u); // the batch genuinely exercised the reject path
  EXPECT_EQ(S.metrics().ImagesVerified.get(), Images.size());
}

TEST(ServiceTest, LintMatchesOneShotLintBitIdentically) {
  svc::Service S(svc::ServiceOptions{2, nullptr});
  std::vector<std::vector<uint8_t>> Images = mixedImages(8, 900);

  std::vector<svc::proto::LintReport> Reports = S.lint(Images);
  ASSERT_EQ(Reports.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I) {
    analysis::CfgLintResult L =
        analysis::lintImage(core::policyTables(), Images[I]);
    EXPECT_EQ(Reports[I].Render, L.render()) << "image " << I;
    EXPECT_EQ(Reports[I].ParseComplete, L.ParseComplete);
    EXPECT_EQ(Reports[I].Errors, L.Errors);
    EXPECT_EQ(Reports[I].Warnings, L.Warnings);
    EXPECT_EQ(Reports[I].Notes, L.Notes);
  }
  EXPECT_EQ(S.metrics().LintImages.get(), Images.size());
}

TEST(ServiceTest, AuditMatchesOneShotAudit) {
  svc::Service S;
  svc::proto::AuditVerdict Served = S.audit();
  analysis::AuditReport Local = analysis::auditShippedPolicy();
  EXPECT_TRUE(Served.Pass);
  EXPECT_EQ(Served.Pass, Local.Pass);
  // Identical up to the wall-clock line — same findings, same stats.
  EXPECT_EQ(stripTimingLine(Served.Render), stripTimingLine(Local.render()));
  EXPECT_EQ(S.metrics().SvcAuditRequests.get(), 0u); // in-process API
}

TEST(ServiceTest, TablesColdFetchIsBitIdenticalAndLoadable) {
  svc::Service S;
  svc::proto::TablesReply R = S.tables("");
  EXPECT_FALSE(R.HashMatched);
  EXPECT_EQ(R.HashHex, S.tablesHashHex());
  EXPECT_EQ(R.Blob, core::serializePolicyTables(core::policyTables()));

  // The served blob loads (with hash enforcement) into tables whose
  // re-serialization is bit-identical — the full distribution loop.
  core::PolicyTables T = core::loadPolicyTables(R.Blob, R.HashHex);
  EXPECT_EQ(core::serializePolicyTables(T), R.Blob);
  EXPECT_EQ(core::policyTableHashHex(T), R.HashHex);
}

TEST(ServiceTest, TablesHashMatchShortCircuitsTransfer) {
  svc::Service S;
  svc::proto::TablesReply Warm = S.tables(S.tablesHashHex());
  EXPECT_TRUE(Warm.HashMatched);
  EXPECT_TRUE(Warm.Blob.empty());
  EXPECT_EQ(Warm.HashHex, S.tablesHashHex());
  EXPECT_EQ(S.metrics().SvcTablesHashHits.get(), 1u);

  // A stale (well-formed but different) hash still gets the blob.
  std::string Stale(64, '0');
  svc::proto::TablesReply Cold = S.tables(Stale);
  EXPECT_FALSE(Cold.HashMatched);
  EXPECT_FALSE(Cold.Blob.empty());
}

TEST(ServiceTest, LoadPolicyTablesRejectsHashMismatch) {
  svc::Service S;
  svc::proto::TablesReply R = S.tables("");
  EXPECT_THROW(core::loadPolicyTables(R.Blob, std::string(64, '0')),
               std::runtime_error);
  // And a tampered blob no longer matches its own claimed hash.
  std::vector<uint8_t> Tampered = R.Blob;
  Tampered[Tampered.size() / 2] ^= 1;
  EXPECT_THROW(core::loadPolicyTables(Tampered, R.HashHex),
               std::exception);
}

// --- Framed shell: dispatch + counters ---------------------------------

TEST(ServiceTest, HandleFrameDispatchesAllFourKinds) {
  svc::Metrics M;
  svc::Service S(svc::ServiceOptions{2, &M});
  std::vector<std::vector<uint8_t>> Images = mixedImages(6, 4500);
  core::RockSalt Seq;

  Frame V = dispatch(S, MsgKind::VerifyRequest,
                     svc::proto::encodeImageBatch(Images));
  ASSERT_EQ(V.Kind, MsgKind::VerifyResponse);
  std::vector<svc::proto::VerifyVerdict> Verdicts =
      svc::proto::decodeVerifyResponse(V.Body);
  ASSERT_EQ(Verdicts.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I) {
    core::CheckResult R = Seq.check(Images[I]);
    EXPECT_EQ(Verdicts[I].Ok, R.Ok);
    EXPECT_EQ(Verdicts[I].Reason, R.Reason);
  }

  Frame L = dispatch(S, MsgKind::LintRequest,
                     svc::proto::encodeImageBatch(Images));
  ASSERT_EQ(L.Kind, MsgKind::LintResponse);
  std::vector<svc::proto::LintReport> Reports =
      svc::proto::decodeLintResponse(L.Body);
  ASSERT_EQ(Reports.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I)
    EXPECT_EQ(Reports[I].Render,
              analysis::lintImage(core::policyTables(), Images[I]).render());

  Frame A = dispatch(S, MsgKind::AuditRequest, {});
  ASSERT_EQ(A.Kind, MsgKind::AuditResponse);
  EXPECT_TRUE(svc::proto::decodeAuditResponse(A.Body).Pass);

  Frame T = dispatch(S, MsgKind::TablesRequest,
                     svc::proto::encodeTablesRequest(""));
  ASSERT_EQ(T.Kind, MsgKind::TablesResponse);
  EXPECT_EQ(svc::proto::decodeTablesResponse(T.Body).Blob, S.tablesBlob());

  EXPECT_EQ(M.SvcVerifyRequests.get(), 1u);
  EXPECT_EQ(M.SvcLintRequests.get(), 1u);
  EXPECT_EQ(M.SvcAuditRequests.get(), 1u);
  EXPECT_EQ(M.SvcTablesRequests.get(), 1u);
  EXPECT_EQ(M.SvcErrors.get(), 0u);
  EXPECT_EQ(M.SvcRequestNanos.count(), 4u);
}

TEST(ServiceTest, MalformedBodiesAnswerWithErrorResponse) {
  svc::Metrics M;
  svc::Service S(svc::ServiceOptions{1, &M});
  struct Case {
    MsgKind Kind;
    std::vector<uint8_t> Body;
    const char *What;
  };
  const Case Cases[] = {
      {MsgKind::VerifyRequest, {0xFF, 0xFF}, "truncated batch count"},
      {MsgKind::VerifyRequest,
       {9, 0, 0, 0}, // count 9, no image records
       "batch count exceeds body"},
      {MsgKind::LintRequest,
       {1, 0, 0, 0, 8, 0, 0, 0, 0xC3}, // claims 8 bytes, carries 1
       "truncated image payload"},
      {MsgKind::VerifyRequest,
       {0, 0, 0, 0, 0xAA}, // empty batch + trailing byte
       "trailing bytes"},
      {MsgKind::AuditRequest, {0x00}, "non-empty audit body"},
      {MsgKind::ShutdownRequest, {0x01}, "non-empty shutdown body"},
      {MsgKind::TablesRequest,
       {3, 0, 0, 0, 'a', 'b', 'c'}, // hash length not 0/64
       "bad hash length"},
      {MsgKind::VerifyResponse, {}, "response kind as request"},
  };
  uint64_t Errors = 0;
  for (const Case &C : Cases) {
    bool Shutdown = true;
    Frame R = dispatch(S, C.Kind, C.Body, &Shutdown);
    EXPECT_EQ(R.Kind, MsgKind::ErrorResponse) << C.What;
    EXPECT_FALSE(Shutdown) << C.What;
    EXPECT_FALSE(svc::proto::decodeErrorResponse(R.Body).empty()) << C.What;
    EXPECT_EQ(M.SvcErrors.get(), ++Errors) << C.What;
  }
  // A 64-char hash with uppercase hex is rejected (hashes are canonical
  // lowercase), as is one with non-hex characters.
  for (char Bad : {'A', 'g', ' '}) {
    std::string Hash(64, 'a');
    Hash[10] = Bad;
    std::vector<uint8_t> Body(4 + Hash.size());
    Body[0] = 64;
    std::copy(Hash.begin(), Hash.end(), Body.begin() + 4);
    Frame R = dispatch(S, MsgKind::TablesRequest, Body);
    EXPECT_EQ(R.Kind, MsgKind::ErrorResponse) << "hash char " << int(Bad);
  }
}

// --- Frame parsing: the transport-level rejection matrix ----------------

TEST(ProtocolTest, ParseFrameRejectsMalformedFraming) {
  Frame F;
  size_t Pos = 0;
  // Bad magic: rejected from the very first wrong byte.
  std::vector<uint8_t> BadMagic = {'X'};
  EXPECT_THROW(svc::proto::parseFrame(BadMagic.data(), BadMagic.size(), &Pos,
                                      &F),
               ProtocolError);
  // Bad version.
  std::vector<uint8_t> BadVer = {'R', 'S', 'V', 'C', 99};
  Pos = 0;
  EXPECT_THROW(svc::proto::parseFrame(BadVer.data(), BadVer.size(), &Pos, &F),
               ProtocolError);
  // Unknown kind.
  std::vector<uint8_t> BadKind = {'R', 'S', 'V', 'C', 1, 42};
  Pos = 0;
  EXPECT_THROW(
      svc::proto::parseFrame(BadKind.data(), BadKind.size(), &Pos, &F),
      ProtocolError);
  // Hostile length (> MaxFrameBody): rejected before any allocation.
  std::vector<uint8_t> Huge = {'R',  'S',  'V',  'C',  1,
                               1, // VerifyRequest
                               0xFF, 0xFF, 0xFF, 0xFF};
  Pos = 0;
  EXPECT_THROW(svc::proto::parseFrame(Huge.data(), Huge.size(), &Pos, &F),
               ProtocolError);
}

TEST(ProtocolTest, ParseFrameReportsIncompleteNotMalformed) {
  // A valid prefix that simply hasn't all arrived yet returns false and
  // leaves Pos alone — the session reads more bytes, nothing is lost.
  std::vector<uint8_t> Full;
  svc::proto::appendFrame(Full, MsgKind::AuditRequest, {});
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    Frame F;
    size_t Pos = 0;
    EXPECT_FALSE(svc::proto::parseFrame(Full.data(), Cut, &Pos, &F))
        << "cut at " << Cut;
    EXPECT_EQ(Pos, 0u);
  }
  Frame F;
  size_t Pos = 0;
  EXPECT_TRUE(svc::proto::parseFrame(Full.data(), Full.size(), &Pos, &F));
  EXPECT_EQ(Pos, Full.size());
  EXPECT_EQ(F.Kind, MsgKind::AuditRequest);
}

TEST(ProtocolTest, DecodersRejectNonBooleanFlags) {
  // VerifyResponse with Ok = 2.
  std::vector<uint8_t> V = {1, 0, 0, 0, 2, 0};
  EXPECT_THROW(svc::proto::decodeVerifyResponse(V), ProtocolError);
  // VerifyResponse with an unknown reject reason.
  std::vector<uint8_t> R = {1, 0, 0, 0, 0, 250};
  EXPECT_THROW(svc::proto::decodeVerifyResponse(R), ProtocolError);
  // AuditResponse with Pass = 7.
  std::vector<uint8_t> A = {7, 0, 0, 0, 0};
  EXPECT_THROW(svc::proto::decodeAuditResponse(A), ProtocolError);
  // TablesResponse claiming a hash match while carrying a blob.
  svc::proto::TablesReply T;
  T.HashMatched = true;
  T.HashHex = std::string(64, 'a');
  std::vector<uint8_t> Enc = svc::proto::encodeTablesResponse(T);
  T.HashMatched = false;
  T.Blob = {1, 2, 3};
  std::vector<uint8_t> WithBlob = svc::proto::encodeTablesResponse(T);
  WithBlob[0] = 1; // flip HashMatched back on over the blob-carrying body
  EXPECT_THROW(svc::proto::decodeTablesResponse(WithBlob), ProtocolError);
  EXPECT_NO_THROW(svc::proto::decodeTablesResponse(Enc));
}

TEST(ProtocolTest, ImageBatchRoundTrips) {
  std::vector<std::vector<uint8_t>> Images = {
      {}, {0xC3}, {0x90, 0x90, 0x90}, std::vector<uint8_t>(4096, 0x90)};
  std::vector<uint8_t> Body = svc::proto::encodeImageBatch(Images);
  EXPECT_EQ(svc::proto::decodeImageBatch(Body), Images);
}

TEST(ProtocolTest, MetricsResponseRoundTripsAndRejectsGarbage) {
  std::string Expo = "svc_sessions 3\nsvc_bytes_in 12345\n";
  std::vector<uint8_t> Body = svc::proto::encodeMetricsResponse(Expo);
  EXPECT_EQ(svc::proto::decodeMetricsResponse(Body), Expo);
  EXPECT_EQ(svc::proto::decodeMetricsResponse(
                svc::proto::encodeMetricsResponse("")),
            "");
  // Truncated length prefix, truncated payload, and trailing junk.
  EXPECT_THROW(svc::proto::decodeMetricsResponse({1, 0, 0}), ProtocolError);
  std::vector<uint8_t> Short(Body.begin(), Body.end() - 1);
  EXPECT_THROW(svc::proto::decodeMetricsResponse(Short), ProtocolError);
  std::vector<uint8_t> Long = Body;
  Long.push_back(0x00);
  EXPECT_THROW(svc::proto::decodeMetricsResponse(Long), ProtocolError);
}

TEST(ServiceTest, MetricsRequestReturnsLiveExposition) {
  svc::Service S(svc::ServiceOptions{2, nullptr});
  std::vector<std::vector<uint8_t>> Images = mixedImages(3, 1200);
  dispatch(S, MsgKind::VerifyRequest, svc::proto::encodeImageBatch(Images));

  Frame F = dispatch(S, MsgKind::MetricsRequest, {});
  ASSERT_EQ(F.Kind, MsgKind::MetricsResponse);
  std::string Expo = svc::proto::decodeMetricsResponse(F.Body);
  EXPECT_NE(Expo.find("svc_verify_requests 1\n"), std::string::npos);
  EXPECT_NE(Expo.find("images_verified 3\n"), std::string::npos);
  // The request itself is counted before the render, so the scrape
  // observes itself.
  EXPECT_NE(Expo.find("svc_metrics_requests 1\n"), std::string::npos);

  // A nonempty body is malformed: ErrorResponse, session survives.
  Frame E = dispatch(S, MsgKind::MetricsRequest, {0xAB});
  EXPECT_EQ(E.Kind, MsgKind::ErrorResponse);
}

// --- serveFd: a full session over a socketpair --------------------------

TEST(ServiceTest, ServeFdSessionSurvivesBadBodiesAndShutsDownCleanly) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);

  svc::Metrics M;
  svc::Service S(svc::ServiceOptions{2, &M});
  svc::Service::ServeStatus Status = svc::Service::ServeStatus::PeerClosed;
  std::thread Server([&] { Status = S.serveFd(Fds[0], Fds[0]); });

  auto Send = [&](MsgKind K, const std::vector<uint8_t> &Body) {
    std::vector<uint8_t> Out;
    svc::proto::appendFrame(Out, K, Body);
    ASSERT_EQ(::write(Fds[1], Out.data(), Out.size()), ssize_t(Out.size()));
  };
  std::vector<uint8_t> Buf;
  auto Recv = [&]() -> Frame {
    Frame F;
    size_t Pos = 0;
    while (!svc::proto::parseFrame(Buf.data(), Buf.size(), &Pos, &F)) {
      uint8_t Tmp[4096];
      ssize_t N = ::read(Fds[1], Tmp, sizeof(Tmp));
      if (N <= 0)
        throw std::runtime_error("server hung up");
      Buf.insert(Buf.end(), Tmp, Tmp + N);
    }
    Buf.erase(Buf.begin(), Buf.begin() + long(Pos));
    return F;
  };

  std::vector<std::vector<uint8_t>> Images = mixedImages(5, 60);
  Send(MsgKind::VerifyRequest, svc::proto::encodeImageBatch(Images));
  Frame V = Recv();
  ASSERT_EQ(V.Kind, MsgKind::VerifyResponse);
  EXPECT_EQ(svc::proto::decodeVerifyResponse(V.Body).size(), Images.size());

  // A malformed body is answered with ErrorResponse; the session lives.
  Send(MsgKind::VerifyRequest, {0xDE, 0xAD});
  EXPECT_EQ(Recv().Kind, MsgKind::ErrorResponse);

  Send(MsgKind::TablesRequest, svc::proto::encodeTablesRequest(""));
  Frame T = Recv();
  ASSERT_EQ(T.Kind, MsgKind::TablesResponse);
  EXPECT_EQ(svc::proto::decodeTablesResponse(T.Body).Blob, S.tablesBlob());

  Send(MsgKind::ShutdownRequest, {});
  EXPECT_EQ(Recv().Kind, MsgKind::ShutdownResponse);
  Server.join();
  EXPECT_EQ(Status, svc::Service::ServeStatus::Shutdown);
  EXPECT_EQ(M.SvcSessions.get(), 1u);
  EXPECT_EQ(M.SvcErrors.get(), 1u);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(ServiceTest, ServeFdPeerCloseAtBoundaryEndsSessionQuietly) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  svc::Service S(svc::ServiceOptions{1, nullptr});
  std::thread Server([&] {
    EXPECT_EQ(S.serveFd(Fds[0], Fds[0]),
              svc::Service::ServeStatus::PeerClosed);
  });
  ::close(Fds[1]); // immediate EOF at a frame boundary
  Server.join();
  ::close(Fds[0]);
}

TEST(ServiceTest, ServeFdMidFrameEofIsAnError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  svc::Service S(svc::ServiceOptions{1, nullptr});
  std::thread Server([&] {
    EXPECT_THROW(S.serveFd(Fds[0], Fds[0]), ProtocolError);
  });
  // Half a frame, then hang up.
  std::vector<uint8_t> Full;
  svc::proto::appendFrame(Full, MsgKind::AuditRequest, {});
  ASSERT_EQ(::write(Fds[1], Full.data(), 4), 4);
  ::close(Fds[1]);
  Server.join();
  ::close(Fds[0]);
}

} // namespace
