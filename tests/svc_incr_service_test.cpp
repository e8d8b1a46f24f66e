//===- tests/svc_incr_service_test.cpp -------------------------*- C++ -*-===//
//
// The incremental (image-handle) request kinds of the verification
// service: the codecs must round-trip and reject every malformed body
// shape at the decoder (zero handle, zero-length patch, u32 overflow,
// truncation, trailing bytes), a stateful session's open/patch/close
// verdicts must match a full RockSalt::check of the mutated bytes, bad
// handles and out-of-range patches must answer with ErrorResponse while
// the session's other handles stay live, handles must be invisible
// across sessions, the stateless handleFrame must refuse the stateful
// kinds, and a serveFd socketpair session must run the whole
// open -> patch -> close protocol over the wire.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "nacl/WorkloadGen.h"
#include "svc/Protocol.h"
#include "svc/Service.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <thread>
#include <vector>

using namespace rocksalt;
using svc::proto::Frame;
using svc::proto::MsgKind;
using svc::proto::ProtocolError;

namespace {

std::vector<uint8_t> workload(uint32_t Bytes, uint64_t Seed) {
  nacl::WorkloadOptions WO;
  WO.TargetBytes = Bytes;
  WO.Seed = Seed;
  return nacl::generateWorkload(WO);
}

/// Round-trips a request through the stateful framed shell.
Frame dispatch(svc::Service &S, svc::Service::Session *Sess, MsgKind Kind,
               const std::vector<uint8_t> &Body) {
  std::vector<uint8_t> Req;
  svc::proto::appendFrame(Req, Kind, Body);
  Frame In;
  size_t Pos = 0;
  EXPECT_TRUE(svc::proto::parseFrame(Req.data(), Req.size(), &Pos, &In));
  std::vector<uint8_t> Resp = S.handleFrame(In, Sess, nullptr);
  Frame Out;
  Pos = 0;
  EXPECT_TRUE(svc::proto::parseFrame(Resp.data(), Resp.size(), &Pos, &Out));
  EXPECT_EQ(Pos, Resp.size());
  return Out;
}

// --- Codec round-trips --------------------------------------------------

TEST(SvcIncrTest, IncrCodecsRoundTrip) {
  std::vector<uint8_t> Img = {0x90, 0x40, 0x90};
  EXPECT_EQ(svc::proto::decodeImageOpenRequest(
                svc::proto::encodeImageOpenRequest(Img)),
            Img);

  svc::proto::ImageOpenReply O;
  O.Image = 7;
  O.V = {false, core::RejectReason::BadTarget};
  svc::proto::ImageOpenReply O2 = svc::proto::decodeImageOpenResponse(
      svc::proto::encodeImageOpenResponse(O));
  EXPECT_EQ(O2.Image, 7u);
  EXPECT_FALSE(O2.V.Ok);
  EXPECT_EQ(O2.V.Reason, core::RejectReason::BadTarget);

  svc::proto::PatchRequestBody P;
  P.Image = 3;
  P.Offset = 96;
  P.Bytes = {0x40, 0x48};
  svc::proto::PatchRequestBody P2 =
      svc::proto::decodePatchRequest(svc::proto::encodePatchRequest(P));
  EXPECT_EQ(P2.Image, 3u);
  EXPECT_EQ(P2.Offset, 96u);
  EXPECT_EQ(P2.Bytes, P.Bytes);
  EXPECT_FALSE(P2.WantLint);
  P.WantLint = true;
  EXPECT_TRUE(
      svc::proto::decodePatchRequest(svc::proto::encodePatchRequest(P))
          .WantLint);

  svc::proto::PatchReply R;
  R.V = {true, core::RejectReason::None};
  R.ChunksRescanned = 2;
  R.ChunkCacheHits = 1;
  svc::proto::PatchReply R2 =
      svc::proto::decodePatchResponse(svc::proto::encodePatchResponse(R));
  EXPECT_TRUE(R2.V.Ok);
  EXPECT_EQ(R2.ChunksRescanned, 2u);
  EXPECT_EQ(R2.ChunkCacheHits, 1u);
  EXPECT_FALSE(R2.HasLint);

  // The optional lint report round-trips when attached.
  R.HasLint = true;
  R.Lint.ParseComplete = true;
  R.Lint.Errors = 0;
  R.Lint.Warnings = 1;
  R.Lint.Notes = 2;
  R.Lint.Render = "  lint: ...\n";
  svc::proto::PatchReply R3 =
      svc::proto::decodePatchResponse(svc::proto::encodePatchResponse(R));
  ASSERT_TRUE(R3.HasLint);
  EXPECT_TRUE(R3.Lint.ParseComplete);
  EXPECT_EQ(R3.Lint.Warnings, 1u);
  EXPECT_EQ(R3.Lint.Notes, 2u);
  EXPECT_EQ(R3.Lint.Render, R.Lint.Render);

  EXPECT_EQ(svc::proto::decodeImageCloseRequest(
                svc::proto::encodeImageCloseRequest(9)),
            9u);
}

TEST(SvcIncrTest, IncrDecodersRejectMalformedBodies) {
  // Zero handles can never be valid: the server never assigns 0.
  EXPECT_THROW(svc::proto::decodeImageCloseRequest(
                   svc::proto::encodeImageCloseRequest(0)),
               ProtocolError);
  svc::proto::PatchRequestBody P;
  P.Image = 0;
  P.Offset = 0;
  P.Bytes = {0x90};
  EXPECT_THROW(svc::proto::decodePatchRequest(svc::proto::encodePatchRequest(P)),
               ProtocolError);

  // Zero-length patch: encode by hand (the struct encoder would emit
  // Len 0 too, but being explicit keeps the byte shape in view).
  P.Image = 1;
  std::vector<uint8_t> ZeroLen = svc::proto::encodePatchRequest(P);
  ZeroLen.resize(12); // Image, Offset, Len — then chop the payload
  ZeroLen[8] = ZeroLen[9] = ZeroLen[10] = ZeroLen[11] = 0;
  EXPECT_THROW(svc::proto::decodePatchRequest(ZeroLen), ProtocolError);

  // Offset + length past the 32-bit image space.
  P.Offset = UINT32_MAX - 1;
  P.Bytes = {0x90, 0x90, 0x90};
  EXPECT_THROW(svc::proto::decodePatchRequest(svc::proto::encodePatchRequest(P)),
               ProtocolError);

  // Truncated and oversized bodies.
  P.Offset = 0;
  std::vector<uint8_t> Good = svc::proto::encodePatchRequest(P);
  std::vector<uint8_t> Short(Good.begin(), Good.end() - 1);
  EXPECT_THROW(svc::proto::decodePatchRequest(Short), ProtocolError);
  std::vector<uint8_t> Long = Good;
  Long.push_back(0);
  EXPECT_THROW(svc::proto::decodePatchRequest(Long), ProtocolError);
  EXPECT_THROW(svc::proto::decodeImageOpenRequest({1, 0, 0}), ProtocolError);
  EXPECT_THROW(svc::proto::decodeImageCloseRequest({1, 2, 3}), ProtocolError);

  // A response with an out-of-range reject reason.
  svc::proto::ImageOpenReply O;
  O.Image = 1;
  std::vector<uint8_t> Resp = svc::proto::encodeImageOpenResponse(O);
  Resp[5] = 0xEE;
  EXPECT_THROW(svc::proto::decodeImageOpenResponse(Resp), ProtocolError);
}

// --- Stateful session behavior -----------------------------------------

TEST(SvcIncrTest, SessionOpenPatchCloseMatchesFullCheck) {
  svc::Metrics M;
  svc::Service S(svc::ServiceOptions{2, &M});
  svc::Service::Session Sess(S);

  std::vector<uint8_t> Img = workload(800, 41);
  core::RockSalt Full;

  Frame OpenResp = dispatch(S, &Sess, MsgKind::ImageOpenRequest,
                            svc::proto::encodeImageOpenRequest(Img));
  ASSERT_EQ(OpenResp.Kind, MsgKind::ImageOpenResponse);
  svc::proto::ImageOpenReply O =
      svc::proto::decodeImageOpenResponse(OpenResp.Body);
  EXPECT_NE(O.Image, 0u);
  EXPECT_EQ(O.V.Ok, Full.check(Img).Ok);

  // A run of patches, each re-verified against the mutated bytes.
  for (uint32_t Step = 0; Step < 8; ++Step) {
    svc::proto::PatchRequestBody P;
    P.Image = O.Image;
    P.Offset = 32 * Step;
    P.Bytes.assign(4, Step % 2 ? 0x40 : 0xC3); // inc-sled or ret (reject)
    for (uint32_t I = 0; I < P.Bytes.size(); ++I)
      Img[P.Offset + I] = P.Bytes[I];
    Frame PatchResp = dispatch(S, &Sess, MsgKind::PatchRequest,
                               svc::proto::encodePatchRequest(P));
    ASSERT_EQ(PatchResp.Kind, MsgKind::PatchResponse);
    svc::proto::PatchReply R =
        svc::proto::decodePatchResponse(PatchResp.Body);
    core::CheckResult F = Full.check(Img);
    EXPECT_EQ(R.V.Ok, F.Ok) << "step " << Step;
    EXPECT_EQ(R.V.Reason, F.Reason) << "step " << Step;
  }

  Frame CloseResp = dispatch(S, &Sess, MsgKind::ImageCloseRequest,
                             svc::proto::encodeImageCloseRequest(O.Image));
  EXPECT_EQ(CloseResp.Kind, MsgKind::ImageCloseResponse);

  EXPECT_EQ(M.SvcImageOpenRequests.get(), 1u);
  EXPECT_EQ(M.SvcPatchRequests.get(), 8u);
  EXPECT_EQ(M.SvcImageCloseRequests.get(), 1u);
  EXPECT_EQ(M.SvcPatchNanos.count(), 8u);
  EXPECT_GT(M.ShardsScanned.get(), 0u);
}

TEST(SvcIncrTest, PatchWithWantLintCarriesFreshIdenticalReport) {
  svc::Metrics M;
  svc::Service S(svc::ServiceOptions{2, &M});
  svc::Service::Session Sess(S);

  std::vector<uint8_t> Img = workload(800, 77);
  svc::proto::ImageOpenReply O = svc::proto::decodeImageOpenResponse(
      dispatch(S, &Sess, MsgKind::ImageOpenRequest,
               svc::proto::encodeImageOpenRequest(Img))
          .Body);
  ASSERT_TRUE(O.V.Ok);

  // Two lint-carrying patches: the first seeds the session's lint state
  // (a full lint), the second goes through the incremental relint. Both
  // reports must be byte-identical to a fresh lintImage of the mutated
  // bytes.
  for (uint32_t Step = 0; Step < 2; ++Step) {
    svc::proto::PatchRequestBody P;
    P.Image = O.Image;
    P.Offset = 64 + 8 * Step;
    P.Bytes.assign(4, 0x90);
    P.WantLint = true;
    for (uint32_t I = 0; I < P.Bytes.size(); ++I)
      Img[P.Offset + I] = P.Bytes[I];
    svc::proto::PatchReply R = svc::proto::decodePatchResponse(
        dispatch(S, &Sess, MsgKind::PatchRequest,
                 svc::proto::encodePatchRequest(P))
            .Body);
    ASSERT_TRUE(R.HasLint) << "step " << Step;
    analysis::CfgLintResult Fresh = analysis::lintImage(S.policyTables(), Img);
    EXPECT_EQ(R.Lint.Render, Fresh.render()) << "step " << Step;
    EXPECT_EQ(R.Lint.Errors, Fresh.Errors) << "step " << Step;
    EXPECT_EQ(R.Lint.Warnings, Fresh.Warnings) << "step " << Step;
    EXPECT_EQ(R.Lint.Notes, Fresh.Notes) << "step " << Step;
    EXPECT_EQ(R.Lint.ParseComplete, Fresh.ParseComplete) << "step " << Step;
  }
  EXPECT_EQ(M.LintIncrRelints.get(), 1u); // only the second patch relints

  // A lint-less patch attaches no report.
  svc::proto::PatchRequestBody P;
  P.Image = O.Image;
  P.Offset = 0;
  P.Bytes = {0x90};
  Img[0] = 0x90;
  EXPECT_FALSE(svc::proto::decodePatchResponse(
                   dispatch(S, &Sess, MsgKind::PatchRequest,
                            svc::proto::encodePatchRequest(P))
                       .Body)
                   .HasLint);

  dispatch(S, &Sess, MsgKind::ImageCloseRequest,
           svc::proto::encodeImageCloseRequest(O.Image));
}

TEST(SvcIncrTest, BadHandleAndBadRangeAnswerErrorAndSessionSurvives) {
  svc::Metrics M;
  svc::Service S(svc::ServiceOptions{2, &M});
  svc::Service::Session Sess(S);

  std::vector<uint8_t> Img(128, 0x90);
  svc::proto::ImageOpenReply O = svc::proto::decodeImageOpenResponse(
      dispatch(S, &Sess, MsgKind::ImageOpenRequest,
               svc::proto::encodeImageOpenRequest(Img))
          .Body);
  ASSERT_TRUE(O.V.Ok);

  // Unknown handle: decodes fine, dies in the incr layer -> ErrorResponse.
  svc::proto::PatchRequestBody P;
  P.Image = O.Image + 99;
  P.Offset = 0;
  P.Bytes = {0x90};
  EXPECT_EQ(dispatch(S, &Sess, MsgKind::PatchRequest,
                     svc::proto::encodePatchRequest(P))
                .Kind,
            MsgKind::ErrorResponse);

  // In-range handle, out-of-range patch window.
  P.Image = O.Image;
  P.Offset = 127;
  P.Bytes = {0x90, 0x90};
  EXPECT_EQ(dispatch(S, &Sess, MsgKind::PatchRequest,
                     svc::proto::encodePatchRequest(P))
                .Kind,
            MsgKind::ErrorResponse);
  EXPECT_EQ(dispatch(S, &Sess, MsgKind::ImageCloseRequest,
                     svc::proto::encodeImageCloseRequest(O.Image + 99))
                .Kind,
            MsgKind::ErrorResponse);
  EXPECT_EQ(M.SvcErrors.get(), 3u);

  // The session and its handle survived all three errors.
  P.Offset = 5;
  P.Bytes = {0x40};
  Frame R = dispatch(S, &Sess, MsgKind::PatchRequest,
                     svc::proto::encodePatchRequest(P));
  ASSERT_EQ(R.Kind, MsgKind::PatchResponse);
  EXPECT_TRUE(svc::proto::decodePatchResponse(R.Body).V.Ok);
}

TEST(SvcIncrTest, HandlesAreInvisibleAcrossSessions) {
  svc::Service S(svc::ServiceOptions{2, nullptr});
  svc::Service::Session A(S), B(S);

  std::vector<uint8_t> Img(64, 0x90);
  svc::proto::ImageOpenReply O = svc::proto::decodeImageOpenResponse(
      dispatch(S, &A, MsgKind::ImageOpenRequest,
               svc::proto::encodeImageOpenRequest(Img))
          .Body);
  ASSERT_TRUE(O.V.Ok);

  // Session B never opened this handle.
  svc::proto::PatchRequestBody P;
  P.Image = O.Image;
  P.Offset = 0;
  P.Bytes = {0x90};
  EXPECT_EQ(dispatch(S, &B, MsgKind::PatchRequest,
                     svc::proto::encodePatchRequest(P))
                .Kind,
            MsgKind::ErrorResponse);
  // Session A still owns it.
  EXPECT_EQ(dispatch(S, &A, MsgKind::PatchRequest,
                     svc::proto::encodePatchRequest(P))
                .Kind,
            MsgKind::PatchResponse);
}

TEST(SvcIncrTest, StatelessHandleFrameRefusesStatefulKinds) {
  svc::Metrics M;
  svc::Service S(svc::ServiceOptions{2, &M});

  auto StatelessError = [&](MsgKind K, const std::vector<uint8_t> &Body) {
    std::vector<uint8_t> Req;
    svc::proto::appendFrame(Req, K, Body);
    Frame In;
    size_t Pos = 0;
    ASSERT_TRUE(svc::proto::parseFrame(Req.data(), Req.size(), &Pos, &In));
    std::vector<uint8_t> Resp = S.handleFrame(In, nullptr); // 2-arg shell
    Frame Out;
    Pos = 0;
    ASSERT_TRUE(svc::proto::parseFrame(Resp.data(), Resp.size(), &Pos, &Out));
    EXPECT_EQ(Out.Kind, MsgKind::ErrorResponse);
  };
  StatelessError(MsgKind::ImageOpenRequest,
                 svc::proto::encodeImageOpenRequest({0x90}));
  svc::proto::PatchRequestBody P;
  P.Image = 1;
  P.Offset = 0;
  P.Bytes = {0x90};
  StatelessError(MsgKind::PatchRequest, svc::proto::encodePatchRequest(P));
  StatelessError(MsgKind::ImageCloseRequest,
                 svc::proto::encodeImageCloseRequest(1));
  EXPECT_EQ(M.SvcErrors.get(), 3u);
  // The stateful kinds were still counted as requests.
  EXPECT_EQ(M.SvcImageOpenRequests.get(), 1u);
  EXPECT_EQ(M.SvcPatchRequests.get(), 1u);
  EXPECT_EQ(M.SvcImageCloseRequests.get(), 1u);
}

// --- serveFd: the full protocol over a socketpair ----------------------

TEST(SvcIncrTest, ServeFdRunsOpenPatchCloseSession) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);

  svc::Metrics M;
  svc::Service S(svc::ServiceOptions{2, &M});
  std::thread Server([&] { S.serveFd(Fds[0], Fds[0]); });

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

  std::vector<uint8_t> Img = workload(700, 77);
  core::RockSalt Full;

  Send(MsgKind::ImageOpenRequest, svc::proto::encodeImageOpenRequest(Img));
  Frame OpenResp = Recv();
  ASSERT_EQ(OpenResp.Kind, MsgKind::ImageOpenResponse);
  svc::proto::ImageOpenReply O =
      svc::proto::decodeImageOpenResponse(OpenResp.Body);
  EXPECT_EQ(O.V.Ok, Full.check(Img).Ok);

  svc::proto::PatchRequestBody P;
  P.Image = O.Image;
  P.Offset = 64;
  P.Bytes.assign(8, 0x40);
  for (uint32_t I = 0; I < P.Bytes.size(); ++I)
    Img[P.Offset + I] = P.Bytes[I];
  Send(MsgKind::PatchRequest, svc::proto::encodePatchRequest(P));
  Frame PatchResp = Recv();
  ASSERT_EQ(PatchResp.Kind, MsgKind::PatchResponse);
  svc::proto::PatchReply R = svc::proto::decodePatchResponse(PatchResp.Body);
  core::CheckResult F = Full.check(Img);
  EXPECT_EQ(R.V.Ok, F.Ok);
  EXPECT_EQ(R.V.Reason, F.Reason);

  Send(MsgKind::ImageCloseRequest,
       svc::proto::encodeImageCloseRequest(O.Image));
  EXPECT_EQ(Recv().Kind, MsgKind::ImageCloseResponse);

  Send(MsgKind::ShutdownRequest, {});
  EXPECT_EQ(Recv().Kind, MsgKind::ShutdownResponse);
  Server.join();
  EXPECT_EQ(M.SvcPatchRequests.get(), 1u);
  EXPECT_EQ(M.SvcPatchNanos.count(), 1u);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

} // namespace
