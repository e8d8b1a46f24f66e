//===- regex/FusedTables.cpp - Fused cache-resident DFA tables ------------===//
//
// Offline construction of the fused layout: classify every source state
// (continue / accepting / rejecting, reject winning ties to match
// dfaMatch's check order), assign class-ordered 8-bit ids, rewrite the
// rows under the id map, mirror the accept/reject flags, then turn
// accepting rows into restart rows. Everything here is table
// preprocessing — the verify-time code is the header-inline fusedMatch.
//
//===----------------------------------------------------------------------===//

#include "regex/FusedTables.h"

#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::re;

FusedTables re::fuseDfas(const std::vector<const Dfa *> &Dfas) {
  FusedTables F;

  uint32_t Total = 0;
  for (const Dfa *D : Dfas) {
    if (!D)
      throw std::invalid_argument("fuseDfas: null DFA");
    Total += uint32_t(D->numStates());
  }
  if (Total == 0)
    throw std::invalid_argument("fuseDfas: no states to fuse");
  if (Total > MaxFusedStates)
    throw std::length_error(
        "fuseDfas: combined state count does not fit 8-bit fused ids");

  // Pass 1: class census. Rejecting states classify as rejecting even
  // when the source also marks them accepting — dfaMatch checks reject
  // first, so that is the behavioral class.
  uint32_t NumContinue = 0, NumAccept = 0;
  for (const Dfa *D : Dfas) {
    uint32_t N = uint32_t(D->numStates());
    for (uint32_t S = 0; S < N; ++S) {
      if (D->Rejects[S])
        continue;
      if (D->Accepts[S])
        ++NumAccept;
      else
        ++NumContinue;
    }
  }
  F.AcceptBase = NumContinue;
  F.RejectBase = NumContinue + NumAccept;
  F.NumStates = Total;

  // Pass 2: assign class-ordered ids, in fusion order within a class.
  F.Ids.assign(Total, 0);
  uint32_t NextContinue = 0, NextAccept = F.AcceptBase,
           NextReject = F.RejectBase;
  uint32_t Base = 0;
  for (const Dfa *D : Dfas) {
    uint32_t N = uint32_t(D->numStates());
    F.Offsets.push_back(Base);
    if (D->Start >= N)
      throw std::invalid_argument("fuseDfas: start state out of range");
    for (uint32_t S = 0; S < N; ++S) {
      uint32_t Fid = D->Rejects[S]   ? NextReject++
                     : D->Accepts[S] ? NextAccept++
                                     : NextContinue++;
      F.Ids[Base + S] = uint8_t(Fid);
    }
    F.Starts.push_back(F.Ids[Base + D->Start]);
    Base += N;
  }

  // Pass 3: rewrite rows and mirror flags under the id map.
  F.Trans.assign(size_t(Total) * 256, 0);
  F.Flags.assign(Total, 0);
  Base = 0;
  for (const Dfa *D : Dfas) {
    uint32_t N = uint32_t(D->numStates());
    for (uint32_t S = 0; S < N; ++S) {
      uint8_t Fid = F.Ids[Base + S];
      uint8_t *Row = &F.Trans[size_t(Fid) * 256];
      for (uint32_t B = 0; B < 256; ++B) {
        uint16_t T = D->Table[S][B];
        if (T >= N)
          throw std::invalid_argument(
              "fuseDfas: transition target out of range");
        Row[B] = F.Ids[Base + T];
      }
      F.Flags[Fid] = uint8_t((D->Accepts[S] ? FusedAccept : 0) |
                             (D->Rejects[S] ? FusedReject : 0));
    }
    Base += N;
  }

  // Pass 4: restart rows. Neither matcher ever steps OUT of an accept
  // or reject state (dfaMatch and fusedMatch return at both), so those
  // rows are semantically dead — and the verifier's branchless sweep
  // exploits that: each accepting state's row becomes a copy of its
  // sub-DFA's start row, so walking straight through an instruction
  // boundary IS the restart, with no reset on the serial path. Reject
  // rows keep their (unused) source mirror.
  Base = 0;
  for (const Dfa *D : Dfas) {
    uint32_t N = uint32_t(D->numStates());
    uint8_t StartFid = F.Ids[Base + D->Start];
    for (uint32_t S = 0; S < N; ++S) {
      if (!D->Accepts[S] || D->Rejects[S])
        continue;
      uint8_t Fid = F.Ids[Base + S];
      if (Fid == StartFid)
        continue;
      const uint8_t *StartRow = &F.Trans[size_t(StartFid) * 256];
      std::copy(StartRow, StartRow + 256, &F.Trans[size_t(Fid) * 256]);
    }
    Base += N;
  }

  return F;
}
