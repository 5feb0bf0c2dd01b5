//===- tests/net/wire_fuzz_test.cpp - Wire-decoder fuzz property ----------===//
//
// Replays a seeded, bounded stream of mutated frames through the
// fuzz_net_message entry point (fuzz/fuzz_net_message.cpp), so its
// properties — no crash on any input, permanent poisoning, canonical
// re-encoding — run on every build, not only under clang's libFuzzer.
// The inputs start from valid frames of every message type and apply
// bit flips, truncation, splices, length-field edits, and payload edits
// with a recomputed checksum (so the payload decoders, not only the
// checksum check, see the damage). A violated property traps, which
// fails the test.
//
//===----------------------------------------------------------------------===//

#include "net/wire.h"

#include "crypto/sha256.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <iterator>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size);

using namespace typecoin;
using namespace typecoin::net;

namespace {

constexpr size_t HeaderBytes = 4 + 1 + 4 + 4; // magic, type, length, sum
constexpr size_t LengthAt = 5;
constexpr size_t ChecksumAt = 9;

bitcoin::Transaction sampleTx(uint8_t Tag) {
  bitcoin::Transaction Tx;
  bitcoin::TxIn In;
  In.Prevout.Tx.Hash[0] = Tag;
  In.Prevout.Index = Tag;
  In.ScriptSig.pushInt(Tag);
  Tx.Inputs.push_back(In);
  Tx.Outputs.push_back(bitcoin::TxOut{1000 + Tag, bitcoin::Script()});
  return Tx;
}

/// One valid frame of every message type.
std::vector<Bytes> seedFrames() {
  bitcoin::Block B;
  B.Header.Prev.Hash[3] = 7;
  B.Header.Time = 1234;
  B.Header.Bits = 0x207fffff;
  B.Txs.push_back(sampleTx(1));
  B.Txs.push_back(sampleTx(2));
  B.updateMerkleRoot();

  VersionMsg V;
  V.Services = ServiceCompactRelay;
  V.Nonce = 0x0123456789abcdefull;
  V.StartHeight = 9;
  V.UserAgent = "/fuzz/";
  InvMsg Inv;
  Inv.Items = {invBlock(B.hash()), invTx(B.Txs[1].txid())};
  GetHeadersMsg GH;
  GH.Locator = {B.hash(), B.Header.Prev};
  HeadersMsg H;
  H.Headers = {B.Header, B.Header};
  CmpctBlockMsg C;
  C.Header = B.Header;
  C.Nonce = 99;
  C.ShortIds = {shortTxId(B.hash(), 99, B.Txs[1].txid())};
  C.Prefilled = {PrefilledTx{0, B.Txs[0]}};
  GetBlockTxnMsg GB;
  GB.Block = B.hash();
  GB.Indexes = {1, 3};
  BlockTxnMsg BT;
  BT.Block = B.hash();
  BT.Txs = {B.Txs[1]};

  std::vector<Message> All = {V,   VerackMsg{}, PingMsg{7}, PongMsg{8},
                              Inv, GetDataMsg{Inv.Items},  GH,
                              H,   BlockMsg{B}, TxMsg{B.Txs[1]},
                              C,   GB,          BT};
  std::vector<Bytes> Frames;
  for (const Message &M : All)
    Frames.push_back(encodeMessage(M));
  return Frames;
}

void putU32(Bytes &F, size_t At, uint32_t V) {
  for (size_t I = 0; I < 4; ++I)
    F[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Re-seal a frame whose payload was edited, so it passes the checksum
/// and reaches the payload decoder.
void fixChecksum(Bytes &F) {
  crypto::Digest32 D =
      crypto::sha256d(F.data() + HeaderBytes, F.size() - HeaderBytes);
  uint32_t Sum = static_cast<uint32_t>(D[0]) |
                 static_cast<uint32_t>(D[1]) << 8 |
                 static_cast<uint32_t>(D[2]) << 16 |
                 static_cast<uint32_t>(D[3]) << 24;
  putU32(F, ChecksumAt, Sum);
}

Bytes mutate(Rng &R, const std::vector<Bytes> &Seeds) {
  Bytes F = Seeds[R.nextBelow(Seeds.size())];
  switch (R.nextBelow(6)) {
  case 0: // Bit flips anywhere, header included.
    for (uint64_t I = 0, N = 1 + R.nextBelow(4); I < N; ++I)
      F[R.nextBelow(F.size())] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
    break;
  case 1: // Truncation.
    F.resize(R.nextBelow(F.size()));
    break;
  case 2: { // Splice: a prefix of one frame, a suffix of another.
    const Bytes &G = Seeds[R.nextBelow(Seeds.size())];
    F.resize(R.nextBelow(F.size() + 1));
    size_t From = R.nextBelow(G.size());
    F.insert(F.end(), G.begin() + static_cast<ptrdiff_t>(From), G.end());
    break;
  }
  case 3: { // Length-field edits: off by one, zero, at and past the cap.
    const uint32_t Len = static_cast<uint32_t>(F.size() - HeaderBytes);
    const uint32_t Picks[] = {0u,          Len - 1,        Len + 1,
                              Len * 2,     MaxPayloadBytes, MaxPayloadBytes + 1,
                              0xffffffffu, static_cast<uint32_t>(R.next())};
    putU32(F, LengthAt, Picks[R.nextBelow(std::size(Picks))]);
    break;
  }
  case 4: // Payload byte edits behind a valid checksum.
    if (F.size() > HeaderBytes) {
      for (uint64_t I = 0, N = 1 + R.nextBelow(3); I < N; ++I)
        F[HeaderBytes + R.nextBelow(F.size() - HeaderBytes)] =
            static_cast<uint8_t>(R.next());
      fixChecksum(F);
    }
    break;
  case 5: // Payload truncated or extended, length and checksum resealed.
    if (R.nextBool(0.5) && F.size() > HeaderBytes)
      F.resize(HeaderBytes + R.nextBelow(F.size() - HeaderBytes));
    else
      F.push_back(static_cast<uint8_t>(R.next()));
    putU32(F, LengthAt, static_cast<uint32_t>(F.size() - HeaderBytes));
    fixChecksum(F);
    break;
  }
  return F;
}

TEST(NetWireFuzz, MutatedFrameStreamKeepsTheDecoderProperties) {
  const std::vector<Bytes> Seeds = seedFrames();
  Rng R(0x77697265); // "wire"
  size_t Decoded = 0, Poisoned = 0, PayloadErrors = 0;
  for (int Case = 0; Case < 20000; ++Case) {
    // A stream of one to three frames: an intact frame may precede the
    // damaged one, so poisoning is checked after successful decodes too.
    Bytes Stream;
    for (uint64_t I = 0, N = 1 + R.nextBelow(3); I < N; ++I) {
      Bytes F = R.nextBool(0.25) ? Seeds[R.nextBelow(Seeds.size())]
                                 : mutate(R, Seeds);
      Stream.insert(Stream.end(), F.begin(), F.end());
    }
    Bytes Input;
    Input.push_back(static_cast<uint8_t>(R.next())); // Chunking seed.
    Input.insert(Input.end(), Stream.begin(), Stream.end());
    LLVMFuzzerTestOneInput(Input.data(), Input.size());

    // Tally what the stream exercised, so a degenerate mutator that
    // never reaches the payload decoders fails here.
    FrameDecoder D;
    D.feed(Stream);
    for (;;) {
      auto M = D.next();
      if (!M) {
        ++Poisoned;
        if (M.error().message().find(" payload: ") != std::string::npos)
          ++PayloadErrors;
        break;
      }
      if (!M->has_value())
        break;
      ++Decoded;
    }
  }
  EXPECT_GT(Decoded, 5000u);
  EXPECT_GT(Poisoned, 5000u);
  EXPECT_GT(PayloadErrors, 500u);
}

} // namespace
