//===- tests/typecoin/submit_digest_test.cpp - One payload digest ---------===//
//
// Node::submitPair serializes the Typecoin payload once and hashes those
// bytes once, then hands both to the lint gate, the correspondence
// check, the journal key and the WAL record. The forms that take the
// digest must agree with the forms that compute it: the same lint and
// correspondence verdicts over the lint property corpus, a mismatching
// embedded hash still rejected (and counted) at the lint gate, WAL bytes
// identical to `serializePair(P)`, and journal keys equal to
// `payloadKey(P)`.
//
//===----------------------------------------------------------------------===//

#include "../chaos/chaosutil.h"

#include "analysis/lint.h"
#include "obs/metrics.h"
#include "store/chainstore.h"
#include "support/serialize.h"
#include "typecoin/persist.h"

using namespace typecoin;
using namespace typecoin::chaosutil;
using namespace typecoin::logic;

namespace {

const std::string TxHex(64, 'd');

PropPtr typeOf(uint64_t I) {
  return pAtom(lf::tApp(lf::tConst(lf::ConstName::local("t")), lf::nat(I)));
}

/// A permutation-routing transaction (the lint property corpus idiom).
tc::Transaction routing(Rng &Rand) {
  Rng KeyRand(7);
  crypto::PublicKey Owner = crypto::PrivateKey::generate(KeyRand).publicKey();
  size_t N = 1 + Rand.nextBelow(5);
  std::vector<uint64_t> Tags(N);
  for (auto &Tag : Tags)
    Tag = Rand.nextBelow(4);
  std::vector<uint64_t> Shuffled = Tags;
  for (size_t I = Shuffled.size(); I > 1; --I)
    std::swap(Shuffled[I - 1], Shuffled[Rand.nextBelow(I)]);
  tc::Transaction T;
  for (size_t I = 0; I < N; ++I) {
    tc::Input In;
    In.SourceTxid = TxHex;
    In.SourceIndex = static_cast<uint32_t>(I);
    In.Type = typeOf(Tags[I]);
    In.Amount = 1000;
    T.Inputs.push_back(In);
    tc::Output Out;
    Out.Type = typeOf(Shuffled[I]);
    Out.Amount = 1000;
    Out.Owner = Owner;
    T.Outputs.push_back(Out);
  }
  auto Proof = tc::makeRoutingProof(T);
  EXPECT_TRUE(Proof.hasValue());
  T.Proof = *Proof;
  return T;
}

/// The pair encoding as the WAL wrote it before the payload bytes were
/// passed in: the reference for byte identity.
Bytes referencePairBytes(const tc::Pair &P) {
  Writer W;
  W.writeVarBytes(P.Tc.serialize());
  W.writeVarBytes(P.Btc.serialize());
  return W.takeBuffer();
}

void expectSameVerdict(const Status &Got, const Status &Want) {
  ASSERT_EQ(Got.hasValue(), Want.hasValue())
      << "supplied: " << (Got ? "ok" : Got.error().message())
      << "\nself-hashing: " << (Want ? "ok" : Want.error().message());
  if (!Got) {
    EXPECT_EQ(Got.error().message(), Want.error().message());
  }
}

TEST(SubmitDigest, SuppliedDigestGivesTheSelfHashingVerdict) {
  Rng Rand(2026);
  size_t Accepted = 0, Rejected = 0;
  const tc::EmbedScheme Schemes[] = {tc::EmbedScheme::Multisig1of2,
                                     tc::EmbedScheme::BogusOutput,
                                     tc::EmbedScheme::NullData};
  for (int Trial = 0; Trial < 60; ++Trial) {
    tc::Transaction T = routing(Rand);
    auto Btc = tc::embedTransaction(T, Schemes[Trial % 3]);
    ASSERT_TRUE(Btc.hasValue()) << Btc.error().message();
    tc::Pair P{T, *Btc};

    // One mutation per trial: none, a contraction in the proof, a
    // payload the carrier does not commit to, a carrier that no longer
    // corresponds, a non-standard carrier output, or a fallback.
    switch (Trial % 6) {
    case 1:
      P.Tc.Proof = mLam("x", pOne(), mTensorPair(mVar("x"), mVar("x")));
      break;
    case 2:
      P.Tc.Outputs[0].Amount += 1;
      break;
    case 3:
      P.Btc.Inputs[0].Prevout.Index += 9;
      break;
    case 4:
      P.Btc.Outputs.push_back(
          {1000000, bitcoin::Script().op(bitcoin::OP_NOP)});
      break;
    case 5:
      P.Tc.Fallbacks.push_back(T);
      P.Btc = *tc::embedTransaction(P.Tc, Schemes[Trial % 3]);
      break;
    default:
      break;
    }

    analysis::LintOptions Opts;
    // Exercise the advisory size check on the supplied bytes too.
    Opts.MaxTcBytes = Trial % 2 ? 64 : 1 << 20;
    tc::EncodedTx Enc = tc::encodeTx(P.Tc);
    ASSERT_EQ(Enc.Hash, P.Tc.hash());
    ASSERT_EQ(Enc.Data, P.Tc.serialize());

    Status Want = analysis::lintGate(P, Opts);
    expectSameVerdict(analysis::lintGate(P, Enc, Opts), Want);
    (Want ? Accepted : Rejected)++;
    expectSameVerdict(tc::checkCorrespondence(P.Tc, P.Btc, Enc.Hash),
                      tc::checkCorrespondence(P.Tc, P.Btc));
  }
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(SubmitDigest, AnIncompletePayloadIsALintErrorNotACrash) {
  Rng Rand(5);
  tc::Transaction T = routing(Rand);
  auto Btc = tc::embedTransaction(T, tc::EmbedScheme::Multisig1of2);
  ASSERT_TRUE(Btc.hasValue());
  tc::Pair P{T, *Btc};
  P.Tc.Grant = nullptr;
  EXPECT_FALSE(P.Tc.isComplete());
  EXPECT_TRUE(analysis::lintEmbedding(P.Tc, P.Btc).has("embed-incomplete"));
  EXPECT_FALSE(analysis::lintGate(P).hasValue());

  tc::Node Node;
  uint64_t Before = obs::counter("node.submit.rejected.lint").value();
  EXPECT_FALSE(Node.submitPair(P).hasValue());
  EXPECT_EQ(obs::counter("node.submit.rejected.lint").value(), Before + 1);
}

/// A node with a funded issuer and an attached in-memory store.
class DigestNode : public ::testing::Test {
protected:
  DigestNode() : Alice(8101) {
    for (int I = 0; I < 3; ++I) {
      Clock += 600;
      EXPECT_TRUE(Node.mineBlock(Alice.id(), Clock).hasValue());
    }
    Clock += 600;
    EXPECT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
    EXPECT_TRUE(Node.openStore(Mem, "store", 100).hasValue());
  }

  /// The WAL as a restart reads it back: the store keeps no runtime
  /// copy of the records it appends.
  std::vector<store::WalRecord> walOnDisk() {
    auto S = store::ChainStore::open(Mem, "store");
    EXPECT_TRUE(S.hasValue()) << (S.hasValue() ? "" : S.error().message());
    return S.hasValue() ? (*S)->walRecords() : std::vector<store::WalRecord>{};
  }

  store::MemVfs Mem;
  tc::Node Node;
  Actor Alice;
  uint32_t Clock = 0;
};

TEST_F(DigestNode, MismatchedEmbeddedHashIsRejectedAtTheLintGate) {
  auto P = buildGrantPair(Alice, "gold", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  // Change the payload after its carrier committed to it.
  tc::Pair Bad = *P;
  ASSERT_TRUE(Bad.Tc.LocalBasis
                  .declareFamily(lf::ConstName::local("silver"), lf::kProp())
                  .hasValue());
  uint64_t Before = obs::counter("node.submit.rejected.lint").value();
  size_t WalBefore = walOnDisk().size();
  auto S = Node.submitPair(Bad);
  ASSERT_FALSE(S.hasValue());
  EXPECT_NE(S.error().message().find("embedded hash does not match"),
            std::string::npos)
      << S.error().message();
  EXPECT_EQ(obs::counter("node.submit.rejected.lint").value(), Before + 1);
  EXPECT_EQ(Node.journal().size(), 0u);
  EXPECT_EQ(walOnDisk().size(), WalBefore);

  // The untouched pair still goes through.
  EXPECT_TRUE(Node.submitPair(*P).hasValue());
}

TEST_F(DigestNode, WalRecordAndJournalKeyMatchTheSelfHashingForms) {
  for (const char *Name : {"alpha", "beta", "gamma"}) {
    auto P = buildGrantPair(Alice, Name, Alice.pub(), Node.chain());
    ASSERT_TRUE(P.hasValue()) << P.error().message();
    tc::EncodedTx Enc = tc::encodeTx(P->Tc);
    EXPECT_EQ(tc::serializePair(*P, Enc.Data), referencePairBytes(*P));
    EXPECT_EQ(tc::serializePair(*P), referencePairBytes(*P));

    ASSERT_TRUE(Node.submitPair(*P).hasValue());
    const store::WalRecord Rec = walOnDisk().back();
    EXPECT_EQ(Rec.Kind, store::WalKind::PairAdd);
    EXPECT_EQ(Rec.Key, tc::payloadKey(*P));
    EXPECT_EQ(Rec.Payload, referencePairBytes(*P));
    EXPECT_EQ(Node.journal().count(tc::payloadKey(*P)), 1u);
    Clock += 600;
    ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
    EXPECT_TRUE(Node.isRegistered(tc::payloadKey(*P)));
  }
  for (const auto &[Key, P] : Node.journal())
    EXPECT_EQ(Key, tc::payloadKey(P));
}

TEST_F(DigestNode, LateAdoptionJournalsUnderThePayloadKey) {
  // Confirm the carrier through one node, then submit the same pair to
  // a second node that already has the block: the adoption path.
  auto P = buildGrantPair(Alice, "late", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  tc::Node Peer;
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  for (int H = 1; H <= Node.chain().height(); ++H) {
    const bitcoin::Block *B =
        Node.chain().blockByHash(*Node.chain().blockHashAt(H));
    ASSERT_TRUE(Peer.submitBlock(*B).hasValue());
  }
  ASSERT_GE(Peer.chain().confirmations(P->Btc.txid()), 1);
  ASSERT_TRUE(Peer.submitPair(*P).hasValue());
  EXPECT_EQ(Peer.journal().count(tc::payloadKey(*P)), 1u);
  EXPECT_TRUE(Peer.isRegistered(tc::payloadKey(*P)));
}

} // namespace
