//===- tests/store/reorg_recover_test.cpp - Recovery across reorgs --------===//
//
// The block log is append-only and keeps *both* branches of a reorg, in
// arrival order; the epoch snapshot may have been taken while the node
// sat on what later became the losing branch. Recovery must handle
// both: replay a log containing a full reorg, and come back up on the
// losing branch (when the winning blocks were never durable) ready to
// heal when peers re-deliver them.
//
//===----------------------------------------------------------------------===//

#include "../chaos/chaosutil.h"

#include "store/chainstore.h"
#include "typecoin/node.h"

using namespace typecoin;
using namespace typecoin::chaosutil;

namespace {

/// A funded node with an attached MemVfs store, a confirmed pre-fork
/// pair, a one-block losing branch (flushed into an epoch while it was
/// the tip), and a two-block winning branch that reorged past it.
class ReorgRecover : public ::testing::Test {
protected:
  ReorgRecover() : Alice(8101) {
    announce("store-reorg-recover", 0, "epoch on losing branch");
    // Manual flushes only: EpochInterval large so the test controls
    // exactly which chain state each epoch captures.
    EXPECT_TRUE(Node.openStore(Mem, "store", /*EpochInterval=*/1000)
                    .hasValue());
    for (int I = 0; I < 3; ++I) {
      Clock += 600;
      EXPECT_TRUE(Node.mineBlock(Alice.id(), Clock).hasValue());
    }

    // A pre-fork pair, confirmed before the branches diverge.
    auto P = buildGrantPair(Alice, "prefork", Alice.pub(), Node.chain());
    EXPECT_TRUE(P.hasValue());
    PreforkKey = tc::payloadKey(*P);
    EXPECT_TRUE(Node.submitPair(*P).hasValue());
    Clock += 600;
    EXPECT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
    EXPECT_TRUE(Node.isRegistered(PreforkKey));

    Fork = Node.chain().tipHash();

    // The losing branch: one block, currently the tip. Snapshot here —
    // the epoch's tip is about to be reorged away.
    Losing = mineOn(Node.chain(), Fork, crypto::KeyId{}, Clock + 600);
    EXPECT_TRUE(Node.submitBlock(Losing).hasValue());
    EXPECT_TRUE(Node.flushStoreEpoch());
    EpochTip = Node.chain().tipHash().toHex();
    EXPECT_EQ(EpochTip, Losing.hash().toHex());

    // The winning branch: two blocks from the fork point.
    Win1 = mineOn(Node.chain(), Fork, crypto::KeyId{}, Clock + 1200);
    EXPECT_TRUE(Node.submitBlock(Win1).hasValue());
    Win2 = mineOn(Node.chain(), Win1.hash(), crypto::KeyId{},
                  Clock + 1800);
    EXPECT_TRUE(Node.submitBlock(Win2).hasValue());
    EXPECT_EQ(Node.chain().tipHash().toHex(), Win2.hash().toHex());
  }

  tc::Node Node;
  store::MemVfs Mem;
  Actor Alice;
  uint32_t Clock = 0;
  std::string PreforkKey;
  bitcoin::BlockHash Fork;
  bitcoin::Block Losing, Win1, Win2;
  std::string EpochTip;
};

TEST_F(ReorgRecover, RecoversOntoTheLosingBranchAndHeals) {
  // Crash with the winning blocks still unsynced: only the epoch (tip =
  // losing branch) is durable. Recovery lands on the losing branch —
  // the best durable knowledge — with the digest cross-check passing
  // right at the epoch tip.
  Mem.crash();
  tc::Node Twin;
  auto R = Twin.openStore(Mem, "store", 1000);
  ASSERT_TRUE(R.hasValue()) << R.error().message();
  EXPECT_TRUE(R->FromDisk);
  EXPECT_FALSE(R->DigestMismatch);
  EXPECT_EQ(R->BlockReplayErrors, 0u);
  EXPECT_EQ(Twin.chain().tipHash().toHex(), EpochTip);
  EXPECT_TRUE(Twin.isRegistered(PreforkKey));

  // Peers re-deliver the winning branch: the recovered node reorgs
  // onto it and converges with the uninterrupted one.
  ASSERT_TRUE(Twin.submitBlock(Win1).hasValue());
  ASSERT_TRUE(Twin.submitBlock(Win2).hasValue());
  EXPECT_EQ(Twin.chain().tipHash().toHex(), Node.chain().tipHash().toHex());
  EXPECT_EQ(Twin.state().fingerprint(), Node.state().fingerprint());
  EXPECT_TRUE(Twin.isRegistered(PreforkKey));
}

TEST_F(ReorgRecover, ReplaysABlockLogContainingTheFullReorg) {
  // Flush again after the reorg: the log now holds losing + winning
  // branches in arrival order, and the epoch tip is the winning tip.
  ASSERT_TRUE(Node.flushStoreEpoch());
  Mem.crash();

  tc::Node Twin;
  auto R = Twin.openStore(Mem, "store", 1000);
  ASSERT_TRUE(R.hasValue()) << R.error().message();
  EXPECT_TRUE(R->FromDisk);
  EXPECT_FALSE(R->DigestMismatch);
  EXPECT_EQ(R->BlockReplayErrors, 0u);
  // Replaying through the validated connect path re-runs the reorg and
  // ends on the winning branch.
  EXPECT_EQ(Twin.chain().tipHash().toHex(), Node.chain().tipHash().toHex());
  EXPECT_EQ(Twin.state().fingerprint(), Node.state().fingerprint());
  EXPECT_TRUE(Twin.isRegistered(PreforkKey));

  // The losing branch is still in the log (append-only), replayed as a
  // side branch: block count covers both branches. The replay consumed
  // the node's copy, so read the log back through a reopen.
  auto Reopened = store::ChainStore::open(Mem, "store");
  ASSERT_TRUE(Reopened.hasValue()) << Reopened.error().message();
  EXPECT_EQ((*Reopened)->blockRecords().size(),
            static_cast<size_t>(Node.chain().height()) + 1);
}

} // namespace
