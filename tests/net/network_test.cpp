//===- tests/net/network_test.cpp - Multi-node propagation ----------------===//
//
// The network dynamics the paper's commitment argument rests on
// (Section 2): blocks propagate, racing miners fork, and the network
// converges on the longest branch — so an attacker must outpace
// everyone to reverse a confirmed transaction. Every scenario runs on
// a pumped net::Cluster, over the real wire protocol.
//
//===----------------------------------------------------------------------===//

#include "net/cluster.h"

#include "../chaos/chaosutil.h"
#include "obs/metrics.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::bitcoin;
using namespace typecoin::chaosutil;
using typecoin::net::Cluster;

namespace {

TEST(Network, BlockPropagatesToAllNodes) {
  Cluster Net(testParams(), 5);
  auto Miner = keyFromSeed(1);
  ASSERT_TRUE(Net.mineAt(0, Miner.id(), 600).hasValue());
  Net.settle();
  EXPECT_TRUE(Net.converged());
  for (size_t I = 0; I < Net.size(); ++I)
    EXPECT_EQ(Net.chain(I).height(), 1) << "node " << I;
}

TEST(Network, ChainOfBlocksPropagates) {
  Cluster Net(testParams(), 4);
  auto Miner = keyFromSeed(2);
  double Clock = 0;
  for (int I = 0; I < 6; ++I) {
    Clock += 600;
    ASSERT_TRUE(Net.mineAt(I % 4 == 0 ? 0 : I % 4, Miner.id(), Clock)
                    .hasValue());
    Net.settle(); // Everyone catches up before the next block.
  }
  EXPECT_TRUE(Net.converged());
  EXPECT_EQ(Net.chain(3).height(), 6);
}

TEST(Network, OutOfOrderDeliveryViaOrphans) {
  // Two blocks mined back-to-back at node 0 *without* draining the
  // queue, on links whose jitter reorders delivery: a receiver sees the
  // child before the parent and must hold it as an orphan.
  net::FaultPlan Jitter;
  Jitter.JitterSeconds = 5000;
  Cluster Net(testParams(), 3, 3, quietTimers());
  Net.setDefaultFault(Jitter);
  uint64_t Orphans0 = obs::counter("net.orphan.added").value();
  auto Miner = keyFromSeed(3);
  ASSERT_TRUE(Net.mineAt(0, Miner.id(), 600).hasValue());
  ASSERT_TRUE(Net.mineAt(0, Miner.id(), 1200).hasValue());
  Net.settle();
  EXPECT_GE(obs::counter("net.orphan.added").value() - Orphans0, 1u);
  EXPECT_TRUE(Net.converged());
  EXPECT_EQ(Net.chain(2).height(), 2);
  for (size_t I = 0; I < Net.size(); ++I)
    EXPECT_EQ(Net.node(I).orphanCount(), 0u) << "node " << I;
}

TEST(Network, RacingMinersForkThenConverge) {
  Cluster Net(testParams(), 2);
  auto A = keyFromSeed(4), B = keyFromSeed(5);
  // Both mine on the same parent before any relay happens: a fork.
  ASSERT_TRUE(Net.mineAt(0, A.id(), 600).hasValue());
  ASSERT_TRUE(Net.mineAt(1, B.id(), 601).hasValue());
  Net.settle();
  // Each keeps its own first-seen block (equal work): tips differ.
  EXPECT_EQ(Net.chain(0).height(), 1);
  EXPECT_EQ(Net.chain(1).height(), 1);

  // The next block extends one side and settles the race.
  ASSERT_TRUE(Net.mineAt(0, A.id(), 1200).hasValue());
  Net.settle();
  EXPECT_TRUE(Net.converged());
  EXPECT_EQ(Net.chain(1).height(), 2);
}

TEST(Network, PartitionDivergesHealConverges) {
  Cluster Net(testParams(), 4);
  auto A = keyFromSeed(6), B = keyFromSeed(7);

  // Common prefix.
  ASSERT_TRUE(Net.mineAt(0, A.id(), 600).hasValue());
  Net.settle();

  // Partition {0,1} | {2,3}: the left side mines two blocks, the right
  // side three.
  Net.partitionAt(2);
  double Clock = 1200;
  for (int I = 0; I < 2; ++I, Clock += 600)
    ASSERT_TRUE(Net.mineAt(0, A.id(), Clock).hasValue());
  for (int I = 0; I < 3; ++I, Clock += 600)
    ASSERT_TRUE(Net.mineAt(2, B.id(), Clock).hasValue());
  Net.settle();
  EXPECT_EQ(Net.chain(0).height(), 3);
  EXPECT_EQ(Net.chain(3).height(), 4);
  EXPECT_FALSE(Net.converged());

  // Heal: the longer (right) branch wins everywhere — the left side's
  // two blocks are reorganized away.
  Net.heal();
  Net.settle();
  EXPECT_TRUE(Net.converged());
  for (size_t I = 0; I < Net.size(); ++I)
    EXPECT_EQ(Net.chain(I).height(), 4) << "node " << I;
}

TEST(Network, TransactionRelayAndRemoteInclusion) {
  Cluster Net(testParams(), 3);
  auto Miner = keyFromSeed(8);
  auto Alice = keyFromSeed(9);
  auto Bob = keyFromSeed(10);

  // Fund Alice via a coinbase, then let it mature.
  ASSERT_TRUE(Net.mineAt(0, Alice.id(), 600).hasValue());
  Net.settle();
  ASSERT_TRUE(Net.mineAt(0, Miner.id(), 1200).hasValue());
  Net.settle();

  // Alice submits a payment at node 1.
  const Block *Funding = Net.chain(1).blockByHash(
      *Net.chain(1).blockHashAt(1));
  ASSERT_NE(Funding, nullptr);
  Transaction Pay;
  Pay.Inputs.push_back(TxIn{OutPoint{Funding->Txs[0].txid(), 0}, {}});
  Pay.Outputs.push_back(TxOut{Funding->Txs[0].Outputs[0].Value - 10000,
                              makeP2PKH(Bob.id())});
  auto Sig = signInput(Pay, 0, Funding->Txs[0].Outputs[0].ScriptPubKey,
                       {Alice});
  ASSERT_TRUE(Sig.hasValue()) << Sig.error().message();
  Pay.Inputs[0].ScriptSig = *Sig;
  ASSERT_TRUE(Net.submitTransaction(1, Pay).hasValue());
  Net.settle();
  // The transaction reached every mempool.
  for (size_t I = 0; I < Net.size(); ++I)
    EXPECT_TRUE(Net.mempool(I).contains(Pay.txid())) << "node " << I;

  // A *different* node mines it.
  ASSERT_TRUE(Net.mineAt(2, Miner.id(), 1800).hasValue());
  Net.settle();
  EXPECT_TRUE(Net.converged());
  for (size_t I = 0; I < Net.size(); ++I) {
    EXPECT_EQ(Net.chain(I).confirmations(Pay.txid()), 1) << "node " << I;
    EXPECT_EQ(Net.mempool(I).size(), 0u) << "node " << I;
  }
}

TEST(Network, DoubleSpendRaceResolvesConsistently) {
  Cluster Net(testParams(), 2);
  auto Alice = keyFromSeed(11);
  auto Bob = keyFromSeed(12);
  auto Carol = keyFromSeed(13);
  ASSERT_TRUE(Net.mineAt(0, Alice.id(), 600).hasValue());
  Net.settle();
  ASSERT_TRUE(Net.mineAt(0, Alice.id(), 1200).hasValue());
  Net.settle();

  const Block *Funding =
      Net.chain(0).blockByHash(*Net.chain(0).blockHashAt(1));
  auto MakeSpend = [&](const crypto::KeyId &To) {
    Transaction T;
    T.Inputs.push_back(TxIn{OutPoint{Funding->Txs[0].txid(), 0}, {}});
    T.Outputs.push_back(TxOut{Funding->Txs[0].Outputs[0].Value - 10000,
                              makeP2PKH(To)});
    T.Inputs[0].ScriptSig =
        *signInput(T, 0, Funding->Txs[0].Outputs[0].ScriptPubKey, {Alice});
    return T;
  };
  Transaction ToBob = MakeSpend(Bob.id());
  Transaction ToCarol = MakeSpend(Carol.id());

  // Conflicting spends enter different mempools.
  ASSERT_TRUE(Net.submitTransaction(0, ToBob).hasValue());
  ASSERT_TRUE(Net.submitTransaction(1, ToCarol).hasValue());
  Net.settle();
  // Each node keeps its first-seen spend and rejects the relay of the
  // other: mempools conflict.
  EXPECT_TRUE(Net.mempool(0).contains(ToBob.txid()));
  EXPECT_TRUE(Net.mempool(1).contains(ToCarol.txid()));
  EXPECT_FALSE(Net.mempool(0).contains(ToCarol.txid()));

  // Node 1 wins the block race: the network settles on Carol's payment,
  // and Bob's conflicting spend is evicted everywhere.
  ASSERT_TRUE(Net.mineAt(1, Alice.id(), 1800).hasValue());
  Net.settle();
  EXPECT_TRUE(Net.converged());
  for (size_t I = 0; I < Net.size(); ++I) {
    EXPECT_EQ(Net.chain(I).confirmations(ToCarol.txid()), 1);
    EXPECT_EQ(Net.chain(I).confirmations(ToBob.txid()), 0);
    EXPECT_FALSE(Net.mempool(I).contains(ToBob.txid()));
  }
}

} // namespace
