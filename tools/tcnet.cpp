//===- tools/tcnet.cpp - P2P runtime demo swarm --------------------------------===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spin up an in-process swarm of `src/net` nodes over the loopback
/// transport, push a mining + gossip workload through it, and report
/// convergence and the relay counters. The observable difference
/// between full-block and compact relay (EXPERIMENTS.md T11) is
/// reproducible from the command line:
///
///   tcnet [--nodes N] [--blocks B] [--txs T] [--threaded]
///   tcnet --selftest
///
/// Environment knobs (see README):
///   TYPECOIN_NET_LISTEN    address of the local node (default node0)
///   TYPECOIN_NET_CONNECT   comma-separated addresses the local node
///                          dials (default: every other swarm node)
///   TYPECOIN_COMPACT_RELAY 0/off/false disables compact-block relay
///
/// --threaded starts each node's I/O thread against a steady clock in
/// place of pumping the swarm by hand.
///
/// Exit status: 0 converged, 1 swarm failed to converge, 2 usage.
///
//===----------------------------------------------------------------------===//

#include "bitcoin/script.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "support/rng.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace typecoin;
using namespace typecoin::net;

namespace {

int usage() {
  std::fprintf(stderr, "usage: tcnet [--nodes N] [--blocks B] [--txs T]"
                       " [--threaded]\n"
                       "       tcnet --selftest\n");
  return 2;
}

bitcoin::ChainParams demoParams() {
  bitcoin::ChainParams P;
  P.CoinbaseMaturity = 1;
  return P;
}

/// Spend the coinbase of \p B (mined to \p Key).
bitcoin::Transaction spendCoinbase(const bitcoin::Block &B,
                                   const crypto::PrivateKey &Key,
                                   const crypto::KeyId &To) {
  const bitcoin::TxOut &Out = B.Txs[0].Outputs[0];
  bitcoin::Transaction Tx;
  Tx.Inputs.push_back(bitcoin::TxIn{bitcoin::OutPoint{B.Txs[0].txid(), 0}, {}});
  Tx.Outputs.push_back(
      bitcoin::TxOut{Out.Value - 10000, bitcoin::makeP2PKH(To)});
  Tx.Inputs[0].ScriptSig =
      *bitcoin::signInput(Tx, 0, Out.ScriptPubKey, {Key});
  return Tx;
}

struct SwarmReport {
  bool Converged = false;
  int Height = -1;
  uint64_t CompactHits = 0;
};

/// Build the swarm, run the workload, print the report. The local node
/// (index 0) listens at $TYPECOIN_NET_LISTEN and dials
/// $TYPECOIN_NET_CONNECT; the remaining nodes ("peer1"…) mesh among
/// themselves so a restricted connect list still has a network behind
/// it to gossip through.
SwarmReport runSwarm(size_t NumNodes, int NumBlocks, int TxPerBlock,
                     bool Threaded, bool Quiet) {
  bitcoin::ChainParams Params = demoParams();
  NetConfig Cfg;
  Cfg.CompactRelay = compactRelayFromEnv();
  Cfg.Seed = 0x7c9e7;

  LoopbackHub Hub;
  std::shared_ptr<Clock> Clk;
  std::shared_ptr<VirtualClock> VClk;
  if (Threaded) {
    Clk = std::make_shared<SteadyClock>();
  } else {
    VClk = std::make_shared<VirtualClock>();
    Clk = VClk;
  }

  std::vector<std::string> Addrs;
  Addrs.push_back(netListenFromEnv());
  for (size_t I = 1; I < NumNodes; ++I)
    Addrs.push_back("peer" + std::to_string(I));

  std::vector<std::unique_ptr<NetNode>> Nodes;
  for (size_t I = 0; I < NumNodes; ++I)
    Nodes.push_back(
        std::make_unique<NetNode>(Params, Cfg, Hub.open(Addrs[I]), Clk));

  // Peers mesh among themselves; the local node dials its connect list.
  for (size_t I = 1; I < NumNodes; ++I)
    for (size_t J = I + 1; J < NumNodes; ++J)
      (void)!Nodes[I]->connectTo(Addrs[J]);
  std::vector<std::string> Dials = netConnectFromEnv();
  if (Dials.empty())
    Dials.assign(Addrs.begin() + 1, Addrs.end());
  for (const std::string &A : Dials)
    if (auto R = Nodes[0]->connectTo(A); !R && !Quiet)
      std::fprintf(stderr, "tcnet: cannot dial %s: %s\n", A.c_str(),
                   R.error().message().c_str());

  auto Settle = [&] {
    for (int Round = 0; Round < 100000; ++Round) {
      size_t Work = 0;
      for (auto &N : Nodes)
        Work += N->pump();
      if (Work == 0)
        return;
    }
  };
  auto WaitConverged = [&](int ExpectHeight) {
    for (int I = 0; I < 2000; ++I) {
      bool Ok = true;
      for (auto &N : Nodes)
        Ok = Ok && N->chainHeight() == ExpectHeight;
      if (Ok)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };

  if (Threaded)
    for (auto &N : Nodes)
      N->start();
  else
    Settle();

  Rng Rand(0x7c9e7);
  crypto::PrivateKey Miner = crypto::PrivateKey::generate(Rand);
  crypto::KeyId Sink = crypto::PrivateKey::generate(Rand).id();
  NetNode &MinerNode = *Nodes[NumNodes > 1 ? 1 : 0];

  // Funding: one mature coinbase per spend we intend to gossip. The
  // spends are built from the mined blocks, not from a chain read that
  // would race the I/O threads.
  int Funding = NumBlocks * TxPerBlock;
  uint32_t T = 0;
  std::vector<bitcoin::Block> Funded;
  for (int I = 1; I <= Funding; ++I)
    if (auto Blk = MinerNode.mine(Miner.id(), T += 600))
      Funded.push_back(Blk.takeValue());
  if (!Threaded)
    Settle();
  else
    WaitConverged(Funding);

  uint64_t Hits0 = obs::counter("net.compact.hit").value();
  for (int B = 0; B < NumBlocks; ++B) {
    for (int I = 1; I <= TxPerBlock; ++I) {
      // A node with no live peers may still be at genesis — the spend's
      // funding block isn't on its chain yet, so there is nothing to
      // submit (the final convergence check reports the divergence).
      int Height = B * TxPerBlock + I;
      if (Nodes[0]->chainHeight() < Height ||
          static_cast<int>(Funded.size()) < Height)
        break;
      Status S = Nodes[0]->submitTransaction(
          spendCoinbase(Funded[Height - 1], Miner, Sink));
      if (!S && !Quiet)
        std::fprintf(stderr, "tcnet: submit failed: %s\n", S.error().message().c_str());
    }
    if (!Threaded)
      Settle();
    (void)!MinerNode.mine(Miner.id(), T += 600);
    if (!Threaded)
      Settle();
  }
  int ExpectHeight = Funding + NumBlocks;
  if (Threaded) {
    WaitConverged(ExpectHeight);
    for (auto &N : Nodes)
      N->stop();
  }

  SwarmReport Rep;
  Rep.Height = Nodes[0]->chain().height();
  Rep.Converged = true;
  for (auto &N : Nodes)
    Rep.Converged = Rep.Converged && N->chain().height() == ExpectHeight;
  Rep.CompactHits = obs::counter("net.compact.hit").value() - Hits0;

  if (!Quiet) {
    std::printf("tcnet: %zu nodes, %d blocks x %d txs (mode=%s, compact=%s)\n",
                NumNodes, NumBlocks, TxPerBlock,
                Threaded ? "threaded" : "pumped",
                Cfg.CompactRelay ? "on" : "off");
    for (size_t I = 0; I < NumNodes; ++I)
      std::printf("  %-8s height=%-4d peers=%zu\n", Addrs[I].c_str(),
                  Nodes[I]->chain().height(), Nodes[I]->readyPeerCount());
    std::printf("  bytes.out=%llu msg.out=%llu headers.accepted=%llu\n",
                (unsigned long long)obs::counter("net.bytes.out").value(),
                (unsigned long long)obs::counter("net.msg.out").value(),
                (unsigned long long)obs::counter("net.headers.accepted")
                    .value());
    std::printf("  compact hit/miss/fallback=%llu/%llu/%llu "
                "full.blocks=%llu inv dup/dedup=%llu/%llu\n",
                (unsigned long long)obs::counter("net.compact.hit").value(),
                (unsigned long long)obs::counter("net.compact.miss").value(),
                (unsigned long long)obs::counter("net.compact.fallback")
                    .value(),
                (unsigned long long)obs::counter("net.block.full.recv")
                    .value(),
                (unsigned long long)obs::counter("net.inv.dup").value(),
                (unsigned long long)obs::counter("net.inv.dedup").value());
    std::printf("tcnet: %s\n", Rep.Converged ? "converged" : "DIVERGED");
  }
  return Rep;
}

int selftest() {
  // Env helper parsing.
  setenv("TYPECOIN_NET_CONNECT", "a,b,,c", 1);
  std::vector<std::string> Dials = netConnectFromEnv();
  if (Dials != std::vector<std::string>{"a", "b", "c"}) {
    std::fprintf(stderr, "tcnet: selftest: connect list parse failed\n");
    return 1;
  }
  unsetenv("TYPECOIN_NET_CONNECT");
  if (!netConnectFromEnv().empty() || netListenFromEnv() != "node0") {
    std::fprintf(stderr, "tcnet: selftest: env defaults wrong\n");
    return 1;
  }

  // A small pumped swarm must converge, and with compact relay on
  // (the default) the blocks must move as compact announcements.
  unsetenv("TYPECOIN_COMPACT_RELAY");
  unsetenv("TYPECOIN_NET_LISTEN");
  SwarmReport Rep = runSwarm(3, 2, 2, /*Threaded=*/false, /*Quiet=*/true);
  if (!Rep.Converged) {
    std::fprintf(stderr, "tcnet: selftest: swarm diverged (height %d)\n",
                 Rep.Height);
    return 1;
  }
  if (Rep.CompactHits < 1) {
    std::fprintf(stderr, "tcnet: selftest: compact relay never fired\n");
    return 1;
  }
  std::printf("tcnet: selftest ok\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  size_t NumNodes = 4;
  int NumBlocks = 4, TxPerBlock = 8;
  bool Threaded = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto IntArg = [&](int &Out) {
      if (I + 1 >= argc)
        return false;
      Out = std::atoi(argv[++I]);
      return Out > 0;
    };
    if (A == "--selftest")
      return selftest();
    if (A == "--threaded") {
      Threaded = true;
    } else if (A == "--nodes") {
      int N = 0;
      if (!IntArg(N))
        return usage();
      NumNodes = static_cast<size_t>(N);
    } else if (A == "--blocks") {
      if (!IntArg(NumBlocks))
        return usage();
    } else if (A == "--txs") {
      if (!IntArg(TxPerBlock))
        return usage();
    } else {
      return usage();
    }
  }
  return runSwarm(NumNodes, NumBlocks, TxPerBlock, Threaded, false).Converged
             ? 0
             : 1;
}
