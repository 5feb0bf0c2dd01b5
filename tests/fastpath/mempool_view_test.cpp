//===- tests/fastpath/mempool_view_test.cpp - Narrow mempool view ---------===//
//
// Mempool::acceptTransaction validates a transaction against a view that
// holds only the transaction's own inputs: a pool output first, else the
// confirmed coin. The reference below is the view it replaced, a full
// copy of the UTXO set plus every pool entry's outputs minus every pool
// entry's spends. Seeded random pool DAGs cover chained pool spends,
// conflicts and double spends, coinbase-maturity boundaries,
// out-of-range and OP_RETURN pool outputs, missing inputs, and
// revalidation after a reorg. Both must give the same verdict, error
// text, fee and pool contents.
//
//===----------------------------------------------------------------------===//

#include "bitcoin/mempool.h"

#include "bitcoin/miner.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace typecoin;
using namespace typecoin::bitcoin;

namespace {

/// The pool as it was with the full-copy view: the oracle. Everything
/// but the view is the production logic verbatim.
class ReferencePool {
public:
  explicit ReferencePool(MempoolPolicy Policy) : Policy(Policy) {}

  Status accept(const Transaction &Tx, const Blockchain &Chain) {
    TxId Id = Tx.txid();
    if (Pool.count(Id))
      return Status::success();
    if (Tx.isCoinbase())
      return makeError("mempool: coinbase transactions are not relayable");
    if (Policy.RequireStandard)
      TC_TRY(checkStandard(Tx));
    for (const TxIn &In : Tx.Inputs) {
      auto It = SpentBy.find(In.Prevout);
      if (It != SpentBy.end())
        return makeError("mempool: input " + In.Prevout.toString() +
                         " already spent by pool transaction " +
                         It->second.toHex());
    }

    // Confirmed UTXO plus outputs of pool transactions, minus their
    // spends.
    UtxoSet View = Chain.utxo();
    for (const auto &[PoolId, E] : Pool) {
      for (uint32_t I = 0; I < E.Tx.Outputs.size(); ++I)
        View.add(OutPoint{PoolId, I},
                 Coin{E.Tx.Outputs[I], Chain.height() + 1, false});
      for (const TxIn &In : E.Tx.Inputs)
        if (View.contains(In.Prevout)) {
          auto Spent = View.spend(In.Prevout);
          (void)Spent;
        }
    }

    TC_UNWRAP(Fee, checkTxInputs(Tx, View, Chain.height() + 1,
                                 Chain.params().CoinbaseMaturity));
    if (Fee < Policy.MinRelayFee)
      return makeError("mempool: fee " + std::to_string(Fee) +
                       " below relay minimum " +
                       std::to_string(Policy.MinRelayFee));
    for (const TxIn &In : Tx.Inputs)
      SpentBy[In.Prevout] = Id;
    Pool[Id] = Entry{Tx, Fee, NextSequence++};
    return Status::success();
  }

  std::vector<Transaction> snapshot() const {
    std::vector<const Entry *> Entries;
    for (const auto &[Id, E] : Pool)
      Entries.push_back(&E);
    std::sort(Entries.begin(), Entries.end(),
              [](const Entry *A, const Entry *B) {
                return A->Sequence < B->Sequence;
              });
    std::vector<Transaction> Out;
    for (const Entry *E : Entries)
      Out.push_back(E->Tx);
    return Out;
  }

  std::optional<Amount> feeOf(const TxId &Id) const {
    auto It = Pool.find(Id);
    if (It == Pool.end())
      return std::nullopt;
    return It->second.Fee;
  }

  void removeForBlock(const Block &B) {
    for (const Transaction &Tx : B.Txs) {
      auto It = Pool.find(Tx.txid());
      if (It != Pool.end()) {
        for (const TxIn &In : It->second.Tx.Inputs)
          SpentBy.erase(In.Prevout);
        Pool.erase(It);
      }
      if (Tx.isCoinbase())
        continue;
      for (const TxIn &In : Tx.Inputs) {
        auto SpentIt = SpentBy.find(In.Prevout);
        if (SpentIt == SpentBy.end())
          continue;
        auto PoolIt = Pool.find(SpentIt->second);
        if (PoolIt != Pool.end()) {
          for (const TxIn &CIn : PoolIt->second.Tx.Inputs)
            SpentBy.erase(CIn.Prevout);
          Pool.erase(PoolIt);
        } else {
          SpentBy.erase(SpentIt);
        }
      }
    }
  }

  size_t revalidate(const Blockchain &Chain) {
    std::vector<Transaction> Entries = snapshot();
    Pool.clear();
    SpentBy.clear();
    size_t Evicted = 0;
    for (const Transaction &Tx : Entries) {
      if (Chain.confirmations(Tx.txid()) > 0)
        continue;
      if (!accept(Tx, Chain))
        ++Evicted;
    }
    return Evicted;
  }

private:
  struct Entry {
    Transaction Tx;
    Amount Fee = 0;
    uint64_t Sequence = 0;
  };
  MempoolPolicy Policy;
  std::map<TxId, Entry> Pool;
  std::map<OutPoint, TxId> SpentBy;
  uint64_t NextSequence = 0;
};

void expectSameVerdict(const Status &Got, const Status &Want) {
  ASSERT_EQ(Got.hasValue(), Want.hasValue())
      << "narrow: " << (Got ? "accepted" : Got.error().message())
      << "\nreference: " << (Want ? "accepted" : Want.error().message());
  if (!Got) {
    EXPECT_EQ(Got.error().message(), Want.error().message());
  }
}

void expectSamePool(const Mempool &Pool, const ReferencePool &Ref) {
  std::vector<Transaction> Got = Pool.snapshot();
  std::vector<Transaction> Want = Ref.snapshot();
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    TxId Id = Got[I].txid();
    ASSERT_EQ(Id, Want[I].txid()) << "admission order differs at " << I;
    EXPECT_EQ(Pool.feeOf(Id), Ref.feeOf(Id));
  }
}

/// What the sweep saw, so each seed proves it reached every case.
struct Coverage {
  size_t ChainedAccepts = 0;
  size_t PoolConflicts = 0;
  size_t Premature = 0;
  size_t MatureCoinbase = 0;
  size_t Missing = 0;
  size_t NullDataSpends = 0;
  size_t LowFee = 0;
  size_t Evictions = 0;
  size_t Reorgs = 0;
};

/// A seeded random walk over one chain and its pool, mirrored into the
/// reference pool.
class Sweep {
public:
  explicit Sweep(uint64_t Seed)
      : Rand(Seed), Miner(crypto::PrivateKey::generate(Rand)),
        Chain(params()), Pool(policy()), Ref(policy()) {}

  static ChainParams params() {
    ChainParams P;
    P.CoinbaseMaturity = 3;
    return P;
  }
  static MempoolPolicy policy() {
    MempoolPolicy P;
    P.RequireStandard = false; // Anyone-can-spend outputs keep it cheap.
    return P;
  }

  void mineOne() { mine(Chain, Pool); }

  void mine(Blockchain &On, Mempool &From) {
    Clock += 600;
    auto B = mineAndSubmit(On, From, Miner.id(), Clock);
    ASSERT_TRUE(B.hasValue()) << B.error().message();
    if (&From == &Pool) {
      Ref.removeForBlock(*B);
      LastBlock = *B;
    }
  }

  void revalidate() {
    size_t Got = Pool.revalidate(Chain);
    size_t Want = Ref.revalidate(Chain);
    EXPECT_EQ(Got, Want);
    Cov.Evictions += Got;
    expectSamePool(Pool, Ref);
  }

  /// Fork one block back, confirm the pool on the old branch, then let a
  /// longer empty branch win: the confirmed entries are gone from both
  /// pools and their pool children lose their inputs.
  void reorg() {
    Blockchain Fork = Chain;
    Mempool Empty(policy());
    mine(Chain, Pool);
    // Pool children of what that block confirmed.
    for (const Transaction &Parent : LastBlock.Txs)
      for (uint32_t I = 0; I < Parent.Outputs.size(); ++I)
        if (!Parent.isCoinbase() && Parent.Outputs[I].Value > 2000 &&
            Parent.Outputs[I].ScriptPubKey == Script().op(OP_1)) {
          Transaction Child;
          Child.Inputs.push_back(TxIn{OutPoint{Parent.txid(), I}, {}});
          Child.Outputs.push_back(
              TxOut{Parent.Outputs[I].Value - 2000, Script().op(OP_1)});
          submit(Child);
          break;
        }
    mine(Fork, Empty);
    mine(Fork, Empty);
    for (int H = Chain.height(); H <= Fork.height(); ++H) {
      const Block *B = Fork.blockByHash(*Fork.blockHashAt(H));
      ASSERT_TRUE(Chain.submitBlock(*B).hasValue());
    }
    ASSERT_EQ(Chain.tipHash(), Fork.tipHash());
    ++Cov.Reorgs;
    revalidate();
  }

  void step() { submit(randomTx()); }

  void submit(const Transaction &Tx) {
    size_t Before = Pool.size();
    Status Got = Pool.acceptTransaction(Tx, Chain);
    Status Want = Ref.accept(Tx, Chain);
    expectSameVerdict(Got, Want);
    expectSamePool(Pool, Ref);
    record(Tx, Got, Before);
  }

  Coverage Cov;

private:
  enum Kind { Confirmed, Chained, DoubleSpend, OutOfRange, NullData,
              MissingInput, DuplicateInput, CoinbaseSpend, NumKinds };

  OutPoint randomConfirmed() {
    const auto &Entries = Chain.utxo().entries();
    auto It = Entries.begin();
    std::advance(It, Rand.nextBelow(Entries.size()));
    return It->first;
  }

  /// A random pool output: an OP_RETURN one when \p WantNullData, else
  /// a spendable one.
  std::optional<OutPoint> randomPoolOutput(bool WantNullData) {
    std::vector<Transaction> Entries = Pool.snapshot();
    std::vector<OutPoint> Candidates;
    for (const Transaction &Tx : Entries)
      for (uint32_t I = 0; I < Tx.Outputs.size(); ++I)
        if (isNullData(Tx.Outputs[I]) == WantNullData)
          Candidates.push_back(OutPoint{Tx.txid(), I});
    if (Candidates.empty())
      return std::nullopt;
    return Candidates[Rand.nextBelow(Candidates.size())];
  }

  static bool isNullData(const TxOut &Out) {
    return !Out.ScriptPubKey.bytes().empty() &&
           Out.ScriptPubKey.bytes()[0] == OP_RETURN;
  }

  /// The coin an outpoint names, looked up the old way (pool first).
  const TxOut *outputOf(const OutPoint &Point) const {
    if (const Transaction *Tx = Pool.get(Point.Tx))
      if (Point.Index < Tx->Outputs.size())
        return &Tx->Outputs[Point.Index];
    if (const Coin *C = Chain.utxo().find(Point))
      return &C->Out;
    return nullptr;
  }

  std::vector<OutPoint> randomInputs(Kind K) {
    std::vector<OutPoint> Ins;
    switch (K) {
    case Confirmed:
      Ins.push_back(randomConfirmed());
      if (Rand.nextBool(0.3))
        Ins.push_back(randomConfirmed());
      break;
    case Chained:
      if (auto P = randomPoolOutput(false))
        Ins.push_back(*P);
      if (Ins.empty() || Rand.nextBool(0.3))
        Ins.push_back(randomConfirmed());
      break;
    case DoubleSpend: {
      std::vector<Transaction> Entries = Pool.snapshot();
      if (!Entries.empty()) {
        const Transaction &Victim = Entries[Rand.nextBelow(Entries.size())];
        Ins.push_back(
            Victim.Inputs[Rand.nextBelow(Victim.Inputs.size())].Prevout);
      } else {
        Ins.push_back(randomConfirmed());
      }
      break;
    }
    case OutOfRange: {
      std::vector<Transaction> Entries = Pool.snapshot();
      if (!Entries.empty()) {
        const Transaction &Parent = Entries[Rand.nextBelow(Entries.size())];
        Ins.push_back(OutPoint{
            Parent.txid(), static_cast<uint32_t>(Parent.Outputs.size() +
                                                 Rand.nextBelow(2))});
      } else {
        Ins.push_back(randomConfirmed());
      }
      break;
    }
    case NullData:
      if (auto P = randomPoolOutput(true))
        Ins.push_back(*P);
      else
        Ins.push_back(randomConfirmed());
      break;
    case MissingInput: {
      TxId Bogus;
      for (uint8_t &B : Bogus.Hash)
        B = static_cast<uint8_t>(Rand.nextBelow(256));
      Ins.push_back(OutPoint{Bogus, static_cast<uint32_t>(Rand.nextBelow(3))});
      if (Rand.nextBool(0.5))
        Ins.push_back(randomConfirmed());
      break;
    }
    case DuplicateInput: {
      OutPoint P = randomConfirmed();
      Ins = {P, P};
      break;
    }
    case CoinbaseSpend: {
      // Straddle the maturity boundary: the tip's and its recent
      // ancestors' coinbases.
      int Back = static_cast<int>(Rand.nextBelow(5));
      int H = std::max(1, Chain.height() - Back);
      const Block *B = Chain.blockByHash(*Chain.blockHashAt(H));
      Ins.push_back(OutPoint{B->Txs[0].txid(), 0});
      break;
    }
    default:
      break;
    }
    return Ins;
  }

  Transaction randomTx() {
    Kind K = static_cast<Kind>(Rand.nextBelow(NumKinds));
    Transaction Tx;
    Amount Total = 0;
    for (const OutPoint &P : randomInputs(K)) {
      Tx.Inputs.push_back(TxIn{P, {}});
      if (const TxOut *Out = outputOf(P))
        Total += Out->Value;
    }

    // Usually a fee at or above the relay minimum; sometimes below it,
    // sometimes more than the inputs hold.
    Amount Fee = 1000 + static_cast<Amount>(Rand.nextBelow(5000));
    uint64_t FeeCase = Rand.nextBelow(10);
    if (FeeCase == 0)
      Fee = static_cast<Amount>(Rand.nextBelow(1000));
    else if (FeeCase == 1)
      Fee = Total + 1;
    Amount Spend = std::max<Amount>(Total - Fee, 1000);
    size_t Outs = 1 + Rand.nextBelow(3);
    for (size_t I = 0; I < Outs; ++I) {
      Amount V = I + 1 == Outs ? Spend : Spend / static_cast<Amount>(Outs);
      Spend -= I + 1 == Outs ? 0 : V;
      Tx.Outputs.push_back(TxOut{V, Script().op(OP_1)});
    }
    if (Rand.nextBool(0.3)) {
      Bytes Data(8);
      for (uint8_t &B : Data)
        B = static_cast<uint8_t>(Rand.nextBelow(256));
      Tx.Outputs.insert(Tx.Outputs.begin() + Rand.nextBelow(Outs + 1),
                        TxOut{0, makeNullData(Data)});
    }

    // Coinbase outputs pay the miner's P2PKH; sign those inputs.
    Script MinerLock = makeP2PKH(Miner.id());
    for (size_t I = 0; I < Tx.Inputs.size(); ++I) {
      const TxOut *Out = outputOf(Tx.Inputs[I].Prevout);
      if (Out && Out->ScriptPubKey == MinerLock) {
        auto Sig = signInput(Tx, I, MinerLock, {Miner});
        EXPECT_TRUE(Sig.hasValue());
        if (Sig)
          Tx.Inputs[I].ScriptSig = *Sig;
      }
    }
    return Tx;
  }

  void record(const Transaction &Tx, const Status &S, size_t PoolBefore) {
    if (S) {
      if (Pool.size() == PoolBefore)
        return; // Already known.
      for (const TxIn &In : Tx.Inputs) {
        if (Pool.contains(In.Prevout.Tx))
          ++Cov.ChainedAccepts;
        const Coin *C = Chain.utxo().find(In.Prevout);
        if (C && C->IsCoinbase)
          ++Cov.MatureCoinbase;
      }
      return;
    }
    const std::string &Msg = S.error().message();
    auto Has = [&](const char *Needle) {
      return Msg.find(Needle) != std::string::npos;
    };
    if (Has("already spent by pool"))
      ++Cov.PoolConflicts;
    else if (Has("premature spend"))
      ++Cov.Premature;
    else if (Has("missing or spent"))
      ++Cov.Missing;
    else if (Has("below relay minimum"))
      ++Cov.LowFee;
    for (const TxIn &In : Tx.Inputs)
      if (const TxOut *Out = outputOf(In.Prevout); Out && isNullData(*Out))
        ++Cov.NullDataSpends;
  }

  Rng Rand;
  crypto::PrivateKey Miner;
  Blockchain Chain;
  Mempool Pool;
  ReferencePool Ref;
  uint32_t Clock = 0;
  Block LastBlock;
};

class MempoolViewSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MempoolViewSweep, NarrowViewMatchesFullCopy) {
  Sweep S(GetParam());
  // Coinbases to spend, the newest still immature (maturity 3).
  for (int I = 0; I < 6; ++I)
    S.mineOne();
  for (int Step = 1; Step <= 240 && !::testing::Test::HasFatalFailure();
       ++Step) {
    S.step();
    if (Step % 60 == 0) {
      S.reorg();
    } else if (Step % 12 == 0) {
      // Evict what the last block orphaned, then confirm the rest.
      S.revalidate();
      S.mineOne();
    }
  }
  const Coverage &C = S.Cov;
  EXPECT_GT(C.ChainedAccepts, 0u);
  EXPECT_GT(C.PoolConflicts, 0u);
  EXPECT_GT(C.Premature, 0u);
  EXPECT_GT(C.MatureCoinbase, 0u);
  EXPECT_GT(C.Missing, 0u);
  EXPECT_GT(C.NullDataSpends, 0u);
  EXPECT_GT(C.LowFee, 0u);
  EXPECT_GT(C.Evictions, 0u);
  EXPECT_EQ(C.Reorgs, 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MempoolViewSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

} // namespace
