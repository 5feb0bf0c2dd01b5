//===- t13bench/workloads.cpp - transfer4, deep_ledger, catchup -----------===//
//
// Every workload runs the real node stack in one process: net::NetNode
// over an in-process LoopbackHub, each with its tc::Node and a
// MemVfs-backed store. One client thread drives a closed loop and pumps
// the loopback links itself; with default knobs no worker thread runs.
//
// The live workloads (transfer4, deep_ledger) measure whole episodes,
// each on a freshly set-up world; catchup measures restore-and-sync
// rounds on one world. setup_s is the median of the set-ups a run makes.
// A traced run (--trace 1) measures twice for half the time each:
// untraced first (the reference headline rate), then with obs timing on
// and the counting Vfs/Transport seams injected.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "seams.h"
#include "stats.h"

#include "bitcoin/sigcache.h"
#include "bitcoin/standard.h"
#include "logic/intern.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "support/rng.h"
#include "typecoin/builder.h"
#include "typecoin/newcoin.h"

#include <algorithm>
#include <functional>
#include <sys/resource.h>

namespace t13 {

using namespace typecoin;

namespace {

// --- Shared sizing ---------------------------------------------------------

/// Fee every timed pair pays out of its own resources (the mempool's
/// minimum relay fee), so no extra funding input is ever selected.
constexpr bitcoin::Amount PairFee = 1000;
/// Set-ups per catchup run (the live workloads set up once per episode).
constexpr int SetupRounds = 9;
/// Hard stop for a timed phase that cannot reach its sample minimums.
constexpr double PhaseCapSeconds = 100;

double secondsSince(uint64_t T0) { return (nowNs() - T0) / 1e9; }

double peakRssMiB() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Caches shared by every node in the process start cold for each
/// setup and each timed phase, so a pass never hits on signatures the
/// previous (identically seeded) pass verified.
void coldCaches() {
  bitcoin::SignatureCache::instance().clear();
  logic::internClearAll();
}

// --- The cluster -------------------------------------------------------------

/// Nodes on one LoopbackHub with a shared, never-advanced virtual clock
/// (no liveness timer or resubmission ever fires), each with a store.
class Mesh {
public:
  Mesh(bool Seams, uint64_t Seed)
      : Seams(Seams), Seed(Seed),
        Clk(std::make_shared<net::VirtualClock>()) {}

  struct Member {
    std::string Addr;
    std::unique_ptr<store::MemVfs> Disk;
    std::unique_ptr<CountingVfs> Seam;
    std::unique_ptr<net::NetNode> Net;
    /// Not on the wire: \ref settle feeds it node 0's blocks directly.
    bool Offline = false;
    store::Vfs &vfs() {
      return Seam ? static_cast<store::Vfs &>(*Seam) : *Disk;
    }
  };

  /// Add a node listening at \p Addr over \p Disk (a fresh MemVfs when
  /// null). The store is attached by \ref openStore.
  Member &add(const std::string &Addr,
              std::unique_ptr<store::MemVfs> Disk = nullptr) {
    auto M = std::make_unique<Member>();
    M->Addr = Addr;
    M->Disk = Disk ? std::move(Disk) : std::make_unique<store::MemVfs>();
    std::unique_ptr<net::Transport> T = Hub.open(Addr);
    if (Seams) {
      M->Seam = std::make_unique<CountingVfs>(*M->Disk);
      T = std::make_unique<CountingTransport>(std::move(T));
    }
    net::NetConfig Cfg;
    Cfg.CompactRelay = net::compactRelayFromEnv();
    Cfg.Seed = Seed ^ (0x9e3779b97f4a7c15ULL * (Members.size() + 1));
    M->Net = std::make_unique<net::NetNode>(tc::Node::defaultParams(), Cfg,
                                            std::move(T), Clk);
    Members.push_back(std::move(M));
    return *Members.back();
  }

  Status openStore(Member &M) {
    TC_TRY(M.Net->typecoin().openStore(M.vfs(), M.Addr));
    return Status::success();
  }

  void remove(size_t I) { Members.erase(Members.begin() + I); }

  /// Pump every node in index order until a whole round moves nothing,
  /// then hand offline nodes the blocks node 0 has and they lack.
  Status settle() {
    for (;;) {
      size_t N = 0;
      for (auto &M : Members)
        N += M->Net->pump();
      if (N == 0)
        break;
    }
    const bitcoin::Blockchain &Src = tcn(0).chain();
    for (auto &M : Members)
      if (M->Offline)
        for (int H = M->Net->chain().height() + 1; H <= Src.height(); ++H)
          TC_TRY(M->Net->typecoin().submitBlock(
              *Src.blockByHash(*Src.blockHashAt(H))));
    return Status::success();
  }

  size_t size() const { return Members.size(); }
  Member &member(size_t I) { return *Members[I]; }
  net::NetNode &node(size_t I) { return *Members[I]->Net; }
  tc::Node &tcn(size_t I) { return Members[I]->Net->typecoin(); }

  /// Mine at node \p I at the next block time (10 minutes after the
  /// previous one) paying nobody the client can spend.
  Result<bitcoin::Block> mine(size_t I) { return mineTo(I, crypto::KeyId{}); }
  Result<bitcoin::Block> mineTo(size_t I, const crypto::KeyId &Payout) {
    Time = std::max<uint32_t>(Time, tcn(I).chain().tipTime()) + 600;
    return node(I).mine(Payout, Time);
  }

  /// Do all nodes share one tip and one Typecoin state fingerprint?
  std::string divergence() {
    for (size_t I = 1; I < size(); ++I) {
      if (!(tcn(I).chain().tipHash() == tcn(0).chain().tipHash()))
        return Members[I]->Addr + " is on another tip than " +
               Members[0]->Addr;
      if (tcn(I).state().fingerprint() != tcn(0).state().fingerprint())
        return Members[I]->Addr + " has another State::fingerprint than " +
               Members[0]->Addr;
    }
    return "";
  }

private:
  bool Seams;
  uint64_t Seed;
  net::LoopbackHub Hub;
  std::shared_ptr<net::VirtualClock> Clk;
  std::vector<std::unique_ptr<Member>> Members;
  uint32_t Time = 0;
};

// --- The client --------------------------------------------------------------

/// A typed resource the client owns: one registered txout.
struct Res {
  std::string Txid;
  uint32_t Index = 0;
  logic::PropPtr Type;
  bitcoin::Amount Amount = 0;
  uint64_t Value = 0; ///< The N of `coin N` (0 for other types).
};

/// A coinbase the client can spend as a trivial input.
struct Funds {
  bitcoin::OutPoint Point;
  bitcoin::Amount Value = 0;
};

/// The one wallet driving the loop: a funding key for coinbases and a
/// small ring of owner keys the resources rotate through.
struct Client {
  explicit Client(uint64_t Seed)
      : W(Seed * 0x100000001b3ULL + 17), Funding(W.newKey()) {
    for (int I = 0; I < 8; ++I)
      Owners.push_back(W.newKey());
  }
  const crypto::PrivateKey &owner(uint64_t I) const {
    return Owners[I % Owners.size()];
  }

  tc::Wallet W;
  crypto::PrivateKey Funding;
  std::vector<crypto::PrivateKey> Owners;
};

/// Mine \p Blocks coinbases to the client at node 0 plus one maturing
/// block; returns the spendable coinbases.
Result<std::vector<Funds>> fund(Mesh &M, Client &C, int Blocks) {
  std::vector<Funds> Out;
  for (int I = 0; I < Blocks; ++I) {
    TC_UNWRAP(B, M.mineTo(0, C.Funding.id()));
    Out.push_back(Funds{bitcoin::OutPoint{B.Txs[0].txid(), 0},
                        B.Txs[0].Outputs[0].Value});
  }
  TC_TRY(M.mine(0));
  TC_TRY(M.settle());
  return Out;
}

tc::Input trivialInput(const Funds &F) {
  tc::Input In;
  In.SourceTxid = F.Point.Tx.toHex();
  In.SourceIndex = F.Point.Index;
  In.Type = logic::pOne();
  In.Amount = F.Value;
  return In;
}

tc::Input inputOf(const Res &R) {
  tc::Input In;
  In.SourceTxid = R.Txid;
  In.SourceIndex = R.Index;
  In.Type = R.Type;
  In.Amount = R.Amount;
  return In;
}

tc::Output outputOf(logic::PropPtr Type, bitcoin::Amount Amount,
                    const crypto::PrivateKey &Owner) {
  tc::Output O;
  O.Type = std::move(Type);
  O.Amount = Amount;
  O.Owner = Owner.publicKey();
  return O;
}

/// `\x. let (c, ar) = x in let (a, r) = ar in <Body>` — the wrapper
/// every hand-written obligation proof shares (receipts drop).
logic::ProofPtr obligation(const tc::Transaction &T, logic::ProofPtr Body) {
  using namespace logic;
  return mLam("x",
              pTensor(T.Grant, pTensor(T.inputTensor(), T.receiptTensor())),
              mTensorLet("c", "ar", mVar("x"),
                         mTensorLet("a", "r", mVar("ar"), std::move(Body))));
}

/// A transaction declaring \p Basis that grants \p Types (local names)
/// to the client's owners, paid from one coinbase; \p Amount satoshi per
/// output, change back to the wallet.
tc::Transaction grantTx(logic::Basis Basis,
                        const std::vector<logic::PropPtr> &Types,
                        bitcoin::Amount Amount, const Funds &From,
                        const Client &C) {
  tc::Transaction T;
  T.LocalBasis = std::move(Basis);
  T.Inputs.push_back(trivialInput(From));
  for (size_t I = 0; I < Types.size(); ++I)
    T.Outputs.push_back(outputOf(Types[I], Amount, C.owner(I)));
  T.Grant = T.outputTensor();
  T.Proof = obligation(T, logic::mOneLet(logic::mVar("a"), logic::mVar("c")));
  return T;
}

/// Build a setup pair (default fee, change allowed), submit it to every
/// node, and return it.
Result<tc::Pair> submitSetupPair(Mesh &M, Client &C,
                                 const tc::Transaction &T) {
  TC_UNWRAP(P, tc::buildPair(T, C.W, M.tcn(0).chain()));
  for (size_t I = 0; I < M.size(); ++I)
    if (auto S = M.node(I).submitPair(P); !S)
      return S.takeError().withContext("setup submit");
  TC_TRY(M.settle());
  return P;
}

/// Mine one block at node 0, settle, and require \p Txids registered on
/// every node.
Status confirm(Mesh &M, const std::vector<std::string> &Txids) {
  TC_TRY(M.mine(0));
  TC_TRY(M.settle());
  for (size_t I = 0; I < M.size(); ++I)
    for (const std::string &Txid : Txids)
      if (!M.tcn(I).state().find(Txid))
        return makeError("setup pair " + Txid.substr(0, 16) +
                         " not registered");
  return Status::success();
}

/// Issue \p Count newcoin resources under the newcoin basis (Figure 3's
/// vocabulary) in one defining transaction whose grant is the coins.
Result<std::vector<Res>> issueCoins(Mesh &M, Client &C, const Funds &From,
                                    size_t Count, uint64_t CoinValue,
                                    bitcoin::Amount Amount,
                                    newcoin::Vocab &Resolved) {
  logic::Basis Basis;
  newcoin::Vocab V = newcoin::makeBasis(Basis, C.Funding.id());
  std::vector<logic::PropPtr> Types(Count, newcoin::coin(V, CoinValue));
  tc::Transaction T = grantTx(std::move(Basis), Types, Amount, From, C);
  TC_UNWRAP(P, submitSetupPair(M, C, T));
  std::string Txid = tc::txidHex(P.Btc);
  TC_TRY(confirm(M, {Txid}));
  Resolved = V.resolved(Txid);
  std::vector<Res> Out;
  for (size_t I = 0; I < Count; ++I)
    Out.push_back(Res{Txid, static_cast<uint32_t>(I),
                      newcoin::coin(Resolved, CoinValue), Amount, CoinValue});
  return Out;
}

// --- Pair generation ---------------------------------------------------------

/// A planned pair: the Typecoin transaction plus the coin value of each
/// output (so the pool can track `coin N` without re-reading types).
struct Plan {
  tc::Transaction T;
  std::vector<uint64_t> Values;
};

Res takeRandom(std::vector<Res> &Pool, Rng &R) {
  size_t I = R.nextBelow(Pool.size());
  Res Out = std::move(Pool[I]);
  Pool[I] = std::move(Pool.back());
  Pool.pop_back();
  return Out;
}

/// The transfer4 / catchup mix over `coin N` resources: every eight
/// pairs hold four transfers, two splits and two merges in a seeded
/// order (a fixed mix, so seeds vary the inputs but not the work),
/// steered back towards \p Target available coins so the ledger keeps
/// its setup size.
class CoinMix {
public:
  CoinMix(const newcoin::Vocab &V, const Client &C, size_t Target)
      : V(V), C(C), Target(Target) {}

  Plan next(std::vector<Res> &Pool, Rng &R) {
    if (Deck.empty()) {
      Deck = {Transfer, Transfer, Transfer, Transfer, Split, Split, Merge,
              Merge};
      for (size_t I = Deck.size() - 1; I > 0; --I)
        std::swap(Deck[I], Deck[R.nextBelow(I + 1)]);
    }
    Kind Op = Deck.back();
    Deck.pop_back();
    if (Op == Split && Pool.size() > Target + Target / 4)
      Op = Merge;
    if (Op == Merge && (Pool.size() < 2 || Pool.size() < Target - Target / 4))
      Op = Split;
    Res A = takeRandom(Pool, R);
    if (Op == Split && (A.Value < 2 || A.Amount < 4 * MinAmount))
      Op = Pool.empty() ? Transfer : Merge;
    if (Op == Transfer && A.Amount < MinAmount && !Pool.empty())
      Op = Merge;
    const crypto::PrivateKey &To = C.owner(R.next());

    Plan P;
    tc::Transaction &T = P.T;
    T.Inputs.push_back(inputOf(A));
    using namespace logic;
    switch (Op) {
    case Transfer: {
      T.Outputs.push_back(outputOf(A.Type, A.Amount - PairFee, To));
      P.Values = {A.Value};
      T.Proof = *tc::makeRoutingProof(T);
      break;
    }
    case Split: {
      uint64_t L = 1 + R.nextBelow(A.Value - 1);
      bitcoin::Amount Half = (A.Amount - PairFee) / 2;
      T.Outputs.push_back(outputOf(newcoin::coin(V, L), Half, To));
      T.Outputs.push_back(outputOf(newcoin::coin(V, A.Value - L),
                                   A.Amount - PairFee - Half, To));
      P.Values = {L, A.Value - L};
      T.Proof = obligation(
          T, mOneLet(mVar("c"), newcoin::splitProof(V, L, A.Value - L,
                                                   mVar("a"))));
      break;
    }
    case Merge: {
      Res B = takeRandom(Pool, R);
      T.Inputs.push_back(inputOf(B));
      T.Outputs.push_back(outputOf(newcoin::coin(V, A.Value + B.Value),
                                   A.Amount + B.Amount - PairFee, To));
      P.Values = {A.Value + B.Value};
      T.Proof = obligation(
          T, mTensorLet("a1", "a2", mVar("a"),
                        mOneLet(mVar("c"),
                                newcoin::mergeProof(V, A.Value, B.Value,
                                                    mVar("a1"),
                                                    mVar("a2")))));
      break;
    }
    }
    return P;
  }

private:
  enum Kind { Transfer, Split, Merge };
  static constexpr bitcoin::Amount MinAmount = 100000;
  std::vector<Kind> Deck;
  newcoin::Vocab V;
  const Client &C;
  size_t Target;
};

/// Outputs of a built pair as pool resources.
std::vector<Res> outputsOf(const tc::Pair &P, const Plan &Pl) {
  std::vector<Res> Out;
  std::string Txid = tc::txidHex(P.Btc);
  for (size_t I = 0; I < P.Tc.Outputs.size(); ++I)
    Out.push_back(Res{Txid, static_cast<uint32_t>(I), P.Tc.Outputs[I].Type,
                      P.Tc.Outputs[I].Amount,
                      I < Pl.Values.size() ? Pl.Values[I] : 0});
  return Out;
}

Result<tc::Pair> buildTimed(const tc::Transaction &T, Client &C,
                            const bitcoin::Blockchain &Chain) {
  tc::BuildOptions Opt;
  Opt.Fee = PairFee;
  return tc::buildPair(T, C.W, Chain, Opt);
}

// --- Ledger sizes ------------------------------------------------------------

std::string sizesJson(tc::Node &N) {
  const logic::Basis &B = N.state().globalBasis();
  return "{\"basis_families\": " + std::to_string(B.lfSig().size()) +
         ", \"basis_props\": " + std::to_string(B.propCount()) +
         ", \"utxo\": " + std::to_string(N.chain().utxo().size()) +
         ", \"journal\": " + std::to_string(N.journal().size()) +
         ", \"registered\": " + std::to_string(N.state().size()) +
         ", \"height\": " + std::to_string(N.chain().height()) + "}";
}

std::string jsonList(const std::vector<double> &V) {
  std::string Out = "[";
  for (double X : V)
    Out += (Out.size() > 1 ? ", " : "") + std::to_string(X);
  return Out + "]";
}

// --- Per-layer assembly ------------------------------------------------------

/// Registry and seam activity summed over timed intervals only, so the
/// set-up between episodes and rounds never leaks into a layer metric.
class Tally {
public:
  void begin() {
    Obs0 = obs::Registry::instance().snapshot();
    Seam0 = seams();
  }
  void end() {
    obs::Snapshot Now = obs::Registry::instance().snapshot();
    for (const auto &[K, V] : Now.Counters)
      Obs.Counters[K] += V - Obs0.counter(K);
    for (const auto &[K, H] : Now.Histograms) {
      const obs::HistogramData *Was = Obs0.histogram(K);
      obs::HistogramData &A = Obs.Histograms[K];
      A.Count += H.Count - (Was ? Was->Count : 0);
      A.Sum += H.Sum - (Was ? Was->Sum : 0);
    }
    Seams.addDelta(seams(), Seam0);
  }

  obs::Snapshot Obs;
  SeamCounters Seams;

private:
  obs::Snapshot Obs0;
  SeamCounters Seam0;
};

/// What one timed phase observed; live episodes and catchup rounds fill
/// the same fields (see README for each workload's meaning).
struct Samples {
  std::vector<double> SubmitUs, RegisteredMs, CatchupMs, SetupS;
  /// Pairs/s and blocks/s per episode or round: the rates are their
  /// medians, so a burst of host load in one unit does not move them.
  std::vector<double> PairRates, BlockRates;
  uint64_t Attempted = 0, Failed = 0, Pairs = 0, Blocks = 0;
  uint64_t Units = 0; ///< Episodes or rounds.
  double WallNs = 0, BlockNs = 0;
  std::string Error;
  std::string SizesStart, SizesEnd;
};

/// The per-layer metrics of a traced phase. \p TopSpans partition the
/// timed loop (trace.coverage_frac); \p RefRate is the untraced pass's
/// headline rate and \p Rate the traced one's (trace.overhead_frac).
void addPerLayer(Report &Rep, const Samples &L, const SpanTable &Sp,
                 const Tally &Ta, std::initializer_list<const char *> TopSpans,
                 double RefRate, double Rate) {
  const obs::Snapshot &S = Ta.Obs;
  double Covered = 0;
  for (const char *Top : TopSpans)
    Covered += static_cast<double>(Sp.get(Top).Ns);
  auto HistMeanUs = [&](const char *Name) {
    const obs::HistogramData *H = S.histogram(Name);
    return H ? meanUs(H->Sum, H->Count) : 0.0;
  };
  auto HistCount = [&](const char *Name) -> size_t {
    const obs::HistogramData *H = S.histogram(Name);
    return H ? H->Count : 0;
  };
  auto HistSum = [&](const char *Name) -> double {
    const obs::HistogramData *H = S.histogram(Name);
    return H ? static_cast<double>(H->Sum) : 0.0;
  };
  auto SpanMeanUs = [&](const char *Name) {
    SpanAgg A = Sp.get(Name);
    return meanUs(A.Ns, A.Count);
  };
  auto C = [&](const char *Name) {
    return static_cast<double>(S.counter(Name));
  };
  auto Add = [&](const char *Name, const char *Unit, double V, size_t N) {
    Rep.PerLayer.push_back(Metric{Name, Unit, V, N});
  };
  size_t Pairs = L.Pairs;
  double PairsD = static_cast<double>(L.Pairs);
  double RuleNs = 0;
  for (const char *R : {"checker.rule.basis_ns", "checker.rule.grant_ns",
                        "checker.rule.inputs_ns", "checker.rule.outputs_ns",
                        "checker.rule.proof_ns", "checker.rule.condition_ns"})
    RuleNs += HistSum(R);
  const SeamCounters &Se = Ta.Seams;

  Add("typecoin.build_us", "us", SpanMeanUs("typecoin.build"),
      Sp.get("typecoin.build").Count);
  Add("typecoin.correspondence_us", "us", HistMeanUs("node.submit.embed_ns"),
      HistCount("node.submit.embed_ns"));
  Add("analysis.lint_us", "us", HistMeanUs("node.submit.lint_ns"),
      HistCount("node.submit.lint_ns"));
  Add("logic.check_us", "us", HistMeanUs("checker.check_ns"),
      HistCount("checker.check_ns"));
  Add("logic.check_rules_frac", "ratio",
      ratio(RuleNs, HistSum("checker.check_ns")),
      HistCount("checker.check_ns"));
  Add("logic.checks_per_pair", "count", ratio(C("checker.checks"), PairsD),
      Pairs);
  Add("lf.tx_hash_us", "us", SpanMeanUs("lf.tx_hash"),
      Sp.get("lf.tx_hash").Count);
  Add("lf.intern_hit_ratio", "ratio",
      ratio(C("intern.hit"), C("intern.hit") + C("intern.miss")),
      static_cast<size_t>(C("intern.hit") + C("intern.miss")));
  Add("bitcoin.mempool_accept_us", "us", HistMeanUs("mempool.accept_ns"),
      HistCount("mempool.accept_ns"));
  Add("bitcoin.connect_us", "us", HistMeanUs("chain.submit_ns"),
      HistCount("chain.submit_ns"));
  Add("bitcoin.script_checks_per_block", "count",
      ratio(C("chain.script_checks.total"), C("chain.connect.count")),
      static_cast<size_t>(C("chain.connect.count")));
  Add("bitcoin.sigcache_hit_ratio", "ratio",
      ratio(C("sigcache.hit"), C("sigcache.hit") + C("sigcache.miss")),
      static_cast<size_t>(C("sigcache.hit") + C("sigcache.miss")));
  Add("crypto.ecdsa_verifies_per_pair", "count",
      ratio(C("sigcache.miss"), PairsD), Pairs);
  Add("net.gossip_us_per_pair", "us",
      ratio(Sp.get("net.gossip").Ns, PairsD) / 1000.0, Pairs);
  Add("net.relay_us_per_block", "us",
      ratio(Sp.get("net.relay").Ns, Sp.get("net.relay").Count) / 1000.0,
      Sp.get("net.relay").Count);
  Add("net.bytes_per_pair", "bytes", ratio(C("net.bytes.out"), PairsD),
      Pairs);
  Add("net.msgs_per_pair", "count", ratio(C("net.msg.out"), PairsD), Pairs);
  double Compact =
      C("net.compact.hit") + C("net.compact.miss") + C("net.compact.fallback");
  Add("net.compact_hit_ratio", "ratio", ratio(C("net.compact.hit"), Compact),
      static_cast<size_t>(Compact));
  Add("net.sync_ms", "ms",
      ratio(Sp.get("net.sync").Ns, Sp.get("net.sync").Count) / 1e6,
      Sp.get("net.sync").Count);
  Add("net.send_us_per_pair", "us", ratio(Se.SendNs, PairsD) / 1000.0,
      Pairs);
  Add("store.wal_us_per_pair", "us",
      ratio(Se.AppendNs + Se.SyncNs, PairsD) / 1000.0, Pairs);
  Add("store.syncs_per_pair", "count", ratio(Se.Syncs, PairsD), Pairs);
  Add("store.bytes_per_pair", "bytes", ratio(Se.AppendBytes, PairsD), Pairs);
  Add("store.flush_us", "us", HistMeanUs("store.flush_ns"),
      HistCount("store.flush_ns"));
  Add("store.recover_ms", "ms",
      ratio(Sp.get("store.recover").Ns, Sp.get("store.recover").Count) / 1e6,
      Sp.get("store.recover").Count);
  Add("trace.overhead_frac", "ratio",
      RefRate > 0 ? 1.0 - Rate / RefRate : 0.0, 2);
  Add("trace.coverage_frac", "ratio", ratio(Covered, L.WallNs), 1);
}

/// p50s pool every sample of the run; p99s are windowed (see
/// windowedPercentile), so one slow stretch of the host does not set
/// them.
void addPct(Report &Rep, const char *Name, const char *Unit,
            const std::vector<double> &V, double Q, bool Relaxed) {
  Pct P = Q > 0.5 ? windowedPercentile(V, Q) : percentile(V, Q);
  if (!P.reportable() && !Relaxed)
    Rep.fail(std::string(Name) + ": only " + std::to_string(P.Beyond) +
             " samples beyond the percentile (of " +
             std::to_string(P.Samples) + "); need " +
             std::to_string(MinBeyond));
  Rep.EndToEnd.push_back(Metric{Name, Unit, P.Value, P.Samples});
}

// --- Live loop: transfer4 and deep_ledger ------------------------------------

/// A live world: the mesh, the client, and the pool of available
/// resources (confirmed, registered everywhere, not yet spent).
struct LiveWorld {
  std::unique_ptr<Mesh> M;
  std::unique_ptr<Client> C;
  std::vector<Res> Pool;
  std::function<Plan(std::vector<Res> &, Rng &)> Next;
};

struct LiveShape {
  size_t PairsPerBlock = 8;
  /// Blocks per episode: the world is set up afresh after this many, so
  /// ledger, journal and store sizes stay bounded by the episode length,
  /// never by how fast the code under test runs.
  size_t EpisodeBlocks = 64;
  std::function<Result<LiveWorld>(bool Seams, uint64_t Seed)> Setup;
};

/// The end-to-end metrics of \p L, in BENCHMARK.json order, plus
/// failed_frac.
void addEndToEnd(Report &Rep, const Samples &L, bool Relaxed) {
  Rep.Attempted = L.Attempted;
  Rep.Failed = L.Failed;
  if (!L.Error.empty())
    Rep.fail(L.Error);
  Rep.EndToEnd.push_back(
      Metric{"pairs_per_s", "pairs/s", median(L.PairRates), L.Pairs});
  addPct(Rep, "submit_us_p50", "us", L.SubmitUs, 0.50, Relaxed);
  addPct(Rep, "submit_us_p99", "us", L.SubmitUs, 0.99, Relaxed);
  addPct(Rep, "registered_ms_p50", "ms", L.RegisteredMs, 0.50, Relaxed);
  addPct(Rep, "registered_ms_p99", "ms", L.RegisteredMs, 0.99, Relaxed);
  Rep.EndToEnd.push_back(Metric{"catchup_blocks_per_s", "blocks/s",
                                median(L.BlockRates), L.Blocks});
  addPct(Rep, "catchup_ms_p50", "ms", L.CatchupMs, 0.50, Relaxed);
  Rep.EndToEnd.push_back(
      Metric{"setup_s", "s", median(L.SetupS), L.SetupS.size()});
  Rep.EndToEnd.push_back(Metric{"peak_rss_mb", "MiB", peakRssMiB(), 1});
  Rep.EndToEnd.push_back(Metric{
      "failed_frac", "ratio",
      ratio(static_cast<double>(L.Failed), static_cast<double>(L.Attempted)),
      L.Attempted});
}

/// Run one whole episode on a fresh world: S.EpisodeBlocks blocks of
/// S.PairsPerBlock pairs. Appends samples to \p Out.
void runEpisode(LiveWorld &W, const LiveShape &S, Rng &R, bool Traced,
                SpanTable &Sp, Samples &Out) {
  Mesh &M = *W.M;
  size_t NextMiner = 0;
  struct InFlight {
    tc::Pair P;
    Plan Pl;
    std::string Txid;
    uint64_t FirstSubmitNs;
  };
  for (size_t Blk = 0; Blk < S.EpisodeBlocks && Out.Error.empty(); ++Blk) {
    std::vector<InFlight> Batch;
    for (size_t B = 0; B < S.PairsPerBlock && Out.Error.empty(); ++B) {
      Plan Pl = W.Next(W.Pool, R);
      ++Out.Attempted;
      uint64_t Build0 = nowNs();
      Result<tc::Pair> P = buildTimed(Pl.T, *W.C, M.tcn(0).chain());
      Sp.add("typecoin.build", nowNs() - Build0);
      if (!P) {
        ++Out.Failed;
        Out.Error = "buildPair: " + P.error().message();
        break;
      }
      if (Traced) {
        Span T(Sp, "lf.tx_hash");
        (void)P->Tc.hash();
      }
      uint64_t First = nowNs();
      for (size_t I = 0; I < M.size(); ++I) {
        uint64_t S0 = nowNs();
        Status St = M.node(I).submitPair(*P);
        uint64_t Ns = nowNs() - S0;
        Sp.add("node.submit", Ns);
        Out.SubmitUs.push_back(Ns / 1000.0);
        if (!St)
          Out.Error = "submitPair on node " + std::to_string(I) + ": " +
                      St.error().message();
      }
      {
        Span T(Sp, "net.gossip");
        if (Status St = M.settle(); !St)
          Out.Error = "settle: " + St.error().message();
      }
      if (!Out.Error.empty()) {
        ++Out.Failed;
        break;
      }
      Batch.push_back(InFlight{std::move(*P), std::move(Pl), "", First});
      Batch.back().Txid = tc::txidHex(Batch.back().P.Btc);
    }
    if (!Out.Error.empty())
      return;

    uint64_t B0 = nowNs();
    {
      Span T(Sp, "bitcoin.mine");
      if (auto Mined = M.mine(NextMiner); !Mined) {
        Out.Error = "mine: " + Mined.error().message();
        return;
      }
    }
    NextMiner = (NextMiner + 1) % M.size();
    {
      Span T(Sp, "net.relay");
      if (Status St = M.settle(); !St) {
        Out.Error = "settle: " + St.error().message();
        return;
      }
    }
    uint64_t Done = nowNs();
    Out.CatchupMs.push_back((Done - B0) / 1e6);
    Out.BlockNs += Done - B0;
    ++Out.Blocks;

    for (InFlight &F : Batch) {
      for (size_t I = 0; I < M.size(); ++I)
        if (!M.tcn(I).state().find(F.Txid)) {
          ++Out.Failed;
          Out.Error = "pair " + F.Txid.substr(0, 16) +
                      " not registered on node " + std::to_string(I);
          return;
        }
      Out.RegisteredMs.push_back((Done - F.FirstSubmitNs) / 1e6);
      ++Out.Pairs;
      for (Res &Rs : outputsOf(F.P, F.Pl))
        W.Pool.push_back(std::move(Rs));
    }
  }
}

/// One closed-loop timed phase: whole episodes on fresh worlds until
/// \p Seconds of timed work (longer only while the sample minimums are
/// unmet). Every episode covers the same ledger sizes, so the mixture
/// of samples does not depend on where the clock runs out. Setup
/// between episodes is untimed here and feeds setup_s.
Samples runLivePhase(const LiveShape &S, uint64_t Seed, double Seconds,
                         bool Relaxed, bool Traced, SpanTable &Sp, Tally &Ta) {
  Samples Out;
  Rng R(Seed ^ 0x5eedULL);
  size_t MinPairs = Relaxed ? 0 : minSamplesFor(0.99);
  size_t MinBlocks = Relaxed ? 0 : minSamplesFor(0.50);
  uint64_t Start = nowNs();
  while (Out.Error.empty()) {
    coldCaches();
    uint64_t T0 = nowNs();
    Result<LiveWorld> W = S.Setup(Traced, Seed);
    Out.SetupS.push_back(secondsSince(T0));
    if (!W) {
      Out.Error = "setup: " + W.error().message();
      break;
    }
    // Only the timed phase counts in the obs registry and the seams.
    coldCaches();
    std::string Sizes = sizesJson(W->M->tcn(0));
    if (Out.SizesStart.empty())
      Out.SizesStart = Sizes;
    obs::Registry::instance().enableTiming(Traced);
    Ta.begin();
    uint64_t E0 = nowNs();
    uint64_t Pairs0 = Out.Pairs, Blocks0 = Out.Blocks;
    double BlockNs0 = Out.BlockNs;
    runEpisode(*W, S, R, Traced, Sp, Out);
    double EpisodeNs = static_cast<double>(nowNs() - E0);
    Out.WallNs += EpisodeNs;
    Out.PairRates.push_back(ratio(Out.Pairs - Pairs0, EpisodeNs / 1e9));
    Out.BlockRates.push_back(
        ratio(Out.Blocks - Blocks0, (Out.BlockNs - BlockNs0) / 1e9));
    Ta.end();
    obs::Registry::instance().enableTiming(false);
    ++Out.Units;
    if (Out.Error.empty())
      if (std::string D = W->M->divergence(); !D.empty())
        Out.Error = "after episode " + std::to_string(Out.Units) + ": " + D;
    if (Out.Units == 1)
      Out.SizesEnd = sizesJson(W->M->tcn(0));

    bool Enough = Out.Pairs >= MinPairs && Out.Blocks >= MinBlocks;
    if ((Out.WallNs / 1e9 >= Seconds && Enough) ||
        secondsSince(Start) >= PhaseCapSeconds)
      break;
  }
  return Out;
}

/// Sample minimums apply to the untraced full-size pass only: a traced
/// pass reports per-layer means, a smoke pass only checks outputs.
bool relaxed(const Options &O) { return O.Smoke || O.Trace; }

Report runLiveWorkload(const Options &O, const LiveShape &S) {
  Report Rep;
  bool Relaxed = relaxed(O);
  SpanTable Sp;
  double Seconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  // A traced run first measures an untraced reference pass (its
  // headline rate is the denominator of trace.overhead_frac), then the
  // traced pass with obs timing on and the seams injected.
  double RefRate = 0;
  std::vector<double> RefSetupS;
  Tally Ta;
  // One untimed warm-up episode. A fresh process's first episode runs
  // on cold caches and a freshly faulted heap; measured, its slow tail
  // would set the p99s.
  if (!O.Smoke) {
    SpanTable WarmSp;
    Tally WarmTa;
    Samples Warm = runLivePhase(S, O.Seed, 0, true, false, WarmSp, WarmTa);
    if (!Warm.Error.empty()) {
      Rep.fail("warm-up: " + Warm.Error);
      return Rep;
    }
  }
  if (O.Trace) {
    Samples Ref = runLivePhase(S, O.Seed, Seconds, Relaxed, false, Sp, Ta);
    if (!Ref.Error.empty()) {
      Rep.fail(Ref.Error);
      return Rep;
    }
    RefRate = median(Ref.PairRates);
    RefSetupS = Ref.SetupS;
    Sp.clear();
    Ta = Tally();
  }
  Samples L = runLivePhase(S, O.Seed, Seconds, Relaxed, O.Trace, Sp, Ta);
  L.SetupS.insert(L.SetupS.end(), RefSetupS.begin(), RefSetupS.end());

  Rep.Context.push_back({"sizes_episode_start", L.SizesStart});
  Rep.Context.push_back({"sizes_episode_end", L.SizesEnd});
  Rep.Context.push_back({"episodes", std::to_string(L.Units)});
  Rep.Context.push_back({"episode_pairs_per_s", jsonList(L.PairRates)});
  Rep.Context.push_back({"episode_blocks", std::to_string(S.EpisodeBlocks)});
  Rep.Context.push_back({"pairs_per_block", std::to_string(S.PairsPerBlock)});
  Rep.Context.push_back({"timed_s", std::to_string(L.WallNs / 1e9)});
  addEndToEnd(Rep, L, Relaxed);
  if (O.Trace)
    addPerLayer(Rep, L, Sp, Ta,
                {"typecoin.build", "lf.tx_hash", "node.submit", "net.gossip",
                 "bitcoin.mine", "net.relay"},
                RefRate, median(L.PairRates));
  return Rep;
}

// --- transfer4 ---------------------------------------------------------------

Result<LiveWorld> setupTransfer4(bool Seams, uint64_t Seed, bool Smoke) {
  const size_t Nodes = 4, Coins = Smoke ? 24 : 48;
  LiveWorld W;
  W.M = std::make_unique<Mesh>(Seams, Seed);
  W.C = std::make_unique<Client>(Seed);
  Mesh &M = *W.M;
  for (size_t I = 0; I < Nodes; ++I)
    M.add("node" + std::to_string(I));
  for (size_t I = 0; I < Nodes; ++I)
    TC_TRY(M.openStore(M.member(I)));
  for (size_t I = 0; I < Nodes; ++I)
    for (size_t J = I + 1; J < Nodes; ++J)
      TC_TRY(M.node(I).connectTo(M.member(J).Addr));
  TC_TRY(M.settle());

  TC_UNWRAP(Cb, fund(M, *W.C, 1));
  newcoin::Vocab V;
  TC_ASSIGN(W.Pool, issueCoins(M, *W.C, Cb[0], Coins, 1000,
                               bitcoin::SatoshisPerCoin / 4, V));
  W.Next = [Mix = CoinMix(V, *W.C, Coins)](std::vector<Res> &Pool,
                                           Rng &R) mutable {
    return Mix.next(Pool, R);
  };
  return W;
}

// --- deep_ledger -------------------------------------------------------------

struct DeepSizes {
  int FamilyTxs, FamiliesPerTx; ///< Declared families in the global basis.
  int FanTxs, FanOut;           ///< Extra UTXO entries.
  int Depth;                    ///< Tensor-tower depth of the resources.
  size_t Resources;
};

DeepSizes deepSizes(bool Smoke) {
  if (Smoke)
    return DeepSizes{4, 25, 2, 50, 4, 16};
  return DeepSizes{20, 50, 10, 200, 7, 24};
}

/// `leaf (x) leaf` squared Depth times: 2^Depth leaves structurally,
/// Depth+1 distinct nodes (the deepSharedProp shape over a declared
/// atom).
logic::PropPtr tower(logic::PropPtr Leaf, int Depth) {
  for (int I = 0; I < Depth; ++I)
    Leaf = logic::pTensor(Leaf, Leaf);
  return Leaf;
}

Result<LiveWorld> setupDeepLedger(bool Seams, uint64_t Seed, bool Smoke) {
  DeepSizes Z = deepSizes(Smoke);
  LiveWorld W;
  W.M = std::make_unique<Mesh>(Seams, Seed);
  W.C = std::make_unique<Client>(Seed);
  Mesh &M = *W.M;
  Client &C = *W.C;
  TC_TRY(M.openStore(M.add("solo")));
  TC_UNWRAP(Cb, fund(M, C, Z.FamilyTxs + Z.FanTxs + 1));
  size_t NextCb = 0;

  // Declared families: FamilyTxs pairs, FamiliesPerTx `f<i>_<j> : prop`
  // each, all confirmed in one block.
  std::vector<std::string> Txids;
  for (int I = 0; I < Z.FamilyTxs; ++I) {
    tc::Transaction T;
    for (int J = 0; J < Z.FamiliesPerTx; ++J)
      TC_TRY(T.LocalBasis.declareFamily(
          lf::ConstName::local("f" + std::to_string(I) + "_" +
                               std::to_string(J)),
          lf::kProp()));
    const Funds &F = Cb[NextCb++];
    T.Inputs.push_back(trivialInput(F));
    T.Outputs.push_back(outputOf(logic::pOne(),
                                 F.Value - bitcoin::TypicalFeePerTx,
                                 C.Funding));
    TC_ASSIGN(T.Proof, tc::makeRoutingProof(T));
    TC_UNWRAP(P, submitSetupPair(M, C, T));
    Txids.push_back(tc::txidHex(P.Btc));
  }
  TC_TRY(confirm(M, Txids));

  // UTXO entries: plain fan-out spends to a key nobody holds.
  crypto::KeyId Sink = C.Owners[0].id();
  Sink.Hash[0] ^= 0xff;
  for (int I = 0; I < Z.FanTxs; ++I) {
    const Funds &F = Cb[NextCb++];
    bitcoin::Transaction Tx;
    Tx.Inputs.push_back(bitcoin::TxIn{F.Point, {}});
    bitcoin::Amount Each = (F.Value - bitcoin::TypicalFeePerTx) / Z.FanOut;
    for (int J = 0; J < Z.FanOut; ++J)
      Tx.Outputs.push_back(bitcoin::TxOut{Each, bitcoin::makeP2PKH(Sink)});
    TC_TRY(C.W.signTransaction(Tx, M.tcn(0).chain()));
    TC_TRY(M.node(0).submitTransaction(Tx));
  }
  TC_TRY(confirm(M, {}));

  // The deep resources: towers over a declared atom, granted by the
  // transaction that declares it.
  logic::Basis Basis;
  lf::ConstName Leaf = lf::ConstName::local("leaf");
  TC_TRY(Basis.declareFamily(Leaf, lf::kProp()));
  logic::PropPtr Local = tower(logic::pAtom(Leaf, {}), Z.Depth);
  std::vector<logic::PropPtr> Types(Z.Resources, Local);
  tc::Transaction T = grantTx(std::move(Basis), Types,
                              bitcoin::SatoshisPerCoin / 2, Cb[NextCb++], C);
  TC_UNWRAP(P, submitSetupPair(M, C, T));
  std::string Txid = tc::txidHex(P.Btc);
  TC_TRY(confirm(M, {Txid}));
  logic::PropPtr Global = logic::resolveProp(Local, Txid);
  for (size_t I = 0; I < Z.Resources; ++I)
    W.Pool.push_back(Res{Txid, static_cast<uint32_t>(I), Global,
                         bitcoin::SatoshisPerCoin / 2, 0});

  // Timed pairs: type-preserving transfers to the next owner.
  W.Next = [&C = *W.C](std::vector<Res> &Pool, Rng &R) {
    Res A = takeRandom(Pool, R);
    Plan Pl;
    Pl.T.Inputs.push_back(inputOf(A));
    Pl.T.Outputs.push_back(
        outputOf(A.Type, A.Amount - PairFee, C.owner(R.next())));
    Pl.T.Proof = *tc::makeRoutingProof(Pl.T);
    Pl.Values = {0};
    return Pl;
  };
  return W;
}

// --- catchup -----------------------------------------------------------------

struct CatchupSizes {
  /// R: blocks the follower misses. At most NetConfig::MaxBlocksInFlight
  /// (16), so sync fetches every body in one batch and the round's
  /// registrations land together instead of in a seed-dependent split.
  int Blocks;
  int PairsPerBlock; ///< B.
  int TailPairs;     ///< Pairs handed to the follower once caught up.
};

CatchupSizes catchupSizes(bool Smoke) {
  if (Smoke)
    return CatchupSizes{4, 4, 4};
  return CatchupSizes{16, 12, 20};
}

/// The catchup world: a source that mined R blocks of traffic the
/// follower journaled (WAL-durable) before it crashed, and the
/// follower's crash image.
struct CatchupWorld {
  std::unique_ptr<Mesh> M; ///< Member 0 is the source.
  std::unique_ptr<Client> C;
  StoreImage Image;
  std::vector<tc::Pair> Tail;
  int SourceHeight = 0;
};

const char *const FollowerAddr = "follower";

Result<CatchupWorld> setupCatchup(bool Seams, uint64_t Seed, bool Smoke) {
  CatchupSizes Z = catchupSizes(Smoke);
  CatchupWorld W;
  W.M = std::make_unique<Mesh>(Seams, Seed);
  W.C = std::make_unique<Client>(Seed);
  Mesh &M = *W.M;
  Client &C = *W.C;
  TC_TRY(M.openStore(M.add("source")));
  // The follower tracks the source block by block but is not on the
  // wire, so its submits never gossip the carriers to the source.
  auto OwnedDisk = std::make_unique<store::MemVfs>();
  store::MemVfs *Disk = OwnedDisk.get();
  Mesh::Member &F = M.add(FollowerAddr, std::move(OwnedDisk));
  F.Offline = true;
  TC_TRY(M.openStore(F));
  tc::Node &Fol = F.Net->typecoin();

  TC_UNWRAP(Cb, fund(M, C, 1));
  // Every input the traffic and the tail may need, issued up front: the
  // follower must hold them registered before it journals the traffic.
  size_t Coins = 2 * Z.Blocks * Z.PairsPerBlock + 2 * Z.TailPairs;
  newcoin::Vocab V;
  std::vector<Res> Pool;
  TC_ASSIGN(Pool, issueCoins(M, C, Cb[0], Coins, 1000,
                             bitcoin::SatoshisPerCoin / 32, V));
  // Let the follower's epoch trail its log: stop mid-interval.
  while (Fol.chain().height() % 8 != 5) {
    TC_TRY(M.mine(0));
    TC_TRY(M.settle());
  }

  Rng R(Seed ^ 0xcafeULL);
  CoinMix Mix(V, C, Pool.size());
  std::vector<std::vector<tc::Pair>> Waves(Z.Blocks);
  for (int B = 0; B < Z.Blocks; ++B)
    for (int I = 0; I < Z.PairsPerBlock; ++I) {
      Plan Pl = Mix.next(Pool, R);
      TC_UNWRAP(P, buildTimed(Pl.T, C, M.tcn(0).chain()));
      TC_TRY(Fol.submitPair(P));
      Waves[B].push_back(P);
    }
  // Crash the follower: only what it synced survives.
  Disk->crash();
  TC_ASSIGN(W.Image, captureImage(*Disk, FollowerAddr));
  M.remove(1);

  for (auto &Wave : Waves) {
    for (const tc::Pair &P : Wave)
      TC_TRY(M.node(0).submitPair(P));
    TC_TRY(M.mine(0));
  }
  for (int I = 0; I < Z.TailPairs; ++I) {
    Plan Pl = Mix.next(Pool, R);
    TC_UNWRAP(P, buildTimed(Pl.T, C, M.tcn(0).chain()));
    // The source holds the tail too, so a round's announcements never
    // change its state.
    TC_TRY(M.node(0).submitPair(P));
    W.Tail.push_back(P);
  }
  W.SourceHeight = M.tcn(0).chain().height();
  return W;
}

Samples runCatchupRounds(CatchupWorld &W, int MissedBlocks, double Seconds,
                         bool Relaxed, SpanTable &Sp, Tally &Ta) {
  Samples Out;
  Mesh &M = *W.M;
  size_t MinRounds = Relaxed ? 1 : minSamplesFor(0.50);
  size_t MinSubmits = Relaxed ? 0 : minSamplesFor(0.99);
  uint64_t Start = nowNs();
  double TimedNs = 0;
  std::string Fingerprint = M.tcn(0).state().fingerprint();
  bitcoin::BlockHash Tip = M.tcn(0).chain().tipHash();
  while (Out.Error.empty()) {
    // Untimed: restore the crash image into a fresh disk and process.
    if (M.size() > 1) {
      M.remove(1);
      if (Status St = M.settle(); !St)
        Out.Error = "settle: " + St.error().message();
    }
    auto Disk = std::make_unique<store::MemVfs>();
    if (auto S = restoreImage(W.Image, *Disk, FollowerAddr); !S) {
      Out.Error = "restore: " + S.error().message();
      break;
    }
    Mesh::Member &F = M.add(FollowerAddr, std::move(Disk));
    coldCaches();
    ++Out.Attempted;

    Ta.begin();
    uint64_t T0 = nowNs();
    {
      Span T(Sp, "store.recover");
      if (auto S = M.openStore(F); !S) {
        Out.Error = "openStore: " + S.error().message();
        break;
      }
    }
    tc::Node &Fol = F.Net->typecoin();
    // Registrations the round performs: the missed blocks' pairs plus
    // whatever the store replay leaves to the registration scan.
    size_t Registered = Fol.state().size();
    size_t RoundStart = Registered;
    size_t Expect = M.tcn(0).state().size();
    {
      Span T(Sp, "net.sync");
      if (auto S = F.Net->connectTo("source"); !S) {
        Out.Error = "connectTo: " + S.error().message();
        break;
      }
      for (;;) {
        size_t N = M.node(0).pump() + F.Net->pump();
        for (size_t Now = Fol.state().size(); Registered < Now; ++Registered)
          Out.RegisteredMs.push_back((nowNs() - T0) / 1e6);
        if (N == 0)
          break;
      }
    }
    uint64_t Ns = nowNs() - T0;
    if (!(Fol.chain().tipHash() == Tip) ||
        Fol.state().fingerprint() != Fingerprint || Registered != Expect) {
      ++Out.Failed;
      Out.Error = "follower did not match the source after catch-up "
                  "(height " + std::to_string(Fol.chain().height()) + ", " +
                  std::to_string(Registered) + "/" + std::to_string(Expect) +
                  " registered)";
      break;
    }
    Out.CatchupMs.push_back(Ns / 1e6);
    Out.Pairs += Registered - RoundStart;
    Out.Blocks += MissedBlocks;
    Out.PairRates.push_back(ratio(Registered - RoundStart, Ns / 1e9));
    Out.BlockRates.push_back(ratio(MissedBlocks, Ns / 1e9));
    ++Out.Units;

    // The caught-up follower serves its client again: cold-cache
    // durable acks.
    for (const tc::Pair &P : W.Tail) {
      ++Out.Attempted;
      uint64_t S0 = nowNs();
      Status St = F.Net->submitPair(P);
      uint64_t SNs = nowNs() - S0;
      Sp.add("node.submit", SNs);
      Out.SubmitUs.push_back(SNs / 1000.0);
      if (!St) {
        ++Out.Failed;
        Out.Error = "tail submitPair: " + St.error().message();
        break;
      }
      Span T(Sp, "net.gossip");
      if (Status Settled = M.settle(); !Settled)
        Out.Error = "settle: " + Settled.error().message();
    }
    TimedNs += static_cast<double>(nowNs() - T0);
    Ta.end();

    double Elapsed = TimedNs / 1e9;
    bool Enough = Out.Units >= MinRounds && Out.SubmitUs.size() >= MinSubmits;
    if ((Elapsed >= Seconds && Enough) ||
        secondsSince(Start) >= PhaseCapSeconds)
      break;
  }
  Out.WallNs = TimedNs;
  return Out;
}

} // namespace

Report runTransfer4(const Options &O) {
  LiveShape S;
  S.PairsPerBlock = 8;
  S.Setup = [Smoke = O.Smoke](bool Seams, uint64_t Seed) {
    return setupTransfer4(Seams, Seed, Smoke);
  };
  return runLiveWorkload(O, S);
}

Report runDeepLedger(const Options &O) {
  LiveShape S;
  S.PairsPerBlock = 8;
  S.EpisodeBlocks = 32;
  S.Setup = [Smoke = O.Smoke](bool Seams, uint64_t Seed) {
    return setupDeepLedger(Seams, Seed, Smoke);
  };
  Report Rep = runLiveWorkload(O, S);
  DeepSizes Z = deepSizes(O.Smoke);
  Rep.Context.push_back({"tower_depth", std::to_string(Z.Depth)});
  return Rep;
}

Report runCatchup(const Options &O) {
  Report Rep;
  bool Relaxed = relaxed(O);
  CatchupSizes Z = catchupSizes(O.Smoke);
  std::vector<double> SetupS;
  int Rounds = O.Smoke ? 1 : SetupRounds;
  double RefRate = 0;
  SpanTable Sp;
  Tally Ta;
  for (int Round = 0; Round < Rounds; ++Round) {
    bool Last = Round == Rounds - 1;
    // As for the live workloads: a traced run measures an untraced
    // reference pass on the second-to-last setup.
    bool Reference = O.Trace && Round == Rounds - 2;
    bool Traced = O.Trace && Last;
    coldCaches();
    uint64_t T0 = nowNs();
    Result<CatchupWorld> W = setupCatchup(Traced, O.Seed, O.Smoke);
    SetupS.push_back(secondsSince(T0));
    if (!W) {
      Rep.fail("setup: " + W.error().message());
      return Rep;
    }
    if (!Last && !Reference)
      continue;

    // One untimed warm-up round before the first measured pass, as for
    // the live workloads.
    if (!O.Smoke && (Reference || !O.Trace)) {
      SpanTable WarmSp;
      Tally WarmTa;
      Samples Warm = runCatchupRounds(*W, Z.Blocks, 0, true, WarmSp, WarmTa);
      if (!Warm.Error.empty()) {
        Rep.fail("warm-up: " + Warm.Error);
        return Rep;
      }
    }
    Sp.clear();
    Ta = Tally();
    obs::Registry::instance().enableTiming(Traced);
    std::string Before = sizesJson(W->M->tcn(0));
    double Seconds = O.Trace ? O.Seconds / 2 : O.Seconds;
    Samples L = runCatchupRounds(*W, Z.Blocks, Seconds, Relaxed, Sp, Ta);
    obs::Registry::instance().enableTiming(false);
    L.SetupS = SetupS;
    if (Reference) {
      if (!L.Error.empty()) {
        Rep.fail(L.Error);
        return Rep;
      }
      RefRate = median(L.BlockRates);
      continue;
    }

    Rep.Context.push_back({"sizes_source", Before});
    Rep.Context.push_back({"rounds", std::to_string(L.Units)});
    Rep.Context.push_back({"missed_blocks", std::to_string(Z.Blocks)});
    Rep.Context.push_back({"pairs_per_block", std::to_string(Z.PairsPerBlock)});
    Rep.Context.push_back({"tail_pairs", std::to_string(Z.TailPairs)});
    Rep.Context.push_back({"timed_s", std::to_string(L.WallNs / 1e9)});
    addEndToEnd(Rep, L, Relaxed);
    if (Traced)
      addPerLayer(Rep, L, Sp, Ta,
                  {"store.recover", "net.sync", "node.submit", "net.gossip"},
                  RefRate, median(L.BlockRates));
  }
  return Rep;
}

} // namespace t13
