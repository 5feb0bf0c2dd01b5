//===- tests/logic/basis_layer_test.cpp - Layered basis vs copy -----------===//
//
// A check builds its combined basis (`Sigma_global, Sigma`) as a layer of
// the local declarations over the global basis instead of copying the
// global basis and appending. The oracle kept here is that copy:
// `Combined = Global; Combined.append(Local)`, and the copy-based basis
// formation and `T ok` check it replaced. On random declaration sets
// (builtins, `this.*` and txid-qualified names) the layer must answer
// every lookup, redeclaration and append collision exactly as the copy
// does, and basis formation must give the same verdict. A corpus of
// Typecoin transactions, valid and broken, must get the same verdict and
// message from State::checkTransaction as from the copy-based check.
//
//===----------------------------------------------------------------------===//

#include "logic/basis.h"

#include "lf/typecheck.h"
#include "logic/check.h"
#include "support/rng.h"
#include "typecoin/builder.h"
#include "typecoin/state.h"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

using namespace typecoin;
using namespace typecoin::logic;
using lf::ConstName;

namespace {

// --- The copy-based oracle -------------------------------------------------

/// Basis formation as it was: the global signature copied, the local
/// declarations appended one by one.
Status copyCheckFormedAgainst(const Basis &Local, const Basis &Global) {
  lf::Signature Combined = Global.lfSig();
  for (const ConstName &Name : Local.lfSig().order()) {
    if (!Name.isLocal())
      return makeError("basis: declaration " + Name.toString() +
                       " is not a local (this.*) constant");
    const lf::Declaration *D = Local.lfSig().lookup(Name);
    if (D->Kind == lf::Declaration::Sort::Family) {
      TC_TRY(lf::checkKind(Combined, {}, D->FamilyKind));
      TC_TRY(Combined.declareFamily(Name, D->FamilyKind));
    } else {
      TC_UNWRAP(K, lf::kindOfType(Combined, {}, D->TermType));
      if (K->KindTag != lf::Kind::Tag::Type)
        return makeError("basis: term constant " + Name.toString() +
                         " declared at non-type family");
      TC_TRY(Combined.declareTerm(Name, D->TermType));
    }
  }
  for (const ConstName &Name : Local.propOrder()) {
    if (!Name.isLocal())
      return makeError("basis: declaration " + Name.toString() +
                       " is not a local (this.*) constant");
    TC_TRY(checkProp(Combined, {}, *Local.lookupProp(Name)));
  }
  return Status::success();
}

/// State::checkBody as it was, on a copied-and-appended basis.
Status copyCheckTransaction(const tc::State &S, const tc::Transaction &T,
                            const CondOracle &Oracle) {
  TC_TRY(copyCheckFormedAgainst(T.LocalBasis, S.globalBasis()));
  TC_TRY(T.LocalBasis.checkFresh());
  Basis Combined = S.globalBasis();
  TC_TRY(Combined.append(T.LocalBasis));

  TC_TRY(checkProp(Combined.lfSig(), {}, T.Grant));
  if (auto S2 = checkPropFresh(T.Grant); !S2)
    return S2.takeError().withContext("grant");
  if (T.Inputs.empty())
    return makeError("typecoin: transaction has no inputs");

  std::set<std::pair<std::string, uint32_t>> Seen;
  for (size_t I = 0; I < T.Inputs.size(); ++I) {
    const tc::Input &In = T.Inputs[I];
    if (!Seen.insert({In.SourceTxid, In.SourceIndex}).second)
      return makeError("typecoin: duplicate input " + In.SourceTxid + ":" +
                       std::to_string(In.SourceIndex));
    if (S.isConsumed(In.SourceTxid, In.SourceIndex))
      return makeError("typecoin: input " + In.SourceTxid + ":" +
                       std::to_string(In.SourceIndex) +
                       " is already consumed");
    TC_TRY(checkProp(Combined.lfSig(), {}, In.Type));
    PropPtr Expected = S.outputType(In.SourceTxid, In.SourceIndex);
    if (!propEqual(In.Type, Expected))
      return makeError("typecoin: input " + std::to_string(I) +
                       " claims type " + printProp(In.Type) +
                       " but the spent output has type " +
                       printProp(Expected));
    auto KnownAmount = S.outputAmount(In.SourceTxid, In.SourceIndex);
    if (KnownAmount && *KnownAmount != In.Amount)
      return makeError("typecoin: input " + std::to_string(I) +
                       " amount disagrees with the spent output");
  }
  for (size_t I = 0; I < T.Outputs.size(); ++I) {
    const tc::Output &Out = T.Outputs[I];
    if (!Out.Owner.isValid())
      return makeError("typecoin: output " + std::to_string(I) +
                       " has an invalid owner key");
    TC_TRY(checkProp(Combined.lfSig(), {}, Out.Type));
  }

  CondPtr Phi = cTrue();
  tc::TxAffirmationVerifier Affirm(T);
  ProofChecker Checker(Combined, Affirm);
  TC_UNWRAP(Proved, Checker.infer(T.Proof));
  if (Proved->Kind != Prop::Tag::Lolli)
    return makeError("typecoin: proof term proves " + printProp(Proved) +
                     ", expected a lolli obligation");
  PropPtr CAR =
      pTensor(T.Grant, pTensor(T.inputTensor(), T.receiptTensor()));
  if (!propEqual(Proved->L, CAR))
    return makeError("typecoin: proof consumes " + printProp(Proved->L) +
                     ", expected " + printProp(CAR));
  PropPtr Produced = Proved->R;
  if (Produced->Kind == Prop::Tag::If) {
    Phi = Produced->Cond;
    Produced = Produced->Body;
  }
  if (!propEqual(Produced, T.outputTensor()))
    return makeError("typecoin: proof produces " + printProp(Produced) +
                     ", expected " + printProp(T.outputTensor()));
  TC_UNWRAP(Holds, evalCond(Phi, Oracle));
  if (!Holds)
    return makeError("typecoin: condition " + printCond(Phi) +
                     " does not hold");
  return Status::success();
}

template <typename T>
void expectSameStatus(const Result<T> &Got, const Status &Want,
                      const std::string &What) {
  ASSERT_EQ(Got.hasValue(), Want.hasValue())
      << What << "\nlayer: " << (Got ? "ok" : Got.error().message())
      << "\ncopy: " << (Want ? "ok" : Want.error().message());
  if (!Got) {
    EXPECT_EQ(Got.error().message(), Want.error().message()) << What;
  }
}

// --- Random declaration sets -----------------------------------------------

const std::string TxA(64, 'a');
const std::string TxB(64, 'b');

/// The name pool: builtins (real and unknown), locals and two
/// transactions' globals, so collisions across every space occur.
std::vector<ConstName> namePool() {
  std::vector<ConstName> Names = {
      ConstName::builtin("nat"), ConstName::builtin("principal"),
      ConstName::builtin("plus"), ConstName::builtin("plus/pf"),
      ConstName::builtin("bogus")};
  for (const char *L : {"a", "b", "c", "d", "e", "f"})
    Names.push_back(ConstName::local(L));
  for (const char *L : {"a", "b", "c"})
    Names.push_back(ConstName::global(TxA, L));
  Names.push_back(ConstName::global(TxB, "a"));
  return Names;
}

class DeclGen {
public:
  explicit DeclGen(uint64_t Seed) : Rand(Seed), Names(namePool()) {}

  /// Mostly `this.*` names when \p Local, so formation gets past the
  /// locality rule and into the lookups.
  ConstName name(bool Local) {
    if (Local && Rand.nextBool(0.8))
      return ConstName::local(std::string(1, char('a' + Rand.nextBelow(6))));
    return Names[Rand.nextBelow(Names.size())];
  }

  lf::LFTypePtr type() {
    switch (Rand.nextBelow(4)) {
    case 0:
      return lf::natType();
    case 1:
      return lf::tApp(lf::tConst(name(false)), lf::nat(Rand.nextBelow(3)));
    default:
      return lf::tConst(name(Rand.nextBool(0.5)));
    }
  }

  lf::KindPtr kind() {
    switch (Rand.nextBelow(4)) {
    case 0:
      return lf::kType();
    case 1:
      return lf::kProp();
    case 2:
      return lf::kPi(lf::natType(), lf::kProp());
    default:
      return lf::kPi(type(), lf::kType());
    }
  }

  PropPtr prop() {
    switch (Rand.nextBelow(3)) {
    case 0:
      return pOne();
    case 1:
      return pAtom(type());
    default:
      return pLolli(pAtom(type()), pAtom(type()));
    }
  }

  /// Apply one random declaration to \p B.
  Status declare(Basis &B, bool Local) {
    ConstName N = name(Local);
    switch (Rand.nextBelow(3)) {
    case 0:
      return B.declareFamily(N, kind());
    case 1:
      return B.declareTerm(N, type());
    default:
      return B.declareProp(N, prop());
    }
  }

  /// Replay the same random declaration on two bases; returns both
  /// outcomes.
  std::pair<Status, Status> declareBoth(Basis &X, Basis &Y) {
    ConstName N = name(Rand.nextBool(0.5));
    switch (Rand.nextBelow(3)) {
    case 0: {
      lf::KindPtr K = kind();
      return {X.declareFamily(N, K), Y.declareFamily(N, K)};
    }
    case 1: {
      lf::LFTypePtr Ty = type();
      return {X.declareTerm(N, Ty), Y.declareTerm(N, Ty)};
    }
    default: {
      PropPtr P = prop();
      return {X.declareProp(N, P), Y.declareProp(N, P)};
    }
    }
  }

  Rng Rand;
  std::vector<ConstName> Names;
};

/// Every probe name answers the same through the layer and the copy.
void expectSameLookups(const Basis &Layer, const Basis &Copy) {
  std::vector<ConstName> Probes = namePool();
  Probes.push_back(ConstName::local("unknown"));
  for (const ConstName &N : Probes) {
    const lf::Declaration *A = Layer.lfSig().lookup(N);
    const lf::Declaration *B = Copy.lfSig().lookup(N);
    ASSERT_EQ(A == nullptr, B == nullptr) << N.toString();
    if (A) {
      EXPECT_EQ(A->Kind, B->Kind) << N.toString();
      EXPECT_EQ(A->FamilyKind.get(), B->FamilyKind.get()) << N.toString();
      EXPECT_EQ(A->TermType.get(), B->TermType.get()) << N.toString();
    }
    const PropPtr *P = Layer.lookupProp(N);
    const PropPtr *Q = Copy.lookupProp(N);
    ASSERT_EQ(P == nullptr, Q == nullptr) << N.toString();
    if (P) {
      EXPECT_EQ(P->get(), Q->get()) << N.toString();
    }
    EXPECT_EQ(Layer.contains(N), Copy.contains(N)) << N.toString();
    EXPECT_EQ(Layer.lfSig().contains(N), Copy.lfSig().contains(N))
        << N.toString();
  }
}

class BasisLayerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BasisLayerSweep, LayerAnswersAsTheCopy) {
  DeclGen G(GetParam());
  size_t Collisions = 0, Redeclarations = 0, Appended = 0;
  for (int Trial = 0; Trial < 200; ++Trial) {
    Basis Global, Local;
    for (uint64_t I = 0, N = G.Rand.nextBelow(14); I < N; ++I)
      (void)G.declare(Global, /*Local=*/false);
    for (uint64_t I = 0, N = G.Rand.nextBelow(8); I < N; ++I)
      (void)G.declare(Local, /*Local=*/true);

    Basis Copy = Global;
    Status WantAppend = Copy.append(Local);
    BasisLayer Layer(Global);
    Status GotAppend = Layer.append(Local);
    expectSameStatus(GotAppend, WantAppend, "append");
    Collisions += !WantAppend;
    Appended += WantAppend.hasValue();
    expectSameLookups(Layer, Copy);

    // Further declarations: redeclarations must be refused alike.
    for (int I = 0; I < 6; ++I) {
      auto [Got, Want] = G.declareBoth(Layer, Copy);
      expectSameStatus(Got, Want, "declare");
      Redeclarations += !Want;
    }
    expectSameLookups(Layer, Copy);

    // Layers stack: a second layer over the first answers as a second
    // copy would.
    Basis Copy2 = Copy;
    BasisLayer Layer2(static_cast<const Basis &>(Layer));
    Basis More;
    (void)G.declare(More, /*Local=*/true);
    expectSameStatus(Layer2.append(More), Copy2.append(More), "append2");
    expectSameLookups(Layer2, Copy2);

    expectSameStatus(Local.checkFormedAgainst(Global),
                     copyCheckFormedAgainst(Local, Global), "formation");
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Collisions, 0u);
  EXPECT_GT(Appended, 0u);
  EXPECT_GT(Redeclarations, 0u);
}

TEST_P(BasisLayerSweep, FormationVerdictsMatchTheCopy) {
  // Bases whose bodies only reference declared vocabulary, so many
  // pass and the rest fail deep in kind/type/prop formation.
  DeclGen G(GetParam() + 500);
  size_t Passed = 0, Failed = 0;
  for (int Trial = 0; Trial < 300; ++Trial) {
    Basis Global;
    (void)Global.declareFamily(ConstName::global(TxA, "a"), lf::kProp());
    (void)Global.declareFamily(ConstName::global(TxA, "b"),
                               lf::kPi(lf::natType(), lf::kProp()));
    (void)Global.declareFamily(ConstName::global(TxA, "c"), lf::kType());
    for (uint64_t I = 0, N = G.Rand.nextBelow(4); I < N; ++I)
      (void)G.declare(Global, /*Local=*/false);
    Basis Local;
    for (uint64_t I = 0, N = 1 + G.Rand.nextBelow(6); I < N; ++I)
      (void)G.declare(Local, /*Local=*/true);
    Status Want = copyCheckFormedAgainst(Local, Global);
    expectSameStatus(Local.checkFormedAgainst(Global), Want, "formation");
    (Want ? Passed : Failed)++;
  }
  EXPECT_GT(Passed, 0u);
  EXPECT_GT(Failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BasisLayerSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Builtins and the lifetime rule ----------------------------------------

TEST(BasisLayer, BuiltinsAreVisibleButNeverCollideOnAppend) {
  Basis Global;
  BasisLayer Layer(Global);
  EXPECT_TRUE(Layer.lfSig().contains(ConstName::builtin("nat")));
  // declare* refuses a builtin name; append, as for a copy, only checks
  // explicit declarations.
  EXPECT_FALSE(
      Layer.declareFamily(ConstName::builtin("nat"), lf::kType()).hasValue());
  EXPECT_FALSE(
      Layer.declareProp(ConstName::builtin("plus"), pOne()).hasValue());
}

TEST(BasisLayer, AnLFNameDoesNotCollideWithAPropOnAppend) {
  // The copy checks LF names against LF declarations and prop names
  // against prop constants only; the layer must not be stricter.
  Basis Global;
  ASSERT_TRUE(Global.declareProp(ConstName::local("x"), pOne()).hasValue());
  Basis Local;
  ASSERT_TRUE(
      Local.declareFamily(ConstName::local("x"), lf::kProp()).hasValue());
  Basis Copy = Global;
  BasisLayer Layer(Global);
  expectSameStatus(Layer.append(Local), Copy.append(Local), "append");
  EXPECT_TRUE(Layer.append(Basis()).hasValue());
}

TEST(BasisLayer, LayersLeaveTheParentUntouched) {
  Basis Global;
  ASSERT_TRUE(
      Global.declareFamily(ConstName::local("g"), lf::kProp()).hasValue());
  {
    BasisLayer Layer(Global);
    ASSERT_TRUE(
        Layer.declareFamily(ConstName::local("l"), lf::kProp()).hasValue());
    ASSERT_TRUE(Layer.declareProp(ConstName::local("p"), pOne()).hasValue());
    EXPECT_TRUE(Layer.layered());
    EXPECT_TRUE(Layer.lfSig().layered());
    EXPECT_TRUE(Layer.contains(ConstName::local("g")));
  }
  EXPECT_FALSE(Global.layered());
  EXPECT_FALSE(Global.contains(ConstName::local("l")));
  EXPECT_FALSE(Global.contains(ConstName::local("p")));
  EXPECT_EQ(Global.lfSig().size(), 1u);
  EXPECT_EQ(Global.propCount(), 0u);
}

// By type: a layer cannot be copied or moved, and the parent link a
// layered basis or signature carries is never copied with it.
static_assert(!std::is_copy_constructible_v<BasisLayer>);
static_assert(!std::is_move_constructible_v<BasisLayer>);
static_assert(!std::is_copy_assignable_v<BasisLayer>);
static_assert(!std::is_copy_constructible_v<lf::SignatureLayer>);
static_assert(!std::is_copy_assignable_v<lf::SignatureLayer>);

TEST(BasisLayer, TheParentNeverEscapes) {
  Basis Global;
  ASSERT_TRUE(
      Global.declareFamily(ConstName::local("g"), lf::kProp()).hasValue());
  BasisLayer Layer(Global);
  const Basis &AsBasis = Layer;
  lf::SignatureLayer Sig(Global.lfSig());
  const lf::Signature &AsSig = Sig;
#ifdef NDEBUG
  // Slicing copies start unlinked: nothing of the parent comes along.
  Basis Stored = AsBasis;
  EXPECT_FALSE(Stored.layered());
  EXPECT_FALSE(Stored.lfSig().layered());
  EXPECT_FALSE(Stored.contains(ConstName::local("g")));
  lf::Signature StoredSig = AsSig;
  EXPECT_FALSE(StoredSig.layered());
  EXPECT_FALSE(StoredSig.contains(ConstName::local("g")));
#else
  // Debug builds refuse the copy, and every whole-basis view of a layer.
  EXPECT_DEATH({ Basis Stored = AsBasis; (void)Stored; }, "");
  EXPECT_DEATH({ lf::Signature Stored = AsSig; (void)Stored; }, "");
  EXPECT_DEATH((void)AsBasis.resolved(std::string(64, 'c')), "");
  EXPECT_DEATH(
      {
        Writer W;
        AsBasis.serialize(W);
      },
      "");
  EXPECT_DEATH((void)AsBasis.propOrder(), "");
  EXPECT_DEATH((void)AsSig.order(), "");
#endif
}

// --- Typecoin transaction corpus -------------------------------------------

/// Conditions evaluate at a fixed time with no spent evidence.
class FixedOracle : public CondOracle {
public:
  uint64_t evaluationTime() const override { return 1000; }
  Result<bool> isSpent(const std::string &, uint32_t) const override {
    return false;
  }
};

crypto::PublicKey ownerKey() {
  Rng R(99);
  return crypto::PrivateKey::generate(R).publicKey();
}

tc::Input inputOf(const std::string &Txid, uint32_t Index, PropPtr Type) {
  tc::Input In;
  In.SourceTxid = Txid;
  In.SourceIndex = Index;
  In.Type = std::move(Type);
  In.Amount = 10000;
  return In;
}

tc::Output outputOf(PropPtr Type) {
  tc::Output Out;
  Out.Type = std::move(Type);
  Out.Amount = 10000;
  Out.Owner = ownerKey();
  return Out;
}

/// `\x. let (c, ar) = x in let (a, r) = ar in Body` over T's obligation.
ProofPtr obligation(const tc::Transaction &T, ProofPtr Body) {
  return mLam("x",
              pTensor(T.Grant, pTensor(T.inputTensor(), T.receiptTensor())),
              mTensorLet("c", "ar", mVar("x"),
                         mTensorLet("a", "r", mVar("ar"), std::move(Body))));
}

PropPtr res(const ConstName &Family, uint64_t N) {
  return pAtom(lf::tApp(lf::tConst(Family), lf::nat(N)));
}

/// A registered vocabulary, then transactions that use it, each with
/// broken variants. Every transaction is checked both ways before the
/// valid ones are registered.
class CorpusTest : public ::testing::Test {
protected:
  void checkBoth(const tc::Transaction &T, const std::string &What) {
    ++Checked;
    Status Want = copyCheckTransaction(S, T, Oracle);
    expectSameStatus(S.checkTransaction(T, Oracle), Want, What);
    Valid += Want.hasValue();
  }

  void registerTx(const tc::Transaction &T, const std::string &Txid) {
    checkBoth(T, "registered " + Txid.substr(0, 4));
    auto Checked = S.checkTransaction(T, Oracle);
    ASSERT_TRUE(Checked.hasValue()) << Checked.error().message();
    auto Applied = S.applyTransaction(T, Txid, Oracle);
    ASSERT_TRUE(Applied.hasValue()) << Applied.error().message();
    ASSERT_EQ(*Applied, 0u) << "primary did not check";
  }

  tc::State S;
  FixedOracle Oracle;
  size_t Checked = 0, Valid = 0;
};

TEST_F(CorpusTest, StateVerdictsMatchTheCopy) {
  const std::string Tx0(64, '0'), Tx1(64, '1'), Tx2(64, '2');
  const ConstName LRes = ConstName::local("res");
  const ConstName LFlag = ConstName::local("flag");
  const ConstName LBump = ConstName::local("bump");

  // T0 publishes `res : nat -> prop` and grants `res 5`.
  tc::Transaction T0;
  ASSERT_TRUE(T0.LocalBasis
                  .declareFamily(LRes, lf::kPi(lf::natType(), lf::kProp()))
                  .hasValue());
  ASSERT_TRUE(T0.LocalBasis.declareFamily(ConstName::local("num"),
                                          lf::kType())
                  .hasValue());
  ASSERT_TRUE(T0.LocalBasis
                  .declareTerm(ConstName::local("one"),
                               lf::tConst(ConstName::local("num")))
                  .hasValue());
  T0.Grant = res(LRes, 5);
  T0.Inputs.push_back(inputOf(std::string(64, 'f'), 7, pOne()));
  T0.Outputs.push_back(outputOf(res(LRes, 5)));
  T0.Proof = obligation(T0, mOneLet(mVar("a"), mVar("c")));

  {
    // Broken variants of T0.
    tc::Transaction Bad = T0;
    Bad.Grant = res(ConstName::global(Tx0, "res"), 5); // Unknown, not fresh.
    checkBoth(Bad, "grant names an unregistered family");
    Bad = T0;
    Bad.Grant = pAtom(lf::tConst(LRes)); // Wrong arity.
    checkBoth(Bad, "grant misapplies its family");
    Bad = T0;
    ASSERT_TRUE(Bad.LocalBasis
                    .declareTerm(ConstName::local("bad"), lf::tConst(LRes))
                    .hasValue());
    checkBoth(Bad, "term constant at a non-type family");
    Bad = T0;
    ASSERT_TRUE(
        Bad.LocalBasis
            .declareFamily(ConstName::global(Tx1, "x"), lf::kProp())
            .hasValue());
    checkBoth(Bad, "non-local declaration");
    Bad = T0;
    ASSERT_TRUE(Bad.LocalBasis
                    .declareFamily(ConstName::local("k"),
                                   lf::kPi(lf::tConst(ConstName::local(
                                               "missing")),
                                           lf::kProp()))
                    .hasValue());
    checkBoth(Bad, "kind over an undeclared type");
    Bad = T0;
    Bad.Inputs.clear();
    checkBoth(Bad, "no inputs");
  }
  registerTx(T0, Tx0);
  const ConstName GRes = ConstName::global(Tx0, "res");

  // T1 spends `res 5` through its own rule `bump : res 5 -o flag`.
  tc::Transaction T1;
  ASSERT_TRUE(T1.LocalBasis.declareFamily(LFlag, lf::kProp()).hasValue());
  ASSERT_TRUE(T1.LocalBasis
                  .declareProp(LBump, pLolli(res(GRes, 5), pAtom(lf::tConst(
                                                               LFlag))))
                  .hasValue());
  T1.Inputs.push_back(inputOf(Tx0, 0, res(GRes, 5)));
  T1.Outputs.push_back(outputOf(pAtom(lf::tConst(LFlag))));
  T1.Proof = obligation(T1, mOneLet(mVar("c"), mApp(mConst(LBump),
                                                     mVar("a"))));
  {
    tc::Transaction Bad = T1;
    Bad.Inputs[0].Type = res(GRes, 4);
    Bad.Proof = obligation(Bad, mOneLet(mVar("c"), mApp(mConst(LBump),
                                                        mVar("a"))));
    checkBoth(Bad, "claims the wrong input type");
    Bad = T1;
    Bad.Proof = obligation(Bad, mOneLet(mVar("c"),
                                        mApp(mConst(ConstName::local("nope")),
                                             mVar("a"))));
    checkBoth(Bad, "proof names an undeclared rule");
    Bad = T1;
    Bad.Outputs[0].Type = pAtom(lf::tConst(ConstName::local("ghost")));
    checkBoth(Bad, "output names an undeclared family");
    Bad = T1;
    tc::Transaction Rules = Bad;
    Rules.LocalBasis = Basis();
    ASSERT_TRUE(Rules.LocalBasis.declareFamily(LFlag, lf::kProp())
                    .hasValue());
    ASSERT_TRUE(Rules.LocalBasis
                    .declareProp(LBump,
                                 pLolli(res(GRes, 5),
                                        pAtom(lf::tConst(
                                            ConstName::local("ghost")))))
                    .hasValue());
    checkBoth(Rules, "rule body names an undeclared family");
    Bad = T1;
    Bad.Proof = obligation(Bad, mOneLet(mVar("c"), mVar("a")));
    checkBoth(Bad, "proof produces the wrong output");
  }
  registerTx(T1, Tx1);
  const ConstName GFlag = ConstName::global(Tx1, "flag");

  // T2 passes `flag` on, using the registered rule vocabulary only.
  tc::Transaction T2;
  T2.Inputs.push_back(inputOf(Tx1, 0, pAtom(lf::tConst(GFlag))));
  T2.Outputs.push_back(outputOf(pAtom(lf::tConst(GFlag))));
  T2.Proof = obligation(T2, mOneLet(mVar("c"), mVar("a")));
  {
    tc::Transaction Bad = T2;
    Bad.Inputs[0].SourceIndex = 0;
    Bad.Inputs[0].SourceTxid = Tx0; // Already consumed by T1.
    checkBoth(Bad, "spends a consumed output");
    Bad = T2;
    Bad.Inputs.push_back(Bad.Inputs[0]);
    checkBoth(Bad, "duplicate input");
    Bad = T2;
    Bad.Proof = obligation(
        Bad, mOneLet(mVar("c"),
                     mApp(mConst(ConstName::global(Tx1, "bump")),
                          mVar("a"))));
    checkBoth(Bad, "registered rule applied to the wrong resource");
  }
  registerTx(T2, Tx2);

  // The lint property corpus: permutation routings over `this.t`,
  // spending outputs no registered transaction produced.
  Rng Rand(17);
  for (int Trial = 0; Trial < 30; ++Trial) {
    tc::Transaction T;
    ASSERT_TRUE(T.LocalBasis
                    .declareFamily(ConstName::local("t"),
                                   lf::kPi(lf::natType(), lf::kProp()))
                    .hasValue());
    size_t N = 1 + Rand.nextBelow(4);
    for (size_t I = 0; I < N; ++I) {
      PropPtr Ty = Rand.nextBool(0.5)
                       ? pOne()
                       : res(ConstName::local("t"), Rand.nextBelow(3));
      T.Inputs.push_back(
          inputOf(std::string(64, 'e'), static_cast<uint32_t>(I), Ty));
      T.Outputs.push_back(outputOf(Ty));
    }
    auto Proof = tc::makeRoutingProof(T);
    ASSERT_TRUE(Proof.hasValue()) << Proof.error().message();
    T.Proof = *Proof;
    checkBoth(T, "routing " + std::to_string(Trial));
  }

  EXPECT_GE(Checked, 40u);
  EXPECT_GT(Valid, 3u);
  EXPECT_LT(Valid, Checked);
}

} // namespace
