//===- tests/analysis/script_eval_fuzz_test.cpp - Script-eval fuzz ------===//
//
// Replays a seeded, bounded stream of inputs through the fuzz_script_eval
// entry point (fuzz/fuzz_script_eval.cpp), so its differential checks —
// no crash on any input, closed-world symbolic verdicts that agree with
// the concrete interpreter, Unspendable proofs the interpreter never
// contradicts — run on every build, not only under clang's libFuzzer.
// Each input is a random initial stack plus a locking script mutated
// from a standard template (P2PKH, P2PK, bare multisig, OP_RETURN): byte
// and opcode edits, deletions, insertions, splices, truncation, and a
// pass that turns the signature opcodes into plain ones so the scripts
// reach the agreement checks. A violated property traps, which fails
// the test.
//
//===----------------------------------------------------------------------===//

#include "analysis/tcsym.h"

#include "bitcoin/standard.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <iterator>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size);

using namespace typecoin;
using namespace typecoin::bitcoin;

namespace {

Bytes randomBytes(Rng &R, size_t N) {
  Bytes B(N);
  for (uint8_t &C : B)
    C = static_cast<uint8_t>(R.next());
  return B;
}

/// Opcodes without a signature check, for substitutions and inserts.
const Opcode PlainOps[] = {
    OP_0,      OP_1,           OP_2,         OP_16,       OP_1NEGATE,
    OP_NOP,    OP_IF,          OP_NOTIF,     OP_ELSE,     OP_ENDIF,
    OP_VERIFY, OP_RETURN,      OP_DROP,      OP_DUP,      OP_SWAP,
    OP_OVER,   OP_PICK,        OP_ROLL,      OP_DEPTH,    OP_SIZE,
    OP_EQUAL,  OP_EQUALVERIFY, OP_1ADD,      OP_NOT,      OP_ADD,
    OP_SUB,    OP_NUMEQUAL,    OP_BOOLAND,   OP_WITHIN,   OP_HASH160,
    OP_SHA256, OP_HASH256,     OP_TOALTSTACK, OP_FROMALTSTACK};

Opcode plainOp(Rng &R) { return PlainOps[R.nextBelow(std::size(PlainOps))]; }

/// Standard locking scripts with random keys and payloads.
std::vector<Bytes> templates(Rng &R) {
  crypto::KeyId Id;
  for (uint8_t &C : Id.Hash)
    C = static_cast<uint8_t>(R.next());
  std::vector<Bytes> Keys = {randomBytes(R, 33), randomBytes(R, 33),
                             randomBytes(R, 33)};
  return {makeP2PKH(Id).bytes(), makeMultiSig(1, {Keys[0]}).bytes(),
          makeMultiSig(2, Keys).bytes(),
          makeNullData(randomBytes(R, 8)).bytes(),
          Script().push(Keys[1]).op(OP_CHECKSIG).bytes()};
}

Bytes mutate(Rng &R, const std::vector<Bytes> &Seeds) {
  Bytes S = Seeds[R.nextBelow(Seeds.size())];
  for (uint64_t M = 0, N = 1 + R.nextBelow(3); M < N; ++M) {
    switch (R.nextBelow(7)) {
    case 0: // Overwrite one byte with a plain opcode.
      if (!S.empty())
        S[R.nextBelow(S.size())] = plainOp(R);
      break;
    case 1: { // Delete a short run.
      if (S.empty())
        break;
      size_t At = R.nextBelow(S.size());
      size_t Len = std::min<size_t>(1 + R.nextBelow(4), S.size() - At);
      S.erase(S.begin() + static_cast<ptrdiff_t>(At),
              S.begin() + static_cast<ptrdiff_t>(At + Len));
      break;
    }
    case 2: { // Insert a plain opcode or a small push.
      Script Ins;
      if (R.nextBool(0.5))
        Ins.op(plainOp(R));
      else
        Ins.push(randomBytes(R, R.nextBelow(5)));
      S.insert(S.begin() + static_cast<ptrdiff_t>(R.nextBelow(S.size() + 1)),
               Ins.bytes().begin(), Ins.bytes().end());
      break;
    }
    case 3: // Bit flip.
      if (!S.empty())
        S[R.nextBelow(S.size())] ^=
            static_cast<uint8_t>(1u << R.nextBelow(8));
      break;
    case 4: { // Splice: a prefix of this script, a suffix of another.
      const Bytes &T = Seeds[R.nextBelow(Seeds.size())];
      S.resize(R.nextBelow(S.size() + 1));
      size_t From = R.nextBelow(T.size());
      S.insert(S.end(), T.begin() + static_cast<ptrdiff_t>(From), T.end());
      break;
    }
    case 5: // Truncation.
      S.resize(R.nextBelow(S.size() + 1));
      break;
    default: // Defuse: every signature opcode byte becomes a plain one.
      for (uint8_t &C : S)
        if (C >= OP_CHECKSIG && C <= OP_CHECKMULTISIGVERIFY)
          C = plainOp(R);
      break;
    }
  }
  return S;
}

/// The entry point's input layout: [depth byte][length-prefixed stack
/// elements][script]. Depth and lengths are taken modulo 5 and 8, so
/// random high bits exercise the reduction too.
Bytes encodeInput(Rng &R, const std::vector<Bytes> &Init,
                  const Bytes &Script) {
  Bytes In;
  In.push_back(static_cast<uint8_t>(Init.size() + 5 * R.nextBelow(51)));
  for (const Bytes &E : Init) {
    In.push_back(static_cast<uint8_t>(E.size() + 8 * R.nextBelow(32)));
    In.insert(In.end(), E.begin(), E.end());
  }
  In.insert(In.end(), Script.begin(), Script.end());
  return In;
}

bool hasSigOp(const Script &S) {
  auto Elems = S.decode();
  if (!Elems)
    return false; // As in the entry point.
  for (const auto &E : *Elems)
    if (!E.IsPush && E.Op >= OP_CHECKSIG && E.Op <= OP_CHECKMULTISIGVERIFY)
      return true;
  return false;
}

TEST(ScriptEvalFuzz, MutatedTemplatesKeepTheSymbolicVerdictsSound) {
  Rng R(0x73637269); // "scri"
  size_t Agreement = 0, ClosedSpendable = 0, ClosedUnspendable = 0;
  for (int Case = 0; Case < 20000; ++Case) {
    const std::vector<Bytes> Seeds = templates(R);
    std::vector<Bytes> Init;
    for (uint64_t I = 0, N = R.nextBelow(5); I < N; ++I)
      Init.push_back(R.nextBool(0.3)
                         ? Bytes{static_cast<uint8_t>(R.nextBelow(3))}
                         : randomBytes(R, R.nextBelow(8)));
    Bytes ScriptBytes = mutate(R, Seeds);
    Bytes In = encodeInput(R, Init, ScriptBytes);
    LLVMFuzzerTestOneInput(In.data(), In.size());

    // Tally the inputs that reached the closed-world agreement checks,
    // so a mutator that never gets past the signature-opcode guard or
    // the path bound fails here instead of passing vacuously.
    Script S(ScriptBytes);
    if (In.size() < 2 || hasSigOp(S))
      continue;
    analysis::SymOptions Opts;
    Opts.ClosedWorld = true;
    Opts.InitialStack = Init;
    analysis::ScriptVerdict V = analysis::analyzeScript(S, Opts);
    if (V.PathLimitHit)
      continue;
    ++Agreement;
    ClosedSpendable += V.Spend == analysis::Spendability::Spendable;
    ClosedUnspendable += V.Spend == analysis::Spendability::Unspendable;
  }
  // Of 20 000 inputs about 16 000 reach the checks, some 1 700 of them
  // closed-world Spendable and the rest Unspendable.
  EXPECT_GT(Agreement, 10000u);
  EXPECT_GT(ClosedSpendable, 800u);
  EXPECT_GT(ClosedUnspendable, 8000u);
}

} // namespace
