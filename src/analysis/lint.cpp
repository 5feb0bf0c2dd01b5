//===- analysis/lint.cpp - Pre-validation lint for Typecoin -------------------===//

#include "analysis/lint.h"

#include <set>

namespace typecoin {
namespace analysis {

using bitcoin::DustThreshold;
using tc::Transaction;

namespace {

std::string idx(const char *What, size_t I) {
  return std::string(What) + "[" + std::to_string(I) + "]";
}

Severity policySeverity(const LintOptions &Opts) {
  // Standardness violations only block relay when the mempool requires
  // standard transactions; otherwise they are advisory.
  return Opts.RequireStandard ? Severity::Error : Severity::Warning;
}

/// Diagnostics shared by the primary and every fallback: the fallback
/// compatibility rules of Section 5 force identical inputs (txout and
/// amount) and identical output amounts/owners, so a finding here
/// condemns every alternative at once. \p TcBytes, when given, is
/// `T.serialize()`.
void lintShared(const Transaction &T, const LintOptions &Opts,
                LintReport &Out, const Bytes *TcBytes = nullptr) {
  if (T.Inputs.empty())
    Out.error("input-none",
              "transaction has no inputs (replay protection requires at "
              "least one, Section 2)");

  std::set<std::pair<std::string, uint32_t>> Seen;
  for (size_t I = 0; I < T.Inputs.size(); ++I) {
    const tc::Input &In = T.Inputs[I];
    if (In.SourceTxid.size() != 64 ||
        In.SourceTxid.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string::npos)
      Out.error("input-txid",
                "source txid is not 64 hex digits: '" + In.SourceTxid + "'",
                idx("input", I));
    else if (!Seen.insert({In.SourceTxid, In.SourceIndex}).second)
      Out.error("input-dup",
                "txout " + In.SourceTxid + ":" +
                    std::to_string(In.SourceIndex) +
                    " is spent twice by this transaction (an affine "
                    "resource admits at most one consumer)",
                idx("input", I));
    if (In.Amount < 0)
      Out.warn("input-amount", "claimed input amount is negative",
               idx("input", I));
  }

  for (size_t I = 0; I < T.Outputs.size(); ++I) {
    const tc::Output &Out_ = T.Outputs[I];
    if (!bitcoin::moneyRange(Out_.Amount))
      Out.error("output-amount",
                "output amount is outside the money range",
                idx("output", I));
    else if (Out_.Amount < DustThreshold)
      Out.add(policySeverity(Opts), "output-dust",
              "output amount " + std::to_string(Out_.Amount) +
                  " is below the dust threshold (" +
                  std::to_string(DustThreshold) +
                  "); the realized Bitcoin output will not relay",
              idx("output", I));
  }

  for (size_t I = 0; I < T.Fallbacks.size(); ++I)
    if (auto S = tc::checkFallbackCompatible(T, T.Fallbacks[I]); !S)
      Out.error("fallback-shape", S.error().message(), idx("fallback", I));

  // Only a complete transaction has canonical bytes to measure.
  if (Opts.MaxTcBytes != 0 && (TcBytes || T.isComplete())) {
    size_t Size = TcBytes ? TcBytes->size() : T.serialize().size();
    if (Size > Opts.MaxTcBytes)
      Out.warn("tc-oversize",
               "serialized Typecoin transaction is " +
                   std::to_string(Size) + " bytes (advisory cap " +
                   std::to_string(Opts.MaxTcBytes) + ")");
  }
}

/// Diagnostics private to one alternative (primary or a single
/// fallback): its proof term and its claimed types. An error here only
/// condemns this alternative — another may still validate.
void lintAlternative(const Transaction &T, const LintOptions &Opts,
                     LintReport &Out, const std::string &SpanRoot) {
  auto At = [&](const std::string &S) {
    return SpanRoot.empty() ? S : SpanRoot + "/" + S;
  };

  if (!T.Grant)
    Out.error("grant-missing", "transaction has no affine grant (C)",
              At("grant"));
  for (size_t I = 0; I < T.Inputs.size(); ++I)
    if (!T.Inputs[I].Type)
      Out.error("input-type", "input has no claimed type",
                At(idx("input", I)));
  for (size_t I = 0; I < T.Outputs.size(); ++I)
    if (!T.Outputs[I].Type)
      Out.error("output-type", "output has no type", At(idx("output", I)));

  if (!T.Proof) {
    Out.error("proof-missing", "transaction has no proof term",
              At("proof"));
    return;
  }
  AffineAuditOptions AuditOpts;
  AuditOpts.WarnUnused = Opts.WarnUnused;
  auditAffineUsage(T.Proof, {}, {}, Out, At("proof"), AuditOpts);
}

} // namespace

LintReport lint(const Transaction &T, const LintOptions &Opts) {
  LintReport Out;
  lintShared(T, Opts, Out);
  lintAlternative(T, Opts, Out, "");
  for (size_t I = 0; I < T.Fallbacks.size(); ++I)
    lintAlternative(T.Fallbacks[I], Opts, Out, idx("fallback", I));
  return Out;
}

LintReport lintScripts(const bitcoin::Transaction &Btc,
                       const LintOptions &Opts) {
  LintReport Out;
  Severity Policy = policySeverity(Opts);

  if (Btc.serialize().size() > Opts.MaxBtcBytes)
    Out.add(Policy, "tx-oversize",
            "Bitcoin transaction exceeds " +
                std::to_string(Opts.MaxBtcBytes) + " bytes");

  size_t NullDataCount = 0;
  for (size_t I = 0; I < Btc.Outputs.size(); ++I) {
    const bitcoin::TxOut &O = Btc.Outputs[I];
    if (!bitcoin::moneyRange(O.Value))
      Out.error("output-amount", "output value is outside the money range",
                idx("output", I));
    bitcoin::SolvedScript Solved = bitcoin::solveScript(O.ScriptPubKey);
    switch (Solved.Kind) {
    case bitcoin::TxOutKind::NonStandard:
      Out.add(Policy, "script-nonstandard",
              "output script matches no standard template",
              idx("output", I));
      break;
    case bitcoin::TxOutKind::NullData:
      ++NullDataCount;
      break;
    default:
      if (O.Value < DustThreshold)
        Out.add(Policy, "output-dust",
                "output value " + std::to_string(O.Value) +
                    " is below the dust threshold (" +
                    std::to_string(DustThreshold) + ")",
                idx("output", I));
      break;
    }
  }
  if (NullDataCount > 1)
    Out.add(Policy, "script-nulldata-count",
            std::to_string(NullDataCount) +
                " OP_RETURN outputs (relay policy allows one)");

  for (size_t I = 0; I < Btc.Inputs.size(); ++I) {
    auto Elems = Btc.Inputs[I].ScriptSig.decode();
    if (!Elems) {
      Out.add(Policy, "script-sig-malformed", "scriptSig does not decode",
              idx("input", I));
      continue;
    }
    if (Btc.isCoinbase())
      continue;
    for (const auto &E : *Elems)
      if (!E.IsPush && !(E.Op >= bitcoin::OP_1 && E.Op <= bitcoin::OP_16) &&
          E.Op != bitcoin::OP_1NEGATE && E.Op != bitcoin::OP_0) {
        Out.add(Policy, "script-sig-not-push",
                "scriptSig is not push-only", idx("input", I));
        break;
      }
  }
  return Out;
}

/// The embedding lint proper. \p TcHash is `T.hash()`, or null when
/// \p T is incomplete and so has no hash.
static LintReport lintEmbeddingImpl(const Transaction &T,
                                    const bitcoin::Transaction &Btc,
                                    const crypto::Digest32 *TcHash) {
  LintReport Out;
  auto Embedded = tc::extractMetadata(Btc);
  if (!Embedded) {
    Out.error("embed-missing",
              "no Typecoin metadata found in the Bitcoin transaction "
              "(expected a 1-of-2 multisig, bogus-P2PK, or OP_RETURN "
              "carrier)");
    return Out;
  }
  // Round-trip shape: the carried hash must survive re-encoding as a
  // pubkey-shaped metadata blob.
  if (auto Back = tc::metadataFromKey(tc::metadataAsKey(*Embedded));
      !Back || *Back != *Embedded)
    Out.error("embed-roundtrip",
              "embedded metadata does not round-trip through the "
              "pubkey-shaped encoding");
  if (!TcHash) {
    Out.error("embed-incomplete",
              "the Typecoin transaction lacks a grant, proof or type, so "
              "it has no hash to match the embedded one");
    return Out;
  }
  if (*Embedded != *TcHash) {
    Out.error("embed-mismatch",
              "embedded hash does not match the Typecoin transaction "
              "hash");
    return Out;
  }
  if (auto S = tc::checkCorrespondence(T, Btc, *TcHash); !S)
    Out.error("embed-correspondence", S.error().message());
  return Out;
}

LintReport lintEmbedding(const Transaction &T,
                         const bitcoin::Transaction &Btc,
                         const LintOptions &) {
  if (!T.isComplete())
    return lintEmbeddingImpl(T, Btc, nullptr);
  crypto::Digest32 Hash = T.hash();
  return lintEmbeddingImpl(T, Btc, &Hash);
}

LintReport lint(const tc::Pair &P, const LintOptions &Opts) {
  LintReport Out = lint(P.Tc, Opts);
  Out.merge(lintScripts(P.Btc, Opts), "btc");
  Out.merge(lintEmbedding(P.Tc, P.Btc, Opts));
  return Out;
}

/// Shared gate core: reject when shared structure is broken, or when the
/// primary and every fallback carry per-alternative errors.
static Status gateAlternatives(const Transaction &T,
                               const LintOptions &Opts) {
  LintReport Primary;
  lintAlternative(T, Opts, Primary, "");
  if (!Primary.hasErrors())
    return Status::success();
  for (const Transaction &F : T.Fallbacks) {
    LintReport FR;
    lintAlternative(F, Opts, FR, "");
    if (!FR.hasErrors())
      return Status::success(); // Section 5: a valid fallback relays.
  }
  return makeError("lint: primary and every fallback fail pre-validation: " +
                   Primary.firstAtLeast(Severity::Error)->str());
}

Status lintGate(const Transaction &T, const LintOptions &Opts) {
  LintReport Shared;
  lintShared(T, Opts, Shared);
  TC_TRY(Shared.toStatus());
  return gateAlternatives(T, Opts);
}

/// The pair gate. \p Enc is `tc::encodeTx(P.Tc)`, or null when P.Tc is
/// incomplete.
static Status gatePair(const tc::Pair &P, const tc::EncodedTx *Enc,
                       const LintOptions &Opts) {
  LintReport Shared;
  lintShared(P.Tc, Opts, Shared, Enc ? &Enc->Data : nullptr);
  Shared.merge(lintScripts(P.Btc, Opts), "btc");
  Shared.merge(lintEmbeddingImpl(P.Tc, P.Btc, Enc ? &Enc->Hash : nullptr));
  TC_TRY(Shared.toStatus());
  return gateAlternatives(P.Tc, Opts);
}

Status lintGate(const tc::Pair &P, const LintOptions &Opts) {
  if (!P.Tc.isComplete())
    return gatePair(P, nullptr, Opts);
  tc::EncodedTx Enc = tc::encodeTx(P.Tc);
  return gatePair(P, &Enc, Opts);
}

Status lintGate(const tc::Pair &P, const tc::EncodedTx &Enc,
                const LintOptions &Opts) {
  return gatePair(P, &Enc, Opts);
}

} // namespace analysis
} // namespace typecoin
