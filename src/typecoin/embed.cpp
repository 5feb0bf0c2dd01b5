//===- typecoin/embed.cpp - Embedding into Bitcoin transactions ---------------===//

#include "typecoin/embed.h"

namespace typecoin {
namespace tc {

using bitcoin::Script;
using bitcoin::TxIn;
using bitcoin::TxOut;

Bytes metadataAsKey(const crypto::Digest32 &Hash) {
  Bytes Out;
  Out.reserve(33);
  Out.push_back(0x02);
  Out.insert(Out.end(), Hash.begin(), Hash.end());
  return Out;
}

Result<crypto::Digest32> metadataFromKey(const Bytes &Key) {
  if (Key.size() != 33 || Key[0] != 0x02)
    return makeError("embed: metadata key must be 33 bytes with 0x02 "
                     "prefix");
  crypto::Digest32 Out;
  std::copy(Key.begin() + 1, Key.end(), Out.begin());
  return Out;
}

static Result<bitcoin::OutPoint> outpointOf(const Input &In) {
  bitcoin::OutPoint Point;
  TC_UNWRAP(Raw, fromHexFixed<32>(In.SourceTxid));
  // Display hex is byte-reversed relative to the internal order.
  std::reverse(Raw.begin(), Raw.end());
  Point.Tx.Hash = Raw;
  Point.Index = In.SourceIndex;
  return Point;
}

Result<bitcoin::Transaction>
embedTransaction(const tc::Transaction &Tc, EmbedScheme Scheme,
                 const std::vector<bitcoin::OutPoint> &ExtraInputs,
                 const std::vector<TxOut> &ExtraOutputs) {
  if (Scheme == EmbedScheme::Multisig1of2 && Tc.Outputs.empty())
    return makeError("embed: 1-of-2 scheme needs at least one output");

  crypto::Digest32 Hash = Tc.hash();
  bitcoin::Transaction Btc;
  for (const Input &In : Tc.Inputs) {
    TC_UNWRAP(Point, outpointOf(In));
    Btc.Inputs.push_back(TxIn{Point, Script(), 0xffffffff});
  }
  for (const bitcoin::OutPoint &Point : ExtraInputs)
    Btc.Inputs.push_back(TxIn{Point, Script(), 0xffffffff});

  for (size_t I = 0; I < Tc.Outputs.size(); ++I) {
    const Output &Out = Tc.Outputs[I];
    TxOut BOut;
    BOut.Value = Out.Amount;
    if (I == 0 && Scheme == EmbedScheme::Multisig1of2)
      BOut.ScriptPubKey = bitcoin::makeMultiSig(
          1, {Out.Owner.serialize(), metadataAsKey(Hash)});
    else
      BOut.ScriptPubKey = bitcoin::makeP2PKH(Out.ownerId());
    Btc.Outputs.push_back(std::move(BOut));
  }

  if (Scheme == EmbedScheme::BogusOutput) {
    TxOut Bogus;
    Bogus.Value = bitcoin::DustThreshold; // Burned forever.
    Script S;
    S.push(metadataAsKey(Hash));
    S.op(bitcoin::OP_CHECKSIG);
    Bogus.ScriptPubKey = std::move(S);
    Btc.Outputs.push_back(std::move(Bogus));
  } else if (Scheme == EmbedScheme::NullData) {
    TxOut Data;
    Data.Value = 0;
    Data.ScriptPubKey =
        bitcoin::makeNullData(Bytes(Hash.begin(), Hash.end()));
    Btc.Outputs.push_back(std::move(Data));
  }

  for (const TxOut &Out : ExtraOutputs)
    Btc.Outputs.push_back(Out);
  return Btc;
}

Result<crypto::Digest32> extractMetadata(const bitcoin::Transaction &Btc) {
  for (const TxOut &Out : Btc.Outputs) {
    bitcoin::SolvedScript Solved = bitcoin::solveScript(Out.ScriptPubKey);
    switch (Solved.Kind) {
    case bitcoin::TxOutKind::MultiSig:
      if (Solved.Required == 1 && Solved.Data.size() == 2) {
        if (auto Hash = metadataFromKey(Solved.Data[1]))
          return *Hash;
      }
      break;
    case bitcoin::TxOutKind::PubKey:
      if (auto Hash = metadataFromKey(Solved.Data[0])) {
        // Only treat it as metadata when it cannot be parsed as a real
        // curve point is impossible to know; the bogus scheme relies on
        // position, so accept it.
        return *Hash;
      }
      break;
    case bitcoin::TxOutKind::NullData:
      if (Solved.Data.size() == 1 && Solved.Data[0].size() == 32) {
        crypto::Digest32 Hash;
        std::copy(Solved.Data[0].begin(), Solved.Data[0].end(),
                  Hash.begin());
        return Hash;
      }
      break;
    default:
      break;
    }
  }
  return makeError("embed: no Typecoin metadata found");
}

static Status checkOneCorrespondence(const tc::Transaction &Tc,
                                     const bitcoin::Transaction &Btc) {
  if (Btc.Inputs.size() < Tc.Inputs.size())
    return makeError("embed: Bitcoin transaction has fewer inputs than "
                     "the Typecoin transaction");
  for (size_t I = 0; I < Tc.Inputs.size(); ++I) {
    TC_UNWRAP(Point, outpointOf(Tc.Inputs[I]));
    if (!(Btc.Inputs[I].Prevout == Point))
      return makeError("embed: input " + std::to_string(I) +
                       " outpoint mismatch");
  }
  if (Btc.Outputs.size() < Tc.Outputs.size())
    return makeError("embed: Bitcoin transaction has fewer outputs than "
                     "the Typecoin transaction");
  for (size_t I = 0; I < Tc.Outputs.size(); ++I) {
    const Output &Out = Tc.Outputs[I];
    const TxOut &BOut = Btc.Outputs[I];
    if (BOut.Value != Out.Amount)
      return makeError("embed: output " + std::to_string(I) +
                       " amount mismatch");
    bitcoin::SolvedScript Solved = bitcoin::solveScript(BOut.ScriptPubKey);
    bool OwnerMatches = false;
    if (Solved.Kind == bitcoin::TxOutKind::PubKeyHash) {
      auto Id = Out.ownerId();
      OwnerMatches = Solved.Data[0] == Bytes(Id.Hash.begin(), Id.Hash.end());
    } else if (Solved.Kind == bitcoin::TxOutKind::MultiSig) {
      for (const Bytes &Key : Solved.Data)
        if (Key == Out.Owner.serialize())
          OwnerMatches = true;
    }
    if (!OwnerMatches)
      return makeError("embed: output " + std::to_string(I) +
                       " is not locked by the declared owner");
  }
  return Status::success();
}

Status checkCorrespondence(const tc::Transaction &Tc,
                           const bitcoin::Transaction &Btc) {
  return checkCorrespondence(Tc, Btc, Tc.hash());
}

Status checkCorrespondence(const tc::Transaction &Tc,
                           const bitcoin::Transaction &Btc,
                           const crypto::Digest32 &TcHash) {
  TC_UNWRAP(Embedded, extractMetadata(Btc));
  if (Embedded != TcHash)
    return makeError("embed: embedded hash does not match the Typecoin "
                     "transaction");
  TC_TRY(checkOneCorrespondence(Tc, Btc));
  for (size_t I = 0; I < Tc.Fallbacks.size(); ++I) {
    if (auto S = checkFallbackCompatible(Tc, Tc.Fallbacks[I]); !S)
      return S.takeError().withContext("fallback " + std::to_string(I));
    if (auto S = checkOneCorrespondence(Tc.Fallbacks[I], Btc); !S)
      return S.takeError().withContext("fallback " + std::to_string(I));
  }
  return Status::success();
}

Status checkFallbackCompatible(const tc::Transaction &Primary,
                               const tc::Transaction &Fallback) {
  if (Primary.Inputs.size() != Fallback.Inputs.size())
    return makeError("fallback: input count differs");
  for (size_t I = 0; I < Primary.Inputs.size(); ++I) {
    const Input &A = Primary.Inputs[I];
    const Input &B = Fallback.Inputs[I];
    if (A.SourceTxid != B.SourceTxid || A.SourceIndex != B.SourceIndex)
      return makeError("fallback: input " + std::to_string(I) +
                       " spends a different txout");
    if (A.Amount != B.Amount)
      return makeError("fallback: input " + std::to_string(I) +
                       " bitcoin amount differs");
  }
  if (Primary.Outputs.size() != Fallback.Outputs.size())
    return makeError("fallback: output count differs");
  for (size_t I = 0; I < Primary.Outputs.size(); ++I) {
    const Output &A = Primary.Outputs[I];
    const Output &B = Fallback.Outputs[I];
    if (!(A.Owner == B.Owner))
      return makeError("fallback: output " + std::to_string(I) +
                       " pays a different principal");
    if (A.Amount != B.Amount)
      return makeError("fallback: output " + std::to_string(I) +
                       " bitcoin amount differs");
  }
  if (!Fallback.Fallbacks.empty())
    return makeError("fallback: fallbacks must not nest");
  return Status::success();
}

} // namespace tc
} // namespace typecoin
