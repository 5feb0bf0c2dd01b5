//===- typecoin/persist.cpp - On-disk encodings for the store -------------===//

#include "typecoin/persist.h"

#include "crypto/sha256.h"
#include "support/serialize.h"

namespace typecoin {
namespace tc {

Bytes serializePair(const Pair &P) {
  return serializePair(P, P.Tc.serialize());
}

Bytes serializePair(const Pair &P, const Bytes &TcBytes) {
  Writer W;
  W.writeVarBytes(TcBytes);
  W.writeVarBytes(P.Btc.serialize());
  return W.takeBuffer();
}

Result<Pair> deserializePair(const Bytes &Data) {
  Reader R(Data);
  TC_UNWRAP(TcBytes, R.readVarBytes());
  TC_UNWRAP(BtcBytes, R.readVarBytes());
  TC_TRY(R.expectEnd());
  TC_UNWRAP(Tc, Transaction::deserialize(TcBytes));
  TC_UNWRAP(Btc, bitcoin::Transaction::deserialize(BtcBytes));
  Pair P;
  P.Tc = std::move(Tc);
  P.Btc = std::move(Btc);
  return P;
}

Bytes serializeUtxo(const bitcoin::UtxoSet &Utxo) {
  Writer W;
  W.writeCompactSize(Utxo.size());
  // entries() is an ordered map: the encoding is deterministic, so two
  // nodes with equal sets produce equal digests.
  for (const auto &[Point, Coin] : Utxo.entries()) {
    W.writeBytes(Point.Tx.Hash.data(), Point.Tx.Hash.size());
    W.writeU32(Point.Index);
    W.writeU64(static_cast<uint64_t>(Coin.Out.Value));
    W.writeVarBytes(Coin.Out.ScriptPubKey.bytes());
    W.writeU32(static_cast<uint32_t>(Coin.Height));
    W.writeU8(Coin.IsCoinbase ? 1 : 0);
  }
  return W.takeBuffer();
}

Result<bitcoin::UtxoSet> deserializeUtxo(const Bytes &Data) {
  Reader R(Data);
  bitcoin::UtxoSet Utxo;
  TC_UNWRAP(Count, R.readCompactSize());
  for (uint64_t I = 0; I < Count; ++I) {
    bitcoin::OutPoint Point;
    TC_UNWRAP(Hash, R.readBytes(Point.Tx.Hash.size()));
    std::copy(Hash.begin(), Hash.end(), Point.Tx.Hash.begin());
    TC_UNWRAP(Index, R.readU32());
    Point.Index = Index;
    bitcoin::Coin C;
    TC_UNWRAP(Value, R.readU64());
    C.Out.Value = static_cast<bitcoin::Amount>(Value);
    TC_UNWRAP(Script, R.readVarBytes());
    C.Out.ScriptPubKey = bitcoin::Script(Script);
    TC_UNWRAP(Height, R.readU32());
    C.Height = static_cast<int>(Height);
    TC_UNWRAP(Coinbase, R.readU8());
    C.IsCoinbase = Coinbase != 0;
    Utxo.add(Point, std::move(C));
  }
  TC_TRY(R.expectEnd());
  return Utxo;
}

std::string utxoDigestHex(const bitcoin::UtxoSet &Utxo) {
  return toHex(crypto::sha256d(serializeUtxo(Utxo)));
}

} // namespace tc
} // namespace typecoin
