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

std::string utxoDigestHex(const bitcoin::UtxoSet &Utxo) {
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
  return toHex(crypto::sha256d(W.buffer()));
}

} // namespace tc
} // namespace typecoin
