//===- typecoin/persist.h - On-disk encodings for the store -----*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the node's durable state for store/chainstore.h.
/// The store itself moves opaque bytes; these helpers define what those
/// bytes mean: coupled pairs for the registration journal and WAL, and
/// the UTXO set for the epoch snapshot (whose sha256d digest lets an
/// assume-valid replay cross-check its result against the snapshot
/// without re-running script checks).
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_TYPECOIN_PERSIST_H
#define TYPECOIN_TYPECOIN_PERSIST_H

#include "bitcoin/utxo.h"
#include "typecoin/node.h"

namespace typecoin {
namespace tc {

/// Encode a coupled pair (Typecoin transaction + Bitcoin carrier).
Bytes serializePair(const Pair &P);
/// As above, with the Typecoin transaction already serialized: \p TcBytes
/// must equal `P.Tc.serialize()`. The result is byte-identical.
Bytes serializePair(const Pair &P, const Bytes &TcBytes);
Result<Pair> deserializePair(const Bytes &Data);

/// Deterministic encoding of the UTXO set (entries in OutPoint order).
Bytes serializeUtxo(const bitcoin::UtxoSet &Utxo);
Result<bitcoin::UtxoSet> deserializeUtxo(const Bytes &Data);

/// Hex sha256d of \ref serializeUtxo — the epoch snapshot's
/// cross-check digest.
std::string utxoDigestHex(const bitcoin::UtxoSet &Utxo);

} // namespace tc
} // namespace typecoin

#endif // TYPECOIN_TYPECOIN_PERSIST_H
