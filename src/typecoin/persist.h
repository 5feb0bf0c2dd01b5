//===- typecoin/persist.h - On-disk encodings for the store -----*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the node's durable state for store/chainstore.h.
/// The store itself moves opaque bytes; these helpers define what those
/// bytes mean: coupled pairs for the registration journal (the WAL),
/// and the UTXO digest for the epoch checkpoint (which lets an
/// assume-valid replay cross-check its result against the checkpoint
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

/// Hex sha256d of a deterministic encoding of the UTXO set (entries in
/// OutPoint order) — the epoch checkpoint's cross-check digest.
std::string utxoDigestHex(const bitcoin::UtxoSet &Utxo);

} // namespace tc
} // namespace typecoin

#endif // TYPECOIN_TYPECOIN_PERSIST_H
