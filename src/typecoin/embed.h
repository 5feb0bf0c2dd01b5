//===- typecoin/embed.h - Embedding into Bitcoin transactions ----*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Overlaying Typecoin transactions atop Bitcoin transactions
/// (Section 3.3, "Metadata in Bitcoin"). The transaction hash must ride
/// inside a standard script; the paper's chosen scheme is the 1-of-2
/// m-of-n multisig, where "one of the public keys is the actual public
/// key, the other 'public key' is the desired metadata. Since the output
/// can be unlocked by satisfying just one of the two keys (the real
/// one), the output can be spent, and its entry in the unspent-txout
/// table can be garbage-collected."
///
/// The rejected bogus-output strategy and a modern OP_RETURN carrier are
/// also implemented, for the UTXO-deadweight experiment (T3).
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_TYPECOIN_EMBED_H
#define TYPECOIN_TYPECOIN_EMBED_H

#include "bitcoin/standard.h"
#include "typecoin/transaction.h"

namespace typecoin {
namespace tc {

/// How the Typecoin hash is carried in the Bitcoin transaction.
enum class EmbedScheme {
  /// The paper's scheme: the first output is a 1-of-2 bare multisig of
  /// [owner key, metadata-as-key]; spendable, so GC-able.
  Multisig1of2,
  /// The rejected strategy: an extra unspendable P2PK output whose
  /// "public key" is the metadata. Permanent UTXO deadweight.
  BogusOutput,
  /// Post-2014 alternative: a zero-value OP_RETURN data carrier.
  NullData,
};

/// Format a 32-byte hash as a 33-byte compressed-pubkey-shaped blob
/// (0x02 prefix), acceptable to the multisig template matcher.
Bytes metadataAsKey(const crypto::Digest32 &Hash);
/// Recover the hash from a metadata key blob.
Result<crypto::Digest32> metadataFromKey(const Bytes &Key);

/// Construct the (unsigned) Bitcoin transaction corresponding to \p Tc:
/// its inputs are the Typecoin inputs' outpoints followed by
/// \p ExtraInputs (trivial type-1 inputs that balance amounts or pay the
/// fee, Section 3.1); its outputs realize the Typecoin outputs' amounts
/// and owners plus \p ExtraOutputs (e.g. bitcoin change), with the hash
/// embedded per \p Scheme. Requires at least one Typecoin output for
/// Multisig1of2.
Result<bitcoin::Transaction>
embedTransaction(const Transaction &Tc, EmbedScheme Scheme,
                 const std::vector<bitcoin::OutPoint> &ExtraInputs = {},
                 const std::vector<bitcoin::TxOut> &ExtraOutputs = {});

/// Extract the embedded Typecoin hash from a Bitcoin transaction
/// (trying all schemes).
Result<crypto::Digest32> extractMetadata(const bitcoin::Transaction &Btc);

/// Verify the correspondence required by Section 3: the Bitcoin
/// transaction's input prefix matches the Typecoin inputs, its output
/// prefix realizes the Typecoin outputs (amount and owner), and the
/// embedded hash equals `Tc.hash()` — and likewise for every fallback,
/// which must "map onto the same Bitcoin transaction" (Section 5).
Status checkCorrespondence(const Transaction &Tc,
                           const bitcoin::Transaction &Btc);
/// As above, with the Typecoin hash already computed: \p TcHash must
/// equal `Tc.hash()`.
Status checkCorrespondence(const Transaction &Tc,
                           const bitcoin::Transaction &Btc,
                           const crypto::Digest32 &TcHash);

/// Are two Typecoin transactions compatible as primary/fallback — same
/// input txouts, same output principals, same input and output bitcoin
/// amounts (Section 5)?
Status checkFallbackCompatible(const Transaction &Primary,
                               const Transaction &Fallback);

} // namespace tc
} // namespace typecoin

#endif // TYPECOIN_TYPECOIN_EMBED_H
