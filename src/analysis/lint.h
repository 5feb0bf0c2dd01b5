//===- analysis/lint.h - Pre-validation lint for Typecoin --------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `tclint`: a fast, allocation-light pre-validation pass over Typecoin
/// transactions and their carrying Bitcoin transactions, run *before*
/// the full LF/logic checker. Three families of diagnostics:
///
///   1. **Affine usage** (analysis/affine.h): duplicate consumption,
///      never-consumed hypotheses, usage under `!`, unbound variables —
///      on the primary proof and every fallback proof.
///   2. **Script standardness**, mirroring the relay policy of
///      `bitcoin/standard.cpp` but reporting *every* violation with its
///      output/input index instead of stopping at the first.
///   3. **Metadata embedding** well-formedness (`typecoin/embed.cpp`):
///      the carried hash must extract, round-trip, and match, the
///      input/output prefixes must correspond, and size limits hold.
///
/// Severity contract: an `Error` diagnostic is emitted only where the
/// full pipeline (proof checker, correspondence check, or relay policy)
/// is guaranteed to reject; everything merely suspicious is a
/// `Warning`. This is what makes `lint` usable as a cheap reject-early
/// gate (\ref lintGate) in `typecoin/node.cpp` and
/// `services/batchserver.cpp`.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_ANALYSIS_LINT_H
#define TYPECOIN_ANALYSIS_LINT_H

#include "analysis/affine.h"
#include "typecoin/node.h"

namespace typecoin {
namespace analysis {

/// Lint knobs.
struct LintOptions {
  /// Relay size cap for the carrying Bitcoin transaction (bytes),
  /// mirroring bitcoin/standard.cpp.
  size_t MaxBtcBytes = 100000;
  /// Advisory cap on the serialized Typecoin transaction (it travels
  /// out-of-band; oversized proofs are a denial-of-service vector).
  size_t MaxTcBytes = 1 << 20;
  /// Enforce script standardness (matches MempoolPolicy::RequireStandard;
  /// when false, script findings are downgraded to warnings).
  bool RequireStandard = true;
  /// Emit affine-unused warnings.
  bool WarnUnused = true;
};

/// Lint a Typecoin transaction alone (structure, amounts, fallback
/// compatibility, and the affine audit of every proof).
LintReport lint(const tc::Transaction &T,
                const LintOptions &Opts = LintOptions());

/// Lint a carrying Bitcoin transaction's relay standardness, reporting
/// all violations (size, per-output script shape, dust, OP_RETURN count,
/// per-input push-only discipline).
LintReport lintScripts(const bitcoin::Transaction &Btc,
                       const LintOptions &Opts = LintOptions());

/// Lint the metadata embedding of a coupled pair: hash extraction,
/// round-trip shape, hash match, and structural correspondence.
LintReport lintEmbedding(const tc::Transaction &T,
                         const bitcoin::Transaction &Btc,
                         const LintOptions &Opts = LintOptions());

/// Lint a coupled pair end-to-end: transaction + scripts + embedding.
LintReport lint(const tc::Pair &P, const LintOptions &Opts = LintOptions());

/// The reject-early gate wired into Node::submitPair and
/// BatchServer::recordWriteThrough. Rejects when the lint proves the
/// pair can never be accepted: any shared-structure error (inputs,
/// amounts, scripts, embedding — identical across fallbacks by the
/// Section 5 compatibility rules), or proof-class errors in the primary
/// *and every* fallback (an invalid primary with a valid fallback is
/// still relayable, Section 5).
Status lintGate(const tc::Pair &P, const LintOptions &Opts = LintOptions());
/// As above, with the payload already encoded: \p Enc must equal
/// `tc::encodeTx(P.Tc)`. The size and embedding checks read it instead
/// of re-serializing and re-hashing the transaction; the verdict is the
/// same.
Status lintGate(const tc::Pair &P, const tc::EncodedTx &Enc,
                const LintOptions &Opts = LintOptions());

/// Gate for a bare Typecoin transaction (the batch-server write-through
/// path, before the Bitcoin carrier exists).
Status lintGate(const tc::Transaction &T,
                const LintOptions &Opts = LintOptions());

} // namespace analysis
} // namespace typecoin

#endif // TYPECOIN_ANALYSIS_LINT_H
