//===- logic/basis.h - Typecoin bases -----------------------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bases (Figure 1: `Sigma ::= e | Sigma, c : s` where a sort `s` is a
/// kind, an LF type, or a proposition). "A transaction uses its local
/// basis to define concepts or rules relevant to its transaction. ...
/// The *global basis* is the local basis appended to the bases of all
/// previous transactions" (Section 4).
///
/// Proposition-sorted constants are persistent rules (`merge`, `split`,
/// `issue`, ...); they are referenced from proof terms and never
/// consumed.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_LOGIC_BASIS_H
#define TYPECOIN_LOGIC_BASIS_H

#include "logic/proposition.h"

namespace typecoin {
namespace logic {

/// A basis: LF declarations plus proposition-sorted constants.
class Basis {
public:
  Basis() = default;

  /// The LF portion (families and term constants).
  const lf::Signature &lfSig() const { return LF; }
  lf::Signature &lfSig() { return LF; }

  Status declareFamily(const lf::ConstName &Name, lf::KindPtr K) {
    return LF.declareFamily(Name, std::move(K));
  }
  Status declareTerm(const lf::ConstName &Name, lf::LFTypePtr Ty) {
    return LF.declareTerm(Name, std::move(Ty));
  }
  /// Declare a persistent proposition constant `Name : A`.
  Status declareProp(const lf::ConstName &Name, PropPtr A);

  /// Look up a proposition constant (here or in a layer's parents);
  /// null if absent.
  const PropPtr *lookupProp(const lf::ConstName &Name) const;

  bool contains(const lf::ConstName &Name) const {
    return LF.contains(Name) || lookupProp(Name) != nullptr;
  }

  /// Basis formation (Appendix A `Sigma |- Sigma' ok`): every
  /// declaration well-formed against \p Global extended with this
  /// basis's earlier declarations; all names local.
  Status checkFormedAgainst(const Basis &Global) const;

  /// Basis freshness (Appendix A): kinds are unconditionally fresh;
  /// type- and prop-sorted declarations must be fresh.
  Status checkFresh() const;

  /// `this` -> txid in names and bodies. Not defined on a layer.
  Basis resolved(const std::string &Txid) const;

  /// Append another basis (the global-basis accumulation step). An LF
  /// name collides with an explicit LF declaration, a proposition name
  /// with a proposition constant, here or in a layer's parents. \p Other
  /// must not be a layer.
  Status append(const Basis &Other);

  /// Not defined on a layer.
  size_t propCount() const {
    assert(!layered());
    return PropOrder.size();
  }
  /// Not defined on a layer.
  const std::vector<lf::ConstName> &propOrder() const {
    assert(!layered());
    return PropOrder;
  }

  /// Not defined on a layer.
  void serialize(Writer &W) const;
  static Result<Basis> deserialize(Reader &R);

  /// Is this a check-scoped layer over a parent (\ref BasisLayer)?
  bool layered() const { return Parent.get() != nullptr; }

protected:
  /// An empty layer over \p Parent (see \ref BasisLayer).
  explicit Basis(const Basis *Parent) : LF(&Parent->LF), Parent(Parent) {}

private:
  lf::Signature LF;
  std::map<lf::ConstName, PropPtr> Props;
  std::vector<lf::ConstName> PropOrder;
  lf::LayerLink<Basis> Parent;
};

/// The combined basis of one check (`Sigma_global, Sigma`, Section 4)
/// as a layer: the local declarations over the global basis, with every
/// lookup, redeclaration check and append-collision check falling
/// through to it exactly as a copy of the global basis extended by the
/// local one would answer. Only lookups are needed while checking, so
/// the check never copies the global basis, which only grows. The
/// parent must outlive the layer, and a layer is never copied,
/// resolved, serialized or stored: it exists only inside one check.
class BasisLayer : public Basis {
public:
  explicit BasisLayer(const Basis &Parent) : Basis(&Parent) {}
  BasisLayer(const BasisLayer &) = delete;
  BasisLayer &operator=(const BasisLayer &) = delete;
};

} // namespace logic
} // namespace typecoin

#endif // TYPECOIN_LOGIC_BASIS_H
