//===- lf/signature.h - LF signatures (family/term constants) ---*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LF portion of a Typecoin basis: declarations of type-family
/// constants (`c : k`) and index-term constants (`c : tau`). The paper
/// calls the whole declaration set a *basis* "to avoid the unfortunate
/// terminological collision with digital signatures" (Section 4); the
/// proposition-level declarations (`c : A`) live one layer up in
/// `logic::Basis`, which embeds one of these.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_LF_SIGNATURE_H
#define TYPECOIN_LF_SIGNATURE_H

#include "lf/syntax.h"

#include <cassert>
#include <map>
#include <vector>

namespace typecoin {
namespace logic {
class Basis;
} // namespace logic
namespace lf {

/// The parent pointer of a check-scoped layer (\ref SignatureLayer,
/// `logic::BasisLayer`). A layer borrows its parent for one check, so
/// the link is never copied: a copy or assignment of a layered
/// signature or basis (e.g. slicing it into a stored one) starts
/// unlinked, and asserts in debug builds.
template <typename T> class LayerLink {
public:
  LayerLink() = default;
  explicit LayerLink(const T *Parent) : Parent(Parent) {}
  LayerLink(const LayerLink &Other) {
    assert(!Other.Parent && "a check-scoped layer must not be copied");
    (void)Other;
  }
  LayerLink &operator=(const LayerLink &Other) {
    assert(!Parent && !Other.Parent &&
           "a check-scoped layer must not be assigned");
    (void)Other;
    return *this;
  }

  const T *get() const { return Parent; }

private:
  const T *Parent = nullptr;
};

/// A declaration: a type family with its kind, or a term constant with
/// its type.
struct Declaration {
  enum class Sort { Family, TermConst };
  Sort Kind = Sort::Family;
  KindPtr FamilyKind; ///< Sort::Family
  LFTypePtr TermType; ///< Sort::TermConst
};

/// An ordered set of LF declarations with by-name lookup. Builtins
/// (`nat`, `principal`, `plus`) are implicitly present.
class Signature {
public:
  Signature() = default;

  /// Declare a type family `Name : K`. Fails on redeclaration.
  Status declareFamily(const ConstName &Name, KindPtr K);
  /// Declare a term constant `Name : Ty`. Fails on redeclaration.
  Status declareTerm(const ConstName &Name, LFTypePtr Ty);

  /// Look up a declaration (including builtins, and a layer's parents);
  /// null if absent.
  const Declaration *lookup(const ConstName &Name) const;

  bool contains(const ConstName &Name) const {
    return lookup(Name) != nullptr;
  }

  /// Number of explicit (non-builtin) declarations. Not defined on a
  /// layer.
  size_t size() const {
    assert(!layered());
    return Order.size();
  }

  /// Explicit declarations in declaration order. Not defined on a layer.
  const std::vector<ConstName> &order() const {
    assert(!layered());
    return Order;
  }

  /// A copy with every `this.l` renamed to `Txid.l`, in names and in
  /// declaration bodies (chain formation, Appendix A). Not defined on a
  /// layer.
  Signature resolved(const std::string &Txid) const;

  /// Append all of \p Other's declarations (fails on collisions with
  /// explicit declarations here or in a layer's parents; builtins are
  /// not checked). \p Other must not be a layer.
  Status append(const Signature &Other);

  /// Is this a check-scoped layer over a parent (\ref SignatureLayer)?
  bool layered() const { return Parent.get() != nullptr; }

protected:
  /// An empty layer over \p Parent (see \ref SignatureLayer).
  explicit Signature(const Signature *Parent) : Parent(Parent) {}

private:
  /// Builds its LF part as a layer over its parent basis's.
  friend class logic::Basis;

  /// Is \p Name explicitly declared here or in a parent?
  bool declaresExplicitly(const ConstName &Name) const;

  std::map<ConstName, Declaration> Decls;
  std::vector<ConstName> Order;
  LayerLink<Signature> Parent;
};

/// Declarations local to one check, layered over a parent signature:
/// what a copy of the parent extended by these declarations would
/// answer, without the copy. Lookups, redeclaration and append-collision
/// checks fall through to the parent, so the cost of a check depends on
/// what it declares, not on the size of the parent. The parent must
/// outlive the layer, and a layer is never copied, resolved or
/// serialized: it exists only inside one check.
class SignatureLayer : public Signature {
public:
  explicit SignatureLayer(const Signature &Parent) : Signature(&Parent) {}
  SignatureLayer(const SignatureLayer &) = delete;
  SignatureLayer &operator=(const SignatureLayer &) = delete;
};

} // namespace lf
} // namespace typecoin

#endif // TYPECOIN_LF_SIGNATURE_H
