//===- lf/signature.cpp - LF signatures --------------------------------------===//

#include "lf/signature.h"

namespace typecoin {
namespace lf {

/// Lazily built declarations for the builtin constants.
static const Declaration *builtinLookup(const ConstName &Name) {
  if (Name.Kind != ConstName::Space::Builtin)
    return nullptr;
  static const std::map<std::string, Declaration> Builtins = [] {
    std::map<std::string, Declaration> M;
    Declaration Nat;
    Nat.Kind = Declaration::Sort::Family;
    Nat.FamilyKind = kType();
    M["nat"] = Nat;
    Declaration Principal = Nat;
    M["principal"] = Principal;
    Declaration Plus;
    Plus.Kind = Declaration::Sort::Family;
    Plus.FamilyKind =
        kPi(natType(), kPi(natType(), kPi(natType(), kType())));
    M["plus"] = Plus;
    // `plus/pf` has no Pi-expressible type (its result index is
    // computed); the typechecker special-cases it. We still record it so
    // `contains` works.
    Declaration PlusPf;
    PlusPf.Kind = Declaration::Sort::TermConst;
    PlusPf.TermType = nullptr;
    M["plus/pf"] = PlusPf;
    return M;
  }();
  auto It = Builtins.find(Name.Label);
  return It == Builtins.end() ? nullptr : &It->second;
}

Status Signature::declareFamily(const ConstName &Name, KindPtr K) {
  if (lookup(Name))
    return makeError("signature: redeclaration of " + Name.toString());
  Declaration D;
  D.Kind = Declaration::Sort::Family;
  D.FamilyKind = std::move(K);
  Decls[Name] = std::move(D);
  Order.push_back(Name);
  return Status::success();
}

Status Signature::declareTerm(const ConstName &Name, LFTypePtr Ty) {
  if (lookup(Name))
    return makeError("signature: redeclaration of " + Name.toString());
  Declaration D;
  D.Kind = Declaration::Sort::TermConst;
  D.TermType = std::move(Ty);
  Decls[Name] = std::move(D);
  Order.push_back(Name);
  return Status::success();
}

const Declaration *Signature::lookup(const ConstName &Name) const {
  if (const Declaration *B = builtinLookup(Name))
    return B;
  for (const Signature *S = this; S; S = S->Parent.get()) {
    auto It = S->Decls.find(Name);
    if (It != S->Decls.end())
      return &It->second;
  }
  return nullptr;
}

bool Signature::declaresExplicitly(const ConstName &Name) const {
  for (const Signature *S = this; S; S = S->Parent.get())
    if (S->Decls.count(Name))
      return true;
  return false;
}

Signature Signature::resolved(const std::string &Txid) const {
  assert(!layered());
  Signature Out;
  for (const ConstName &Name : Order) {
    const Declaration &D = Decls.at(Name);
    ConstName NewName = Name.resolved(Txid);
    Declaration NewD;
    NewD.Kind = D.Kind;
    if (D.Kind == Declaration::Sort::Family)
      NewD.FamilyKind = resolveKind(D.FamilyKind, Txid);
    else
      NewD.TermType = resolveType(D.TermType, Txid);
    Out.Decls[NewName] = std::move(NewD);
    Out.Order.push_back(NewName);
  }
  return Out;
}

Status Signature::append(const Signature &Other) {
  assert(!Other.layered());
  for (const ConstName &Name : Other.Order) {
    if (declaresExplicitly(Name))
      return makeError("signature: collision appending " + Name.toString());
    Decls[Name] = Other.Decls.at(Name);
    Order.push_back(Name);
  }
  return Status::success();
}

} // namespace lf
} // namespace typecoin
