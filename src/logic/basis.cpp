//===- logic/basis.cpp - Typecoin bases ----------------------------------------===//

#include "logic/basis.h"

namespace typecoin {
namespace logic {

Status Basis::declareProp(const lf::ConstName &Name, PropPtr A) {
  if (contains(Name))
    return makeError("basis: redeclaration of " + Name.toString());
  Props[Name] = std::move(A);
  PropOrder.push_back(Name);
  return Status::success();
}

const PropPtr *Basis::lookupProp(const lf::ConstName &Name) const {
  for (const Basis *B = this; B; B = B->Parent.get()) {
    auto It = B->Props.find(Name);
    if (It != B->Props.end())
      return &It->second;
  }
  return nullptr;
}

Status Basis::checkFormedAgainst(const Basis &Global) const {
  // Later declarations may reference earlier ones: accumulate them in a
  // layer over the global signature.
  lf::SignatureLayer Combined(Global.lfSig());
  for (const lf::ConstName &Name : LF.order()) {
    if (!Name.isLocal())
      return makeError("basis: declaration " + Name.toString() +
                       " is not a local (this.*) constant");
    const lf::Declaration *D = LF.lookup(Name);
    if (D->Kind == lf::Declaration::Sort::Family) {
      TC_TRY(lf::checkKind(Combined, {}, D->FamilyKind));
      TC_TRY(Combined.declareFamily(Name, D->FamilyKind));
    } else {
      TC_UNWRAP(K, lf::kindOfType(Combined, {}, D->TermType));
      if (K->KindTag != lf::Kind::Tag::Type)
        return makeError("basis: term constant " + Name.toString() +
                         " declared at non-type family");
      TC_TRY(Combined.declareTerm(Name, D->TermType));
    }
  }
  for (const lf::ConstName &Name : PropOrder) {
    if (!Name.isLocal())
      return makeError("basis: declaration " + Name.toString() +
                       " is not a local (this.*) constant");
    TC_TRY(checkProp(Combined, {}, Props.at(Name)));
  }
  return Status::success();
}

Status Basis::checkFresh() const {
  for (const lf::ConstName &Name : LF.order()) {
    const lf::Declaration *D = LF.lookup(Name);
    if (D->Kind == lf::Declaration::Sort::Family)
      continue; // Kind-sorted declarations are unconditionally fresh.
    if (auto S = checkTypeFresh(D->TermType); !S)
      return S.takeError().withContext("basis: declaration " +
                                       Name.toString());
  }
  for (const lf::ConstName &Name : PropOrder) {
    if (auto S = checkPropFresh(Props.at(Name)); !S)
      return S.takeError().withContext("basis: declaration " +
                                       Name.toString());
  }
  return Status::success();
}

Basis Basis::resolved(const std::string &Txid) const {
  assert(!layered());
  Basis Out;
  Out.LF = LF.resolved(Txid);
  for (const lf::ConstName &Name : PropOrder) {
    lf::ConstName NewName = Name.resolved(Txid);
    Out.Props[NewName] = resolveProp(Props.at(Name), Txid);
    Out.PropOrder.push_back(NewName);
  }
  return Out;
}

Status Basis::append(const Basis &Other) {
  assert(!Other.layered());
  TC_TRY(LF.append(Other.LF));
  for (const lf::ConstName &Name : Other.PropOrder) {
    if (lookupProp(Name))
      return makeError("basis: collision appending " + Name.toString());
    Props[Name] = Other.Props.at(Name);
    PropOrder.push_back(Name);
  }
  return Status::success();
}

void Basis::serialize(Writer &W) const {
  assert(!layered());
  lf::writeSignature(W, LF);
  W.writeCompactSize(PropOrder.size());
  for (const lf::ConstName &Name : PropOrder) {
    lf::writeConstName(W, Name);
    writeProp(W, Props.at(Name));
  }
}

Result<Basis> Basis::deserialize(Reader &R) {
  Basis Out;
  TC_UNWRAP(Sig, lf::readSignature(R));
  Out.LF = std::move(Sig);
  TC_UNWRAP(Count, R.readCompactSize());
  if (Count > 100000)
    return makeError("basis: implausible prop-constant count");
  for (uint64_t I = 0; I < Count; ++I) {
    TC_UNWRAP(Name, lf::readConstName(R));
    TC_UNWRAP(A, readProp(R));
    TC_TRY(Out.declareProp(Name, A));
  }
  return Out;
}

} // namespace logic
} // namespace typecoin
