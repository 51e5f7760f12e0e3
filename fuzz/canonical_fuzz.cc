// Fuzz target: the one α-renaming serializer (service/canonical.h) behind
// all three shape-keyed caches. Whatever the parser accepts:
//  - Canonicalize (plan-cache key) must not crash, must be deterministic and
//    idempotent — the canonical form canonicalizes to itself — and its key
//    must be the ViewSignature of the canonical query's one-disjunct UCQ;
//  - ViewSignature (view-catalog key) must not change when every VarId is
//    renamed;
//  - FragmentKey (estimate-feedback key) must not change with the head, and
//    the headless canonical form must be idempotent too;
//  - FragmentShape (the feedback store's lookup filter) must agree wherever
//    FragmentKeys are equal — otherwise the filter would hide an entry —
//    and must not change with atom order.
// A violation here is a cache corruption bug: two runs of the same query
// landing on different entries, or worse, different queries sharing one.

#include <string>
#include <string_view>

#include "fuzz/fuzz_target.h"
#include "rdf/dictionary.h"
#include "service/canonical.h"
#include "sparql/parser.h"

namespace {

using rdfopt::ConjunctiveQuery;
using rdfopt::PatternTerm;
using rdfopt::UnionQuery;
using rdfopt::VarId;

UnionQuery OneDisjunct(const ConjunctiveQuery& cq) {
  UnionQuery ucq;
  ucq.head = cq.head;
  ucq.disjuncts.push_back(cq);
  return ucq;
}

/// An injective renaming of every variable: reverses and spreads the ids.
ConjunctiveQuery Renamed(const ConjunctiveQuery& cq) {
  auto rename = [](VarId v) { return static_cast<VarId>(3 * (1000 - v) + 1); };
  auto term = [&](const PatternTerm& t) {
    return t.is_var() ? PatternTerm::Var(rename(t.var())) : t;
  };
  ConjunctiveQuery out = cq;
  for (VarId& v : out.head) v = rename(v);
  for (rdfopt::TriplePattern& atom : out.atoms) {
    atom.s = term(atom.s);
    atom.p = term(atom.p);
    atom.o = term(atom.o);
  }
  for (auto& binding : out.head_bindings) binding.first = rename(binding.first);
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 1 << 16) return 0;
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  rdfopt::Dictionary dict;
  rdfopt::Result<rdfopt::Query> parsed = rdfopt::ParseQuery(input, &dict);
  if (!parsed.ok()) return 0;
  const ConjunctiveQuery& cq = parsed.ValueOrDie().cq;
  // Renamed() keeps ids distinct only below 1000.
  if (parsed.ValueOrDie().vars.size() >= 1000) return 0;

  const rdfopt::CanonicalizedQuery first = rdfopt::Canonicalize(cq);
  // Determinism: same input, same key.
  const rdfopt::CanonicalizedQuery again = rdfopt::Canonicalize(cq);
  if (first.key != again.key) __builtin_trap();
  // Idempotence: the canonical form is its own canonical form.
  const rdfopt::CanonicalizedQuery fixpoint =
      rdfopt::Canonicalize(first.query.cq);
  if (fixpoint.key != first.key) __builtin_trap();
  // One serializer: the plan-cache key is the canonical query's signature.
  if (rdfopt::ViewSignature(OneDisjunct(first.query.cq)) != first.key) {
    __builtin_trap();
  }

  // View-catalog key: invariant under renaming every variable.
  if (rdfopt::ViewSignature(OneDisjunct(cq)) !=
      rdfopt::ViewSignature(OneDisjunct(Renamed(cq)))) {
    __builtin_trap();
  }

  // Feedback key: the headless canonical key, whatever the head.
  ConjunctiveQuery body;
  body.atoms = cq.atoms;
  const rdfopt::CanonicalizedQuery headless = rdfopt::Canonicalize(body);
  const std::string fragment_key = rdfopt::FragmentKey(cq);
  if (fragment_key != headless.key) __builtin_trap();
  ConjunctiveQuery reprojected = cq;
  reprojected.head.assign(cq.head.rbegin(), cq.head.rend());
  if (!cq.atoms.empty() && cq.atoms[0].s.is_var()) {
    reprojected.head.push_back(cq.atoms[0].s.var());
  }
  if (rdfopt::FragmentKey(reprojected) != fragment_key) __builtin_trap();
  if (rdfopt::FragmentKey(Renamed(cq)) != fragment_key) __builtin_trap();
  // Headless idempotence.
  if (rdfopt::Canonicalize(headless.query.cq).key != headless.key ||
      rdfopt::FragmentKey(headless.query.cq) != fragment_key) {
    __builtin_trap();
  }

  // Feedback filter: equal FragmentKeys imply equal FragmentShapes. Every
  // conjunction checked above shares `cq`'s key; a reversed atom order may
  // or may not (canonicalization is complete only in practice), but its
  // shape must not move either way.
  const uint64_t shape = rdfopt::FragmentShape(cq);
  for (const ConjunctiveQuery* same_key :
       {static_cast<const ConjunctiveQuery*>(&reprojected),
        static_cast<const ConjunctiveQuery*>(&body), &headless.query.cq}) {
    if (rdfopt::FragmentShape(*same_key) != shape) __builtin_trap();
  }
  if (rdfopt::FragmentShape(Renamed(cq)) != shape) __builtin_trap();
  ConjunctiveQuery reversed = cq;
  reversed.atoms.assign(cq.atoms.rbegin(), cq.atoms.rend());
  if (rdfopt::FragmentShape(reversed) != shape) __builtin_trap();
  return 0;
}
