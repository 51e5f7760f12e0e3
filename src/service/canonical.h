#ifndef RDFOPT_SERVICE_CANONICAL_H_
#define RDFOPT_SERVICE_CANONICAL_H_

#include <cstdint>
#include <span>
#include <string>

#include "sparql/query.h"

namespace rdfopt {

/// The one α-renaming and serializer of the system. Three caches are keyed
/// by query shape and all take their keys from here: the plan cache
/// (Canonicalize), the estimate-feedback store (FragmentKey) and the
/// materialized-view catalog (ViewSignature). Every key uses one syntax:
///
///   h<head arity> | <head vars> : <atom>;<atom>;... !v<n>=<value>...
///
/// with one `|`-introduced section per disjunct, atoms rendered
/// `(t,t,t)`, constants as `c<id>`, and variables as `v<n>` under a
/// head-first renaming: head variables in head order, then body variables
/// by first occurrence (subject, predicate, object) in atom order.

/// A BGP query normalized into the service's cache identity.
///
/// Two parsed queries that differ only in variable names (α-equivalence) or
/// in the order of their triple patterns describe the same answering work:
/// the same reformulation, the same cover choice, the same physical plan.
/// Canonicalization maps both onto one representative so the plan cache sees
/// one key.
struct CanonicalizedQuery {
  /// The canonical form: variables renumbered 0..n-1 (head variables first,
  /// in head order; body-only variables in canonical atom order), atoms
  /// reordered canonically, with synthesized names "c0".."cN-1" so the query
  /// is answerable as-is (reformulation draws fresh "_f*" variables on top).
  Query query;
  /// Stable serialization of `query.cq` — the cache key (the cache pairs it
  /// with the data epoch); equal to the ViewSignature of the one-disjunct
  /// UCQ of `query.cq`. Equal keys imply literally identical canonical
  /// queries, hence identical answer rows in identical column order.
  std::string key;
};

/// Canonicalizes `cq`. Soundness is unconditional: the key is a
/// serialization of the canonical query itself, so a key collision *is*
/// syntactic equality of the canonical forms. Completeness (every pair of
/// α-equivalent / atom-permuted inputs mapping to one key) holds for the
/// practical case: variables are renamed by head position and first
/// canonical use, and atoms are picked greedily by a (constants, assigned
/// variables, local variable pattern) ranking that is independent of input
/// atom order. Queries with non-trivial automorphisms may canonicalize to
/// different-but-equivalent keys depending on input order — a missed cache
/// hit, never a wrong answer.
CanonicalizedQuery Canonicalize(const ConjunctiveQuery& cq);

/// Key of the estimate-feedback store (cost/feedback.h): the Canonicalize
/// key of `cq`'s conjunction body alone, head and head bindings dropped.
/// Invariant under atom order and variable renaming, so the reformulation
/// lattice's repeated fragments — the same cover fragment reappearing
/// across queries and plannings — share one entry. The head is excluded
/// because the store corrects the body estimate (EstimateCQ), which does
/// not depend on the projection.
std::string FragmentKey(const ConjunctiveQuery& cq);

/// Shape of a conjunction body: a 64-bit hash of its sorted, de-duplicated
/// per-atom codes, each atom coded by its constants and its local variable
/// pattern (which positions repeat a variable within the atom). Invariant
/// under variable renaming and atom order, so equal FragmentKeys imply
/// equal shapes. The converse does not hold — a shape forgets how atoms
/// share variables and how often an atom repeats — so it is a filter in
/// front of FragmentKey, never a key: the estimate-feedback store builds a
/// FragmentKey only for a conjunction whose shape it holds.
uint64_t FragmentShape(const ConjunctiveQuery& cq);

/// The per-atom code FragmentShape combines, and the combination itself
/// over sorted, de-duplicated codes: a caller probing many related
/// conjunctions (a disjunct and its prefixes) codes each atom once.
uint64_t AtomShapeCode(const TriplePattern& atom);
uint64_t ShapeOfCodes(std::span<const uint64_t> sorted_distinct_codes);

/// Canonical signature of a whole component UCQ — the key of the
/// materialized-view catalog (DESIGN.md §14). Invariant under variable
/// renaming, but deliberately NOT under disjunct or atom permutation, and
/// it includes the head and per-disjunct head bindings: a view substitutes
/// a component's *rows in order*, and the planner derives atom order
/// (greedy, tie-broken by input position) and union output order from
/// exactly this syntactic shape. Two components with equal ViewSignature
/// therefore plan to the same tree modulo variable names and produce
/// bit-identical rows against the same snapshot. Each disjunct is renamed
/// on its own: the UCQ head first, then the disjunct's head, body and
/// binding variables.
std::string ViewSignature(const UnionQuery& ucq);

}  // namespace rdfopt

#endif  // RDFOPT_SERVICE_CANONICAL_H_
