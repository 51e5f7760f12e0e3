#include "service/canonical.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <span>

#include "common/check.h"

namespace rdfopt {

namespace {

/// Head-first α-renaming: variables are numbered 0, 1, ... in the order
/// they are first noted. Queries have few variables, so a flat vector with
/// linear lookup beats a hash map, and trial completions copy it cheaply.
class Renaming {
 public:
  /// Canonical number of `v`, or -1 if it has not been noted yet.
  int64_t Find(VarId v) const {
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i] == v) return static_cast<int64_t>(i);
    }
    return -1;
  }
  uint64_t At(VarId v) const {
    const int64_t n = Find(v);
    RDFOPT_DCHECK(n >= 0) << "variable " << v << " was never noted";
    return static_cast<uint64_t>(n);
  }
  void Note(VarId v) {
    if (Find(v) < 0) vars_.push_back(v);
  }
  void Note(const PatternTerm& t) {
    if (t.is_var()) Note(t.var());
  }
  /// Notes the atom's variables in s, p, o order.
  void NoteAtom(const TriplePattern& atom) {
    Note(atom.s);
    Note(atom.p);
    Note(atom.o);
  }
  size_t size() const { return vars_.size(); }

 private:
  std::vector<VarId> vars_;
};

void AppendNumber(std::string* out, uint64_t n) {
  char buf[20];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), n);
  out->append(buf, r.ptr);
}

void AppendTerm(std::string* out, const PatternTerm& t,
                const Renaming& names) {
  if (t.is_var()) {
    *out += 'v';
    AppendNumber(out, names.At(t.var()));
  } else {
    *out += 'c';
    AppendNumber(out, t.value());
  }
}

/// Serializes `atom` under `names`, which must cover all its variables.
void AppendAtom(std::string* out, const TriplePattern& atom,
                const Renaming& names) {
  *out += '(';
  AppendTerm(out, atom.s, names);
  *out += ',';
  AppendTerm(out, atom.p, names);
  *out += ',';
  AppendTerm(out, atom.o, names);
  *out += ')';
}

/// The serializer behind every key (syntax in canonical.h): the UCQ head
/// arity, then each disjunct under its own head-first renaming, atoms in
/// input order.
std::string Signature(const std::vector<VarId>& head,
                      std::span<const ConjunctiveQuery> disjuncts) {
  std::string out;
  out.reserve(8 + 24 * disjuncts.size());
  out += 'h';
  AppendNumber(&out, head.size());
  for (const ConjunctiveQuery& d : disjuncts) {
    out += '|';
    Renaming names;
    for (VarId v : head) names.Note(v);
    for (VarId v : d.head) names.Note(v);
    for (const TriplePattern& atom : d.atoms) names.NoteAtom(atom);
    for (const auto& [var, value] : d.head_bindings) names.Note(var);

    for (size_t i = 0; i < d.head.size(); ++i) {
      if (i != 0) out += ',';
      out += 'v';
      AppendNumber(&out, names.At(d.head[i]));
    }
    out += ':';
    for (size_t i = 0; i < d.atoms.size(); ++i) {
      if (i != 0) out += ';';
      AppendAtom(&out, d.atoms[i], names);
    }
    if (d.head_bindings.empty()) continue;
    // Bindings are a var→constant map; their list order does not affect
    // projection, so they are rendered sorted.
    std::vector<std::pair<uint64_t, ValueId>> bindings;
    bindings.reserve(d.head_bindings.size());
    for (const auto& [var, value] : d.head_bindings) {
      bindings.emplace_back(names.At(var), value);
    }
    std::sort(bindings.begin(), bindings.end());
    for (const auto& [var, value] : bindings) {
      out += "!v";
      AppendNumber(&out, var);
      out += '=';
      AppendNumber(&out, value);
    }
  }
  return out;
}

/// Ordering rank of one pattern term under a partial canonical renaming:
/// constants sort before already-assigned variables, which sort before
/// not-yet-assigned ones; within a class, by value / canonical id / local
/// first-occurrence pattern. The unassigned rank uses the variable's
/// first-occurrence index *within the atom*, which distinguishes
/// `?a p ?a` from `?a p ?b` without depending on input naming.
struct TermRank {
  int kind;
  uint64_t value;
  auto operator<=>(const TermRank&) const = default;
};

using AtomRank = std::array<TermRank, 3>;

AtomRank RankAtom(const TriplePattern& atom, const Renaming& assigned) {
  std::array<VarId, 3> local{};
  size_t num_local = 0;
  auto rank = [&](const PatternTerm& t) -> TermRank {
    if (!t.is_var()) return {0, t.value()};
    const int64_t n = assigned.Find(t.var());
    if (n >= 0) return {1, static_cast<uint64_t>(n)};
    for (size_t i = 0; i < num_local; ++i) {
      if (local[i] == t.var()) return {2, i};
    }
    local[num_local] = t.var();
    return {2, num_local++};
  };
  return {rank(atom.s), rank(atom.p), rank(atom.o)};
}

size_t MinRankedAtom(const std::vector<const TriplePattern*>& remaining,
                     const Renaming& assigned,
                     std::vector<size_t>* tied_with_min) {
  size_t best = 0;
  AtomRank best_rank = RankAtom(*remaining[0], assigned);
  if (tied_with_min != nullptr) tied_with_min->assign(1, 0);
  for (size_t i = 1; i < remaining.size(); ++i) {
    AtomRank rank = RankAtom(*remaining[i], assigned);
    if (rank < best_rank) {
      best = i;
      best_rank = rank;
      if (tied_with_min != nullptr) tied_with_min->assign(1, i);
    } else if (tied_with_min != nullptr && rank == best_rank) {
      tied_with_min->push_back(i);
    }
  }
  return best;
}

/// Runs the greedy emission to completion (first-index tie-breaking) and
/// returns the serialized atom sequence. Used to score tied candidates:
/// copies its inputs, never commits anything.
std::string SimulateCompletion(Renaming assigned,
                               std::vector<const TriplePattern*> remaining) {
  std::string out;
  while (!remaining.empty()) {
    size_t pick = MinRankedAtom(remaining, assigned, nullptr);
    const TriplePattern* atom = remaining[pick];
    assigned.NoteAtom(*atom);
    AppendAtom(&out, *atom, assigned);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
  }
  return out;
}

/// Emits `atoms` in canonical order, renamed under `assigned`, which enters
/// holding the anchored (head) variables and leaves holding the full
/// renaming.
std::vector<TriplePattern> CanonicalAtoms(
    const std::vector<TriplePattern>& atoms, Renaming* assigned) {
  // Greedily emit the minimally-ranked remaining atom, then commit its new
  // variables in s,p,o order. The ranking depends only on constants and on
  // canonical ids assigned so far, never on input order or input names.
  // When several atoms tie for the minimum (symmetric shapes, e.g. headless
  // chains), each tied candidate's full greedy completion is simulated and
  // the lexicographically smallest one wins — which again is a property of
  // the query's shape, not of its input order.
  std::vector<const TriplePattern*> remaining;
  remaining.reserve(atoms.size());
  for (const TriplePattern& atom : atoms) remaining.push_back(&atom);

  std::vector<TriplePattern> canonical;
  canonical.reserve(atoms.size());
  std::vector<size_t> tied;
  while (!remaining.empty()) {
    size_t pick = MinRankedAtom(remaining, *assigned, &tied);
    if (tied.size() > 1) {
      std::string best_completion;
      for (size_t candidate : tied) {
        Renaming trial_assigned = *assigned;
        std::vector<const TriplePattern*> trial_remaining = remaining;
        const TriplePattern* atom = trial_remaining[candidate];
        trial_assigned.NoteAtom(*atom);
        std::string completion;
        AppendAtom(&completion, *atom, trial_assigned);
        trial_remaining.erase(trial_remaining.begin() +
                              static_cast<ptrdiff_t>(candidate));
        completion += SimulateCompletion(std::move(trial_assigned),
                                         std::move(trial_remaining));
        if (best_completion.empty() || completion < best_completion) {
          best_completion = std::move(completion);
          pick = candidate;
        }
      }
    }
    const TriplePattern& atom = *remaining[pick];
    assigned->NoteAtom(atom);
    auto map = [&](const PatternTerm& t) {
      return t.is_var()
                 ? PatternTerm::Var(static_cast<VarId>(assigned->At(t.var())))
                 : t;
    };
    canonical.push_back(TriplePattern{map(atom.s), map(atom.p), map(atom.o)});
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
  }
  return canonical;
}

}  // namespace

CanonicalizedQuery Canonicalize(const ConjunctiveQuery& cq) {
  // Head variables are anchored by position: the i-th head slot of every
  // α-equivalent input names the same output column.
  Renaming assigned;
  for (VarId v : cq.head) assigned.Note(v);

  ConjunctiveQuery canonical;
  canonical.atoms = CanonicalAtoms(cq.atoms, &assigned);
  canonical.head.reserve(cq.head.size());
  for (VarId v : cq.head) {
    canonical.head.push_back(static_cast<VarId>(assigned.At(v)));
  }
  // Parsed queries carry no head bindings; remap for totality (the service
  // only canonicalizes parsed queries, but the function shouldn't care).
  canonical.head_bindings.reserve(cq.head_bindings.size());
  for (const auto& [var, value] : cq.head_bindings) {
    assigned.Note(var);
    canonical.head_bindings.emplace_back(static_cast<VarId>(assigned.At(var)),
                                         value);
  }
  std::sort(canonical.head_bindings.begin(), canonical.head_bindings.end());

  CanonicalizedQuery result;
  // The canonical ids already are the head-first renaming, so the key
  // serializes the canonical query verbatim.
  result.key = Signature(canonical.head, {&canonical, 1});
  for (size_t i = 0; i < assigned.size(); ++i) {
    result.query.vars.GetOrCreate("c" + std::to_string(i));
  }
  result.query.cq = std::move(canonical);
  return result;
}

std::string FragmentKey(const ConjunctiveQuery& cq) {
  Renaming assigned;
  ConjunctiveQuery body;
  body.atoms = CanonicalAtoms(cq.atoms, &assigned);
  return Signature(body.head, {&body, 1});
}

namespace {

/// splitmix64's finalizer: every input bit reaches every output bit.
uint64_t Mix(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace

uint64_t AtomShapeCode(const TriplePattern& atom) {
  // RankAtom's local ranking with nothing assigned: constants by value,
  // variables by first occurrence within the atom.
  uint64_t code = 0;
  for (const TermRank& t : RankAtom(atom, Renaming())) {
    code = Mix(code ^ (uint64_t(t.kind) << 32 | t.value));
  }
  return code;
}

uint64_t ShapeOfCodes(std::span<const uint64_t> sorted_distinct_codes) {
  uint64_t shape = sorted_distinct_codes.size();
  for (uint64_t code : sorted_distinct_codes) shape = Mix(shape ^ code);
  return shape;
}

uint64_t FragmentShape(const ConjunctiveQuery& cq) {
  std::vector<uint64_t> codes;
  codes.reserve(cq.atoms.size());
  for (const TriplePattern& atom : cq.atoms) {
    codes.push_back(AtomShapeCode(atom));
  }
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return ShapeOfCodes(codes);
}

std::string ViewSignature(const UnionQuery& ucq) {
  return Signature(ucq.head, ucq.disjuncts);
}

}  // namespace rdfopt
