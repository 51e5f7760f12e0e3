#ifndef RDFOPT_SPARQL_QUERY_H_
#define RDFOPT_SPARQL_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"

namespace rdfopt {

/// Index of a query variable inside its query's VarTable.
using VarId = uint32_t;

/// One position of a triple pattern: a variable or a dictionary-encoded
/// constant. Blank nodes in queries are treated as non-distinguished
/// variables (paper §2.2), so only these two cases exist.
class PatternTerm {
 public:
  /// Default: an invalid constant (kInvalidValueId); matches nothing.
  PatternTerm() : is_var_(false), id_(kInvalidValueId) {}

  static PatternTerm Var(VarId v) { return PatternTerm(true, v); }
  static PatternTerm Const(ValueId c) { return PatternTerm(false, c); }

  bool is_var() const { return is_var_; }
  VarId var() const { return id_; }
  ValueId value() const { return id_; }

  bool operator==(const PatternTerm& other) const = default;
  auto operator<=>(const PatternTerm& other) const = default;

 private:
  PatternTerm(bool is_var, uint32_t id) : is_var_(is_var), id_(id) {}

  bool is_var_;
  uint32_t id_;
};

/// A triple pattern (query atom): subject, property, object.
struct TriplePattern {
  PatternTerm s;
  PatternTerm p;
  PatternTerm o;

  bool operator==(const TriplePattern& other) const = default;
  auto operator<=>(const TriplePattern& other) const = default;

  /// Variables of this atom, in s,p,o position order (duplicates possible).
  void AppendVariables(std::vector<VarId>* out) const;

  /// True iff the two atoms share at least one variable (the join condition
  /// of cover fragments, paper Def. 3.3).
  bool SharesVariableWith(const TriplePattern& other) const;
};

/// Names of a query's variables; VarId is an index into this table.
/// Reformulation extends it with fresh non-distinguished variables.
class VarTable {
 public:
  /// Id of `name`, creating it if new.
  VarId GetOrCreate(std::string_view name);

  /// A fresh variable, named uniquely ("_f0", "_f1", ...).
  VarId Fresh();

  const std::string& name(VarId v) const { return names_[v]; }
  size_t size() const { return names_.size(); }

  /// A point in the table's growth: later GetOrCreate/Fresh calls append
  /// after it.
  struct Watermark {
    size_t size = 0;
    uint64_t next_fresh = 0;
  };
  Watermark watermark() const { return {names_.size(), next_fresh_}; }

  /// A copy of this table as it was at `mark`, taken from this table: the
  /// same calls replayed on it create the same ids and names again.
  VarTable AsOf(Watermark mark) const;

 private:
  std::vector<std::string> names_;
  uint64_t next_fresh_ = 0;
};

/// A conjunctive query q(head) :- atoms (a BGP query, paper §2.2). The head
/// variables are the distinguished variables.
///
/// `head_bindings` supports reformulation-time instantiation of
/// distinguished variables: in paper Example 4, `q(x, y) :- x rdf:type y`
/// reformulates to disjuncts like `q(x, Book) :- x writtenBy z`, where the
/// head variable y no longer occurs in any atom but is fixed to the constant
/// Book. Such disjuncts keep y in `head` and record (y -> Book) here; the
/// evaluator emits the constant column. Parsed queries have no bindings.
struct ConjunctiveQuery {
  std::vector<VarId> head;
  std::vector<TriplePattern> atoms;
  std::vector<std::pair<VarId, ValueId>> head_bindings;

  bool operator==(const ConjunctiveQuery& other) const = default;

  /// All variables occurring in the atoms, deduplicated, sorted.
  std::vector<VarId> AllVariables() const;

  /// True iff the atoms form one variable-connected component (no cartesian
  /// product). Single-atom queries are connected.
  bool IsConnected() const;
};

/// A union of conjunctive queries with a common head.
struct UnionQuery {
  std::vector<VarId> head;
  std::vector<ConjunctiveQuery> disjuncts;

  size_t size() const { return disjuncts.size(); }
};

/// A join of UCQs (paper Def. 3.1): the generalization containing UCQ
/// (one component) and SCQ (one single-atom-rooted component per atom) as
/// extreme points.
struct JoinOfUnions {
  std::vector<VarId> head;
  std::vector<UnionQuery> components;
};

/// A parsed query: the root CQ plus its variable names.
struct Query {
  VarTable vars;
  ConjunctiveQuery cq;

  size_t num_atoms() const { return cq.atoms.size(); }
};

/// Canonical string key of a CQ for duplicate elimination, invariant under
/// renaming of variables with id >= `num_original_vars` (the fresh variables
/// introduced by reformulation): such variables are renumbered in first
/// occurrence order.
std::string CanonicalKey(const ConjunctiveQuery& cq, size_t num_original_vars);

/// 64-bit hash of CanonicalKey's equivalence class, computed without
/// building the string; used on the hot reformulation path where hundreds
/// of thousands of disjuncts are deduplicated (hash collisions would only
/// drop a duplicate-equivalent disjunct with probability ~N²/2^64).
uint64_t CanonicalHash(const ConjunctiveQuery& cq, size_t num_original_vars);

}  // namespace rdfopt

#endif  // RDFOPT_SPARQL_QUERY_H_
