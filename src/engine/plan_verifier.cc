#include "engine/plan_verifier.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "engine/relation.h"
#include "rdf/dictionary.h"
#include "storage/triple_store.h"

namespace rdfopt {

namespace {

/// Mutable verification pass over one plan; collects violations instead of
/// stopping at the first, so a corrupted plan reports everything wrong with
/// it in one round trip.
class Verifier {
 public:
  Verifier(const PhysicalPlan& plan, const TripleStore* store,
           const Dictionary* dict)
      : plan_(plan), store_(store), dict_(dict) {}

  PlanVerifyResult Run() {
    if (plan_.root == nullptr) {
      Fail(-1, "node-ids", "plan has no root node");
      return std::move(result_);
    }
    // Preorder id discipline: shared subplans first, then the tree, ids
    // consecutive from 0. A walk that sees every id exactly once in its
    // assignment order cannot revisit a node, so this subsumes acyclicity.
    shared_ref_counts_.assign(plan_.shared_subplans.size(), 0);
    for (size_t i = 0; i < plan_.shared_subplans.size(); ++i) {
      const PlanNode* shared = plan_.shared_subplans[i].get();
      if (shared == nullptr) {
        Fail(-1, "shared-refs",
             "shared subplan " + std::to_string(i) + " is null");
        continue;
      }
      if (shared->shared_index != static_cast<int>(i)) {
        Fail(shared->id, "shared-refs",
             "shared subplan " + std::to_string(i) +
                 " carries shared_index " +
                 std::to_string(shared->shared_index) +
                 " instead of its own position");
      }
      VisitNode(shared, /*inside_shared=*/true);
    }
    VisitNode(plan_.root.get(), /*inside_shared=*/false);
    if (next_id_ != plan_.num_nodes) {
      Fail(-1, "node-ids",
           "plan.num_nodes is " + std::to_string(plan_.num_nodes) +
               " but the preorder walk numbered " + std::to_string(next_id_) +
               " node(s)");
    }
    for (size_t i = 0; i < shared_ref_counts_.size(); ++i) {
      if (shared_ref_counts_[i] == 0 &&
          plan_.shared_subplans[i] != nullptr) {
        Fail(plan_.shared_subplans[i]->id, "shared-refs",
             "shared subplan " + std::to_string(i) +
                 " is never referenced by a SharedRef node");
      }
    }
    // Plan-wide rules.
    if (plan_.vector_width < 1 || plan_.vector_width > kBatchRows) {
      Fail(-1, "batch-width",
           "vector_width " + std::to_string(plan_.vector_width) +
               " outside [1, " + std::to_string(kBatchRows) +
               "]: execution selection vectors hold one batch");
    }
    if (saw_over_limit_ && plan_.feasibility.ok()) {
      Fail(-1, "feasibility",
           "plan carries an over-limit union but claims OK feasibility; "
           "executing it would not report kQueryTooComplex");
    }
    if (!saw_over_limit_ && !plan_.feasibility.ok()) {
      Fail(-1, "feasibility",
           "plan feasibility is '" + plan_.feasibility.ToString() +
               "' but no union is over the limit");
    }
    return std::move(result_);
  }

 private:
  void Fail(int node_id, const char* rule, std::string message) {
    result_.violations.push_back(
        PlanViolation{node_id, rule, std::move(message)});
  }

  static bool Contains(const std::vector<VarId>& cols, VarId v) {
    return std::find(cols.begin(), cols.end(), v) != cols.end();
  }

  /// Distinct variables of `atom` in first-occurrence s,p,o order — the
  /// schema an atom scan produces (mirrors the planner's AtomColumns).
  static std::vector<VarId> AtomColumns(const TriplePattern& atom) {
    std::vector<VarId> raw;
    atom.AppendVariables(&raw);
    std::vector<VarId> out;
    for (VarId v : raw) {
      if (!Contains(out, v)) out.push_back(v);
    }
    return out;
  }

  /// Join output schema: left columns, then right-only columns.
  static std::vector<VarId> JoinColumns(const std::vector<VarId>& left,
                                        const std::vector<VarId>& right) {
    std::vector<VarId> out = left;
    for (VarId v : right) {
      if (!Contains(out, v)) out.push_back(v);
    }
    return out;
  }

  static std::string ColumnsText(const std::vector<VarId>& cols) {
    std::string out = "(";
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) out += ",";
      out += "?" + std::to_string(cols[i]);
    }
    return out + ")";
  }

  static bool IsConstantAtom(const TriplePattern& atom) {
    return !atom.s.is_var() && !atom.p.is_var() && !atom.o.is_var();
  }

  void CheckConstant(const PlanNode& node, ValueId value, const char* what) {
    if (value == kInvalidValueId) {
      Fail(node.id, "dict-domain",
           std::string(what) + " is kInvalidValueId (matches nothing; an "
                               "uninitialized PatternTerm leaked into the "
                               "plan)");
    } else if (dict_ != nullptr && value >= dict_->size()) {
      Fail(node.id, "dict-domain",
           std::string(what) + " id " + std::to_string(value) +
               " outside the dictionary domain [0, " +
               std::to_string(dict_->size()) + ")");
    }
  }

  void CheckAtomDomain(const PlanNode& node) {
    if (!node.atom.s.is_var()) CheckConstant(node, node.atom.s.value(), "subject constant");
    if (!node.atom.p.is_var()) CheckConstant(node, node.atom.p.value(), "property constant");
    if (!node.atom.o.is_var()) CheckConstant(node, node.atom.o.value(), "object constant");
  }

  void CheckChildCount(const PlanNode& node, size_t expected) {
    if (node.children.size() != expected) {
      Fail(node.id, "arity",
           std::string(PlanNodeKindName(node.kind)) + " has " +
               std::to_string(node.children.size()) + " child(ren), expected " +
               std::to_string(expected));
    }
  }

  void CheckSchemaEquals(const PlanNode& node,
                         const std::vector<VarId>& expected,
                         const char* what) {
    if (node.out_columns != expected) {
      Fail(node.id, "arity",
           std::string(PlanNodeKindName(node.kind)) + " out_columns " +
               ColumnsText(node.out_columns) + " != " + what + " " +
               ColumnsText(expected));
    }
  }

  void VisitNode(const PlanNode* node, bool inside_shared) {
    if (node == nullptr) {
      Fail(-1, "node-ids", "null child node");
      return;
    }
    if (node->id != next_id_) {
      Fail(node->id, "node-ids",
           "preorder walk expected id " + std::to_string(next_id_) +
               " here (duplicate, stale or reordered node ids)");
      // Keep numbering from the walk's own counter so one bad id does not
      // cascade a violation onto every later node.
    }
    ++next_id_;

    // Duplicate output columns break column addressing everywhere.
    for (size_t i = 0; i < node->out_columns.size(); ++i) {
      for (size_t j = i + 1; j < node->out_columns.size(); ++j) {
        if (node->out_columns[i] == node->out_columns[j]) {
          Fail(node->id, "arity",
               "duplicate output column ?" +
                   std::to_string(node->out_columns[i]));
        }
      }
    }
    if (!std::isfinite(node->est_rows) || node->est_rows < 0.0 ||
        !std::isfinite(node->est_cost) || node->est_cost < 0.0) {
      Fail(node->id, "estimates",
           "est_rows/est_cost must be finite and non-negative (got " +
               std::to_string(node->est_rows) + " rows, cost " +
               std::to_string(node->est_cost) + ")");
    }

    switch (node->kind) {
      case PlanNodeKind::kAtomScan: {
        CheckChildCount(*node, 0);
        CheckAtomDomain(*node);
        if (IsConstantAtom(node->atom)) {
          // Existence guard: boolean, no columns.
          CheckSchemaEquals(*node, {}, "guard schema");
        } else {
          CheckSchemaEquals(*node, AtomColumns(node->atom), "atom columns");
        }
        break;
      }
      case PlanNodeKind::kScanRange: {
        CheckChildCount(*node, 0);
        if (node->range_lo >= node->range_hi) {
          Fail(node->id, "scan-range",
               "empty or inverted hid interval [" +
                   std::to_string(node->range_lo) + ", " +
                   std::to_string(node->range_hi) + ")");
        }
        if (node->range_terms < 1) {
          Fail(node->id, "scan-range",
               "range collapsed zero union terms");
        }
        if (!node->driving_scan) {
          Fail(node->id, "scan-range",
               "ScanRange must drive its chain: the shadow index emits "
               "(hid, subject) order no probe order survives");
        }
        const HierarchyEncoding* enc =
            store_ != nullptr ? store_->hierarchy() : nullptr;
        if (enc != nullptr) {
          const size_t num_hids = node->range_class_space
                                      ? enc->num_class_hids()
                                      : enc->num_property_hids();
          if (node->range_hi > num_hids) {
            Fail(node->id, "scan-range",
                 "hid interval [" + std::to_string(node->range_lo) + ", " +
                     std::to_string(node->range_hi) + ") exceeds the " +
                     (node->range_class_space ? "class" : "property") +
                     " hid space of " + std::to_string(num_hids));
          }
        }
        CheckSchemaEquals(*node, AtomColumns(node->atom),
                          "representative atom columns");
        break;
      }
      case PlanNodeKind::kSharedRef: {
        CheckChildCount(*node, 0);
        if (inside_shared) {
          Fail(node->id, "shared-refs",
               "SharedRef inside a shared subplan: shared subplans are "
               "executed once by the coordinator before the tree and may "
               "not depend on each other");
        }
        if (node->shared_index < 0 ||
            static_cast<size_t>(node->shared_index) >=
                plan_.shared_subplans.size()) {
          Fail(node->id, "shared-refs",
               "dangling shared_index " + std::to_string(node->shared_index) +
                   " (plan has " +
                   std::to_string(plan_.shared_subplans.size()) +
                   " shared subplan(s))");
        } else {
          ++shared_ref_counts_[static_cast<size_t>(node->shared_index)];
          const PlanNode* target =
              plan_.shared_subplans[static_cast<size_t>(node->shared_index)]
                  .get();
          if (target != nullptr) {
            CheckSchemaEquals(*node, target->out_columns,
                              "shared target schema");
            if (!(node->atom == target->atom)) {
              Fail(node->id, "shared-refs",
                   "SharedRef atom differs from its target's: the borrowed "
                   "relation would not be the scanned one");
            }
          }
        }
        break;
      }
      case PlanNodeKind::kIndexJoinAtom: {
        CheckChildCount(*node, 1);
        CheckAtomDomain(*node);
        if (!node->children.empty() && node->children[0] != nullptr) {
          const PlanNode& child = *node->children[0];
          const std::vector<VarId> atom_cols = AtomColumns(node->atom);
          bool binds = false;
          for (VarId v : atom_cols) {
            binds = binds || Contains(child.out_columns, v);
          }
          if (!binds) {
            Fail(node->id, "bindings",
                 "index join probes atom " + ColumnsText(atom_cols) +
                     " sharing no variable with its child's columns " +
                     ColumnsText(child.out_columns) +
                     " (nothing binds the probe position)");
          }
          CheckSchemaEquals(*node,
                            JoinColumns(child.out_columns, atom_cols),
                            "join of child and atom columns");
        }
        break;
      }
      case PlanNodeKind::kHashJoin: {
        CheckChildCount(*node, 2);
        if (node->children.size() == 2 && node->children[0] != nullptr &&
            node->children[1] != nullptr) {
          CheckSchemaEquals(
              *node,
              JoinColumns(node->children[0]->out_columns,
                          node->children[1]->out_columns),
              "join of the children's columns");
        }
        break;
      }
      case PlanNodeKind::kProject: {
        if (node->children.size() > 1) {
          Fail(node->id, "arity",
               "Project has " + std::to_string(node->children.size()) +
                   " children, expected at most 1");
        }
        CheckSchemaEquals(*node, node->head, "projection head");
        const PlanNode* child =
            node->children.empty() ? nullptr : node->children[0].get();
        for (VarId v : node->head) {
          bool bound = child != nullptr && Contains(child->out_columns, v);
          for (const auto& [var, value] : node->bindings) {
            bound = bound || var == v;
          }
          if (!bound) {
            Fail(node->id, "bindings",
                 "head variable ?" + std::to_string(v) +
                     " neither produced by the child nor constant-bound "
                     "(consumed before produced)");
          }
        }
        for (const auto& [var, value] : node->bindings) {
          CheckConstant(*node, value, "head binding constant");
        }
        break;
      }
      case PlanNodeKind::kUnionAll: {
        if (node->disjuncts.size() != node->children.size()) {
          Fail(node->id, "parallel",
               std::to_string(node->children.size()) + " children but " +
                   std::to_string(node->disjuncts.size()) +
                   " source disjuncts: the deterministic disjunct-order "
                   "merge is undefined");
        }
        if (node->over_limit) {
          if (node->union_terms <= plan_.union_term_limit &&
              plan_.union_term_limit > 0) {
            Fail(node->id, "feasibility",
                 "union of " + std::to_string(node->union_terms) +
                     " term(s) marked over-limit under a limit of " +
                     std::to_string(plan_.union_term_limit));
          }
          saw_over_limit_ = true;
        } else {
          if (node->union_terms != node->children.size()) {
            Fail(node->id, "arity",
                 "executable union claims " +
                     std::to_string(node->union_terms) +
                     " term(s) but has " +
                     std::to_string(node->children.size()) + " child(ren)");
          }
        }
        const size_t pairs =
            std::min(node->disjuncts.size(), node->children.size());
        for (size_t d = 0; d < pairs; ++d) {
          const ConjunctiveQuery& disjunct = node->disjuncts[d];
          const PlanNode* child = node->children[d].get();
          if (child == nullptr) continue;
          for (VarId v : node->head) {
            bool bound = Contains(child->out_columns, v);
            for (const auto& [var, value] : disjunct.head_bindings) {
              bound = bound || var == v;
            }
            if (!bound) {
              Fail(node->id, "bindings",
                   "union head variable ?" + std::to_string(v) +
                       " unbound in disjunct " + std::to_string(d) +
                       ": child produces " +
                       ColumnsText(child->out_columns) +
                       " and no head binding covers it");
            }
          }
          for (const auto& [var, value] : disjunct.head_bindings) {
            CheckConstant(*node, value, "disjunct head binding constant");
          }
        }
        CheckSchemaEquals(*node, node->head, "union head");
        break;
      }
      case PlanNodeKind::kDedup:
      case PlanNodeKind::kMaterializeBarrier: {
        CheckChildCount(*node, 1);
        if (!node->children.empty() && node->children[0] != nullptr) {
          CheckSchemaEquals(*node, node->children[0]->out_columns,
                            "child schema (schema-preserving operator)");
        }
        break;
      }
    }

    for (const auto& child : node->children) {
      VisitNode(child.get(), inside_shared);
    }
  }

  const PhysicalPlan& plan_;
  const TripleStore* store_;
  const Dictionary* dict_;
  PlanVerifyResult result_;
  int next_id_ = 0;
  bool saw_over_limit_ = false;
  std::vector<size_t> shared_ref_counts_;
};

void RenderNode(const PlanNode* node, int depth,
                const std::multimap<int, const PlanViolation*>& by_node,
                std::ostringstream* out) {
  if (node == nullptr) {
    *out << std::string(static_cast<size_t>(depth) * 2, ' ')
         << "<null node>\n";
    return;
  }
  *out << std::string(static_cast<size_t>(depth) * 2, ' ')
       << PlanNodeKindName(node->kind) << " [#" << node->id << "]";
  if (node->kind == PlanNodeKind::kUnionAll) {
    *out << " terms=" << node->union_terms
         << (node->over_limit ? " OVER-LIMIT" : "");
  }
  if (node->kind == PlanNodeKind::kScanRange) {
    *out << " hid=[" << node->range_lo << "," << node->range_hi << ")"
         << (node->range_class_space ? " class" : " property");
  }
  if (node->kind == PlanNodeKind::kSharedRef) {
    *out << " -> shared[" << node->shared_index << "]";
  }
  if (!node->out_columns.empty()) {
    *out << " cols=";
    for (size_t i = 0; i < node->out_columns.size(); ++i) {
      *out << (i > 0 ? "," : "") << "?" << node->out_columns[i];
    }
  }
  auto [begin, end] = by_node.equal_range(node->id);
  for (auto it = begin; it != end; ++it) {
    *out << "\n"
         << std::string(static_cast<size_t>(depth) * 2 + 4, ' ')
         << "<-- VIOLATION [" << it->second->rule
         << "]: " << it->second->message;
  }
  *out << "\n";
  for (const auto& child : node->children) {
    RenderNode(child.get(), depth + 1, by_node, out);
  }
}

}  // namespace

std::string PlanVerifyResult::ToString() const {
  if (violations.empty()) return "plan OK";
  std::string out;
  for (const PlanViolation& v : violations) {
    if (!out.empty()) out += '\n';
    if (v.node_id >= 0) {
      out += "node #" + std::to_string(v.node_id);
    } else {
      out += "plan";
    }
    out += " [" + v.rule + "]: " + v.message;
  }
  return out;
}

PlanVerifyResult VerifyPlan(const PhysicalPlan& plan, const TripleStore* store,
                            const Dictionary* dict) {
  return Verifier(plan, store, dict).Run();
}

std::string RenderPlanWithViolations(const PhysicalPlan& plan,
                                     const PlanVerifyResult& result) {
  std::multimap<int, const PlanViolation*> by_node;
  std::ostringstream out;
  out << "Plan(profile=" << plan.profile_name
      << ", nodes=" << plan.num_nodes
      << ", vector_width=" << plan.vector_width << ")\n";
  for (const PlanViolation& v : result.violations) {
    if (v.node_id >= 0) {
      by_node.emplace(v.node_id, &v);
    } else {
      out << "  <-- PLAN VIOLATION [" << v.rule << "]: " << v.message << "\n";
    }
  }
  for (size_t i = 0; i < plan.shared_subplans.size(); ++i) {
    out << "  Shared[" << i << "]:\n";
    RenderNode(plan.shared_subplans[i].get(), 2, by_node, &out);
  }
  RenderNode(plan.root.get(), 1, by_node, &out);
  return out.str();
}

Status VerifyPlanOrError(const PhysicalPlan& plan, const TripleStore* store,
                         const Dictionary* dict) {
  PlanVerifyResult result = VerifyPlan(plan, store, dict);
  if (result.ok()) return Status::OK();
  return Status::Internal("plan verification failed:\n" + result.ToString() +
                          "\n" + RenderPlanWithViolations(plan, result));
}

void DebugCheckPlan(const PhysicalPlan& plan, const TripleStore* store,
                    const char* site) {
#ifdef NDEBUG
  (void)plan;
  (void)store;
  (void)site;
#else
  PlanVerifyResult result = VerifyPlan(plan, store);
  RDFOPT_CHECK(result.ok()) << "invalid plan out of " << site << ":\n"
                            << result.ToString() << "\n"
                            << RenderPlanWithViolations(plan, result);
#endif
}

}  // namespace rdfopt
