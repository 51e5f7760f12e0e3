#include "engine/explain.h"

#include <algorithm>
#include <cstdio>

#include "engine/planner.h"
#include "sparql/printer.h"

namespace rdfopt {

namespace {

std::string FormatRows(double rows) {
  char buf[32];
  if (rows >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", rows / 1e6);
  } else if (rows >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", rows / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", rows);
  }
  return buf;
}

/// View signatures key full UCQ fragments and can run to kilobytes; EXPLAIN
/// shows a prefix long enough to identify the fragment by eye.
std::string AbbreviatedSignature(const std::string& signature) {
  constexpr size_t kMaxShown = 48;
  if (signature.size() <= kMaxShown) return signature;
  return signature.substr(0, kMaxShown) + "...";
}

/// One JUCQ component as found in the plan tree, in execution order.
struct ComponentRef {
  const PlanNode* dedup = nullptr;  // kDedup with component >= 0.
  bool materialized = false;
};

void CollectComponents(const PlanNode* node, bool under_barrier,
                       std::vector<ComponentRef>* out) {
  if (node == nullptr) return;
  if (node->kind == PlanNodeKind::kDedup && node->component >= 0) {
    out->push_back({node, under_barrier});
    return;
  }
  if (node->kind == PlanNodeKind::kMaterializeBarrier) {
    CollectComponents(node->children[0].get(), true, out);
    return;
  }
  for (const auto& child : node->children) {
    CollectComponents(child.get(), under_barrier, out);
  }
}

class PlanPrinter {
 public:
  PlanPrinter(const PhysicalPlan& plan, const VarTable& vars,
              const Dictionary& dict, const ExplainOptions& opts)
      : plan_(plan), vars_(vars), dict_(dict), opts_(opts) {}

  std::string Render() {
    // Batch engines state their vector size in the header; width 1 (the
    // tuple-at-a-time paper profiles) stays silent, keeping goldens stable.
    const std::string vec =
        plan_.vector_width > 1
            ? " [vector=" + std::to_string(plan_.vector_width) + "]"
            : "";
    switch (plan_.shape) {
      case PlanShape::kJucq:
        out_ = "JUCQ plan (" + std::to_string(plan_.num_components) +
               " component(s)) on " + plan_.profile_name + vec + "\n";
        RenderShared();
        RenderJucq();
        break;
      case PlanShape::kUcq:
        out_ = "UCQ plan (" + std::to_string(plan_.union_terms) +
               " term(s)) on " + plan_.profile_name + vec + "\n";
        RenderShared();
        RenderComponent(plan_.root.get(), /*materialized=*/false);
        break;
      case PlanShape::kCq:
        out_ = "CQ plan on " + plan_.profile_name + vec + "\n";
        RenderCq();
        break;
    }
    return std::move(out_);
  }

 private:
  /// "  [#7]" plus, under ANALYZE, the recorded runtime accounting.
  std::string NodeSuffix(const PlanNode& node) const {
    std::string s = "  [#" + std::to_string(node.id) + "]";
    if (!opts_.analyze) return s;
    if (!node.executed) return s + " (not executed)";
    s += " (actual " + std::to_string(node.actual_rows) + " rows";
    if (opts_.analyze_timing) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ", %.2f ms", node.actual_ms);
      s += buf;
    }
    if (node.rows_scanned > 0) {
      s += ", scanned " + std::to_string(node.rows_scanned);
    }
    if (node.hash_probes > 0) {
      s += ", probes " + std::to_string(node.hash_probes);
    }
    if (node.bytes_materialized > 0) {
      s += ", " + std::to_string(node.bytes_materialized) + " bytes";
    }
    return s + ")";
  }

  std::string HeadList(const std::vector<VarId>& head) const {
    std::string s;
    for (size_t i = 0; i < head.size(); ++i) {
      if (i > 0) s += ", ";
      s += "?" + vars_.name(head[i]);
    }
    return s;
  }

  /// Execute-once shared subplans (union-subplan factoring), printed as a
  /// preamble: every consuming branch renders a reference to `s<i>`.
  void RenderShared() {
    for (const auto& sp : plan_.shared_subplans) {
      out_ += "  shared s" + std::to_string(sp->shared_index) + ": scan " +
              ToString(sp->atom, vars_, dict_) + "  [~" +
              FormatRows(sp->est_rows) + " rows, execute once]" +
              NodeSuffix(*sp) + "\n";
    }
  }

  void RenderJucq() {
    // Root: Dedup > Project > (component tree).
    const PlanNode* dedup = plan_.root.get();
    const PlanNode* project = dedup->children[0].get();
    std::vector<ComponentRef> exec_order;
    if (!project->children.empty()) {
      CollectComponents(project->children[0].get(), false, &exec_order);
    }
    // Components print in their original index order; the join order is
    // stated on the final line.
    std::vector<ComponentRef> display = exec_order;
    std::sort(display.begin(), display.end(),
              [](const ComponentRef& a, const ComponentRef& b) {
                return a.dedup->component < b.dedup->component;
              });
    for (const ComponentRef& ref : display) {
      RenderComponent(ref.dedup, ref.materialized);
    }
    if (exec_order.size() > 1) {
      out_ += "  final: hash join of the component results (join order:";
      for (size_t i = 0; i < exec_order.size(); ++i) {
        out_ += (i > 0 ? ", " : " ") +
                std::to_string(exec_order[i].dedup->component);
      }
      out_ += "), project to q(" + HeadList(dedup->out_columns) +
              "), duplicate elimination" + NodeSuffix(*dedup) + "\n";
    }
  }

  void RenderCq() {
    const PlanNode* dedup = plan_.root.get();
    const PlanNode* project = dedup->children[0].get();
    if (!project->children.empty()) {
      RenderChain(project->children[0].get());
    }
    out_ += "  project to q(" + HeadList(dedup->out_columns) +
            "), duplicate elimination" + NodeSuffix(*dedup) + "\n";
  }

  /// One component: its UNION header, sampled term chains, over-limit flag.
  /// `dedup` is the component root (kDedup over kUnionAll). Under ANALYZE a
  /// component the executor served from the view catalog is marked
  /// "[view hit: <sig>]"; its term chains then print as not executed.
  void RenderComponent(const PlanNode* dedup, bool materialized) {
    const PlanNode* u = dedup->children[0].get();
    out_ += "  ";
    if (plan_.shape == PlanShape::kJucq) {
      out_ += "component " + std::to_string(dedup->component) + ": ";
    }
    out_ += "UNION of " + std::to_string(u->union_terms) + " term(s), ~" +
            FormatRows(dedup->est_rows) + " rows";
    if (u->pre_collapse_terms > u->union_terms) {
      out_ += " [collapsed from " + std::to_string(u->pre_collapse_terms) +
              "]";
    }
    if (plan_.num_components > 1) {
      out_ += materialized ? " [materialized]" : " [pipelined]";
    }
    if (opts_.analyze && dedup->executed && !u->executed &&
        !dedup->view_signature.empty()) {
      out_ += " [view hit: " + AbbreviatedSignature(dedup->view_signature) +
              "]";
    }
    if (u->over_limit) {
      out_ += "  ** exceeds the plan limit of " +
              std::to_string(plan_.union_term_limit) + " terms **";
    }
    out_ += NodeSuffix(*dedup) + "\n";

    const size_t shown =
        std::min(opts_.max_union_children_shown, u->children.size());
    for (size_t d = 0; d < shown; ++d) {
      out_ += "    term " + std::to_string(d) + ": " +
              ToString(u->disjuncts[d], vars_, dict_) + "\n";
      RenderChain(u->children[d].get());
    }
    if (u->union_terms > shown) {
      out_ += "    ... " + std::to_string(u->union_terms - shown) +
              " more term(s)\n";
    }
  }

  /// Join chain of one disjunct, one line per step in execution order.
  void RenderChain(const PlanNode* node) {
    switch (node->kind) {
      case PlanNodeKind::kAtomScan:
        if (node->out_columns.empty() && !node->atom.s.is_var() &&
            !node->atom.p.is_var() && !node->atom.o.is_var()) {
          out_ += "      check  " + ToString(node->atom, vars_, dict_) +
                  "  [boolean filter]" + NodeSuffix(*node) + "\n";
        } else {
          out_ += "      scan   " + ToString(node->atom, vars_, dict_) +
                  "  [~" + FormatRows(node->est_rows) + " rows]" +
                  NodeSuffix(*node) + "\n";
        }
        break;
      case PlanNodeKind::kIndexJoinAtom:
        RenderChain(node->children[0].get());
        out_ += "      probe  " + ToString(node->atom, vars_, dict_) +
                "  [index nested loop, ~" +
                FormatRows(node->children[0]->est_rows) + " probes -> ~" +
                FormatRows(node->est_rows) + " rows]" + NodeSuffix(*node) +
                "\n";
        break;
      case PlanNodeKind::kHashJoin: {
        const PlanNode* left = node->children[0].get();
        if (node->out_columns.empty() || left->out_columns.empty()) {
          // Boolean guards: constant filters checked before the scan runs.
          RenderChain(left);
          RenderChain(node->children[1].get());
          break;
        }
        RenderChain(left);
        const PlanNode* scan = node->children[1].get();
        const std::string source =
            scan->kind == PlanNodeKind::kSharedRef
                ? "shared s" + std::to_string(scan->shared_index)
                : "scan ~" + FormatRows(scan->est_rows);
        out_ += "      hash   " + ToString(scan->atom, vars_, dict_) +
                "  [" + source + " + hash join -> ~" +
                FormatRows(node->est_rows) + " rows]" + NodeSuffix(*node) +
                "\n";
        break;
      }
      case PlanNodeKind::kSharedRef:
        out_ += "      scan   " + ToString(node->atom, vars_, dict_) +
                "  [shared s" + std::to_string(node->shared_index) + ", ~" +
                FormatRows(node->est_rows) + " rows]" + NodeSuffix(*node) +
                "\n";
        break;
      case PlanNodeKind::kScanRange:
        out_ += "      range  " + ToString(node->atom, vars_, dict_) +
                "  [" + (node->range_class_space ? "class" : "property") +
                " hids [" + std::to_string(node->range_lo) + "," +
                std::to_string(node->range_hi) + ") x" +
                std::to_string(node->range_terms) + " terms, ~" +
                FormatRows(node->est_rows) + " rows]" + NodeSuffix(*node) +
                "\n";
        break;
      case PlanNodeKind::kProject:
        // An atom-less disjunct: one constant (true) row.
        out_ += "      const  [1 row]" + NodeSuffix(*node) + "\n";
        break;
      default:
        out_ += "      " + std::string(PlanNodeKindName(node->kind)) +
                NodeSuffix(*node) + "\n";
        break;
    }
  }

  const PhysicalPlan& plan_;
  const VarTable& vars_;
  const Dictionary& dict_;
  const ExplainOptions& opts_;
  std::string out_;
};

}  // namespace

std::string ExplainPlan(const PhysicalPlan& plan, const VarTable& vars,
                        const Dictionary& dict, const ExplainOptions& opts) {
  if (plan.root == nullptr) return "(empty plan)\n";
  return PlanPrinter(plan, vars, dict, opts).Render();
}

std::string ExplainJucqPlan(const JoinOfUnions& jucq, const VarTable& vars,
                            const Dictionary& dict,
                            const CardinalityEstimator& estimator,
                            const EngineProfile& profile,
                            size_t max_disjuncts_shown) {
  Planner planner(&estimator, &profile);
  PhysicalPlan plan = planner.PlanJUCQ(jucq);
  ExplainOptions opts;
  opts.max_union_children_shown = max_disjuncts_shown;
  return ExplainPlan(plan, vars, dict, opts);
}

}  // namespace rdfopt
