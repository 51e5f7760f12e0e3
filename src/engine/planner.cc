#include "engine/planner.h"

#include <algorithm>
#include <numeric>

#include "engine/plan_verifier.h"
#include "service/canonical.h"

namespace rdfopt {

namespace {

/// Distinct variables of `atom` in first-occurrence s,p,o order — the
/// column order ScanAtom produces.
std::vector<VarId> AtomColumns(const TriplePattern& atom) {
  std::vector<VarId> raw;
  atom.AppendVariables(&raw);
  std::vector<VarId> out;
  for (VarId v : raw) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

bool IsConstantAtom(const TriplePattern& atom) {
  return !atom.s.is_var() && !atom.p.is_var() && !atom.o.is_var();
}

bool Contains(const std::vector<VarId>& cols, VarId v) {
  return std::find(cols.begin(), cols.end(), v) != cols.end();
}

/// Join output columns: left columns, then right-only columns (the order
/// HashJoin and IndexJoinAtom produce).
std::vector<VarId> JoinColumns(const std::vector<VarId>& left,
                               const std::vector<VarId>& right) {
  std::vector<VarId> out = left;
  for (VarId v : right) {
    if (!Contains(out, v)) out.push_back(v);
  }
  return out;
}

std::unique_ptr<PlanNode> MakeNode(PlanNodeKind kind) {
  return std::make_unique<PlanNode>(kind);
}

/// How many branches of an over-limit union are still planned, so EXPLAIN
/// can show sample terms of a plan that will never execute.
constexpr size_t kOverLimitSampleTerms = 3;

/// The greedy ordering rule, written once for the atoms of a chain and for
/// the components of a JUCQ: every pick takes a candidate connected to the
/// picks so far over an unconnected one and, among equals, the smallest
/// `size(i)`, ties to the lowest index. `connected(i, order)` says whether
/// candidate i is connected to the picks in `order`.
template <typename Connected, typename Size>
std::vector<size_t> GreedyOrder(size_t n, Connected connected, Size size) {
  std::vector<bool> used(n, false);
  std::vector<size_t> order;
  order.reserve(n);
  while (order.size() < n) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const bool linked = connected(i, order);
      if (best < 0 || (linked && !best_connected) ||
          (linked == best_connected &&
           size(i) < size(static_cast<size_t>(best)))) {
        best = static_cast<int>(i);
        best_connected = linked;
      }
    }
    used[static_cast<size_t>(best)] = true;
    order.push_back(static_cast<size_t>(best));
  }
  return order;
}

}  // namespace

namespace {

std::array<uint64_t, 6> KeyOfAtom(const TriplePattern& atom) {
  auto enc = [](const PatternTerm& t, uint64_t* k) {
    k[0] = t.is_var() ? 1u : 2u;
    k[1] = t.is_var() ? static_cast<uint64_t>(t.var())
                      : static_cast<uint64_t>(t.value());
  };
  std::array<uint64_t, 6> key{};
  enc(atom.s, &key[0]);
  enc(atom.p, &key[2]);
  enc(atom.o, &key[4]);
  return key;
}

/// Collects every non-guard atom scan of a disjunct chain (constant-atom
/// guards are point lookups, not worth sharing).
void CollectScanLeaves(const PlanNode* node,
                       std::vector<const PlanNode*>* out) {
  if (node == nullptr) return;
  if (node->kind == PlanNodeKind::kAtomScan && !IsConstantAtom(node->atom)) {
    out->push_back(node);
  }
  for (const auto& child : node->children) {
    CollectScanLeaves(child.get(), out);
  }
}

}  // namespace

std::vector<size_t> GreedyAtomOrder(const std::vector<TriplePattern>& atoms,
                                    const std::vector<double>& cards,
                                    const TriplePattern* pinned) {
  auto shares_with_picks = [&](size_t i, const std::vector<size_t>& order) {
    bool connected = false;
    for (size_t j : order) {
      connected = connected || atoms[i].SharesVariableWith(atoms[j]);
    }
    return connected;
  };
  auto card = [&](size_t i) { return cards[i]; };
  // The pin test sits outside the candidate loop: the cover oracle's work
  // estimate calls the unpinned order for every disjunct it prices.
  if (pinned == nullptr) {
    return GreedyOrder(
        atoms.size(),
        [&](size_t i, const std::vector<size_t>& order) {
          return order.empty() || shares_with_picks(i, order);
        },
        card);
  }
  return GreedyOrder(
      atoms.size(),
      [&](size_t i, const std::vector<size_t>& order) {
        return atoms[i].SharesVariableWith(*pinned) ||
               shares_with_picks(i, order);
      },
      card);
}

std::string UnionLimitMessage(size_t union_terms,
                              const EngineProfile& profile) {
  return "UCQ has " + std::to_string(union_terms) +
         " union terms, over the per-query plan limit of " +
         std::to_string(profile.max_union_terms) + " on " + profile.name;
}

std::unique_ptr<PlanNode> Planner::BuildCqChain(
    const ConjunctiveQuery& cq, const CollapsedRange* range,
    const SharedScanMap* shared_scans) const {
  const CostConstants& k = profile_->cost;

  // A scan of an atom factored into a shared subplan becomes a reference to
  // it: est_cost 0 here (the shared subplan is priced once at the union),
  // est_rows unchanged (the reference produces the same relation).
  auto scan_or_ref = [&](const TriplePattern& atom, double est_rows,
                         bool driving) -> std::unique_ptr<PlanNode> {
    if (shared_scans != nullptr) {
      auto it = shared_scans->find(KeyOfAtom(atom));
      if (it != shared_scans->end()) {
        auto ref = MakeNode(PlanNodeKind::kSharedRef);
        ref->atom = atom;
        ref->shared_index = it->second;
        ref->out_columns = AtomColumns(atom);
        ref->est_rows = est_rows;
        return ref;
      }
    }
    auto scan = MakeNode(PlanNodeKind::kAtomScan);
    scan->atom = atom;
    scan->driving_scan = driving;
    scan->out_columns = AtomColumns(atom);
    scan->est_rows = est_rows;
    scan->est_cost = k.c_t * est_rows;
    return scan;
  };

  // All-constant atoms act as boolean existence guards, checked before any
  // scan happens: a left-deep chain short-circuits the whole disjunct when
  // one of them fails. The masked atom of a range is never one: the range
  // scan takes its place.
  std::unique_ptr<PlanNode> chain;
  double guard_selectivity = 1.0;
  std::vector<TriplePattern> body;
  for (size_t a = 0; a < cq.atoms.size(); ++a) {
    if (range != nullptr && a == range->atom_index) continue;
    const TriplePattern& atom = cq.atoms[a];
    if (!IsConstantAtom(atom)) {
      body.push_back(atom);
      continue;
    }
    auto guard = MakeNode(PlanNodeKind::kAtomScan);
    guard->atom = atom;
    guard->est_rows = std::min(1.0, estimator_->EstimateAtom(atom));
    guard->est_cost = k.c_t * guard->est_rows;
    guard_selectivity *= guard->est_rows;
    if (chain == nullptr) {
      chain = std::move(guard);
    } else {
      auto both = MakeNode(PlanNodeKind::kHashJoin);
      both->est_rows = guard_selectivity;
      both->est_cost = chain->est_cost + guard->est_cost;
      both->children.push_back(std::move(chain));
      both->children.push_back(std::move(guard));
      chain = std::move(both);
    }
  }
  // Null for the atom-less (true) CQ.
  if (body.empty() && range == nullptr) return chain;

  std::vector<double> cards(body.size());
  for (size_t i = 0; i < body.size(); ++i) {
    cards[i] = estimator_->EstimateAtom(body[i]);
  }
  const TriplePattern* masked =
      range != nullptr ? &cq.atoms[range->atom_index] : nullptr;
  const std::vector<size_t> order = GreedyAtomOrder(body, cards, masked);

  // Driving scan: the pipelined base of the chain; charged per-tuple
  // executor overhead by itself (scans feeding hash joins are charged at
  // the join instead). A range is pinned as the driving scan: the shadow
  // index emits (hid, subject, ...) order across the interval, which no
  // per-subject probe order survives, so it anchors the chain and every
  // body atom joins onto it. Otherwise the first atom of the order drives.
  std::unique_ptr<PlanNode> scan;
  ConjunctiveQuery prefix;
  size_t next_step = 0;
  // Prefix estimates of a range chain come from the representative
  // disjunct's prefixes, scaled by how much wider the interval is than the
  // representative's own scan: the group's branches are identical up to the
  // masked constant, so the representative's join selectivities stand in
  // for all of them. A plain chain scales by 1.0, which is exact.
  double scale = 1.0;
  if (range != nullptr) {
    const TripleStore* store = estimator_->store();
    const double range_rows = static_cast<double>(
        range->class_space
            ? store->CountClassHidRange(range->lo, range->hi)
            : store->CountPropertyHidRange(range->lo, range->hi));
    scan = MakeNode(PlanNodeKind::kScanRange);
    scan->atom = *masked;
    scan->driving_scan = true;
    scan->range_lo = range->lo;
    scan->range_hi = range->hi;
    scan->range_class_space = range->class_space;
    scan->range_terms = range->members.size();
    scan->out_columns = AtomColumns(*masked);
    scan->est_rows = range_rows;
    scan->est_cost = k.c_r * range_rows;
    prefix.atoms.push_back(*masked);
    scale = range_rows / std::max(1.0, estimator_->EstimateAtom(*masked));
  } else {
    scan = scan_or_ref(body[order[0]], cards[order[0]], /*driving=*/true);
    prefix.atoms.push_back(body[order[0]]);
    next_step = 1;
  }
  double inter = scan->est_rows;
  if (chain == nullptr) {
    chain = std::move(scan);
  } else {
    // Guard pass-through: boolean AND of the constant filters with the
    // driving scan; the executor forwards the scan unchanged when the
    // guards hold.
    auto guarded = MakeNode(PlanNodeKind::kHashJoin);
    guarded->out_columns = scan->out_columns;
    guarded->est_rows = guard_selectivity * scan->est_rows;
    guarded->est_cost = chain->est_cost + scan->est_cost;
    guarded->children.push_back(std::move(chain));
    guarded->children.push_back(std::move(scan));
    chain = std::move(guarded);
  }

  for (size_t step = next_step; step < order.size(); ++step) {
    const TriplePattern& atom = body[order[step]];
    const double scanned = cards[order[step]];
    prefix.atoms.push_back(atom);
    const double out = estimator_->EstimateCQ(prefix) * scale;
    const std::vector<VarId> atom_cols = AtomColumns(atom);
    bool binds_position = false;
    for (VarId v : atom_cols) {
      binds_position = binds_position || Contains(chain->out_columns, v);
    }
    std::vector<VarId> out_columns = JoinColumns(chain->out_columns, atom_cols);

    std::unique_ptr<PlanNode> node;
    if (binds_position && inter * 8.0 < scanned) {
      node = MakeNode(PlanNodeKind::kIndexJoinAtom);
      node->atom = atom;
      node->est_cost = chain->est_cost + (k.c_t + k.c_j) * inter + k.c_j * out;
      node->children.push_back(std::move(chain));
    } else {
      std::unique_ptr<PlanNode> probe =
          scan_or_ref(atom, scanned, /*driving=*/false);
      node = MakeNode(PlanNodeKind::kHashJoin);
      node->est_cost =
          chain->est_cost + probe->est_cost + k.c_j * (inter + scanned);
      node->children.push_back(std::move(chain));
      node->children.push_back(std::move(probe));
    }
    node->out_columns = std::move(out_columns);
    node->est_rows = guard_selectivity * out;
    chain = std::move(node);
    inter = out;
  }
  return chain;
}

std::unique_ptr<PlanNode> Planner::BuildComponent(
    const UnionQuery& ucq, int component_index,
    std::vector<std::unique_ptr<PlanNode>>* shared_out) const {
  const CostConstants& k = profile_->cost;

  // Hierarchy-range collapse (DESIGN.md §12): with the feature on and an
  // encoding attached to the store, disjunct groups identical up to one
  // hierarchy constant whose hids form a consecutive run become single
  // kScanRange-driven branches. AnalyzeRangeCollapse is the whole decision;
  // the cover oracle's cost inputs read the same one, so the oracle prices
  // the union this builds. Without it every disjunct is a residual branch.
  const HierarchyEncoding* encoding =
      profile_->hierarchy_ranges ? estimator_->store()->hierarchy() : nullptr;
  RangeCollapsePlan rc;
  if (encoding != nullptr) {
    rc = AnalyzeRangeCollapse(ucq, *encoding);
  } else {
    rc.residual.resize(ucq.disjuncts.size());
    std::iota(rc.residual.begin(), rc.residual.end(), size_t{0});
  }

  // Branch order: ranges and residual disjuncts interleaved by source
  // disjunct (a range's representative is its smallest member), so a
  // collapsed union tracks the original disjunct order deterministically.
  struct Branch {
    size_t disjunct;
    const CollapsedRange* range;  // Null for a residual branch.
  };
  std::vector<Branch> branches;
  branches.reserve(rc.post_terms());
  for (const CollapsedRange& r : rc.ranges) branches.push_back({r.rep, &r});
  for (size_t d : rc.residual) branches.push_back({d, nullptr});
  std::sort(branches.begin(), branches.end(),
            [](const Branch& a, const Branch& b) {
              return a.disjunct < b.disjunct;
            });

  auto u = MakeNode(PlanNodeKind::kUnionAll);
  u->head = ucq.head;
  u->out_columns = ucq.head;
  u->pre_collapse_terms = ucq.disjuncts.size();
  u->union_terms = branches.size();
  u->over_limit = branches.size() > profile_->max_union_terms;

  // An over-limit union can never execute; plan only a few sample branches
  // so EXPLAIN can still render the infeasible plan.
  const size_t planned =
      u->over_limit ? std::min(branches.size(), kOverLimitSampleTerms)
                    : branches.size();
  std::vector<std::unique_ptr<PlanNode>> chains;
  chains.reserve(planned);
  for (size_t b = 0; b < planned; ++b) {
    chains.push_back(
        BuildCqChain(ucq.disjuncts[branches[b].disjunct], branches[b].range));
  }

  // Union-subplan factoring (DESIGN.md §11): an atom scanned by two or more
  // disjunct chains becomes an execute-once shared subplan; each chain
  // rebuilds with a kSharedRef leaf in its place. Operator choices are
  // estimate-driven and identical across the rebuild, so only scan leaves
  // change. Off for over-limit unions (they never execute), for profiles
  // that model engines re-evaluating every branch in isolation, and for
  // collapsed unions: the ranged scans are already the shared work, and the
  // residual tail is small by construction.
  double shared_cost = 0.0;
  if (profile_->share_union_subplans && rc.ranges.empty() && !u->over_limit &&
      shared_out != nullptr && planned > 1) {
    std::map<SharedAtomKey, std::pair<size_t, const PlanNode*>> counts;
    std::vector<const PlanNode*> leaves;
    for (const auto& chain : chains) {
      leaves.clear();
      CollectScanLeaves(chain.get(), &leaves);
      // Count each atom once per chain (a self-join shares within the
      // chain too, but sharing needs at least two distinct consumers).
      std::map<SharedAtomKey, const PlanNode*> in_chain;
      for (const PlanNode* leaf : leaves) {
        in_chain.emplace(KeyOfAtom(leaf->atom), leaf);
      }
      for (const auto& [key, leaf] : in_chain) {
        auto [it, inserted] = counts.emplace(key, std::make_pair(0u, leaf));
        ++it->second.first;
      }
    }
    SharedScanMap shared_map;
    for (const auto& [key, entry] : counts) {
      if (entry.first < 2) continue;
      const PlanNode* exemplar = entry.second;
      auto shared = MakeNode(PlanNodeKind::kAtomScan);
      shared->atom = exemplar->atom;
      shared->driving_scan = true;  // Charged per-tuple once, at execution.
      shared->out_columns = exemplar->out_columns;
      shared->est_rows = exemplar->est_rows;
      shared->est_cost = k.c_t * exemplar->est_rows;
      shared->shared_index = static_cast<int>(shared_out->size());
      shared_map.emplace(key, shared->shared_index);
      shared_cost += shared->est_cost;
      shared_out->push_back(std::move(shared));
    }
    if (!shared_map.empty()) {
      for (size_t b = 0; b < planned; ++b) {
        chains[b] = BuildCqChain(ucq.disjuncts[branches[b].disjunct],
                                 /*range=*/nullptr, &shared_map);
      }
    }
  }

  double est_sum = 0.0;
  double cost =
      shared_cost + k.c_union_term * static_cast<double>(branches.size());
  for (size_t b = 0; b < planned; ++b) {
    std::unique_ptr<PlanNode> chain = std::move(chains[b]);
    if (chain == nullptr) {
      // Atom-less disjunct: a single always-true row.
      chain = MakeNode(PlanNodeKind::kProject);
      chain->est_rows = 1.0;
    }
    est_sum += chain->est_rows;
    cost += chain->est_cost;
    // A range's representative disjunct carries the branch's projection:
    // the collapse signature pins head variables and head bindings
    // literally across the group, so it is exact for every member.
    u->disjuncts.push_back(ucq.disjuncts[branches[b].disjunct]);
    u->children.push_back(std::move(chain));
  }
  u->est_rows = est_sum;
  u->est_cost = cost;

  auto dedup = MakeNode(PlanNodeKind::kDedup);
  dedup->component = component_index;
  dedup->out_columns = ucq.head;
  dedup->est_rows = est_sum;
  dedup->est_cost = cost + k.c_l * est_sum;
  // View catalog (DESIGN.md §14): an executable component is announced to
  // the resolver and its root stamped with the component's ViewSignature.
  // An over-limit union never executes; there is nothing to materialize.
  if (views_ != nullptr && !u->over_limit) {
    dedup->view_signature = ViewSignature(ucq);
    views_->NoteComponent(dedup->view_signature, ucq, u->est_cost,
                          u->union_terms);
  }
  dedup->children.push_back(std::move(u));
  return dedup;
}

Planner::ComponentCombination Planner::CombineComponents(
    const std::vector<std::pair<double, std::vector<VarId>>>& components)
    const {
  const CostConstants& k = profile_->cost;
  ComponentCombination comb;
  const size_t n = components.size();
  if (n == 0) return comb;

  // The largest estimated result is pipelined; all others are materialized
  // (paper §4.1(v)). First-max tie-break, as the evaluator always had.
  for (size_t i = 1; i < n; ++i) {
    if (components[i].first > components[comb.pipelined].first) {
      comb.pipelined = i;
    }
  }

  // Greedy join order (the atom-ordering rule): smallest estimate first,
  // then the smallest component sharing a column with those joined so far.
  comb.order = GreedyOrder(
      n,
      [&](size_t i, const std::vector<size_t>& order) {
        if (order.empty()) return true;
        for (size_t j : order) {
          for (VarId v : components[i].second) {
            if (Contains(components[j].second, v)) return true;
          }
        }
        return false;
      },
      [&](size_t i) { return components[i].first; });

  if (n > 1) {
    double join_inputs = 0.0;
    for (size_t i = 0; i < n; ++i) {
      join_inputs += components[i].first;
      if (i != comb.pipelined) {
        comb.combine_cost += k.c_m * components[i].first;
      }
    }
    comb.combine_cost += k.c_j * join_inputs;
  }
  comb.est_rows = estimator_->EstimateJoin(components);
  return comb;
}

void Planner::Finalize(PhysicalPlan* plan) const {
  plan->profile_name = profile_->name;
  plan->union_term_limit = profile_->max_union_terms;
  plan->vector_width = std::max<size_t>(1, profile_->vector_width);
  int next_id = 0;
  // Preorder ids (non-const walk; ForEachNode is const-only). Shared
  // subplans come first: they execute first and EXPLAIN prints them as the
  // plan preamble.
  struct Assign {
    int* next;
    void operator()(PlanNode* node) {
      if (node == nullptr) return;
      node->id = (*next)++;
      for (auto& child : node->children) (*this)(child.get());
    }
  };
  for (auto& shared : plan->shared_subplans) {
    Assign{&next_id}(shared.get());
  }
  Assign{&next_id}(plan->root.get());
  plan->num_nodes = next_id;
}

PhysicalPlan Planner::PlanCQ(const ConjunctiveQuery& cq) const {
  const CostConstants& k = profile_->cost;
  PhysicalPlan plan;
  plan.shape = PlanShape::kCq;
  plan.profile_name = profile_->name;
  plan.num_components = 1;

  std::unique_ptr<PlanNode> chain = BuildCqChain(cq);
  auto project = MakeNode(PlanNodeKind::kProject);
  project->head = cq.head;
  project->bindings = cq.head_bindings;
  project->out_columns = cq.head;
  if (chain != nullptr) {
    project->est_rows = chain->est_rows;
    project->est_cost = chain->est_cost;
    project->children.push_back(std::move(chain));
  } else {
    project->est_rows = 1.0;  // The atom-less CQ has one (true) row.
  }

  auto dedup = MakeNode(PlanNodeKind::kDedup);
  dedup->out_columns = cq.head;
  dedup->est_rows = project->est_rows;
  dedup->est_cost = project->est_cost + k.c_l * project->est_rows;
  dedup->children.push_back(std::move(project));
  plan.root = std::move(dedup);
  Finalize(&plan);
  DebugCheckPlan(plan, estimator_->store(), "planner (CQ)");
  return plan;
}

PhysicalPlan Planner::PlanUCQ(const UnionQuery& ucq) const {
  PhysicalPlan plan;
  plan.shape = PlanShape::kUcq;
  plan.profile_name = profile_->name;
  plan.num_components = 1;
  plan.root = BuildComponent(ucq, /*component_index=*/0,
                             &plan.shared_subplans);
  // Term count and feasibility are read off the built union (the dedup
  // root's child): with hierarchy-range collapse they are post-collapse
  // values — a reformulation whose collapsed form fits the plan limit is
  // feasible even when its raw disjunct count is not.
  const PlanNode* u = plan.root->children[0].get();
  plan.union_terms = u->union_terms;
  if (u->over_limit) {
    plan.feasibility = Status::QueryTooComplex(
        UnionLimitMessage(u->union_terms, *profile_));
  }
  Finalize(&plan);
  DebugCheckPlan(plan, estimator_->store(), "planner (UCQ)");
  return plan;
}

PhysicalPlan Planner::PlanJUCQ(const JoinOfUnions& jucq) const {
  const CostConstants& k = profile_->cost;
  PhysicalPlan plan;
  plan.shape = PlanShape::kJucq;
  plan.profile_name = profile_->name;
  plan.num_components = jucq.components.size();

  std::vector<std::unique_ptr<PlanNode>> roots;
  std::vector<std::pair<double, std::vector<VarId>>> inputs;
  roots.reserve(jucq.components.size());
  inputs.reserve(jucq.components.size());
  for (size_t c = 0; c < jucq.components.size(); ++c) {
    const UnionQuery& component = jucq.components[c];
    std::unique_ptr<PlanNode> root = BuildComponent(
        component, static_cast<int>(c), &plan.shared_subplans);
    // Post-collapse term count and feasibility, read off the built union
    // (see PlanUCQ).
    const PlanNode* u = root->children[0].get();
    plan.union_terms += u->union_terms;
    if (u->over_limit && plan.feasibility.ok()) {
      plan.feasibility = Status::QueryTooComplex(
          UnionLimitMessage(u->union_terms, *profile_));
    }
    inputs.emplace_back(root->est_rows, component.head);
    roots.push_back(std::move(root));
  }

  std::unique_ptr<PlanNode> tree;
  ComponentCombination comb = CombineComponents(inputs);
  if (roots.size() == 1) {
    tree = std::move(roots[0]);
  } else if (!roots.empty()) {
    // All-but-the-largest component results are materialized.
    for (size_t i = 0; i < roots.size(); ++i) {
      if (i == comb.pipelined) continue;
      auto barrier = MakeNode(PlanNodeKind::kMaterializeBarrier);
      barrier->out_columns = roots[i]->out_columns;
      barrier->est_rows = roots[i]->est_rows;
      barrier->est_cost = roots[i]->est_cost + k.c_m * roots[i]->est_rows;
      barrier->children.push_back(std::move(roots[i]));
      roots[i] = std::move(barrier);
    }
    // Left-deep hash-join chain in the greedy component order.
    std::vector<std::pair<double, std::vector<VarId>>> joined;
    tree = std::move(roots[comb.order[0]]);
    joined.push_back(inputs[comb.order[0]]);
    for (size_t step = 1; step < comb.order.size(); ++step) {
      const size_t next = comb.order[step];
      auto join = MakeNode(PlanNodeKind::kHashJoin);
      join->component_join = true;
      join->out_columns =
          JoinColumns(tree->out_columns, roots[next]->out_columns);
      joined.push_back(inputs[next]);
      join->est_rows = estimator_->EstimateJoin(joined);
      // Each component's rows are fed into the join pipeline once; the
      // first join also accounts for its left (first) component.
      join->est_cost = tree->est_cost + roots[next]->est_cost +
                       k.c_j * inputs[next].first +
                       (step == 1 ? k.c_j * inputs[comb.order[0]].first : 0.0);
      join->children.push_back(std::move(tree));
      join->children.push_back(std::move(roots[next]));
      tree = std::move(join);
    }
  }

  auto project = MakeNode(PlanNodeKind::kProject);
  project->head = jucq.head;
  project->out_columns = jucq.head;
  if (tree != nullptr) {
    project->est_rows = tree->est_rows;
    project->est_cost = tree->est_cost;
    project->children.push_back(std::move(tree));
  }

  auto dedup = MakeNode(PlanNodeKind::kDedup);
  dedup->out_columns = jucq.head;
  dedup->est_rows = comb.est_rows;
  // c_db is the per-query engine round-trip constant, charged once at the
  // plan root (this keeps ExplainCost the sum it always was).
  dedup->est_cost = project->est_cost + k.c_l * comb.est_rows + k.c_db;
  dedup->children.push_back(std::move(project));
  plan.root = std::move(dedup);
  Finalize(&plan);
  DebugCheckPlan(plan, estimator_->store(), "planner (JUCQ)");
  return plan;
}

}  // namespace rdfopt
