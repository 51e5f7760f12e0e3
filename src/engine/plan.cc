#include "engine/plan.h"

namespace rdfopt {

std::string_view PlanNodeKindName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kAtomScan:
      return "AtomScan";
    case PlanNodeKind::kIndexJoinAtom:
      return "IndexJoinAtom";
    case PlanNodeKind::kHashJoin:
      return "HashJoin";
    case PlanNodeKind::kUnionAll:
      return "UnionAll";
    case PlanNodeKind::kProject:
      return "Project";
    case PlanNodeKind::kDedup:
      return "Dedup";
    case PlanNodeKind::kMaterializeBarrier:
      return "MaterializeBarrier";
    case PlanNodeKind::kSharedRef:
      return "SharedRef";
    case PlanNodeKind::kScanRange:
      return "ScanRange";
  }
  return "Unknown";
}

namespace {
void ResetNode(PlanNode* node) {
  if (node == nullptr) return;
  node->actual_rows = 0;
  node->executed = false;
  node->actual_ms = 0.0;
  node->rows_scanned = 0;
  node->hash_probes = 0;
  node->bytes_materialized = 0;
  for (auto& child : node->children) ResetNode(child.get());
}
}  // namespace

void PhysicalPlan::ResetActuals() {
  for (auto& shared : shared_subplans) ResetNode(shared.get());
  ResetNode(root.get());
}

namespace {
// Field-by-field copy (PlanNode is not copyable: unique_ptr children). Any
// future PlanNode field must be added here or clones silently lose it.
std::unique_ptr<PlanNode> CloneNode(const PlanNode* node) {
  if (node == nullptr) return nullptr;
  auto copy = std::make_unique<PlanNode>(node->kind);
  copy->id = node->id;
  copy->atom = node->atom;
  copy->driving_scan = node->driving_scan;
  copy->head = node->head;
  copy->bindings = node->bindings;
  copy->disjuncts = node->disjuncts;
  copy->over_limit = node->over_limit;
  copy->union_terms = node->union_terms;
  copy->component = node->component;
  copy->component_join = node->component_join;
  copy->shared_index = node->shared_index;
  copy->range_lo = node->range_lo;
  copy->range_hi = node->range_hi;
  copy->range_class_space = node->range_class_space;
  copy->range_terms = node->range_terms;
  copy->pre_collapse_terms = node->pre_collapse_terms;
  copy->view_signature = node->view_signature;
  copy->out_columns = node->out_columns;
  copy->est_rows = node->est_rows;
  copy->est_cost = node->est_cost;
  // actual_rows / executed stay at their fresh defaults: a clone is made to
  // be executed, not to preserve a past execution's annotations.
  copy->children.reserve(node->children.size());
  for (const auto& child : node->children) {
    copy->children.push_back(CloneNode(child.get()));
  }
  return copy;
}
}  // namespace

PhysicalPlan PhysicalPlan::Clone() const {
  PhysicalPlan copy;
  copy.shared_subplans.reserve(shared_subplans.size());
  for (const auto& shared : shared_subplans) {
    copy.shared_subplans.push_back(CloneNode(shared.get()));
  }
  copy.root = CloneNode(root.get());
  copy.shape = shape;
  copy.feasibility = feasibility;
  copy.profile_name = profile_name;
  copy.union_term_limit = union_term_limit;
  copy.num_components = num_components;
  copy.union_terms = union_terms;
  copy.num_nodes = num_nodes;
  copy.vector_width = vector_width;
  return copy;
}

namespace {
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(uint64_t* h, uint64_t v) {
  // Byte-wise FNV-1a over the value's 8 bytes.
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xff;
    *h *= kFnvPrime;
  }
}

void FnvTerm(uint64_t* h, const PatternTerm& t) {
  FnvMix(h, t.is_var() ? 1u : 2u);
  FnvMix(h, t.is_var() ? t.var() : t.value());
}

void DigestNode(uint64_t* h, const PlanNode* node) {
  if (node == nullptr) return;
  FnvMix(h, static_cast<uint64_t>(node->kind));
  FnvMix(h, static_cast<uint64_t>(node->id));
  FnvTerm(h, node->atom.s);
  FnvTerm(h, node->atom.p);
  FnvTerm(h, node->atom.o);
  FnvMix(h, node->union_terms);
  FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(node->shared_index)));
  if (node->kind == PlanNodeKind::kScanRange) {
    FnvMix(h, (static_cast<uint64_t>(node->range_lo) << 33) |
                  (static_cast<uint64_t>(node->range_hi) << 1) |
                  (node->range_class_space ? 1u : 0u));
  }
  for (const auto& child : node->children) DigestNode(h, child.get());
}
}  // namespace

uint64_t PlanDigest(const PhysicalPlan& plan) {
  uint64_t h = kFnvOffset;
  FnvMix(&h, static_cast<uint64_t>(plan.shape));
  FnvMix(&h, static_cast<uint64_t>(plan.num_nodes));
  for (const auto& shared : plan.shared_subplans) {
    DigestNode(&h, shared.get());
  }
  DigestNode(&h, plan.root.get());
  return h;
}

}  // namespace rdfopt
