#include "cost/feedback.h"

#include <algorithm>

#include "common/metrics.h"
#include "engine/plan.h"
#include "service/canonical.h"

namespace rdfopt {

namespace {

bool DrivenByRange(const PlanNode& node) {
  if (node.kind == PlanNodeKind::kScanRange) return true;
  return std::any_of(node.children.begin(), node.children.end(),
                     [](const auto& child) { return DrivenByRange(*child); });
}

}  // namespace

void EstimateFeedbackStore::Record(const ConjunctiveQuery& cq,
                                   double estimated_rows, size_t actual_rows) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static MetricCounter* records =
      registry.GetCounter("cost.feedback_records");
  static MetricCounter* evictions =
      registry.GetCounter("cost.feedback_evictions");
  // Folded estimate-error ratio: 1.0 = exact, 10.0 = one order of magnitude
  // off in either direction. +1 smoothing keeps zero-row fragments finite.
  static MetricHistogram* drift =
      registry.GetHistogram("cost.estimate_drift");

  if (estimated_rows < 0.0) estimated_rows = 0.0;
  const double actual = static_cast<double>(actual_rows);
  const double ratio = (estimated_rows + 1.0) / (actual + 1.0);
  drift->Observe(std::max(ratio, 1.0 / ratio));
  records->Increment();

  std::string key = FragmentKey(cq);
  const uint64_t shape = FragmentShape(cq);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.rows = options_.ewma_alpha * actual +
                      (1.0 - options_.ewma_alpha) * it->second.rows;
    return;
  }
  while (entries_.size() >= options_.max_entries &&
         !insertion_order_.empty()) {
    auto evicted = entries_.find(insertion_order_.front());
    const uint64_t evicted_shape = evicted->second.shape;
    auto count = shapes_.find(evicted_shape);
    if (--count->second == 0) shapes_.erase(count);
    shape_slots_[evicted_shape % kShapeSlots].fetch_sub(
        1, std::memory_order_release);
    entries_.erase(evicted);
    insertion_order_.pop_front();
    evictions->Increment();
  }
  insertion_order_.push_back(key);
  entries_.emplace(std::move(key), Entry{actual, shape});
  ++shapes_[shape];
  shape_slots_[shape % kShapeSlots].fetch_add(1, std::memory_order_release);
}

std::optional<double> EstimateFeedbackStore::Lookup(
    const ConjunctiveQuery& cq) const {
  return Lookup(cq, FragmentShape(cq));
}

std::optional<double> EstimateFeedbackStore::Lookup(const ConjunctiveQuery& cq,
                                                    uint64_t shape) const {
  // Registered on the first lookup, hit or not, so `!prom` always has them.
  static MetricCounter* const hits =
      MetricsRegistry::Global().GetCounter("cost.feedback_hits");
  static MetricCounter* const key_builds =
      MetricsRegistry::Global().GetCounter("cost.feedback_key_builds");
  if (shape_slots_[shape % kShapeSlots].load(std::memory_order_acquire) ==
      0) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!shapes_.contains(shape)) return std::nullopt;
  key_builds->Increment();
  auto it = entries_.find(FragmentKey(cq));
  if (it == entries_.end()) return std::nullopt;
  hits->Increment();
  return it->second.rows;
}

void EstimateFeedbackStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  insertion_order_.clear();
  shapes_.clear();
  for (std::atomic<uint32_t>& count : shape_slots_) {
    count.store(0, std::memory_order_release);
  }
}

size_t EstimateFeedbackStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void RecordPlanFeedback(const PhysicalPlan& plan,
                        EstimateFeedbackStore* store) {
  if (store == nullptr) return;
  plan.ForEachNode([store](const PlanNode& node) {
    if (node.kind != PlanNodeKind::kUnionAll) return;
    // disjuncts[i] is the source CQ of children[i] (planner invariant); an
    // over-limit union plans only a sample, so sizes can differ — skip it.
    if (node.disjuncts.size() != node.children.size()) return;
    for (size_t i = 0; i < node.children.size(); ++i) {
      const PlanNode& child = *node.children[i];
      if (!child.executed) continue;  // Short-circuited: no observation.
      // A collapsed range branch counts the whole interval's rows, not its
      // representative disjunct's.
      if (DrivenByRange(child)) continue;
      store->Record(node.disjuncts[i], child.est_rows, child.actual_rows);
    }
  });
}

}  // namespace rdfopt
