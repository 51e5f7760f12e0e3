#ifndef RDFOPT_ENGINE_VIEW_RESOLVER_H_
#define RDFOPT_ENGINE_VIEW_RESOLVER_H_

#include <memory>
#include <string>

namespace rdfopt {

class Relation;
struct UnionQuery;

/// The engine's view of the materialized-view catalog (DESIGN.md §14). The
/// catalog itself lives in src/views — a layer above the engine — so the
/// Planner and Evaluator talk to it through this interface, wired opt-in by
/// a plain pointer exactly like the estimate-feedback store: never ambient,
/// default off, so paper-reproduction runs and golden plans are unaffected.
///
/// The division of labor follows who owns the information:
///  - the Planner knows each component's definition and estimates, so it
///    announces them (NoteComponent) and stamps the component root with
///    its signature; it never reads the catalog, so a plan — cached or
///    not — does not depend on which views exist;
///  - the Evaluator runs the component, so it is the one reader: at each
///    stamped component root it asks for stored rows (Lookup) and, on a
///    miss, hands the freshly deduplicated result to Offer for
///    opportunistic admission.
///
/// Implementations must be thread-safe: NoteComponent runs on concurrent
/// request threads, Lookup and Offer on executor worker threads.
class ViewResolver {
 public:
  virtual ~ViewResolver() = default;

  /// Called by the Planner once per planned (executable) component: records
  /// an observation of `signature` (ViewSignature of the component UCQ) in
  /// the advisor's frequency ledger, together with the definition and the
  /// estimates needed to score and later re-materialize it.
  virtual void NoteComponent(const std::string& signature,
                             const UnionQuery& ucq, double est_cost,
                             size_t union_terms) = 0;

  /// Materialized rows for `signature`, or nullptr when the catalog has no
  /// current-epoch entry. Called by the Evaluator once per executed stamped
  /// component. The returned relation is immutable and stays valid while
  /// the caller holds it, even if the catalog evicts the entry meanwhile
  /// (shared ownership; the executor holds it only while copying).
  virtual std::shared_ptr<const Relation> Lookup(
      const std::string& signature) = 0;

  /// Offers a freshly computed, deduplicated component result for
  /// admission. The resolver copies the rows if (and only if) it admits
  /// them; the caller keeps ownership of `rows`.
  virtual void Offer(const std::string& signature, const Relation& rows) = 0;
};

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_VIEW_RESOLVER_H_
