#include "optimizer/answering.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "engine/plan_verifier.h"
#include "engine/planner.h"
#include "optimizer/gcov.h"
#include "reformulation/minimize.h"
#include "reformulation/subsumption.h"

namespace rdfopt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Registry epilogue for one Answer() call (success or failure).
void RecordAnswerMetrics(const AnswerOutcome* outcome, const Status& status) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static MetricCounter* queries = registry.GetCounter("optimizer.queries");
  static MetricCounter* errors = registry.GetCounter("optimizer.errors");
  static MetricCounter* covers =
      registry.GetCounter("optimizer.covers_examined");
  static MetricCounter* timeouts =
      registry.GetCounter("optimizer.search_timeouts");
  static MetricHistogram* optimize_ms =
      registry.GetHistogram("optimizer.optimize_ms");
  static MetricHistogram* reformulate_ms =
      registry.GetHistogram("optimizer.reformulate_ms");
  static MetricHistogram* total_ms =
      registry.GetHistogram("optimizer.total_ms");
  queries->Increment();
  if (outcome == nullptr) {
    (void)status;
    errors->Increment();
    return;
  }
  covers->Add(outcome->covers_examined);
  if (outcome->optimizer_timed_out) timeouts->Increment();
  optimize_ms->Observe(outcome->optimize_ms);
  reformulate_ms->Observe(outcome->reformulate_ms);
  total_ms->Observe(outcome->total_ms());
}

/// Registry counters of one planning's cover pricing, recorded once all of
/// it is done (the chosen cover assembled).
void RecordPricingMetrics(const CachingCoverCostOracle& oracle) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static MetricCounter* disjuncts =
      registry.GetCounter("optimizer.disjuncts_priced");
  static MetricCounter* store_counts =
      registry.GetCounter("optimizer.atom_store_counts");
  disjuncts->Add(oracle.disjuncts_priced());
  store_counts->Add(oracle.atom_store_counts());
}
}  // namespace

std::string_view StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kUcq:
      return "UCQ";
    case Strategy::kScq:
      return "SCQ";
    case Strategy::kEcov:
      return "ECov";
    case Strategy::kGcov:
      return "GCov";
    case Strategy::kSaturation:
      return "Saturation";
  }
  return "Unknown";
}

CachingCoverCostOracle::CachingCoverCostOracle(
    const ConjunctiveQuery& cq, const VarTable& vars,
    const Reformulator* reformulator, const CardinalityEstimator* estimator,
    const Evaluator* evaluator, const AnswerOptions& options)
    : cq_(cq),
      scratch_vars_(vars),
      reformulator_(reformulator),
      estimator_(estimator),
      evaluator_(evaluator),
      options_(options),
      // Fragments whose reformulation exceeds the engine's plan limit can
      // never be evaluated, so they are never materialized either (their
      // cost is +inf and assembling them fails with kQueryTooComplex, which
      // is also what the engine itself would report).
      effective_disjunct_cap_(
          std::min(options.max_reformulation_disjuncts,
                   evaluator->profile().max_union_terms)),
      atom_stats_(estimator) {}

size_t CachingCoverCostOracle::FragmentHash::operator()(
    const std::vector<int>& fragment) const {
  uint64_t h = 0xCBF29CE484222325ull;
  for (int atom : fragment) {
    h = (h ^ static_cast<uint64_t>(atom)) * 0x100000001B3ull;
  }
  return static_cast<size_t>(h);
}

ConjunctiveQuery CachingCoverCostOracle::FragmentQuery(
    const std::vector<int>& fragment) const {
  ConjunctiveQuery fragment_cq;
  for (int atom : fragment) {
    fragment_cq.atoms.push_back(cq_.atoms[static_cast<size_t>(atom)]);
  }
  fragment_cq.head = fragment_cq.AllVariables();
  return fragment_cq;
}

const CachingCoverCostOracle::FragmentEntry&
CachingCoverCostOracle::GetFragment(const std::vector<int>& fragment,
                                    std::optional<UnionQuery>* ucq) {
  auto it = cache_.find(fragment);
  if (it != cache_.end()) return it->second;

  FragmentEntry entry;
  // Reformulate with the widest head (every original variable of the
  // fragment); cover-specific heads are subsets applied at assembly time.
  const ConjunctiveQuery fragment_cq = FragmentQuery(fragment);
  size_t estimate =
      reformulator_->EstimateDisjuncts(fragment_cq, scratch_vars_);
  if (estimate <= effective_disjunct_cap_) {
    entry.vars_mark = scratch_vars_.watermark();
    Result<UnionQuery> reformulated = reformulator_->ReformulateCQ(
        fragment_cq, &scratch_vars_, effective_disjunct_cap_);
    if (reformulated.ok()) {
      const UnionQuery& fragment_ucq = reformulated.ValueOrDie();
      // With hierarchy ranges on, fragments are priced (and declared
      // feasible) on their post-collapse term counts — the terms the engine
      // will actually run (cost_model.h).
      const HierarchyEncoding* encoding =
          evaluator_->profile().hierarchy_ranges
              ? estimator_->store()->hierarchy()
              : nullptr;
      entry.inputs =
          options_.literal_scan_sums
              ? ComputeUcqCostInputsLiteral(fragment_ucq, *estimator_,
                                            &atom_stats_)
              : ComputeUcqCostInputs(fragment_ucq, *estimator_, encoding,
                                     &atom_stats_);
      disjuncts_priced_ += fragment_ucq.size();
      entry.feasible = true;
      if (options_.use_engine_cost_model) {
        // Plan the fragment's component once; its cost and result estimate
        // do not depend on the head a cover projects it to, so every
        // candidate cover containing this fragment prices it from the cache
        // instead of re-planning.
        Planner planner(estimator_, &evaluator_->profile());
        PhysicalPlan plan = planner.PlanUCQ(fragment_ucq);
        entry.engine_cost = plan.est_cost();
        entry.engine_est_rows = plan.root->est_rows;
      }
      if (ucq != nullptr) *ucq = reformulated.TakeValue();
    }
  }
  return cache_.emplace(fragment, std::move(entry)).first->second;
}

double CachingCoverCostOracle::FragmentCost(const std::vector<int>& fragment) {
  const FragmentEntry& entry = GetFragment(fragment);
  if (!entry.feasible ||
      entry.inputs.num_disjuncts > evaluator_->profile().max_union_terms) {
    return kInf;
  }
  PaperCostModel model(evaluator_->profile().cost);
  return model.UcqCost(entry.inputs);
}

double CachingCoverCostOracle::CoverCost(const Cover& cover) {
  TraceSpan span("cover.candidate");
  if (span.active()) span.Attr("cover", cover.Key());
  double cost = CoverCostImpl(cover);
  span.Attr("est_cost", cost);
  span.Attr("fragments", cover.fragments.size());
  return cost;
}

double CachingCoverCostOracle::CoverCostImpl(const Cover& cover) {
  std::vector<UcqCostInputs> components;
  std::vector<std::pair<double, std::vector<VarId>>> join_inputs;
  std::vector<std::pair<double, std::vector<VarId>>> engine_inputs;
  double engine_component_cost = 0.0;
  components.reserve(cover.fragments.size());
  for (size_t i = 0; i < cover.fragments.size(); ++i) {
    const FragmentEntry& entry = GetFragment(cover.fragments[i]);
    if (!entry.feasible ||
        entry.inputs.num_disjuncts > evaluator_->profile().max_union_terms) {
      return kInf;
    }
    components.push_back(entry.inputs);
    ConjunctiveQuery cover_query = BuildCoverQuery(cq_, cover, i);
    if (options_.use_engine_cost_model) {
      engine_component_cost += entry.engine_cost;
      engine_inputs.emplace_back(entry.engine_est_rows, cover_query.head);
    }
    join_inputs.emplace_back(entry.inputs.est_result,
                             std::move(cover_query.head));
  }

  if (options_.use_engine_cost_model) {
    // Fig 9 alternative: the est_cost annotation of the plan the engine
    // would run, assembled from the cached per-fragment component costs
    // plus the planner's component-combination pricing — no reformulation
    // or re-planning per candidate.
    const CostConstants& k = evaluator_->profile().cost;
    Planner::ComponentCombination comb =
        evaluator_->planner().CombineComponents(engine_inputs);
    return k.c_db + engine_component_cost + comb.combine_cost +
           k.c_l * comb.est_rows;
  }

  PaperCostModel model(evaluator_->profile().cost);
  double est_final = estimator_->EstimateJoin(join_inputs);
  return model.JucqCost(components, est_final);
}

Result<JoinOfUnions> CachingCoverCostOracle::AssembleJucq(const Cover& cover,
                                                          VarTable* vars,
                                                          size_t* pruned) {
  JoinOfUnions jucq;
  jucq.head = cq_.head;
  for (size_t i = 0; i < cover.fragments.size(); ++i) {
    std::optional<UnionQuery> ucq;
    const FragmentEntry& entry = GetFragment(cover.fragments[i], &ucq);
    if (!entry.feasible) {
      return Status::QueryTooComplex(
          "fragment reformulation exceeds the materialization cap of " +
          std::to_string(effective_disjunct_cap_) + " disjuncts");
    }
    if (!ucq.has_value()) {
      // Priced earlier and dropped: replay the reformulation from the
      // table's state at that time, so it draws the same fresh variables.
      VarTable replay = scratch_vars_.AsOf(entry.vars_mark);
      Result<UnionQuery> again = reformulator_->ReformulateCQ(
          FragmentQuery(cover.fragments[i]), &replay, effective_disjunct_cap_);
      RDFOPT_RETURN_NOT_OK(again.status());
      ucq = again.TakeValue();
    }
    ConjunctiveQuery cover_query = BuildCoverQuery(cq_, cover, i);
    UnionQuery component;
    component.head = cover_query.head;
    component.disjuncts.reserve(ucq->disjuncts.size());
    for (ConjunctiveQuery& disjunct : ucq->disjuncts) {
      if (options_.prune_empty_disjuncts && DisjunctIsEmpty(disjunct)) {
        if (pruned != nullptr) ++*pruned;
        continue;
      }
      disjunct.head = cover_query.head;
      // head_bindings made for the widest head remain valid: projection
      // only consults bindings of variables in the (narrower) head.
      component.disjuncts.push_back(std::move(disjunct));
    }
    if (options_.prune_subsumed_disjuncts &&
        component.disjuncts.size() <= options_.subsumption_pruning_limit) {
      size_t dropped = PruneSubsumedDisjuncts(&component);
      if (pruned != nullptr) *pruned += dropped;
    }
    jucq.components.push_back(std::move(component));
  }
  *vars = scratch_vars_;
  return jucq;
}

bool CachingCoverCostOracle::DisjunctIsEmpty(
    const ConjunctiveQuery& disjunct) const {
  const TripleStore& store = evaluator_->store();
  for (const TriplePattern& atom : disjunct.atoms) {
    ValueId s = atom.s.is_var() ? kAnyValue : atom.s.value();
    ValueId p = atom.p.is_var() ? kAnyValue : atom.p.value();
    ValueId o = atom.o.is_var() ? kAnyValue : atom.o.value();
    if (store.CountMatches(s, p, o) == 0) return true;
  }
  return false;
}

QueryAnswerer::QueryAnswerer(const TripleStore* data,
                             const TripleStore* saturated,
                             const Schema* schema, const Vocabulary* vocab,
                             const Statistics* statistics,
                             const EngineProfile* profile)
    : data_(data),
      saturated_(saturated),
      schema_(schema),
      vocab_(vocab),
      reformulator_(schema, vocab),
      estimator_(data, statistics),
      // The answerer's evaluator plans with the statistics-backed estimator
      // (estimator_ is declared before evaluator_, so this is safe); the
      // saturation evaluator keeps its own statistics-free one — data-store
      // statistics would be wrong for the saturated store.
      evaluator_(data, profile, &estimator_),
      saturated_evaluator_(saturated, profile) {}

Result<AnswerOutcome> QueryAnswerer::AnswerBySaturation(
    const Query& query) const {
  if (saturated_ == nullptr) {
    return Status::InvalidArgument(
        "saturation strategy requested but no saturated store was provided");
  }
  AnswerOutcome outcome;
  {
    TraceSpan span("answer.evaluate");
    RDFOPT_ASSIGN_OR_RETURN(
        outcome.answers, saturated_evaluator_.EvaluateCQ(query.cq,
                                                         &outcome.eval));
    span.Attr("rows", outcome.answers.num_rows());
  }
  // Derived, not independently timed (see AnswerOutcome::evaluate_ms).
  outcome.evaluate_ms = outcome.eval.elapsed_ms;
  outcome.union_terms = 1;
  outcome.num_components = 1;
  return outcome;
}

Result<AnswerOutcome> QueryAnswerer::AnswerByCover(
    const Query& query, const Cover& cover, CachingCoverCostOracle* oracle,
    AnswerOutcome outcome) const {
  RDFOPT_RETURN_NOT_OK(ValidateCover(query.cq, cover));
  outcome.chosen_cover = cover;

  Stopwatch reformulate_timer;
  VarTable vars;
  JoinOfUnions jucq;
  {
    TraceSpan span("answer.reformulate");
    Result<JoinOfUnions> assembled =
        oracle->AssembleJucq(cover, &vars, &outcome.pruned_union_terms);
    RecordPricingMetrics(*oracle);
    RDFOPT_ASSIGN_OR_RETURN(jucq, std::move(assembled));
    outcome.reformulate_ms = reformulate_timer.ElapsedMillis();
    outcome.num_components = jucq.components.size();
    for (const UnionQuery& component : jucq.components) {
      outcome.union_terms += component.size();
    }
    span.Attr("components", outcome.num_components);
    span.Attr("union_terms", outcome.union_terms);
    if (outcome.pruned_union_terms > 0) {
      span.Attr("pruned_union_terms", outcome.pruned_union_terms);
    }
  }

  Stopwatch plan_timer;
  PhysicalPlan plan;
  {
    TraceSpan span("answer.plan");
    plan = evaluator_.planner().PlanJUCQ(jucq);
    outcome.plan_ms = plan_timer.ElapsedMillis();
    span.Attr("nodes", plan.num_nodes);
    span.Attr("est_cost", plan.est_cost());
  }

  // Release-mode plan verification gate (debug builds verify inside the
  // planner itself): refuse to execute a structurally invalid plan.
  if (oracle->options().verify_plans) {
    RDFOPT_RETURN_NOT_OK(VerifyPlanOrError(plan, &evaluator_.store()));
  }

  {
    TraceSpan span("answer.evaluate");
    if (span.active()) {
      // Estimated vs. actual: the chosen cover's predicted cost (cached —
      // the search already computed every fragment) next to the measured
      // evaluation below. This is the Fig 9 misprediction view per query.
      span.Attr("est_cost", oracle->CoverCost(cover));
      span.Attr("cover", cover.Key());
    }
    RDFOPT_ASSIGN_OR_RETURN(outcome.answers,
                            evaluator_.ExecutePlan(&plan, &outcome.eval));
    span.Attr("actual_ms", outcome.eval.elapsed_ms);
    span.Attr("rows", outcome.answers.num_rows());
  }
  // Derived, not independently timed (see AnswerOutcome::evaluate_ms).
  outcome.evaluate_ms = outcome.eval.elapsed_ms;
  if (oracle->options().keep_reformulation) {
    outcome.jucq = std::move(jucq);
    outcome.jucq_vars = std::move(vars);
  }
  if (oracle->options().keep_reformulation || oracle->options().keep_plan) {
    outcome.plan = std::move(plan);
  }
  return outcome;
}

Result<AnswerOutcome> QueryAnswerer::Answer(
    const Query& query, const AnswerOptions& options) const {
  TraceSpan span("answer.query");
  if (span.active()) {
    span.Attr("strategy", StrategyName(options.strategy));
    span.Attr("atoms", query.cq.atoms.size());
  }
  Result<AnswerOutcome> result = AnswerImpl(query, options);
  if (result.ok()) {
    const AnswerOutcome& outcome = result.ValueOrDie();
    RecordAnswerMetrics(&outcome, Status::OK());
    span.Attr("answers", outcome.answers.num_rows());
    span.Attr("total_ms", outcome.total_ms());
  } else {
    RecordAnswerMetrics(nullptr, result.status());
    if (span.active()) {
      span.Attr("error", StatusCodeName(result.status().code()));
    }
  }
  return result;
}

Result<AnswerOutcome> QueryAnswerer::AnswerImpl(
    const Query& query, const AnswerOptions& options) const {
  if (query.cq.atoms.empty()) {
    return Status::InvalidArgument("query has no atoms");
  }
  if (options.strategy == Strategy::kSaturation) {
    return AnswerBySaturation(query);
  }

  // Optional constraint-aware minimization (paper footnote 3).
  Query minimized;
  const Query* effective = &query;
  size_t minimized_atoms = 0;
  if (options.minimize_query) {
    TraceSpan minimize_span("answer.minimize");
    MinimizationResult m = MinimizeQuery(query.cq, *schema_, *vocab_);
    minimize_span.Attr("removed_atoms", m.removed_atoms.size());
    if (!m.removed_atoms.empty()) {
      minimized.vars = query.vars;
      minimized.cq = std::move(m.query);
      minimized_atoms = m.removed_atoms.size();
      effective = &minimized;
    }
  }

  if (!effective->cq.IsConnected()) {
    return Status::InvalidArgument(
        "cover-based strategies require a variable-connected BGP");
  }

  CachingCoverCostOracle oracle(effective->cq, effective->vars,
                                &reformulator_, &estimator_, &evaluator_,
                                options);
  const size_t n = effective->cq.atoms.size();
  AnswerOutcome base;
  base.minimized_atoms = minimized_atoms;

  switch (options.strategy) {
    case Strategy::kUcq:
      return AnswerByCover(*effective, UcqCover(n), &oracle, std::move(base));
    case Strategy::kScq:
      return AnswerByCover(*effective, ScqCover(n), &oracle, std::move(base));
    case Strategy::kEcov:
    case Strategy::kGcov: {
      CoverSearchResult search;
      {
        TraceSpan span("answer.cover_search");
        search = options.strategy == Strategy::kEcov
                     ? ExhaustiveCoverSearch(effective->cq, &oracle,
                                             options.optimizer_time_budget_s)
                     : GreedyCoverSearch(effective->cq, &oracle,
                                         options.optimizer_time_budget_s);
        span.Attr("covers_examined", search.covers_examined);
        span.Attr("disjuncts_priced", oracle.disjuncts_priced());
        span.Attr("atom_store_counts", oracle.atom_store_counts());
        span.Attr("best_cost", search.best_cost);
        if (search.timed_out) span.Attr("timed_out", true);
        if (span.active() && !search.best_cover.fragments.empty()) {
          span.Attr("best_cover", search.best_cover.Key());
        }
      }
      if (search.best_cover.fragments.empty()) {
        return Status::Timeout("cover search produced no cover within " +
                               std::to_string(
                                   options.optimizer_time_budget_s) +
                               "s");
      }
      if (search.best_cost == kInf) {
        return Status::QueryTooComplex(
            "every examined cover is infeasible on this engine profile");
      }
      base.optimize_ms = search.elapsed_ms;
      base.covers_examined = search.covers_examined;
      base.optimizer_timed_out = search.timed_out;
      return AnswerByCover(*effective, search.best_cover, &oracle,
                           std::move(base));
    }
    case Strategy::kSaturation:
      break;  // Handled above.
  }
  return Status::Internal("unreachable strategy dispatch");
}

}  // namespace rdfopt
