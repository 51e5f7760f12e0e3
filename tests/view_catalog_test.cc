#include "views/view_catalog.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/canonical.h"
#include "service/epoch_guard.h"
#include "views/view_advisor.h"

namespace rdfopt {
namespace {

// ---------------------------------------------------------------------------
// Helpers: tiny synthetic UCQ definitions and relations.
// ---------------------------------------------------------------------------

TriplePattern Atom(PatternTerm s, PatternTerm p, PatternTerm o) {
  TriplePattern a;
  a.s = s;
  a.p = p;
  a.o = o;
  return a;
}

/// q(?0) :- ?0 <p> ?1 — signatures differ by the property constant.
UnionQuery OneAtomUcq(ValueId p) {
  UnionQuery ucq;
  ucq.head = {0};
  ConjunctiveQuery d;
  d.head = {0};
  d.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(p), PatternTerm::Var(1)));
  ucq.disjuncts.push_back(d);
  return ucq;
}

Relation TwoColRelation(size_t rows, ValueId base = 100) {
  Relation r(std::vector<VarId>{0, 1});
  for (size_t i = 0; i < rows; ++i) {
    const ValueId row[2] = {static_cast<ValueId>(base + i),
                            static_cast<ValueId>(base + i + 1)};
    r.AppendRow(row);
  }
  return r;
}

/// Notes + offers `ucq`'s fragment at `epoch`; returns its signature.
std::string Admit(ViewCatalog* catalog, const UnionQuery& ucq, size_t rows,
                  Epoch epoch, double est_cost = 1000.0,
                  uint64_t observations = 1) {
  const std::string signature = ViewSignature(ucq);
  for (uint64_t i = 0; i < observations; ++i) {
    catalog->NoteComponent(signature, ucq, est_cost, ucq.size());
  }
  Relation r = TwoColRelation(rows);
  catalog->Offer(signature, r, epoch);
  return signature;
}

// ---------------------------------------------------------------------------
// ViewSignature: the keying contract (see service/canonical.h).
// ---------------------------------------------------------------------------

TEST(ViewSignatureTest, InvariantUnderVariableRenaming) {
  UnionQuery a = OneAtomUcq(7);
  UnionQuery b = a;
  // Rename every variable: 0 -> 5, 1 -> 9.
  b.head = {5};
  b.disjuncts[0].head = {5};
  b.disjuncts[0].atoms[0].s = PatternTerm::Var(5);
  b.disjuncts[0].atoms[0].o = PatternTerm::Var(9);
  EXPECT_EQ(ViewSignature(a), ViewSignature(b));
}

TEST(ViewSignatureTest, SensitiveToConstantsHeadAndOrder) {
  UnionQuery base = OneAtomUcq(7);
  EXPECT_NE(ViewSignature(base), ViewSignature(OneAtomUcq(8)));

  // Head order matters: the head is the view's column layout.
  UnionQuery swapped = base;
  swapped.head = {1};
  swapped.disjuncts[0].head = {1};
  EXPECT_NE(ViewSignature(base), ViewSignature(swapped));

  // Disjunct order matters: the union's output order follows it.
  UnionQuery two = base;
  two.disjuncts.push_back(OneAtomUcq(8).disjuncts[0]);
  UnionQuery reversed = two;
  std::swap(reversed.disjuncts[0], reversed.disjuncts[1]);
  EXPECT_NE(ViewSignature(two), ViewSignature(reversed));

  // Head bindings are part of the result, hence of the key.
  UnionQuery bound = base;
  bound.disjuncts[0].head_bindings.emplace_back(1, ValueId{42});
  EXPECT_NE(ViewSignature(base), ViewSignature(bound));
}

// ---------------------------------------------------------------------------
// Catalog admission, lookup, eviction.
// ---------------------------------------------------------------------------

TEST(ViewCatalogTest, NoteOfferLookupRoundTrip) {
  ViewCatalog catalog;
  const std::string sig = Admit(&catalog, OneAtomUcq(7), 10, /*epoch=*/0);

  std::shared_ptr<const Relation> rows = catalog.Lookup(sig, 0);
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->num_rows(), 10u);
  EXPECT_EQ(rows->arity(), 2u);

  ViewCatalogStats stats = catalog.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ViewCatalogTest, OfferWithoutNoteIsRejected) {
  ViewCatalog catalog;
  Relation r = TwoColRelation(5);
  catalog.Offer("never-announced", r, 0);
  EXPECT_EQ(catalog.stats().rejected, 1u);
  EXPECT_EQ(catalog.Lookup("never-announced", 0), nullptr);
}

TEST(ViewCatalogTest, ZeroArityOfferIsRejected) {
  ViewCatalog catalog;
  UnionQuery ucq = OneAtomUcq(7);
  const std::string sig = ViewSignature(ucq);
  catalog.NoteComponent(sig, ucq, 10.0, 1);
  Relation boolean(std::vector<VarId>{});
  boolean.AppendEmptyRow();
  catalog.Offer(sig, boolean, 0);
  EXPECT_EQ(catalog.stats().rejected, 1u);
  EXPECT_EQ(catalog.Lookup(sig, 0), nullptr);
}

TEST(ViewCatalogTest, LookupFromAnotherEpochMisses) {
  ViewCatalog catalog;
  const std::string sig = Admit(&catalog, OneAtomUcq(7), 4, /*epoch=*/0);
  EXPECT_NE(catalog.Lookup(sig, 0), nullptr);
  EXPECT_EQ(catalog.Lookup(sig, 1), nullptr);
  EXPECT_EQ(catalog.stats().misses, 1u);
}

TEST(ViewCatalogTest, ByteBudgetEvictsLeastRecentlyUsed) {
  ViewCatalogOptions options;
  options.byte_budget = 2000;  // Fits two ~890-byte entries, not three.
  ViewCatalog catalog(options);
  const std::string a = Admit(&catalog, OneAtomUcq(1), 100, 0);
  const std::string b = Admit(&catalog, OneAtomUcq(2), 100, 0);
  ASSERT_NE(catalog.Lookup(a, 0), nullptr);  // Touch a: b becomes coldest.
  const std::string c = Admit(&catalog, OneAtomUcq(3), 100, 0);
  EXPECT_NE(catalog.Lookup(a, 0), nullptr);
  EXPECT_EQ(catalog.Lookup(b, 0), nullptr);
  EXPECT_NE(catalog.Lookup(c, 0), nullptr);
  EXPECT_EQ(catalog.stats().evictions, 1u);
  // The evicted entry's observation survives in the ledger.
  EXPECT_EQ(catalog.stats().entries, 3u);
}

TEST(ViewCatalogTest, EvictedRowsStayAliveForHolders) {
  ViewCatalogOptions options;
  options.byte_budget = 1000;  // One ~890-byte entry at a time.
  ViewCatalog catalog(options);
  const std::string a = Admit(&catalog, OneAtomUcq(1), 100, 0);
  std::shared_ptr<const Relation> held = catalog.Lookup(a, 0);
  ASSERT_NE(held, nullptr);
  Admit(&catalog, OneAtomUcq(2), 100, 0);  // Evicts a.
  EXPECT_EQ(catalog.Lookup(a, 0), nullptr);
  EXPECT_EQ(held->num_rows(), 100u);  // The substituted plan keeps its rows.
}

TEST(ViewCatalogTest, PinnedEntriesSurviveBudgetPressure) {
  ViewCatalogOptions options;
  options.byte_budget = 2000;
  ViewCatalog catalog(options);
  const std::string pinned = Admit(&catalog, OneAtomUcq(1), 100, 0);
  ASSERT_TRUE(catalog.SetPinned(pinned, true));
  Admit(&catalog, OneAtomUcq(2), 100, 0);
  Admit(&catalog, OneAtomUcq(3), 100, 0);  // Evicts #2, never the pin.
  EXPECT_NE(catalog.Lookup(pinned, 0), nullptr);
  EXPECT_EQ(catalog.stats().pinned, 1u);
}

// ---------------------------------------------------------------------------
// Epoch maintenance: invalidation, carry-forward, refresh, the off-by-one
// race through the shared guard.
// ---------------------------------------------------------------------------

TEST(EpochGuardTest, OnlyTheExactCurrentEpochIsAdmissible) {
  EXPECT_TRUE(EpochWriteAdmissible(3, 3));
  EXPECT_FALSE(EpochWriteAdmissible(2, 3));  // Stale writer.
  EXPECT_FALSE(EpochWriteAdmissible(4, 3));  // Writer ahead of the store.
}

TEST(ViewCatalogTest, StaleOfferFromOldEpochIsRejected) {
  ViewCatalog catalog;
  UnionQuery ucq = OneAtomUcq(7);
  const std::string sig = ViewSignature(ucq);

  // A request pins epoch 0 and announces the fragment...
  EpochViewResolver request(&catalog, /*epoch=*/0);
  request.NoteComponent(sig, ucq, 10.0, 1);

  // ...an update moves the catalog to epoch 1 while the request executes...
  catalog.BeginEpoch(1, {}, /*delta_is_complete=*/true);

  // ...and the request's late Offer must be dropped, not served to epoch 1.
  Relation rows = TwoColRelation(5);
  request.Offer(sig, rows);
  EXPECT_EQ(catalog.stats().stale_offers, 1u);
  EXPECT_EQ(catalog.Lookup(sig, 1), nullptr);
  EXPECT_EQ(catalog.Lookup(sig, 0), nullptr);
}

TEST(ViewCatalogTest, BeginEpochDropsUnpinnedMaterializations) {
  ViewCatalog catalog;
  const std::string sig = Admit(&catalog, OneAtomUcq(7), 5, 0);
  ASSERT_NE(catalog.Lookup(sig, 0), nullptr);
  std::vector<ViewCatalog::RefreshTask> tasks =
      catalog.BeginEpoch(1, {}, /*delta_is_complete=*/true);
  EXPECT_TRUE(tasks.empty());  // Nothing pinned, nothing to refresh.
  EXPECT_EQ(catalog.Lookup(sig, 1), nullptr);
  EXPECT_EQ(catalog.stats().invalidations, 1u);
  EXPECT_EQ(catalog.stats().bytes, 0u);
}

TEST(ViewCatalogTest, PinnedViewCarriesForwardWhenDeltaCannotTouchIt) {
  ViewCatalog catalog;
  const std::string sig = Admit(&catalog, OneAtomUcq(7), 5, 0);
  ASSERT_TRUE(catalog.SetPinned(sig, true));

  // Delta on a different property: no atom of the view matches it.
  Triple t;
  t.s = 1;
  t.p = 99;
  t.o = 2;
  std::vector<ViewCatalog::RefreshTask> tasks =
      catalog.BeginEpoch(1, {t}, /*delta_is_complete=*/true);
  EXPECT_TRUE(tasks.empty());
  EXPECT_NE(catalog.Lookup(sig, 1), nullptr);  // Adopted by the new epoch.
  EXPECT_EQ(catalog.stats().carry_forwards, 1u);
}

TEST(ViewCatalogTest, PinnedViewTouchedByDeltaIsHandedBackForRefresh) {
  ViewCatalog catalog;
  UnionQuery ucq = OneAtomUcq(7);
  const std::string sig = Admit(&catalog, ucq, 5, 0);
  ASSERT_TRUE(catalog.SetPinned(sig, true));

  Triple t;
  t.s = 1;
  t.p = 7;  // Matches the view's property constant.
  t.o = 2;
  std::vector<ViewCatalog::RefreshTask> tasks =
      catalog.BeginEpoch(1, {t}, /*delta_is_complete=*/true);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].signature, sig);
  EXPECT_EQ(ViewSignature(tasks[0].definition), sig);
  EXPECT_EQ(catalog.Lookup(sig, 1), nullptr);  // Stale rows dropped.

  // Maintenance completes the task against the new snapshot.
  catalog.InstallPinned(sig, TwoColRelation(9), 1);
  std::shared_ptr<const Relation> rows = catalog.Lookup(sig, 1);
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->num_rows(), 9u);
  EXPECT_EQ(catalog.stats().refreshes, 1u);
}

TEST(ViewCatalogTest, SchemaEpochForcesWholesaleRefresh) {
  ViewCatalog catalog;
  const std::string sig = Admit(&catalog, OneAtomUcq(7), 5, 0);
  ASSERT_TRUE(catalog.SetPinned(sig, true));
  // delta_is_complete=false: the caller cannot enumerate what changed.
  std::vector<ViewCatalog::RefreshTask> tasks =
      catalog.BeginEpoch(1, {}, /*delta_is_complete=*/false);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].signature, sig);
}

TEST(ViewCatalogTest, InstallPinnedFromOldEpochIsRejected) {
  ViewCatalog catalog;
  const std::string sig = Admit(&catalog, OneAtomUcq(7), 5, 0);
  ASSERT_TRUE(catalog.SetPinned(sig, true));
  catalog.BeginEpoch(1, {}, /*delta_is_complete=*/false);
  catalog.BeginEpoch(2, {}, /*delta_is_complete=*/false);
  // A refresh raced a second update: its epoch-1 result must not land.
  catalog.InstallPinned(sig, TwoColRelation(9), 1);
  EXPECT_EQ(catalog.Lookup(sig, 2), nullptr);
  EXPECT_EQ(catalog.Lookup(sig, 1), nullptr);
  EXPECT_GE(catalog.stats().stale_offers, 1u);
}

// ---------------------------------------------------------------------------
// Advisor: scoring, promotion, demotion.
// ---------------------------------------------------------------------------

TEST(ViewAdvisorTest, PromotesHottestFragmentsUpToTheLimit) {
  ViewCatalog catalog;
  // Three resident fragments: observations 5, 4 and 1 (same size/cost).
  const std::string hot = Admit(&catalog, OneAtomUcq(1), 10, 0, 1000.0, 5);
  const std::string warm = Admit(&catalog, OneAtomUcq(2), 10, 0, 1000.0, 4);
  const std::string cold = Admit(&catalog, OneAtomUcq(3), 10, 0, 1000.0, 1);

  ViewAdvisorOptions options;
  options.pin_limit = 2;
  options.min_observations = 3;
  ViewAdvisor advisor(options);
  ViewAdvisor::PassResult result = advisor.RunPass(&catalog);
  EXPECT_EQ(result.considered, 3u);
  EXPECT_EQ(result.promoted, 2u);
  EXPECT_EQ(result.demoted, 0u);

  std::vector<ViewInfo> entries = catalog.Entries();
  ASSERT_EQ(entries.size(), 3u);
  for (const ViewInfo& info : entries) {
    const bool expect_pinned =
        info.signature == hot || info.signature == warm;
    EXPECT_EQ(info.pinned, expect_pinned) << info.signature;
    (void)cold;
  }

  // A second pass over the unchanged ledger is a no-op (idempotent).
  result = advisor.RunPass(&catalog);
  EXPECT_EQ(result.promoted, 0u);
  EXPECT_EQ(result.demoted, 0u);
}

TEST(ViewAdvisorTest, DemotesPinnedFragmentWhenOutranked) {
  ViewCatalog catalog;
  ViewAdvisorOptions options;
  options.pin_limit = 1;
  options.min_observations = 1;
  ViewAdvisor advisor(options);

  const std::string first = Admit(&catalog, OneAtomUcq(1), 10, 0, 1000.0, 2);
  advisor.RunPass(&catalog);
  EXPECT_EQ(catalog.stats().pinned, 1u);

  // A much hotter fragment appears; the single pin slot changes hands.
  const std::string second =
      Admit(&catalog, OneAtomUcq(2), 10, 0, 1000.0, 10);
  ViewAdvisor::PassResult result = advisor.RunPass(&catalog);
  EXPECT_EQ(result.promoted, 1u);
  EXPECT_EQ(result.demoted, 1u);
  for (const ViewInfo& info : catalog.Entries()) {
    EXPECT_EQ(info.pinned, info.signature == second) << info.signature;
    (void)first;
  }
}

TEST(ViewAdvisorTest, ObservationFloorBlocksOneOffQueries) {
  ViewCatalog catalog;
  Admit(&catalog, OneAtomUcq(1), 10, 0, 1000.0, /*observations=*/2);
  ViewAdvisorOptions options;
  options.min_observations = 3;
  ViewAdvisor advisor(options);
  ViewAdvisor::PassResult result = advisor.RunPass(&catalog);
  EXPECT_EQ(result.considered, 1u);
  EXPECT_EQ(result.promoted, 0u);
  EXPECT_EQ(catalog.stats().pinned, 0u);
}

TEST(ViewAdvisorTest, ScorePrefersExpensiveFrequentAndSmall) {
  ViewInfo a;
  a.observations = 10;
  a.est_cost = 1000.0;
  a.bytes = 100;
  ViewInfo b = a;
  b.observations = 5;  // Less frequent.
  EXPECT_GT(ViewAdvisor::Score(a), ViewAdvisor::Score(b));
  b = a;
  b.est_cost = 10.0;  // Cheaper to recompute.
  EXPECT_GT(ViewAdvisor::Score(a), ViewAdvisor::Score(b));
  b = a;
  b.bytes = 100000;  // More expensive to keep.
  EXPECT_GT(ViewAdvisor::Score(a), ViewAdvisor::Score(b));
}

}  // namespace
}  // namespace rdfopt
