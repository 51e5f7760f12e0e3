#include "storage/statistics.h"

#include <gtest/gtest.h>

#include "random_store.h"

namespace rdfopt {
namespace {

TEST(StatisticsTest, GlobalCounts) {
  TripleStore store = TripleStore::Build({
      {1, 10, 20},
      {1, 10, 21},
      {2, 10, 20},
      {2, 11, 1},
      {3, 11, 21},
  });
  Statistics stats = Statistics::Compute(store);
  EXPECT_EQ(stats.total_triples(), 5u);
  EXPECT_EQ(stats.distinct_subjects(), 3u);   // 1, 2, 3.
  EXPECT_EQ(stats.distinct_properties(), 2u);
  EXPECT_EQ(stats.distinct_objects(), 3u);    // 20, 21, 1.
}

TEST(StatisticsTest, PerPropertyStats) {
  TripleStore store = TripleStore::Build({
      {1, 10, 20},
      {1, 10, 21},
      {2, 10, 20},
      {2, 11, 1},
  });
  Statistics stats = Statistics::Compute(store);
  PropertyStats p10 = stats.ForProperty(10);
  EXPECT_EQ(p10.count, 3u);
  EXPECT_EQ(p10.distinct_subjects, 2u);
  EXPECT_EQ(p10.distinct_objects, 2u);
  PropertyStats p11 = stats.ForProperty(11);
  EXPECT_EQ(p11.count, 1u);
  EXPECT_EQ(p11.distinct_subjects, 1u);
  EXPECT_EQ(p11.distinct_objects, 1u);
}

TEST(StatisticsTest, MissingPropertyIsZeroed) {
  TripleStore store = TripleStore::Build({{1, 10, 20}});
  Statistics stats = Statistics::Compute(store);
  PropertyStats missing = stats.ForProperty(999);
  EXPECT_EQ(missing.count, 0u);
  EXPECT_EQ(missing.distinct_subjects, 0u);
  EXPECT_EQ(missing.distinct_objects, 0u);
}

TEST(StatisticsTest, EmptyStore) {
  TripleStore store = TripleStore::Build({});
  Statistics stats = Statistics::Compute(store);
  EXPECT_EQ(stats.total_triples(), 0u);
  EXPECT_EQ(stats.distinct_subjects(), 0u);
  EXPECT_EQ(stats.distinct_objects(), 0u);
}

/// Field-for-field equality. distinct_properties() counts the per-property
/// entries, so equal counts plus equal entries for every property of the
/// store cover the whole map.
void ExpectSameStatistics(const Statistics& got, const Statistics& want,
                          const TripleStore& store) {
  EXPECT_EQ(got.total_triples(), want.total_triples());
  EXPECT_EQ(got.distinct_subjects(), want.distinct_subjects());
  EXPECT_EQ(got.distinct_objects(), want.distinct_objects());
  ASSERT_EQ(got.distinct_properties(), want.distinct_properties());
  for (ValueId p : store.properties()) {
    const PropertyStats g = got.ForProperty(p);
    const PropertyStats w = want.ForProperty(p);
    EXPECT_EQ(g.count, w.count) << "property " << p;
    EXPECT_EQ(g.distinct_subjects, w.distinct_subjects) << "property " << p;
    EXPECT_EQ(g.distinct_objects, w.distinct_objects) << "property " << p;
  }
}

TEST(StatisticsTest, ComputeMergedEqualsComputeOfMergedStore) {
  for (const MergeCase& c : MergeCases()) {
    SCOPED_TRACE(c.Name());
    auto [raw_before, raw_delta] = RandomMergeSides(c);
    const TripleStore before = TripleStore::Build(std::move(raw_before));
    const TripleStore delta = TripleStore::Build(std::move(raw_delta));
    const TripleStore merged = TripleStore::Merge(before, delta);
    ExpectSameStatistics(
        Statistics::ComputeMerged(Statistics::Compute(before), before, delta),
        Statistics::Compute(merged), merged);
  }
}

// Updates chain: each merged Statistics is the `before` of the next delta.
TEST(StatisticsTest, ComputeMergedChainsAcrossDeltas) {
  WorkloadRng rng(11);
  TripleStore store = TripleStore::Build(RandomTriples(&rng, 2000, 8));
  Statistics stats = Statistics::Compute(store);
  for (int step = 0; step < 20; ++step) {
    const TripleStore delta = TripleStore::Build(RandomTriples(&rng, 50, 10));
    stats = Statistics::ComputeMerged(stats, store, delta);
    store = TripleStore::Merge(store, delta);
  }
  ExpectSameStatistics(stats, Statistics::Compute(store), store);
}

}  // namespace
}  // namespace rdfopt
