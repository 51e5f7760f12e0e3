#include "storage/triple_store.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "random_store.h"
#include "workload/lubm.h"

namespace rdfopt {
namespace {

TEST(TripleStoreTest, BuildDeduplicates) {
  TripleStore store = TripleStore::Build(
      {{1, 2, 3}, {1, 2, 3}, {1, 2, 4}, {1, 2, 3}});
  EXPECT_EQ(store.size(), 2u);
}

TEST(TripleStoreTest, EmptyStore) {
  TripleStore store = TripleStore::Build({});
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.CountMatches(kAnyValue, kAnyValue, kAnyValue), 0u);
  EXPECT_TRUE(store.properties().empty());
}

class MatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Subjects 1-3, properties 10-11, objects 20-22.
    store_ = TripleStore::Build({
        {1, 10, 20},
        {1, 10, 21},
        {1, 11, 20},
        {2, 10, 20},
        {2, 11, 22},
        {3, 11, 21},
    });
  }
  TripleStore store_;
};

TEST_F(MatchTest, AllEightPatternShapes) {
  // (s,p,o)
  EXPECT_EQ(store_.CountMatches(1, 10, 20), 1u);
  EXPECT_EQ(store_.CountMatches(1, 10, 22), 0u);
  // (s,p,*)
  EXPECT_EQ(store_.CountMatches(1, 10, kAnyValue), 2u);
  // (s,*,o)
  EXPECT_EQ(store_.CountMatches(1, kAnyValue, 20), 2u);
  // (s,*,*)
  EXPECT_EQ(store_.CountMatches(1, kAnyValue, kAnyValue), 3u);
  // (*,p,o)
  EXPECT_EQ(store_.CountMatches(kAnyValue, 10, 20), 2u);
  // (*,p,*)
  EXPECT_EQ(store_.CountMatches(kAnyValue, 11, kAnyValue), 3u);
  // (*,*,o)
  EXPECT_EQ(store_.CountMatches(kAnyValue, kAnyValue, 21), 2u);
  // (*,*,*)
  EXPECT_EQ(store_.CountMatches(kAnyValue, kAnyValue, kAnyValue), 6u);
}

TEST_F(MatchTest, MatchContentsAreCorrect) {
  std::span<const Triple> range = store_.Match(kAnyValue, 10, kAnyValue);
  ASSERT_EQ(range.size(), 3u);
  for (const Triple& t : range) EXPECT_EQ(t.p, 10u);
}

TEST_F(MatchTest, ContainsChecksExactTriple) {
  EXPECT_TRUE(store_.Contains({3, 11, 21}));
  EXPECT_FALSE(store_.Contains({3, 11, 20}));
}

TEST_F(MatchTest, PropertiesAreSortedDistinct) {
  EXPECT_EQ(store_.properties(), (std::vector<ValueId>{10, 11}));
}

TEST_F(MatchTest, DistinctCountsPerProperty) {
  EXPECT_EQ(store_.CountDistinctSubjectsOfProperty(10), 2u);  // 1, 2.
  EXPECT_EQ(store_.CountDistinctObjectsOfProperty(10), 2u);   // 20, 21.
  EXPECT_EQ(store_.CountDistinctSubjectsOfProperty(11), 3u);
  EXPECT_EQ(store_.CountDistinctObjectsOfProperty(11), 3u);
  EXPECT_EQ(store_.CountDistinctSubjectsOfProperty(99), 0u);
}

TEST(TripleStoreMergeTest, EqualsBuildOfConcatenation) {
  TripleStore a = TripleStore::Build({{1, 10, 20}, {2, 10, 21}, {3, 11, 5}});
  TripleStore b = TripleStore::Build({{2, 10, 21}, {4, 12, 9}, {1, 10, 22}});
  TripleStore merged = TripleStore::Merge(a, b);

  std::vector<Triple> all(a.All().begin(), a.All().end());
  all.insert(all.end(), b.All().begin(), b.All().end());
  TripleStore rebuilt = TripleStore::Build(std::move(all));

  ASSERT_EQ(merged.size(), rebuilt.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged.All()[i], rebuilt.All()[i]);
  }
  EXPECT_EQ(merged.properties(), rebuilt.properties());
  // All four indexes answer consistently.
  EXPECT_EQ(merged.CountMatches(kAnyValue, 10, kAnyValue),
            rebuilt.CountMatches(kAnyValue, 10, kAnyValue));
  EXPECT_EQ(merged.CountMatches(kAnyValue, kAnyValue, 21),
            rebuilt.CountMatches(kAnyValue, kAnyValue, 21));
  EXPECT_EQ(merged.CountMatches(2, kAnyValue, kAnyValue),
            rebuilt.CountMatches(2, kAnyValue, kAnyValue));
  EXPECT_EQ(merged.CountMatches(kAnyValue, 10, 21),
            rebuilt.CountMatches(kAnyValue, 10, 21));
}

TEST(TripleStoreMergeTest, MergeWithEmpty) {
  TripleStore a = TripleStore::Build({{1, 10, 20}});
  TripleStore empty = TripleStore::Build({});
  EXPECT_EQ(TripleStore::Merge(a, empty).size(), 1u);
  EXPECT_EQ(TripleStore::Merge(empty, a).size(), 1u);
  EXPECT_EQ(TripleStore::Merge(empty, empty).size(), 0u);
}

void ExpectSameIndexes(const TripleStore& got, const TripleStore& want) {
  using Order = TripleStore::IndexOrder;
  for (Order order : {Order::kSpo, Order::kPso, Order::kPos, Order::kOsp}) {
    std::span<const Triple> g = got.Index(order);
    std::span<const Triple> w = want.Index(order);
    ASSERT_EQ(g.size(), w.size()) << "index " << static_cast<int>(order);
    EXPECT_TRUE(std::equal(g.begin(), g.end(), w.begin()))
        << "index " << static_cast<int>(order);
  }
  EXPECT_EQ(got.properties(), want.properties());
}

// Merge in either argument order is bit-identical to Build of the union, in
// every index, across empty sides, shared and duplicate triples, and size
// ratios up to 1:10^4 (the galloping path).
TEST(TripleStoreMergeTest, RandomMergesEqualBuildOfUnion) {
  for (const MergeCase& c : MergeCases()) {
    SCOPED_TRACE(c.Name());
    auto [raw_a, raw_b] = RandomMergeSides(c);
    std::vector<Triple> both = raw_a;
    both.insert(both.end(), raw_b.begin(), raw_b.end());
    const TripleStore a = TripleStore::Build(std::move(raw_a));
    const TripleStore b = TripleStore::Build(std::move(raw_b));
    const TripleStore want = TripleStore::Build(std::move(both));
    ExpectSameIndexes(TripleStore::Merge(a, b), want);
    ExpectSameIndexes(TripleStore::Merge(b, a), want);
  }
}

// Cross-check Match against a brute-force filter on a generated dataset.
TEST(TripleStoreRandomizedTest, MatchAgreesWithBruteForce) {
  Graph g;
  LubmOptions options;
  options.num_universities = 1;
  GenerateLubm(options, &g);
  TripleStore store = TripleStore::Build(g.data_triples());
  std::vector<Triple> all(store.All().begin(), store.All().end());

  WorkloadRng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Triple& probe = all[rng.Uniform(all.size())];
    ValueId s = rng.Chance(0.5) ? probe.s : kAnyValue;
    ValueId p = rng.Chance(0.5) ? probe.p : kAnyValue;
    ValueId o = rng.Chance(0.5) ? probe.o : kAnyValue;
    size_t expected = 0;
    for (const Triple& t : all) {
      if ((s == kAnyValue || t.s == s) && (p == kAnyValue || t.p == p) &&
          (o == kAnyValue || t.o == o)) {
        ++expected;
      }
    }
    EXPECT_EQ(store.CountMatches(s, p, o), expected)
        << "pattern (" << s << "," << p << "," << o << ")";
  }
}

}  // namespace
}  // namespace rdfopt
