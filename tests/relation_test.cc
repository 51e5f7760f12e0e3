#include "engine/relation.h"

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace rdfopt {
namespace {

TEST(RelationTest, AppendAndAccess) {
  Relation r({0, 1});
  r.AppendRow(std::vector<ValueId>{10, 20});
  r.AppendRow(std::vector<ValueId>{11, 21});
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.at(0, 0), 10u);
  EXPECT_EQ(r.at(1, 1), 21u);
  EXPECT_EQ(r.row(1)[0], 11u);
  EXPECT_EQ(r.num_cells(), 4u);
}

TEST(RelationTest, ColumnIndex) {
  Relation r({5, 3, 8});
  EXPECT_EQ(r.ColumnIndex(5), 0);
  EXPECT_EQ(r.ColumnIndex(3), 1);
  EXPECT_EQ(r.ColumnIndex(8), 2);
  EXPECT_EQ(r.ColumnIndex(9), -1);
}

TEST(RelationTest, DeduplicatePreservesFirstOccurrenceOrder) {
  Relation r({0});
  for (ValueId v : {3u, 1u, 3u, 2u, 1u, 3u}) {
    r.AppendRow(std::vector<ValueId>{v});
  }
  size_t removed = r.Deduplicate();
  EXPECT_EQ(removed, 3u);
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.at(0, 0), 3u);
  EXPECT_EQ(r.at(1, 0), 1u);
  EXPECT_EQ(r.at(2, 0), 2u);
}

TEST(RelationTest, DeduplicateMultiColumn) {
  Relation r({0, 1});
  r.AppendRow(std::vector<ValueId>{1, 2});
  r.AppendRow(std::vector<ValueId>{2, 1});  // Different row, same values.
  r.AppendRow(std::vector<ValueId>{1, 2});
  EXPECT_EQ(r.Deduplicate(), 1u);
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST(RelationTest, DeduplicateEmpty) {
  Relation r({0, 1});
  EXPECT_EQ(r.Deduplicate(), 0u);
  EXPECT_EQ(r.num_rows(), 0u);
}

// Seeded randomized check of both probe modes against a first-occurrence
// reference. Sizes straddle the 2^14-row partitioning threshold, so the
// single-table and the radix-partitioned paths are both exercised; the
// small value domain forces many duplicates.
TEST(RelationTest, DeduplicateMatchesFirstOccurrenceReference) {
  std::mt19937_64 rng(20150323);
  for (size_t rows : {size_t{0}, size_t{1}, size_t{7}, size_t{1000},
                      (size_t{1} << 14) - 1, size_t{1} << 14,
                      (size_t{1} << 14) + 1, size_t{50000}}) {
    for (size_t arity : {size_t{1}, size_t{2}, size_t{3}}) {
      std::uniform_int_distribution<ValueId> value(0, rows / 4 + 3);
      std::vector<VarId> columns(arity);
      for (size_t c = 0; c < arity; ++c) columns[c] = static_cast<VarId>(c);
      Relation input(columns);
      for (size_t r = 0; r < rows; ++r) {
        std::vector<ValueId> row(arity);
        for (ValueId& v : row) v = value(rng);
        input.AppendRow(row);
      }

      std::set<std::vector<ValueId>> seen;
      std::vector<std::vector<ValueId>> expected;
      for (size_t r = 0; r < rows; ++r) {
        std::vector<ValueId> row(input.row(r).begin(), input.row(r).end());
        if (seen.insert(row).second) expected.push_back(std::move(row));
      }

      for (bool prefetch : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "rows=" << rows << " arity="
                                          << arity << " prefetch=" << prefetch);
        Relation r = input.Copy();
        EXPECT_EQ(r.Deduplicate(prefetch), rows - expected.size());
        ASSERT_EQ(r.num_rows(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          ASSERT_TRUE(std::equal(r.row(i).begin(), r.row(i).end(),
                                 expected[i].begin()))
              << "row " << i;
        }
      }
    }
  }
}

TEST(RelationTest, ZeroArityBooleanSemantics) {
  Relation r({});
  EXPECT_EQ(r.num_rows(), 0u);
  r.AppendEmptyRow();
  r.AppendEmptyRow();
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Deduplicate(), 1u);
  EXPECT_EQ(r.num_rows(), 1u);
}

TEST(RelationTest, MoveSemantics) {
  Relation r({0});
  r.AppendRow(std::vector<ValueId>{7});
  Relation moved = std::move(r);
  EXPECT_EQ(moved.num_rows(), 1u);
  EXPECT_EQ(moved.at(0, 0), 7u);
}

TEST(HashRowTest, OrderSensitive) {
  std::vector<ValueId> a = {1, 2};
  std::vector<ValueId> b = {2, 1};
  EXPECT_NE(HashRow({a.data(), 2}), HashRow({b.data(), 2}));
}

}  // namespace
}  // namespace rdfopt
