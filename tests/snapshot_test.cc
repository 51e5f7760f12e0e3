#include "storage/snapshot.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "workload/lubm.h"

namespace rdfopt {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  // ctest runs each test as its own process, possibly in parallel: every
  // test gets a path of its own.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/rdfopt_snapshot_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SnapshotTest, RoundTripsLubmGraph) {
  Graph original;
  LubmOptions options;
  options.num_universities = 1;
  GenerateLubm(options, &original);
  original.FinalizeSchema();

  ASSERT_TRUE(SaveGraphSnapshot(original, path_).ok());
  Result<Graph> loaded = LoadGraphSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const Graph& g = loaded.ValueOrDie();
  EXPECT_EQ(g.dict().size(), original.dict().size());
  ASSERT_EQ(g.num_data_triples(), original.num_data_triples());
  ASSERT_EQ(g.num_schema_triples(), original.num_schema_triples());
  for (size_t i = 0; i < g.num_data_triples(); ++i) {
    EXPECT_EQ(g.data_triples()[i], original.data_triples()[i]);
  }
  // Dictionary content, not just size.
  for (ValueId id = 0; id < 100; ++id) {
    EXPECT_EQ(g.dict().term(id), original.dict().term(id));
  }
  // Schema closures survive (loaded graph is pre-finalized).
  EXPECT_TRUE(g.schema().finalized());
  EXPECT_TRUE(g.schema().EquivalentTo(original.schema()));
}

TEST_F(SnapshotTest, RoundTripsAllTermKinds) {
  Graph original;
  original.Add(Term::Iri("http://ex/s"), Term::Iri("http://ex/p"),
               Term::Literal("a literal with spaces"));
  original.Add(Term::Blank("b1"), Term::Iri("http://ex/p"),
               Term::Literal(""));
  original.FinalizeSchema();
  ASSERT_TRUE(SaveGraphSnapshot(original, path_).ok());
  Result<Graph> loaded = LoadGraphSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().num_data_triples(), 2u);
  EXPECT_NE(loaded.ValueOrDie().dict().Lookup(Term::Blank("b1")),
            kInvalidValueId);
}

TEST_F(SnapshotTest, MissingFile) {
  Result<Graph> r = LoadGraphSnapshot(path_ + ".does-not-exist");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, RejectsForeignFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "not a snapshot at all";
  out.close();
  Result<Graph> r = LoadGraphSnapshot(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  Graph original;
  original.AddIri("http://ex/s", "http://ex/p", "http://ex/o");
  ASSERT_TRUE(SaveGraphSnapshot(original, path_).ok());
  // Truncate the file in the middle.
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  Result<Graph> r = LoadGraphSnapshot(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace rdfopt
