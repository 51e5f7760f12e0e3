#ifndef RDFOPT_TESTS_GOLDEN_H_
#define RDFOPT_TESTS_GOLDEN_H_

// Golden-file comparison shared by the tests that pin rendered output
// (tests/golden/*.txt). The files live in the source tree so diffs show up
// in review; RDFOPT_UPDATE_GOLDENS=1 rewrites them in place instead of
// comparing.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef RDFOPT_GOLDEN_DIR
#define RDFOPT_GOLDEN_DIR "tests/golden"
#endif

namespace rdfopt::testing {

inline void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(RDFOPT_GOLDEN_DIR) + "/" + name;
  if (std::getenv("RDFOPT_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with RDFOPT_UPDATE_GOLDENS=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual)
      << name << " drifted; if intentional, regenerate with "
      << "RDFOPT_UPDATE_GOLDENS=1";
}

}  // namespace rdfopt::testing

#endif  // RDFOPT_TESTS_GOLDEN_H_
