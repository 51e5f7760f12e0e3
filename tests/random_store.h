#ifndef RDFOPT_TESTS_RANDOM_STORE_H_
#define RDFOPT_TESTS_RANDOM_STORE_H_

// Seeded random store pairs for checking the incremental storage kernels
// (TripleStore::Merge, Statistics::ComputeMerged) against a from-scratch
// reference (TripleStore::Build, Statistics::Compute).

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rdf/triple.h"
#include "workload/lubm.h"

namespace rdfopt {

/// One merge scenario: the sizes of both sides before deduplication and the
/// share of `b` drawn from `a` (triples present on both sides).
struct MergeCase {
  size_t a_size;
  size_t b_size;
  double overlap;
  uint64_t seed;

  std::string Name() const {
    return std::to_string(a_size) + "x" + std::to_string(b_size) + "_o" +
           std::to_string(static_cast<int>(overlap * 100)) + "_s" +
           std::to_string(seed);
  }
};

/// Empty sides, tiny sides, and size ratios from 1:1 to 1:10^4 in both
/// directions, each with and without overlap, over three seeds.
inline std::vector<MergeCase> MergeCases() {
  const std::vector<std::pair<size_t, size_t>> sizes = {
      {0, 0},      {0, 40},      {40, 0},   {1, 1},     {300, 300},
      {3000, 300}, {30, 3000},   {20000, 20}, {2, 20000}, {20000, 2}};
  std::vector<MergeCase> cases;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (auto [a, b] : sizes) {
      for (double overlap : {0.0, 0.5}) {
        cases.push_back(MergeCase{a, b, overlap, seed});
      }
    }
  }
  return cases;
}

/// `n` triples over id ranges narrow enough that subjects, objects and
/// (property, subject/object) pairs repeat, with ~10% exact duplicates.
/// `num_properties` sets the property id range [100, 100 + num_properties).
inline std::vector<Triple> RandomTriples(WorkloadRng* rng, size_t n,
                                         uint64_t num_properties) {
  const uint64_t ids = std::max<uint64_t>(4, n / 3);
  std::vector<Triple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!out.empty() && rng->Chance(0.1)) {
      out.push_back(out[rng->Uniform(out.size())]);
      continue;
    }
    const auto id = [&](uint64_t base, uint64_t range) {
      return static_cast<ValueId>(base + rng->Uniform(range));
    };
    out.push_back(Triple{id(0, ids), id(100, num_properties), id(0, ids)});
  }
  return out;
}

/// The two sides of `c` as raw triple lists (duplicates included). `b`
/// reaches two properties `a` lacks, so merges also add properties.
inline std::pair<std::vector<Triple>, std::vector<Triple>> RandomMergeSides(
    const MergeCase& c) {
  WorkloadRng rng(c.seed * 7919 + c.a_size * 31 + c.b_size);
  std::vector<Triple> a = RandomTriples(&rng, c.a_size, 8);
  std::vector<Triple> b = RandomTriples(&rng, c.b_size, 10);
  for (Triple& t : b) {
    if (!a.empty() && rng.Chance(c.overlap)) t = a[rng.Uniform(a.size())];
  }
  return {std::move(a), std::move(b)};
}

}  // namespace rdfopt

#endif  // RDFOPT_TESTS_RANDOM_STORE_H_
