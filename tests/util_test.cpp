// Unit tests for src/util: rng, stats, timestamps, relations, bytes, cli,
// table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/relation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timestamp.hpp"

namespace mocc::util {
namespace {

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyUnbiased) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.next_bool(0.5) ? 1 : 0;
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(17);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.next_exponential(10.0);
  EXPECT_NEAR(total / n, 10.0, 0.5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Zipf, UniformWhenExponentZero) {
  Rng rng(3);
  ZipfGenerator zipf(10, 0.0);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[zipf.next(rng)];
  for (const auto& [k, c] : counts) {
    EXPECT_LT(k, 10u);
    EXPECT_NEAR(c, 1000, 200);
  }
}

TEST(Zipf, SkewFavorsSmallRanks) {
  Rng rng(3);
  ZipfGenerator zipf(100, 1.0);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.next(rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Zipf, SingleElementAlwaysZero) {
  Rng rng(1);
  ZipfGenerator zipf(1, 1.2);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(zipf.next(rng), 0u);
}

TEST(RandomPermutation, IsPermutation) {
  Rng rng(31);
  const auto perm = random_permutation(20, rng);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 19u);
}

// ---------------------------------------------------------------- stats

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(Summary, MergeCombinesSamples) {
  Summary a;
  Summary b;
  a.add(1);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(42);
  EXPECT_DOUBLE_EQ(s.percentile(37), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, BriefMentionsCount) {
  Summary s;
  s.add(1);
  EXPECT_NE(s.brief().find("n=1"), std::string::npos);
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(0, 10, 5);
  h.add(-1);
  h.add(0);
  h.add(1.9);
  h.add(5);
  h.add(10);
  h.add(100);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1.9
  EXPECT_EQ(h.bucket(2), 1u);  // 5
}

TEST(Histogram, RenderIncludesBars) {
  Histogram h(0, 4, 2);
  h.add(1);
  h.add(1);
  h.add(3);
  const std::string render = h.render(10);
  EXPECT_NE(render.find("#"), std::string::npos);
}

// ----------------------------------------------------------- timestamps

TEST(VersionVector, IncrementAndIndex) {
  VersionVector ts(3);
  ts.increment(1);
  ts.increment(1);
  ts.increment(2);
  EXPECT_EQ(ts[0], 0u);
  EXPECT_EQ(ts[1], 2u);
  EXPECT_EQ(ts[2], 1u);
}

TEST(VersionVector, PointwiseOrders) {
  VersionVector a(2);
  VersionVector b(2);
  b.increment(0);
  EXPECT_TRUE(a.pointwise_leq(b));
  EXPECT_TRUE(a.pointwise_less(b));
  EXPECT_FALSE(b.pointwise_leq(a));
  EXPECT_TRUE(a.pointwise_leq(a));
  EXPECT_FALSE(a.pointwise_less(a));
}

TEST(VersionVector, IncomparableVectors) {
  VersionVector a(2);
  VersionVector b(2);
  a.increment(0);
  b.increment(1);
  EXPECT_FALSE(a.pointwise_leq(b));
  EXPECT_FALSE(b.pointwise_leq(a));
  EXPECT_FALSE(a.comparable(b));
}

TEST(VersionVector, LexCompare) {
  VersionVector a(2);
  VersionVector b(2);
  a.increment(0);
  b.increment(1);
  EXPECT_EQ(a.lex_compare(b), 1);   // (1,0) > (0,1)
  EXPECT_EQ(b.lex_compare(a), -1);
  EXPECT_EQ(a.lex_compare(a), 0);
}

TEST(VersionVector, MergeMaxIsJoin) {
  VersionVector a(2);
  VersionVector b(2);
  a.increment(0);
  b.increment(1);
  a.merge_max(b);
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(a[1], 1u);
}

TEST(VersionVector, FromEntriesRoundTrip) {
  const auto ts = VersionVector::from_entries({3, 0, 7});
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], 3u);
  EXPECT_EQ(ts[2], 7u);
}

// ------------------------------------------------------------ relations

TEST(BitRelation, AddHas) {
  BitRelation r(70);  // cross the 64-bit word boundary
  r.add(0, 69);
  r.add(69, 1);
  EXPECT_TRUE(r.has(0, 69));
  EXPECT_TRUE(r.has(69, 1));
  EXPECT_FALSE(r.has(1, 69));
  EXPECT_EQ(r.pair_count(), 2u);
}

TEST(BitRelation, TransitiveClosure) {
  BitRelation r(4);
  r.add(0, 1);
  r.add(1, 2);
  r.add(2, 3);
  const auto closed = r.transitive_closure();
  EXPECT_TRUE(closed.has(0, 3));
  EXPECT_TRUE(closed.has(0, 2));
  EXPECT_FALSE(closed.has(3, 0));
}

TEST(BitRelation, AcyclicityDetection) {
  BitRelation r(3);
  r.add(0, 1);
  r.add(1, 2);
  EXPECT_TRUE(r.is_acyclic());
  r.add(2, 0);
  EXPECT_FALSE(r.is_acyclic());
}

TEST(BitRelation, SelfLoopIsCycle) {
  BitRelation r(2);
  r.add(1, 1);
  EXPECT_FALSE(r.is_acyclic());
}

TEST(BitRelation, TopologicalOrderRespectsEdges) {
  BitRelation r(5);
  r.add(3, 1);
  r.add(1, 4);
  r.add(0, 2);
  const auto order = r.topological_order();
  ASSERT_TRUE(order.has_value());
  std::map<std::size_t, std::size_t> pos;
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  EXPECT_LT(pos[3], pos[1]);
  EXPECT_LT(pos[1], pos[4]);
  EXPECT_LT(pos[0], pos[2]);
}

TEST(BitRelation, TopologicalOrderNulloptOnCycle) {
  BitRelation r(3);
  r.add(0, 1);
  r.add(1, 0);
  EXPECT_FALSE(r.topological_order().has_value());
}

TEST(BitRelation, TotalOrderCheck) {
  BitRelation r(3);
  r.add(0, 1);
  r.add(1, 2);
  EXPECT_FALSE(r.closed_is_total_order());  // (0,2) missing before closure
  const auto closed = r.transitive_closure();
  EXPECT_TRUE(closed.closed_is_total_order());
}

TEST(BitRelation, MergeUnions) {
  BitRelation a(3);
  BitRelation b(3);
  a.add(0, 1);
  b.add(1, 2);
  a.merge(b);
  EXPECT_TRUE(a.has(0, 1));
  EXPECT_TRUE(a.has(1, 2));
}

TEST(BitRelation, SuccessorsPredecessorsDegrees) {
  BitRelation r(4);
  r.add(0, 2);
  r.add(1, 2);
  r.add(2, 3);
  EXPECT_EQ(r.successors(2), (std::vector<std::size_t>{3}));
  EXPECT_EQ(r.predecessors(2), (std::vector<std::size_t>{0, 1}));
  const auto indeg = r.in_degrees();
  EXPECT_EQ(indeg[2], 2u);
  EXPECT_EQ(indeg[0], 0u);
}

TEST(BitRelation, EmptyUniverse) {
  BitRelation r(0);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.pair_count(), 0u);
  EXPECT_TRUE(r.is_acyclic());
  EXPECT_TRUE(r.closed_is_total_order());  // vacuously
  const auto order = r.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
  EXPECT_TRUE(r.in_degrees().empty());
  BitRelation other(0);
  r.merge(other);  // merging empty universes is a no-op, not a crash
  EXPECT_EQ(r.pair_count(), 0u);
  const auto closed = r.transitive_closure();
  EXPECT_EQ(closed.size(), 0u);
}

TEST(BitRelation, SelfLoopCycleDetectedBeyondFirstWord) {
  // The self-loop bit sits in the second 64-bit word of its row.
  BitRelation r(130);
  r.add(100, 100);
  EXPECT_FALSE(r.is_acyclic());
  EXPECT_FALSE(r.topological_order().has_value());
}

TEST(BitRelation, TransitiveClosureOnAlreadyClosedInputIsIdempotent) {
  BitRelation r(6);
  r.add(0, 1);
  r.add(1, 2);
  r.add(3, 4);
  const auto once = r.transitive_closure();
  const auto twice = once.transitive_closure();
  ASSERT_EQ(once.size(), twice.size());
  EXPECT_EQ(once.pair_count(), twice.pair_count());
  for (std::size_t i = 0; i < once.size(); ++i) {
    for (std::size_t j = 0; j < once.size(); ++j) {
      EXPECT_EQ(once.has(i, j), twice.has(i, j)) << i << "," << j;
    }
  }
}

TEST(BitRelation, LargeUniverseChainAcrossWordBoundary) {
  // A 130-element chain spans three 64-bit words per row; the closure
  // must carry bits across all word boundaries.
  constexpr std::size_t kN = 130;
  BitRelation r(kN);
  for (std::size_t i = 0; i + 1 < kN; ++i) r.add(i, i + 1);
  const auto closed = r.transitive_closure();
  EXPECT_TRUE(closed.has(0, kN - 1));
  EXPECT_TRUE(closed.has(63, 64));
  EXPECT_TRUE(closed.has(0, 127));
  EXPECT_FALSE(closed.has(kN - 1, 0));
  // i < j ordered for all pairs: n*(n-1)/2 pairs, and a total order.
  EXPECT_EQ(closed.pair_count(), kN * (kN - 1) / 2);
  EXPECT_TRUE(closed.closed_is_total_order());
  const auto order = r.topological_order();
  ASSERT_TRUE(order.has_value());
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ((*order)[i], i);
}

// Word-boundary sizes for the row-word kernels: empty, one element, one
// short of a word, exactly one word, one past it, and two words plus one.
constexpr std::size_t kBoundarySizes[] = {0, 1, 63, 64, 65, 129};

/// Smallest-index-first Kahn by pairwise has(): the reference order.
std::optional<std::vector<std::size_t>> scan_order(const BitRelation& r) {
  const std::size_t n = r.size();
  std::vector<std::size_t> indeg(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) indeg[j] += r.has(i, j) ? 1 : 0;
  }
  std::vector<bool> placed(n, false);
  std::vector<std::size_t> order;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t pick = n;
    for (std::size_t i = 0; i < n && pick == n; ++i) {
      if (!placed[i] && indeg[i] == 0) pick = i;
    }
    if (pick == n) return std::nullopt;
    placed[pick] = true;
    order.push_back(pick);
    for (std::size_t j = 0; j < n; ++j) {
      if (!placed[j] && r.has(pick, j)) --indeg[j];
    }
  }
  return order;
}

/// Warshall by pairwise has()/add(): the reference closure.
BitRelation scan_closure(const BitRelation& r) {
  BitRelation c = r;
  for (std::size_t k = 0; k < c.size(); ++k) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!c.has(i, k)) continue;
      for (std::size_t j = 0; j < c.size(); ++j) {
        if (c.has(k, j)) c.add(i, j);
      }
    }
  }
  return c;
}

bool same_pairs(const BitRelation& a, const BitRelation& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (a.has(i, j) != b.has(i, j)) return false;
    }
  }
  return true;
}

/// A random DAG whose pairs follow a shuffled rank, so indices do not run
/// forward (the renaming path), with edge probability 1/`sparsity`.
BitRelation random_dag(std::size_t n, Rng& rng, std::uint64_t sparsity) {
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(rank[i - 1], rank[rng.next_below(i)]);
  BitRelation r(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rank[i] < rank[j] && rng.next_below(sparsity) == 0) r.add(i, j);
    }
  }
  return r;
}

TEST(BitRelation, TopologicalOrderTieBreakAtWordBoundaries) {
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    // No pairs: every element is ready at once, smallest first.
    const auto empty = BitRelation(n).topological_order();
    ASSERT_TRUE(empty.has_value());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ((*empty)[i], i);
    // A descending chain forces the reverse order.
    BitRelation down(n);
    for (std::size_t i = 0; i + 1 < n; ++i) down.add(i + 1, i);
    const auto reversed = down.topological_order();
    ASSERT_TRUE(reversed.has_value());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ((*reversed)[i], n - 1 - i);
    // Two independent ascending chains interleave by index.
    BitRelation two(n);
    for (std::size_t i = 0; i + 2 < n; ++i) two.add(i, i + 2);
    EXPECT_EQ(two.topological_order(), scan_order(two));
    if (n == 0) continue;
    // A back edge (or a self-loop when n = 1) is a cycle.
    BitRelation cyclic = down;
    cyclic.add(0, n - 1);
    EXPECT_FALSE(cyclic.topological_order().has_value());
    EXPECT_FALSE(cyclic.is_acyclic());
    EXPECT_FALSE(cyclic.transitive_closure().closed_is_irreflexive());
  }
}

TEST(BitRelation, KernelsMatchPairwiseScansOnRandomRelations) {
  Rng rng(42);
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    for (const std::uint64_t sparsity : {2u, 9u, 40u}) {
      const BitRelation dag = random_dag(n, rng, sparsity);
      const BitRelation closed = dag.transitive_closure();
      EXPECT_TRUE(same_pairs(closed, scan_closure(dag)));
      // A relation and its closure linearize identically.
      EXPECT_EQ(dag.topological_order(), scan_order(dag));
      EXPECT_EQ(closed.topological_order(), dag.topological_order());
      EXPECT_TRUE(dag.is_acyclic());

      std::vector<std::size_t> indeg(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) indeg[j] += dag.has(i, j) ? 1 : 0;
      }
      EXPECT_EQ(dag.in_degrees(), indeg);

      const BitRelation inverse = dag.transposed();
      ASSERT_EQ(inverse.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(inverse.has(j, i), dag.has(i, j));
      }

      // The reduction closes back to the closure and keeps no pair that
      // another element splits.
      const BitRelation hasse = closed.transitive_reduction();
      EXPECT_TRUE(same_pairs(hasse.transitive_closure(), closed));
      for (std::size_t i = 0; i < n; ++i) {
        for (const std::size_t j : hasse.successors(i)) {
          for (std::size_t k = 0; k < n; ++k) {
            EXPECT_FALSE(closed.has(i, k) && closed.has(k, j)) << i << "->" << k << "->" << j;
          }
        }
      }
    }
    // Cyclic input takes the Warshall path.
    if (n >= 2) {
      BitRelation cyclic = random_dag(n, rng, 3);
      cyclic.add(0, 1);
      cyclic.add(1, 0);
      EXPECT_TRUE(same_pairs(cyclic.transitive_closure(), scan_closure(cyclic)));
      EXPECT_EQ(cyclic.topological_order(), std::nullopt);
    }
  }
}

TEST(BitRelation, TransitiveReductionOfAChainIsTheChain) {
  constexpr std::size_t kN = 130;
  BitRelation chain(kN);
  for (std::size_t i = 0; i + 1 < kN; ++i) chain.add(i, i + 1);
  EXPECT_TRUE(same_pairs(chain.transitive_closure().transitive_reduction(), chain));
}

TEST(BitRelation, UnorderedPairsMatchPairwiseScan) {
  Rng rng(7);
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    const BitRelation closed = random_dag(n, rng, 6).transitive_closure();
    std::vector<std::uint64_t> members(closed.words_per_row(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_below(3) != 0) members[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    const auto member = [&](std::size_t i) { return ((members[i / 64] >> (i % 64)) & 1U) != 0; };
    std::vector<std::pair<std::size_t, std::size_t>> want;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (member(a) && member(b) && !closed.has(a, b) && !closed.has(b, a)) {
          want.emplace_back(a, b);
        }
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> got;
    for_each_unordered_pair(closed, members, [&](std::size_t a, std::size_t b) {
      got.emplace_back(a, b);
      return true;
    });
    EXPECT_EQ(got, want);
    // Stopping early yields exactly the first pair.
    std::vector<std::pair<std::size_t, std::size_t>> first;
    for_each_unordered_pair(closed, members, [&](std::size_t a, std::size_t b) {
      first.emplace_back(a, b);
      return false;
    });
    EXPECT_EQ(first.size(), want.empty() ? 0u : 1u);
    if (!want.empty()) {
      EXPECT_EQ(first[0], want[0]);
    }
  }
}

TEST(BitRelation, RowWordsExposeTheBitLayout) {
  BitRelation r(70);
  r.add(3, 0);
  r.add(3, 65);
  ASSERT_EQ(r.words_per_row(), 2u);
  const BitRelation& view = r;
  EXPECT_EQ(view.row_words(3)[0], 1u);
  EXPECT_EQ(view.row_words(3)[1], 2u);
  r.row_words(4)[1] |= 1U;  // (4, 64)
  EXPECT_TRUE(r.has(4, 64));
  std::vector<std::size_t> bits;
  for_each_bit(view.row_words(3), view.words_per_row(), [&](std::size_t j) { bits.push_back(j); });
  EXPECT_EQ(bits, (std::vector<std::size_t>{0, 65}));
}

#if GTEST_HAS_DEATH_TEST
TEST(BitRelationDeath, AddOutOfRangeAborts) {
  BitRelation r(4);
  EXPECT_DEATH(r.add(4, 0), "outside the universe");
  EXPECT_DEATH(r.add(0, 4), "outside the universe");
}

TEST(BitRelationDeath, HasOutOfRangeAborts) {
  const BitRelation r(4);
  EXPECT_DEATH((void)r.has(0, 7), "outside the universe");
}

TEST(BitRelationDeath, MergeMismatchedUniversesAborts) {
  BitRelation a(4);
  const BitRelation b(5);
  EXPECT_DEATH(a.merge(b), "universe sizes disagree");
}

TEST(BitRelationDeath, SuccessorsPredecessorsOutOfRangeAbort) {
  const BitRelation r(3);
  EXPECT_DEATH((void)r.successors(3), "outside the universe");
  EXPECT_DEATH((void)r.predecessors(9), "outside the universe");
}

TEST(BitRelationDeath, RowWordsOutOfRangeAborts) {
  BitRelation r(3);
  const BitRelation& view = r;
  EXPECT_DEATH((void)r.row_words(3), "outside the universe");
  EXPECT_DEATH((void)view.row_words(64), "outside the universe");
}

TEST(BitRelationDeath, TransitiveReductionOfCycleAborts) {
  BitRelation r(2);
  r.add(0, 1);
  r.add(1, 0);
  EXPECT_DEATH((void)r.transitive_reduction(), "cyclic");
}
#endif  // GTEST_HAS_DEATH_TEST

// ---------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-42);
  w.put_string("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, RoundTripVectors) {
  ByteWriter w;
  w.put_u64_vector({1, 2, 3});
  w.put_i64_vector({-1, 0, 1});
  w.put_u32_vector({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u64_vector(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.get_i64_vector(), (std::vector<std::int64_t>{-1, 0, 1}));
  EXPECT_TRUE(r.get_u32_vector().empty());
}

TEST(Bytes, EmptyString) {
  ByteWriter w;
  w.put_string("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
}

using Wire = std::vector<std::uint8_t>;

// Pins the exact wire bytes of every writer: little-endian fixed width,
// u32 length prefixes, empty and one-element containers included.
TEST(Bytes, WireLayoutIsLittleEndianFixedWidth) {
  const auto bytes_of = [](auto&& write) {
    ByteWriter w;
    write(w);
    return w.bytes();
  };
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_u8(0xA5); }), (Wire{0xA5}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_u32(0x01020304); }),
            (Wire{0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_u64(0x0102030405060708ULL); }),
            (Wire{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_i64(-2); }),
            (Wire{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_string(""); }), (Wire{0, 0, 0, 0}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_string("ab"); }),
            (Wire{2, 0, 0, 0, 'a', 'b'}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_bytes(Wire{}); }), (Wire{0, 0, 0, 0}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_bytes(Wire{0xAB}); }),
            (Wire{1, 0, 0, 0, 0xAB}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_raw(Wire{}); }), Wire{});
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_raw(Wire{1, 2}); }), (Wire{1, 2}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_u32_vector({}); }), (Wire{0, 0, 0, 0}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_u32_vector({0x0A0B0C0D}); }),
            (Wire{1, 0, 0, 0, 0x0D, 0x0C, 0x0B, 0x0A}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_u32_vector({1, 0x100}); }),
            (Wire{2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_u64_vector({}); }), (Wire{0, 0, 0, 0}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_u64_vector({0x0102030405060708ULL}); }),
            (Wire{1, 0, 0, 0, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_i64_vector({}); }), (Wire{0, 0, 0, 0}));
  EXPECT_EQ(bytes_of([](ByteWriter& w) { w.put_i64_vector({-1}); }),
            (Wire{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  // Fields concatenate with no padding or alignment.
  EXPECT_EQ(bytes_of([](ByteWriter& w) {
              w.put_u8(1);
              w.put_u32(2);
              w.put_u8(3);
            }),
            (Wire{1, 2, 0, 0, 0, 3}));
}

TEST(Bytes, BytesFieldSharesTheStringLayout) {
  ByteWriter w;
  w.put_bytes(Wire{'h', 'i'});
  w.put_string("hi");
  w.put_bytes(Wire{});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hi");
  EXPECT_EQ(r.get_bytes(), (Wire{'h', 'i'}));
  EXPECT_TRUE(r.get_bytes().empty());
  EXPECT_TRUE(r.exhausted());
}

#if GTEST_HAS_DEATH_TEST
// A corrupt length prefix is checked against the bytes left before
// anything is allocated for it: 0xFFFFFFFF elements must abort with the
// underflow diagnostic, not request up to 32 GB first.
TEST(BytesDeath, CorruptLengthPrefixAbortsBeforeAllocating) {
  const Wire corrupt{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_DEATH((void)ByteReader(corrupt).get_u64_vector(), "message underflow");
  EXPECT_DEATH((void)ByteReader(corrupt).get_i64_vector(), "message underflow");
  EXPECT_DEATH((void)ByteReader(corrupt).get_u32_vector(), "message underflow");
  EXPECT_DEATH((void)ByteReader(corrupt).get_string(), "message underflow");
  EXPECT_DEATH((void)ByteReader(corrupt).get_bytes(), "message underflow");
}

TEST(BytesDeath, TruncatedFieldsAbort) {
  const Wire three{1, 2, 3};
  EXPECT_DEATH((void)ByteReader(three).get_u32(), "message underflow");
  EXPECT_DEATH((void)ByteReader(three).get_u64(), "message underflow");
  EXPECT_DEATH((void)ByteReader(Wire{}).get_u8(), "message underflow");
  // One element short: a length of 2 u32s over 4 bytes of body.
  const Wire short_body{2, 0, 0, 0, 1, 0, 0, 0};
  EXPECT_DEATH((void)ByteReader(short_body).get_u32_vector(), "message underflow");
}
#endif  // GTEST_HAS_DEATH_TEST

// ------------------------------------------------------------------ cli

TEST(Cli, ParsesEqualsAndSpaceForms) {
  // Note: a bare boolean flag directly before a positional would be
  // ambiguous (`--flag pos1` reads as --flag=pos1); positionals come
  // first or booleans use --flag=true.
  const char* argv[] = {"prog", "--n=5", "--name", "alice", "pos1", "--flag"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 5);
  EXPECT_EQ(args.get_string("name", ""), "alice");
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, UnusedDetection) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliArgs args(3, const_cast<char**>(argv));
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<std::uint64_t>(7)), "7");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(-7)), "-7");
}

}  // namespace
}  // namespace mocc::util
