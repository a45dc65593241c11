// Dense binary relations over a fixed universe {0, ..., n-1}.
//
// The history checkers manipulate order relations over m-operations:
// union, transitive closure and reduction, acyclicity, topological
// linearization. A bit-matrix representation makes every membership query
// O(1) and lets the bulk operations work on 64-bit words. Below, p is the
// number of pairs and e the number of Hasse (transitive-reduction) edges.
//   - union, transposition, the "every pair runs forward" test: O(n^2/64);
//   - linearization (Kahn): O(n^2/64) when every pair runs forward (the
//     order is then the identity), else O(n^2/64 + p + n log n);
//   - closure and reduction of an acyclic relation: rename along a linear
//     extension (skipped when already forward, else O(p)), then visit each
//     row's successors ascending and OR only the rows of those not already
//     reached, O(n^2/64 + e * n/64); a cyclic relation falls back to
//     Warshall, O(n^2 + p * n/64).
// Callers that need more than a query read whole rows through
// row_words() and walk their set bits with for_each_bit().
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace mocc::util {

/// Calls f(j) for every set bit j of the `words`-word bitset `bits`, in
/// ascending j.
template <typename F>
void for_each_bit(const std::uint64_t* bits, std::size_t words, F&& f) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

class BitRelation {
 public:
  BitRelation() = default;
  explicit BitRelation(std::size_t n);

  std::size_t size() const { return n_; }

  void add(std::size_t from, std::size_t to);
  bool has(std::size_t from, std::size_t to) const;

  /// Row `from` as words_per_row() words: bit j % 64 of word j / 64 is the
  /// pair (from, j). Bits at and beyond size() are zero and writers must
  /// keep them zero.
  std::size_t words_per_row() const { return (n_ + 63) / 64; }
  const std::uint64_t* row_words(std::size_t from) const;
  std::uint64_t* row_words(std::size_t from);

  /// Union in-place with another relation over the same universe.
  void merge(const BitRelation& other);

  /// Number of ordered pairs present.
  std::size_t pair_count() const;

  /// The inverse relation: (j, i) for every pair (i, j), by 64x64 bit-block
  /// transposes in O(n^2 / 64).
  BitRelation transposed() const;

  /// The transitive closure (see the header comment for the algorithm).
  BitRelation transitive_closure() const;

  /// The Hasse edges of a transitively closed acyclic relation: the pairs
  /// (i, j) with no k such that (i, k) and (k, j). Every pair of the
  /// relation is a path of these edges. Aborts on a cyclic relation; the
  /// result is meaningless for one that is not closed.
  BitRelation transitive_reduction() const;

  /// True iff the relation has no cycle (its transitive closure is
  /// irreflexive): exactly when topological_order() succeeds. A caller that
  /// already holds a closed relation asks it closed_is_irreflexive().
  bool is_acyclic() const;
  bool closed_is_irreflexive() const;

  /// True iff the relation is a total (strict) order when transitively
  /// closed: acyclic and every distinct pair ordered.
  bool closed_is_total_order() const;

  /// Some topological order (ascending under the relation), or nullopt if
  /// cyclic. Kahn's algorithm with a min-heap ready set: ties are broken by
  /// smallest index, so the result is deterministic, and a relation and its
  /// transitive closure give the same order (an element is ready once its
  /// direct predecessors are placed, which in turn places all its
  /// ancestors).
  std::optional<std::vector<std::size_t>> topological_order() const;

  /// Successors of `from` as indices (ascending).
  std::vector<std::size_t> successors(std::size_t from) const;
  /// Predecessors of `to` as indices (ascending).
  std::vector<std::size_t> predecessors(std::size_t to) const;

  /// In-degree of every element (number of predecessors).
  std::vector<std::size_t> in_degrees() const;

 private:
  const std::uint64_t* row(std::size_t i) const { return bits_.data() + i * words_per_row(); }
  std::uint64_t* row(std::size_t i) { return bits_.data() + i * words_per_row(); }

  std::size_t n_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Calls f(a, b) for every pair a < b of `members` (a bitset over the
/// universe of `order`, order.words_per_row() words) that `order` relates
/// in neither direction, in ascending (a, b) order, until f returns false.
/// One transpose plus O(n^2 / 64) word tests.
template <typename F>
void for_each_unordered_pair(const BitRelation& order,
                             const std::vector<std::uint64_t>& members, F&& f) {
  const std::size_t words = order.words_per_row();
  const BitRelation inverse = order.transposed();
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t word = members[w]; word != 0; word &= word - 1) {
      const std::size_t a = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      const std::uint64_t* after = order.row_words(a);
      const std::uint64_t* before = inverse.row_words(a);
      // Only b > a: drop bits up to and including a in its own word.
      std::uint64_t above = ~std::uint64_t{0} << (a % 64) << 1;
      for (std::size_t v = a / 64; v < words; ++v) {
        std::uint64_t missing = members[v] & above & ~(after[v] | before[v]);
        for (; missing != 0; missing &= missing - 1) {
          const std::size_t b = v * 64 + static_cast<std::size_t>(std::countr_zero(missing));
          if (!f(a, b)) return;
        }
        above = ~std::uint64_t{0};
      }
    }
  }
}

}  // namespace mocc::util
