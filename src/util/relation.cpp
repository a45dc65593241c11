#include "util/relation.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <queue>

#include "util/assert.hpp"

namespace mocc::util {

namespace {

/// In-place transpose of a 64x64 bit block (row r = a[r], column c = bit
/// c): swap ever smaller off-diagonal sub-blocks (Hacker's Delight 7-3).
void transpose64(std::array<std::uint64_t, 64>& a) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// True iff every pair (i, j) has i < j: then ascending index is a linear
/// extension, and smallest-index-first Kahn returns exactly 0, 1, ..., n-1.
bool runs_forward(const BitRelation& r) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    const std::uint64_t* row = r.row_words(i);
    for (std::size_t w = 0; w < i / 64; ++w) {
      if (row[w] != 0) return false;
    }
    // Bits 0..i % 64 of word i / 64 are the pairs (i, j <= i).
    const std::uint64_t upto_i = ~std::uint64_t{0} >> (63 - i % 64);
    if ((row[i / 64] & upto_i) != 0) return false;
  }
  return true;
}

/// The relation with element i renamed to `to[i]`.
BitRelation renamed(const BitRelation& r, const std::vector<std::size_t>& to) {
  BitRelation out(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    std::uint64_t* row = out.row_words(to[i]);
    for_each_bit(r.row_words(i), r.words_per_row(), [&](std::size_t j) {
      row[to[j] / 64] |= std::uint64_t{1} << (to[j] % 64);
    });
  }
  return out;
}

/// For a relation whose pairs all run forward and whose rows after `p`
/// are transitively closed: calls f(q) for each successor q of p that no
/// smaller successor reaches, ascending, and leaves in `covered` the union
/// of their rows (everything p reaches through a successor).
template <typename F>
void visit_uncovered(const BitRelation& r, std::size_t p, std::vector<std::uint64_t>& covered,
                     F&& f) {
  const std::size_t words = r.words_per_row();
  std::fill(covered.begin(), covered.end(), 0);
  const std::uint64_t* row = r.row_words(p);
  for (std::size_t w = p / 64; w < words; ++w) {
    for (std::uint64_t bits = row[w] & ~covered[w]; bits != 0; bits &= ~covered[w]) {
      const std::size_t q = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      f(q);
      const std::uint64_t* reach = r.row_words(q);
      for (std::size_t v = w; v < words; ++v) covered[v] |= reach[v];
      bits &= bits - 1;
    }
  }
}

/// Closure of a forward relation: rows from last to first, each gaining the
/// closed rows of its successors (only the uncovered ones need ORing).
BitRelation close_forward(BitRelation r) {
  std::vector<std::uint64_t> covered(r.words_per_row());
  for (std::size_t p = r.size(); p-- > 0;) {
    visit_uncovered(r, p, covered, [](std::size_t) {});
    std::uint64_t* row = r.row_words(p);
    for (std::size_t w = 0; w < covered.size(); ++w) row[w] |= covered[w];
  }
  return r;
}

/// Hasse edges of a closed forward relation: each row's uncovered successors.
BitRelation reduce_forward(const BitRelation& closed) {
  BitRelation reduction(closed.size());
  std::vector<std::uint64_t> covered(closed.words_per_row());
  for (std::size_t p = 0; p < closed.size(); ++p) {
    std::uint64_t* row = reduction.row_words(p);
    visit_uncovered(closed, p, covered, [&](std::size_t q) {
      row[q / 64] |= std::uint64_t{1} << (q % 64);
    });
  }
  return reduction;
}

/// Applies `op`, defined on relations whose pairs all run forward, to `r`
/// renamed along its linear extension `order`, and renames the result
/// back. The identity order means `r` already runs forward.
template <typename Op>
BitRelation in_forward_form(const BitRelation& r, const std::vector<std::size_t>& order,
                            Op&& op) {
  bool identity = true;
  std::vector<std::size_t> position(order.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    position[order[p]] = p;
    identity = identity && order[p] == p;
  }
  if (identity) return op(r);
  return renamed(op(renamed(r, position)), order);
}

}  // namespace

BitRelation::BitRelation(std::size_t n) : n_(n), bits_(n * ((n + 63) / 64), 0) {}

void BitRelation::add(std::size_t from, std::size_t to) {
  MOCC_ASSERT_MSG(from < n_ && to < n_,
                  "BitRelation::add: index outside the universe");
  row(from)[to / 64] |= (std::uint64_t{1} << (to % 64));
}

bool BitRelation::has(std::size_t from, std::size_t to) const {
  MOCC_ASSERT_MSG(from < n_ && to < n_,
                  "BitRelation::has: index outside the universe");
  return (row(from)[to / 64] >> (to % 64)) & 1U;
}

const std::uint64_t* BitRelation::row_words(std::size_t from) const {
  MOCC_ASSERT_MSG(from < n_, "BitRelation::row_words: index outside the universe");
  return row(from);
}

std::uint64_t* BitRelation::row_words(std::size_t from) {
  MOCC_ASSERT_MSG(from < n_, "BitRelation::row_words: index outside the universe");
  return row(from);
}

void BitRelation::merge(const BitRelation& other) {
  MOCC_ASSERT_MSG(n_ == other.n_,
                  "BitRelation::merge: universe sizes disagree");
  MOCC_DEBUG_ASSERT(bits_.size() == other.bits_.size());
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
}

std::size_t BitRelation::pair_count() const {
  std::size_t count = 0;
  for (auto word : bits_) count += static_cast<std::size_t>(std::popcount(word));
  return count;
}

BitRelation BitRelation::transposed() const {
  BitRelation out(n_);
  const std::size_t words = words_per_row();
  std::array<std::uint64_t, 64> block{};
  for (std::size_t bi = 0; bi < words; ++bi) {
    const std::size_t rows = std::min<std::size_t>(64, n_ - bi * 64);
    for (std::size_t bj = 0; bj < words; ++bj) {
      block.fill(0);
      std::uint64_t any = 0;
      for (std::size_t r = 0; r < rows; ++r) any |= block[r] = row(bi * 64 + r)[bj];
      if (any == 0) continue;  // an empty block stays empty
      transpose64(block);
      const std::size_t cols = std::min<std::size_t>(64, n_ - bj * 64);
      for (std::size_t c = 0; c < cols; ++c) out.row(bj * 64 + c)[bi] = block[c];
    }
  }
  return out;
}

BitRelation BitRelation::transitive_closure() const {
  if (const auto order = topological_order()) {
    return in_forward_form(*this, *order, close_forward);
  }
  // Cyclic: Warshall's algorithm on bit rows.
  BitRelation closure = *this;
  const std::size_t words = words_per_row();
  for (std::size_t k = 0; k < n_; ++k) {
    const std::uint64_t* krow = closure.row(k);
    const std::size_t kword = k / 64;
    const std::uint64_t kbit = std::uint64_t{1} << (k % 64);
    for (std::size_t i = 0; i < n_; ++i) {
      std::uint64_t* irow = closure.row(i);
      if ((irow[kword] & kbit) != 0) {
        for (std::size_t w = 0; w < words; ++w) irow[w] |= krow[w];
      }
    }
  }
  return closure;
}

BitRelation BitRelation::transitive_reduction() const {
  const auto order = topological_order();
  MOCC_ASSERT_MSG(order.has_value(), "BitRelation::transitive_reduction: relation is cyclic");
  return in_forward_form(*this, *order, reduce_forward);
}

bool BitRelation::closed_is_irreflexive() const {
  for (std::size_t i = 0; i < n_; ++i) {
    if (has(i, i)) return false;
  }
  return true;
}

bool BitRelation::is_acyclic() const { return topological_order().has_value(); }

bool BitRelation::closed_is_total_order() const {
  if (!closed_is_irreflexive()) return false;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      if (!has(i, j) && !has(j, i)) return false;
    }
  }
  return true;
}

std::optional<std::vector<std::size_t>> BitRelation::topological_order() const {
  if (runs_forward(*this)) {
    std::vector<std::size_t> order(n_);
    for (std::size_t i = 0; i < n_; ++i) order[i] = i;
    return order;
  }
  std::vector<std::size_t> indeg = in_degrees();
  std::vector<std::size_t> order;
  order.reserve(n_);
  // Kahn's algorithm; the min-heap yields the smallest ready index first.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> ready;
  for (std::size_t i = 0; i < n_; ++i) {
    if (indeg[i] == 0) ready.push(i);
  }
  while (!ready.empty()) {
    const std::size_t pick = ready.top();
    ready.pop();
    order.push_back(pick);
    for_each_bit(row(pick), words_per_row(), [&](std::size_t j) {
      if (--indeg[j] == 0) ready.push(j);
    });
  }
  if (order.size() != n_) return std::nullopt;  // cycle
  return order;
}

std::vector<std::size_t> BitRelation::successors(std::size_t from) const {
  MOCC_ASSERT_MSG(from < n_, "BitRelation::successors: index outside the universe");
  std::vector<std::size_t> out;
  for_each_bit(row(from), words_per_row(), [&](std::size_t j) { out.push_back(j); });
  return out;
}

std::vector<std::size_t> BitRelation::predecessors(std::size_t to) const {
  MOCC_ASSERT_MSG(to < n_, "BitRelation::predecessors: index outside the universe");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n_; ++i) {
    if (has(i, to)) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> BitRelation::in_degrees() const {
  std::vector<std::size_t> indeg(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    for_each_bit(row(i), words_per_row(), [&](std::size_t j) { ++indeg[j]; });
  }
  return indeg;
}

}  // namespace mocc::util
