#include "core/legality.hpp"

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "util/assert.hpp"

namespace mocc::core {

std::string LegalityViolation::to_string() const {
  std::ostringstream out;
  out << "m" << alpha << " reads x" << object << " from m" << beta << ", but m"
      << gamma << " writes x" << object << " and m" << beta << " ~> m" << gamma
      << " ~> m" << alpha;
  return out.str();
}

namespace {

/// The writers of every object some external read names, as bitsets over
/// the history's m-operations: O(reads + writes) to build.
class ReadObjectWriters {
 public:
  explicit ReadObjectWriters(const History& h)
      : words_((h.size() + 63) / 64), slot_(h.num_objects(), kNone) {
    std::size_t slots = 0;
    for (const MOperation& m : h.mops()) {
      for (const Operation& read : m.external_reads()) {
        if (slot_[read.object] == kNone) slot_[read.object] = slots++;
      }
    }
    bits_.assign(slots * words_, 0);
    for (MOpId gamma = 0; gamma < h.size(); ++gamma) {
      for (const ObjectId x : h.mop(gamma).wobjects()) {
        if (slot_[x] == kNone) continue;
        bits_[slot_[x] * words_ + gamma / 64] |= std::uint64_t{1} << (gamma % 64);
      }
    }
  }

  const std::uint64_t* of(ObjectId x) const { return bits_.data() + slot_[x] * words_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t words_;
  std::vector<std::size_t> slot_;
  std::vector<std::uint64_t> bits_;
};

/// Clears bit `id` of a bitset word when it lives in word `w`.
std::uint64_t without(std::uint64_t word, std::size_t w, MOpId id) {
  return id / 64 == w ? word & ~(std::uint64_t{1} << (id % 64)) : word;
}

}  // namespace

std::optional<LegalityViolation> find_legality_violation(
    const History& h, const util::BitRelation& order) {
  // Iterate over reads-from pairs rather than all triples: for each
  // external read (α reads x from β), the overwriters are the writers γ of
  // x with β ~> γ ~> α — one AND of writer, row(β) and column(α) words,
  // whose lowest bit is the smallest such γ.
  const std::size_t n = h.size();
  if (n == 0) return std::nullopt;
  MOCC_ASSERT_MSG(order.size() == n, "order does not cover the history");
  const std::size_t words = order.words_per_row();
  const util::BitRelation before = order.transposed();
  const ReadObjectWriters writers(h);
  for (MOpId alpha = 0; alpha < n; ++alpha) {
    const std::uint64_t* preceding = before.row_words(alpha);
    for (const Operation& read : h.mop(alpha).external_reads()) {
      const MOpId beta = read.reads_from;
      // The initializing m-op precedes everything, so for β = init the
      // condition degenerates to: no writer of x ordered before α.
      const std::uint64_t* following = beta == kInitialMOp ? nullptr : order.row_words(beta);
      const std::uint64_t* wx = writers.of(read.object);
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t gammas = wx[w] & preceding[w];
        if (following != nullptr) gammas &= following[w];
        gammas = without(without(gammas, w, alpha), w, beta);
        if (gammas != 0) {
          const auto gamma = static_cast<MOpId>(w * 64 + std::countr_zero(gammas));
          return LegalityViolation{alpha, beta, gamma, read.object};
        }
      }
    }
  }
  return std::nullopt;
}

util::BitRelation rw_precedence(const History& h, const util::BitRelation& order) {
  // α ~rw~> γ for every writer γ of x that β precedes, per read (α reads x
  // from β): row(α) gains writers(x) & row(β), all of writers(x) for
  // β = init (the initializing m-op is ordered before every m-operation,
  // so interfere(α, init, γ) yields α ~rw~> γ unconditionally).
  const std::size_t n = h.size();
  util::BitRelation rw(n);
  if (n == 0) return rw;
  MOCC_ASSERT_MSG(order.size() == n, "order does not cover the history");
  const std::size_t words = rw.words_per_row();
  const ReadObjectWriters writers(h);
  for (MOpId alpha = 0; alpha < n; ++alpha) {
    std::uint64_t* row = rw.row_words(alpha);
    for (const Operation& read : h.mop(alpha).external_reads()) {
      const MOpId beta = read.reads_from;
      const std::uint64_t* following = beta == kInitialMOp ? nullptr : order.row_words(beta);
      const std::uint64_t* wx = writers.of(read.object);
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t gammas = following == nullptr ? wx[w] : wx[w] & following[w];
        row[w] |= without(without(gammas, w, alpha), w, beta);
      }
    }
  }
  return rw;
}

util::BitRelation extended_relation(const History& h, const util::BitRelation& order) {
  util::BitRelation merged = order;
  merged.merge(rw_precedence(h, order));
  return merged.transitive_closure();
}

bool is_legal_sequential_order(const History& h, const std::vector<MOpId>& order) {
  if (order.size() != h.size()) return false;
  std::vector<MOpId> last_writer(h.num_objects(), kInitialMOp);
  std::vector<bool> placed(h.size(), false);
  for (const MOpId id : order) {
    if (id >= h.size() || placed[id]) return false;
    const MOperation& m = h.mop(id);
    for (const Operation& read : m.external_reads()) {
      if (last_writer[read.object] != read.reads_from) return false;
    }
    for (const ObjectId x : m.wobjects()) last_writer[x] = id;
    placed[id] = true;
  }
  return true;
}

}  // namespace mocc::core
