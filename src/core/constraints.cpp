#include "core/constraints.hpp"

#include <cstdint>
#include <sstream>
#include <vector>

#include "util/assert.hpp"

namespace mocc::core {

const char* constraint_name(Constraint c) {
  switch (c) {
    case Constraint::kOO: return "OO";
    case Constraint::kWW: return "WW";
    case Constraint::kWO: return "WO";
  }
  return "?";
}

std::string ConstraintViolation::to_string() const {
  std::ostringstream out;
  out << constraint_name(constraint) << "-constraint requires m" << a << " and m" << b
      << " to be ordered, but they are not";
  return out.str();
}

namespace {

bool write_common_object(const MOperation& x, const MOperation& y) {
  for (const ObjectId obj : x.wobjects()) {
    if (y.writes(obj)) return true;
  }
  return false;
}

bool requires_ordering(const History& h, MOpId a, MOpId b, Constraint constraint) {
  const MOperation& x = h.mop(a);
  const MOperation& y = h.mop(b);
  switch (constraint) {
    case Constraint::kOO:
      return h.conflict(a, b);
    case Constraint::kWW:
      return x.is_update() && y.is_update();
    case Constraint::kWO:
      return write_common_object(x, y);
  }
  return false;
}

}  // namespace

std::optional<ConstraintViolation> find_constraint_violation(
    const History& h, const util::BitRelation& order, Constraint constraint) {
  if (constraint == Constraint::kWW) {
    // Every pair of updates ordered: test the update bitset against each
    // update's row | column words.
    MOCC_ASSERT_MSG(h.size() <= order.size(), "order does not cover the history");
    std::vector<std::uint64_t> updates(order.words_per_row(), 0);
    for (MOpId a = 0; a < h.size(); ++a) {
      if (h.mop(a).is_update()) updates[a / 64] |= std::uint64_t{1} << (a % 64);
    }
    std::optional<ConstraintViolation> first;
    util::for_each_unordered_pair(order, updates, [&](std::size_t a, std::size_t b) {
      first = ConstraintViolation{constraint, static_cast<MOpId>(a), static_cast<MOpId>(b)};
      return false;
    });
    return first;
  }
  for (MOpId a = 0; a < h.size(); ++a) {
    for (MOpId b = a + 1; b < h.size(); ++b) {
      if (!requires_ordering(h, a, b, constraint)) continue;
      if (!order.has(a, b) && !order.has(b, a)) {
        return ConstraintViolation{constraint, a, b};
      }
    }
  }
  return std::nullopt;
}

}  // namespace mocc::core
