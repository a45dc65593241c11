// Order relations over a history's m-operations (§2.1, §2.3).
//
// Each builder returns a BitRelation over m-operation ids. The consistency
// conditions are parameterized by which orders the base relation ~>H must
// contain:
//
//   m-sequential consistency : process order ∪ reads-from
//   m-linearizability        : process order ∪ reads-from ∪ real-time
//   m-normality              : process order ∪ reads-from ∪ object order
#pragma once

#include <vector>

#include "core/history.hpp"
#include "util/relation.hpp"

namespace mocc::core {

/// Which consistency condition a check targets (§2.3).
enum class Condition {
  kMSequentialConsistency,
  kMLinearizability,
  kMNormality,
};

const char* condition_name(Condition c);

/// Orders every element of `chain` before every later one: the total
/// order along the sequence, filled row by row in O(|chain| * n / 64).
void add_chain(util::BitRelation& rel, const std::vector<MOpId>& chain);

/// α ~P~> β : same process, α issued before β.
util::BitRelation process_order(const History& h);

/// β ~rf~> α : α reads from β (D4.3).
util::BitRelation reads_from_order(const History& h);

/// α ~t~> β : resp(α) < inv(β) in real time.
util::BitRelation real_time_order(const History& h);

/// α ~xo~> β : objects(α) ∩ objects(β) ≠ ∅ and resp(α) < inv(β).
util::BitRelation object_order(const History& h);

/// The base relation ~>H for the given condition (NOT transitively
/// closed; callers close it once).
util::BitRelation base_order(const History& h, Condition condition);

/// Convenience: transitively closed base order.
util::BitRelation closed_base_order(const History& h, Condition condition);

}  // namespace mocc::core
