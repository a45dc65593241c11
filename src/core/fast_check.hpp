// Theorem-7 polynomial-time admissibility checking for constrained
// histories (§4).
//
// For a history under the OO- or WW-constraint, admissibility is
// equivalent to legality (Theorem 7), and legality is a polynomial check.
// The witness construction follows Lemmas 3–5: build the read-write
// precedence ~rw (D4.11); the extended relation ~+ (D4.12) is the closure
// of ~H ∪ ~rw, irreflexive by Lemma 3/4; Lemma 5 (P4.5) guarantees *any*
// linear extension of ~+ is a legal sequential history equivalent to the
// input. A linear extension of ~H ∪ ~rw is one of ~+, and Kahn's algorithm
// fails on the union exactly when ~+ is cyclic, so the check closes the
// base order once and linearizes the union without a second closure.
//
// Cost per check: one closure of the base order (see util/relation.hpp),
// the WW/OO/WO constraint scan (word tests for WW), the legality scan (one
// AND of writer, row and column words per external read), ~rw (one such
// AND per read) and one linearization. The closure and the two scans are
// a ClosedOrder of their own, so a caller whose P5.x audit closes the same
// relation (Lemmas 8 and 9 are these two scans) pays for them once.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/constraints.hpp"
#include "core/history.hpp"
#include "core/legality.hpp"
#include "core/relations.hpp"
#include "util/relation.hpp"

namespace mocc::core {

/// One transitively closed order and the two scans Theorem 7 decides on:
/// the first pair `constraint` requires ordered that the order leaves
/// unordered, and the first legality violation (D4.6). Neither scan runs
/// on a cyclic closure.
struct ClosedOrder {
  util::BitRelation order;
  bool acyclic = false;
  Constraint constraint = Constraint::kWW;
  std::optional<ConstraintViolation> constraint_violation;
  std::optional<LegalityViolation> legality_violation;
};

/// Closes `base` once and runs both scans on the closure.
ClosedOrder close_and_scan(const History& h, const util::BitRelation& base,
                           Constraint constraint);

struct FastCheckResult {
  /// Whether the claimed constraint actually holds for the history; if it
  /// does not, Theorem 7 does not apply and `admissible` is meaningless.
  bool constraint_holds = false;
  bool legal = false;
  bool admissible = false;
  /// A witness legal sequential order when admissible.
  std::optional<std::vector<MOpId>> witness;
  /// Populated with a diagnostic when something failed.
  std::string detail;
};

/// Polynomial check of admissibility w.r.t. the transitive closure of
/// `base`, valid for histories satisfying `constraint` (kOO or kWW).
FastCheckResult fast_check(const History& h, const util::BitRelation& base,
                           Constraint constraint);

/// fast_check on a base order already closed and scanned by
/// close_and_scan.
FastCheckResult fast_check_closed(const History& h, const ClosedOrder& closed);

/// Convenience: base order for the given consistency condition augmented
/// with an explicit synchronization order `sync` (e.g. the atomic
/// broadcast delivery order, which is what makes protocol histories
/// WW-constrained).
FastCheckResult fast_check_condition(const History& h, Condition condition,
                                     const util::BitRelation& sync,
                                     Constraint constraint);

}  // namespace mocc::core
