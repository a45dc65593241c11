#include "core/fast_check.hpp"

#include "util/assert.hpp"

namespace mocc::core {

ClosedOrder close_and_scan(const History& h, const util::BitRelation& base,
                           Constraint constraint) {
  ClosedOrder closed;
  closed.order = base.transitive_closure();
  closed.constraint = constraint;
  closed.acyclic = closed.order.closed_is_irreflexive();
  if (closed.acyclic) {
    closed.constraint_violation = find_constraint_violation(h, closed.order, constraint);
    closed.legality_violation = find_legality_violation(h, closed.order);
  }
  return closed;
}

FastCheckResult fast_check(const History& h, const util::BitRelation& base,
                           Constraint constraint) {
  return fast_check_closed(h, close_and_scan(h, base, constraint));
}

FastCheckResult fast_check_closed(const History& h, const ClosedOrder& scanned) {
  FastCheckResult result;
  if (!scanned.acyclic) {
    result.detail = "base order is cyclic";
    return result;
  }
  if (scanned.constraint_violation.has_value()) {
    result.detail = scanned.constraint_violation->to_string();
    return result;
  }
  result.constraint_holds = true;

  if (scanned.legality_violation.has_value()) {
    result.detail = scanned.legality_violation->to_string();
    return result;  // Lemma 6: not legal => not admissible
  }
  result.legal = true;
  const util::BitRelation& closed = scanned.order;

  // Lemmas 3/4: for a legal history under OO/WW the extended relation is
  // an irreflexive partial order; Lemma 5: any linear extension is a
  // legal sequential history. Kahn's smallest-index-first order is the
  // same on ~H ∪ ~rw and on its closure ~+, and fails exactly when ~+ is
  // cyclic, so the union is linearized without closing it again.
  util::BitRelation extended = closed;
  extended.merge(rw_precedence(h, closed));
  const auto order = extended.topological_order();
  if (!order.has_value()) {
    // Reachable only if the claimed constraint was WO-only or the
    // precondition was otherwise violated; report rather than abort so
    // the checker can be used exploratively.
    result.detail = "extended relation ~+ is cyclic (Lemma 3/4 precondition violated)";
    result.legal = true;
    result.admissible = false;
    return result;
  }

  std::vector<MOpId> witness(order->begin(), order->end());
  MOCC_ASSERT_MSG(is_legal_sequential_order(h, witness),
                  "Lemma 5 witness failed replay — checker bug");
  result.admissible = true;
  result.witness = std::move(witness);
  return result;
}

FastCheckResult fast_check_condition(const History& h, Condition condition,
                                     const util::BitRelation& sync,
                                     Constraint constraint) {
  util::BitRelation base = base_order(h, condition);
  base.merge(sync);
  return fast_check(h, base, constraint);
}

}  // namespace mocc::core
