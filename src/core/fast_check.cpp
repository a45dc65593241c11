#include "core/fast_check.hpp"

#include "core/legality.hpp"
#include "util/assert.hpp"

namespace mocc::core {

FastCheckResult fast_check(const History& h, const util::BitRelation& base,
                           Constraint constraint) {
  FastCheckResult result;
  const util::BitRelation closed = base.transitive_closure();

  if (!closed.closed_is_irreflexive()) {
    result.detail = "base order is cyclic";
    return result;
  }

  if (const auto violation = find_constraint_violation(h, closed, constraint)) {
    result.detail = violation->to_string();
    return result;
  }
  result.constraint_holds = true;

  if (const auto violation = find_legality_violation(h, closed)) {
    result.detail = violation->to_string();
    return result;  // Lemma 6: not legal => not admissible
  }
  result.legal = true;

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
