// Protocol audit: the paper's correctness properties P5.1–P5.8 (§5).
//
// Theorem 10 reduces protocol correctness to eight properties of the
// per-m-operation timestamps and the synchronization order ~>H−. The
// protocols in src/protocols record both for every execution; this audit
// re-checks the properties on the recorded run, turning the paper's proof
// obligations into machine-checked runtime oracles. Any violation means a
// protocol bug (or a broken atomic broadcast underneath).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/fast_check.hpp"
#include "core/history.hpp"
#include "util/relation.hpp"
#include "util/timestamp.hpp"

namespace mocc::core {

/// Everything a protocol execution must expose for auditing.
struct ProtocolTrace {
  /// ~>H− : the union the protocol defines (Figure 4: ~P ∪ ~rf ∪ ~ww;
  /// Figure 6: ~rf ∪ ~t ∪ ~ww), NOT transitively closed.
  util::BitRelation sync_order;
  /// ts(α) = ts(finish(α)) per m-operation (D5.2 / D5.7).
  std::vector<util::VersionVector> timestamps;
  /// The paper's conservative update classification ("we treat an
  /// m-operation as an update if it can potentially write"): true for
  /// m-operations that were atomically broadcast, even when the execution
  /// happened to write nothing (e.g. a failed DCAS). P5.1 and P5.2 are
  /// stated in terms of this classification, not the recorded write sets.
  std::vector<bool> is_update;
};

struct AuditReport {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string message);
  std::string to_string() const;
};

/// Checks P5.1–P5.4 and P5.7–P5.8 (Theorem 10's hypotheses) plus the
/// derived WW-constraint (Lemma 8) and legality (Lemma 9) on the closed
/// relation. `trace.sync_order` must relate ids of `h`.
///
/// P5.3 and P5.4 are decided on the Hasse edges of the closed relation
/// (its transitive reduction) rather than on all ~n²/2 closed pairs.
/// Every closed pair β ~> α is a path of Hasse edges. Pointwise ≤ is
/// transitive, so P5.3 on every edge gives ts(β) ≤ ts(α). The path's last
/// edge γ ~> α has ts(γ)[x] < ts(α)[x] for each x in wobjects(α) (P5.4 on
/// that edge), and ts(β)[x] ≤ ts(γ)[x], so P5.4 holds for the pair. Both
/// properties thus hold on every closed pair iff they hold on every Hasse
/// edge. When an edge fails, the all-pairs pass runs to list every
/// violating pair, so the report is the same either way.
AuditReport audit_protocol_execution(const History& h, const ProtocolTrace& trace);

/// audit_protocol_execution with `trace.sync_order` already closed and
/// scanned for the WW-constraint by close_and_scan: the Lemma 8 and 9
/// lines come from `closed`'s two scans. A caller whose Theorem-7 fast
/// check closes the same relation shares one ClosedOrder between both.
AuditReport audit_closed(const History& h, const ProtocolTrace& trace,
                         const ClosedOrder& closed);

}  // namespace mocc::core
