#include "core/audit.hpp"

#include <cstdint>
#include <sstream>

#include "core/relations.hpp"
#include "util/assert.hpp"

namespace mocc::core {

void AuditReport::fail(std::string message) {
  ok = false;
  violations.push_back(std::move(message));
}

std::string AuditReport::to_string() const {
  if (ok) return "audit: ok";
  std::ostringstream out;
  out << "audit: " << violations.size() << " violation(s)\n";
  for (const auto& v : violations) out << "  - " << v << "\n";
  return out.str();
}

AuditReport audit_protocol_execution(const History& h, const ProtocolTrace& trace) {
  return audit_closed(h, trace, close_and_scan(h, trace.sync_order, Constraint::kWW));
}

AuditReport audit_closed(const History& h, const ProtocolTrace& trace,
                         const ClosedOrder& scanned) {
  AuditReport report;
  const std::size_t n = h.size();
  MOCC_ASSERT(trace.sync_order.size() == n);
  MOCC_ASSERT(trace.timestamps.size() == n);
  MOCC_ASSERT(trace.is_update.size() == n);
  MOCC_ASSERT(scanned.order.size() == n);
  MOCC_ASSERT_MSG(scanned.constraint == Constraint::kWW,
                  "the audit derives the WW-constraint (Lemma 8)");

  if (!scanned.acyclic) {
    report.fail("sync order ~>H- is cyclic");
    return report;
  }
  const util::BitRelation& closed = scanned.order;

  auto ts = [&](MOpId id) -> const util::VersionVector& { return trace.timestamps[id]; };

  // P5.1: β ~>H− α with both queries must come from real-time order
  // (resp(β) < inv(α)). We check the closed consequence the lemma needs:
  // two queries ordered by the closure must be real-time ordered — on a
  // recorded execution this is checkable directly from the time stamps.
  // The violators of query β are the queries in its sync row that are
  // not in its ~t row: one AND-NOT of words per query.
  const std::size_t words = closed.words_per_row();
  std::vector<std::uint64_t> queries(words, 0);
  std::vector<std::uint64_t> updates(words, 0);
  for (MOpId a = 0; a < n; ++a) {
    (trace.is_update[a] ? updates : queries)[a / 64] |= std::uint64_t{1} << (a % 64);
  }
  const util::BitRelation real_time = real_time_order(h);
  for (MOpId b = 0; b < n; ++b) {
    if (trace.is_update[b]) continue;
    const std::uint64_t* sync = trace.sync_order.row_words(b);
    const std::uint64_t* after = real_time.row_words(b);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t unordered = sync[w] & queries[w] & ~after[w];
      if (w == b / 64) unordered &= ~(std::uint64_t{1} << (b % 64));
      util::for_each_bit(&unordered, 1, [&](std::size_t bit) {
        std::ostringstream out;
        out << "P5.1: queries m" << b << " ~> m" << w * 64 + bit
            << " ordered without real-time precedence";
        report.fail(out.str());
      });
    }
  }

  // P5.2: any two (conservatively classified) updates are ordered. When
  // that classification is the recorded one (an update is an m-operation
  // that writes), the WW-constraint scan already looked for the first
  // such pair, so only a failing scan needs the pass that lists them all.
  bool classified_by_writes = true;
  for (MOpId a = 0; a < n && classified_by_writes; ++a) {
    classified_by_writes = trace.is_update[a] == h.mop(a).is_update();
  }
  if (!classified_by_writes || scanned.constraint_violation.has_value()) {
    util::for_each_unordered_pair(closed, updates, [&](std::size_t a, std::size_t b) {
      std::ostringstream out;
      out << "P5.2: updates m" << a << ", m" << b << " unordered";
      report.fail(out.str());
      return true;
    });
  }

  // P5.3 / P5.4 on the closed relation (P5.5/P5.6 in the paper): ts is
  // monotonic along ~>H and strictly increases on written components. They
  // hold on every closed pair iff they hold on its Hasse edges (audit.hpp),
  // so the edges decide; only a failing run takes the all-pairs pass that
  // lists every violating pair.
  const auto holds_on = [&](MOpId b, MOpId a) {
    if (!ts(b).pointwise_leq(ts(a))) return false;
    for (const ObjectId x : h.mop(a).wobjects()) {
      if (!(ts(b)[x] < ts(a)[x])) return false;
    }
    return true;
  };
  bool hasse_ok = true;
  {
    const util::BitRelation hasse = closed.transitive_reduction();
    for (MOpId b = 0; b < n; ++b) {
      util::for_each_bit(hasse.row_words(b), words, [&](std::size_t a) {
        hasse_ok = hasse_ok && holds_on(b, static_cast<MOpId>(a));
      });
    }
  }
  if (!hasse_ok) {
    for (MOpId b = 0; b < n; ++b) {
      for (MOpId a = 0; a < n; ++a) {
        if (a == b || !closed.has(b, a)) continue;
        if (!ts(b).pointwise_leq(ts(a))) {
          std::ostringstream out;
          out << "P5.3: m" << b << " ~> m" << a << " but ts(m" << b << ")="
              << ts(b).to_string() << " !<= ts(m" << a << ")=" << ts(a).to_string();
          report.fail(out.str());
        }
        for (const ObjectId x : h.mop(a).wobjects()) {
          if (!(ts(b)[x] < ts(a)[x])) {
            std::ostringstream out;
            out << "P5.4: m" << b << " ~> m" << a << ", x" << x << " in wobjects(m" << a
                << ") but ts[x] not strictly increasing";
            report.fail(out.str());
          }
        }
      }
    }
  }

  // P5.7 / P5.8: reads-from pins versions.
  for (MOpId alpha = 0; alpha < n; ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      if (read.reads_from == kInitialMOp) {
        // Version 0: the reader must not have advanced x past the write
        // it (possibly) performs itself.
        const std::uint64_t expected = h.mop(alpha).writes(read.object) ? 1 : 0;
        if (ts(alpha)[read.object] < expected) {
          std::ostringstream out;
          out << "P5.7/8(init): m" << alpha << " reads x" << read.object
              << " from init but ts[x]=" << ts(alpha)[read.object];
          report.fail(out.str());
        }
        continue;
      }
      const MOpId beta = read.reads_from;
      const ObjectId x = read.object;
      if (!h.mop(alpha).writes(x)) {
        if (ts(beta)[x] != ts(alpha)[x]) {
          std::ostringstream out;
          out << "P5.7: m" << alpha << " reads x" << x << " from m" << beta
              << " but ts(beta)[x]=" << ts(beta)[x] << " != ts(alpha)[x]="
              << ts(alpha)[x];
          report.fail(out.str());
        }
      } else {
        if (ts(beta)[x] + 1 != ts(alpha)[x]) {
          std::ostringstream out;
          out << "P5.8: m" << alpha << " reads+writes x" << x << " from m" << beta
              << " but ts(beta)[x]=" << ts(beta)[x] << ", ts(alpha)[x]="
              << ts(alpha)[x];
          report.fail(out.str());
        }
      }
    }
  }

  // Derived guarantees: Lemma 8 (WW-constraint) and Lemma 9 (legality).
  if (scanned.constraint_violation.has_value()) {
    report.fail("Lemma 8 consequence failed: " + scanned.constraint_violation->to_string());
  }
  if (scanned.legality_violation.has_value()) {
    report.fail("Lemma 9 consequence failed: " + scanned.legality_violation->to_string());
  }

  return report;
}

}  // namespace mocc::core
