// Differential oracle for the word-parallel checker kernels.
//
// The Theorem-7 fast check and the P5.x audit run on per-object writer
// bitsets, 64-bit row words, Hasse edges and a single closure. This file
// keeps the straightforward loops they replaced — the D4.6 triple scan,
// D4.11, all-pairs P5.1–P5.4, the all-pairs constraint scan, O(n^2) Kahn,
// pair-by-pair relation builders, set-based m-operation derivation — and
// requires identical answers on random histories, the paper's figures and
// mutated protocol recordings: the same verdicts, the same first
// LegalityViolation and ConstraintViolation, the same AuditReport strings
// in the same order, and the same fast_check witness.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/system.hpp"
#include "core/audit.hpp"
#include "core/constraints.hpp"
#include "core/fast_check.hpp"
#include "core/generate.hpp"
#include "core/legality.hpp"
#include "core/relations.hpp"
#include "util/relation.hpp"
#include "util/rng.hpp"

namespace mocc::core {
namespace {

using util::BitRelation;

// ------------------------------------------------------- reference loops

BitRelation ref_closure(const BitRelation& r) {
  BitRelation c = r;
  const std::size_t n = c.size();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!c.has(i, k)) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (c.has(k, j)) c.add(i, j);
      }
    }
  }
  return c;
}

bool ref_irreflexive(const BitRelation& r) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r.has(i, i)) return false;
  }
  return true;
}

std::vector<std::size_t> ref_in_degrees(const BitRelation& r) {
  std::vector<std::size_t> indeg(r.size(), 0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    for (std::size_t j = 0; j < r.size(); ++j) {
      if (r.has(i, j)) ++indeg[j];
    }
  }
  return indeg;
}

std::optional<std::vector<std::size_t>> ref_topological_order(const BitRelation& r) {
  const std::size_t n = r.size();
  std::vector<std::size_t> indeg = ref_in_degrees(r);
  std::vector<std::size_t> order;
  std::vector<bool> placed(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!placed[i] && indeg[i] == 0) {
        pick = i;
        break;
      }
    }
    if (pick == n) return std::nullopt;
    placed[pick] = true;
    order.push_back(pick);
    for (std::size_t j = 0; j < n; ++j) {
      if (!placed[j] && r.has(pick, j)) --indeg[j];
    }
  }
  return order;
}

BitRelation ref_process_order(const History& h) {
  BitRelation rel(h.size());
  for (ProcessId p = 0; p < h.num_processes(); ++p) {
    const auto& seq = h.process_ops(p);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      for (std::size_t j = i + 1; j < seq.size(); ++j) rel.add(seq[i], seq[j]);
    }
  }
  return rel;
}

BitRelation ref_real_time_order(const History& h) {
  BitRelation rel(h.size());
  for (MOpId a = 0; a < h.size(); ++a) {
    for (MOpId b = 0; b < h.size(); ++b) {
      if (a != b && h.mop(a).response() < h.mop(b).invoke()) rel.add(a, b);
    }
  }
  return rel;
}

bool ref_writes(const MOperation& m, ObjectId x) {
  for (const Operation& op : m.ops()) {
    if (op.type == OpType::kWrite && op.object == x) return true;
  }
  return false;
}

std::optional<LegalityViolation> ref_find_legality_violation(const History& h,
                                                             const BitRelation& order) {
  for (MOpId alpha = 0; alpha < h.size(); ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      const MOpId beta = read.reads_from;
      if (beta == kInitialMOp) {
        for (MOpId gamma = 0; gamma < h.size(); ++gamma) {
          if (gamma != alpha && ref_writes(h.mop(gamma), read.object) &&
              order.has(gamma, alpha)) {
            return LegalityViolation{alpha, kInitialMOp, gamma, read.object};
          }
        }
        continue;
      }
      for (MOpId gamma = 0; gamma < h.size(); ++gamma) {
        if (gamma == alpha || gamma == beta) continue;
        if (!ref_writes(h.mop(gamma), read.object)) continue;
        if (order.has(beta, gamma) && order.has(gamma, alpha)) {
          return LegalityViolation{alpha, beta, gamma, read.object};
        }
      }
    }
  }
  return std::nullopt;
}

BitRelation ref_rw_precedence(const History& h, const BitRelation& order) {
  BitRelation rw(h.size());
  for (MOpId alpha = 0; alpha < h.size(); ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      const MOpId beta = read.reads_from;
      for (MOpId gamma = 0; gamma < h.size(); ++gamma) {
        if (gamma == alpha || gamma == beta) continue;
        if (!ref_writes(h.mop(gamma), read.object)) continue;
        if (beta == kInitialMOp || order.has(beta, gamma)) rw.add(alpha, gamma);
      }
    }
  }
  return rw;
}

std::optional<ConstraintViolation> ref_constraint_violation(const History& h,
                                                            const BitRelation& order,
                                                            Constraint constraint) {
  const auto required = [&](MOpId a, MOpId b) {
    const MOperation& x = h.mop(a);
    const MOperation& y = h.mop(b);
    switch (constraint) {
      case Constraint::kOO:
        return h.conflict(a, b);
      case Constraint::kWW:
        return x.is_update() && y.is_update();
      case Constraint::kWO:
        for (const ObjectId obj : x.wobjects()) {
          if (ref_writes(y, obj)) return true;
        }
        return false;
    }
    return false;
  };
  for (MOpId a = 0; a < h.size(); ++a) {
    for (MOpId b = a + 1; b < h.size(); ++b) {
      if (required(a, b) && !order.has(a, b) && !order.has(b, a)) {
        return ConstraintViolation{constraint, a, b};
      }
    }
  }
  return std::nullopt;
}

FastCheckResult ref_fast_check(const History& h, const BitRelation& base,
                               Constraint constraint) {
  FastCheckResult result;
  const BitRelation closed = ref_closure(base);
  if (!ref_irreflexive(closed)) {
    result.detail = "base order is cyclic";
    return result;
  }
  if (const auto violation = ref_constraint_violation(h, closed, constraint)) {
    result.detail = violation->to_string();
    return result;
  }
  result.constraint_holds = true;
  if (const auto violation = ref_find_legality_violation(h, closed)) {
    result.detail = violation->to_string();
    return result;
  }
  result.legal = true;
  BitRelation merged = closed;
  merged.merge(ref_rw_precedence(h, closed));
  const BitRelation extended = ref_closure(merged);
  if (!ref_irreflexive(extended)) {
    result.detail = "extended relation ~+ is cyclic (Lemma 3/4 precondition violated)";
    return result;
  }
  const auto order = ref_topological_order(extended);
  result.admissible = true;
  result.witness = std::vector<MOpId>(order->begin(), order->end());
  return result;
}

AuditReport ref_audit(const History& h, const ProtocolTrace& trace) {
  AuditReport report;
  const std::size_t n = h.size();
  const BitRelation closed = ref_closure(trace.sync_order);
  if (!ref_irreflexive(closed)) {
    report.fail("sync order ~>H- is cyclic");
    return report;
  }
  auto ts = [&](MOpId id) -> const util::VersionVector& { return trace.timestamps[id]; };
  for (MOpId b = 0; b < n; ++b) {
    for (MOpId a = 0; a < n; ++a) {
      if (a == b || !trace.sync_order.has(b, a)) continue;
      if (!trace.is_update[b] && !trace.is_update[a] &&
          !(h.mop(b).response() < h.mop(a).invoke())) {
        std::ostringstream out;
        out << "P5.1: queries m" << b << " ~> m" << a
            << " ordered without real-time precedence";
        report.fail(out.str());
      }
    }
  }
  for (MOpId a = 0; a < n; ++a) {
    for (MOpId b = a + 1; b < n; ++b) {
      if (trace.is_update[a] && trace.is_update[b] && !closed.has(a, b) &&
          !closed.has(b, a)) {
        std::ostringstream out;
        out << "P5.2: updates m" << a << ", m" << b << " unordered";
        report.fail(out.str());
      }
    }
  }
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
  for (MOpId alpha = 0; alpha < n; ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      const ObjectId x = read.object;
      if (read.reads_from == kInitialMOp) {
        const std::uint64_t expected = h.mop(alpha).writes(x) ? 1 : 0;
        if (ts(alpha)[x] < expected) {
          std::ostringstream out;
          out << "P5.7/8(init): m" << alpha << " reads x" << x
              << " from init but ts[x]=" << ts(alpha)[x];
          report.fail(out.str());
        }
        continue;
      }
      const MOpId beta = read.reads_from;
      if (!h.mop(alpha).writes(x)) {
        if (ts(beta)[x] != ts(alpha)[x]) {
          std::ostringstream out;
          out << "P5.7: m" << alpha << " reads x" << x << " from m" << beta
              << " but ts(beta)[x]=" << ts(beta)[x] << " != ts(alpha)[x]="
              << ts(alpha)[x];
          report.fail(out.str());
        }
      } else if (ts(beta)[x] + 1 != ts(alpha)[x]) {
        std::ostringstream out;
        out << "P5.8: m" << alpha << " reads+writes x" << x << " from m" << beta
            << " but ts(beta)[x]=" << ts(beta)[x] << ", ts(alpha)[x]=" << ts(alpha)[x];
        report.fail(out.str());
      }
    }
  }
  if (auto violation = ref_constraint_violation(h, closed, Constraint::kWW)) {
    report.fail("Lemma 8 consequence failed: " + violation->to_string());
  }
  if (auto violation = ref_find_legality_violation(h, closed)) {
    report.fail("Lemma 9 consequence failed: " + violation->to_string());
  }
  return report;
}

/// The m-operation's derived sets as the set/map construction computed
/// them: objects, robjects, wobjects, external reads, final writes.
struct RefDerived {
  std::vector<ObjectId> objects, robjects, wobjects;
  std::vector<Operation> external_reads, final_writes;
};

RefDerived ref_derive(const MOperation& m) {
  std::set<ObjectId> all, read_set, write_set, written_so_far;
  std::map<ObjectId, std::size_t> last_write_pos;
  RefDerived out;
  for (std::size_t i = 0; i < m.ops().size(); ++i) {
    const Operation& op = m.ops()[i];
    all.insert(op.object);
    if (op.type == OpType::kRead) {
      read_set.insert(op.object);
      if (written_so_far.count(op.object) == 0) out.external_reads.push_back(op);
    } else {
      write_set.insert(op.object);
      written_so_far.insert(op.object);
      last_write_pos[op.object] = i;
    }
  }
  out.objects.assign(all.begin(), all.end());
  out.robjects.assign(read_set.begin(), read_set.end());
  out.wobjects.assign(write_set.begin(), write_set.end());
  for (const auto& [object, pos] : last_write_pos) out.final_writes.push_back(m.ops()[pos]);
  return out;
}

// ------------------------------------------------------------ comparison

std::string relation_diff(const BitRelation& got, const BitRelation& want) {
  if (got.size() != want.size()) return "universe sizes differ";
  for (std::size_t i = 0; i < got.size(); ++i) {
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (got.has(i, j) != want.has(i, j)) {
        return "pair (" + std::to_string(i) + ", " + std::to_string(j) + ") differs";
      }
    }
  }
  return "";
}

std::string describe(const std::optional<LegalityViolation>& v) {
  return v.has_value() ? v->to_string() : "legal";
}

std::string describe(const std::optional<ConstraintViolation>& v) {
  return v.has_value() ? v->to_string() : "holds";
}

void expect_same_ops(const std::vector<Operation>& got, const std::vector<Operation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(got[i].object, want[i].object);
    EXPECT_EQ(got[i].value, want[i].value);
    EXPECT_EQ(got[i].reads_from, want[i].reads_from);
  }
}

void expect_same_fast(const FastCheckResult& got, const FastCheckResult& want) {
  EXPECT_EQ(got.constraint_holds, want.constraint_holds);
  EXPECT_EQ(got.legal, want.legal);
  EXPECT_EQ(got.admissible, want.admissible);
  EXPECT_EQ(got.detail, want.detail);
  EXPECT_EQ(got.witness, want.witness);
}

/// Counts which verdict branches the comparisons took, so each test can
/// show it exercised more than the all-pass path.
struct Coverage {
  std::size_t illegal = 0;
  std::size_t constraint_failed = 0;
  std::size_t admissible = 0;
  std::size_t audit_failed = 0;
};

/// Updates ordered by (invoke, id): a WW synchronization order.
BitRelation ww_by_invoke(const History& h) {
  std::vector<MOpId> chain;
  for (MOpId id = 0; id < h.size(); ++id) {
    if (h.mop(id).is_update()) chain.push_back(id);
  }
  std::stable_sort(chain.begin(), chain.end(), [&](MOpId a, MOpId b) {
    return h.mop(a).invoke() < h.mop(b).invoke();
  });
  BitRelation ww(h.size());
  add_chain(ww, chain);
  return ww;
}

/// Every kernel on one history against its reference loop.
void compare_history(const History& h, Coverage& coverage) {
  for (MOpId id = 0; id < h.size(); ++id) {
    const MOperation& m = h.mop(id);
    const RefDerived want = ref_derive(m);
    EXPECT_EQ(m.objects(), want.objects) << "m" << id;
    EXPECT_EQ(m.robjects(), want.robjects) << "m" << id;
    EXPECT_EQ(m.wobjects(), want.wobjects) << "m" << id;
    expect_same_ops(m.external_reads(), want.external_reads);
    expect_same_ops(m.final_writes(), want.final_writes);
  }
  EXPECT_EQ(relation_diff(process_order(h), ref_process_order(h)), "");
  EXPECT_EQ(relation_diff(real_time_order(h), ref_real_time_order(h)), "");

  const BitRelation ww = ww_by_invoke(h);
  for (const Condition condition :
       {Condition::kMSequentialConsistency, Condition::kMLinearizability,
        Condition::kMNormality}) {
    SCOPED_TRACE(condition_name(condition));
    const BitRelation base = base_order(h, condition);
    const BitRelation closed = base.transitive_closure();
    ASSERT_EQ(relation_diff(closed, ref_closure(base)), "");
    const auto legality = find_legality_violation(h, closed);
    EXPECT_EQ(describe(legality), describe(ref_find_legality_violation(h, closed)));
    if (legality.has_value()) ++coverage.illegal;
    EXPECT_EQ(relation_diff(rw_precedence(h, closed), ref_rw_precedence(h, closed)), "");
    for (const Constraint c : {Constraint::kOO, Constraint::kWW, Constraint::kWO}) {
      const auto violation = find_constraint_violation(h, closed, c);
      EXPECT_EQ(describe(violation), describe(ref_constraint_violation(h, closed, c)));
      if (violation.has_value()) ++coverage.constraint_failed;
    }

    BitRelation synced = base;
    synced.merge(ww);
    using Claim = std::pair<const BitRelation*, Constraint>;
    for (const auto& [relation, constraint] :
         {Claim{&synced, Constraint::kWW}, Claim{&base, Constraint::kOO},
          Claim{&base, Constraint::kWO}}) {
      const FastCheckResult got = fast_check(h, *relation, constraint);
      expect_same_fast(got, ref_fast_check(h, *relation, constraint));
      if (got.admissible) ++coverage.admissible;
    }
  }
}

// ------------------------------------------------------------ histories

TEST(CheckerKernels, RandomHistoriesMatchReferenceLoops) {
  Coverage coverage;
  util::Rng rng(20260417);
  // Fewer trials at the larger sizes: the reference loops are cubic.
  for (const auto& [mops, trials] : {std::pair<std::size_t, int>{6, 4}, {24, 4}, {70, 3},
                                     {150, 2}, {260, 1}}) {
    for (int trial = 0; trial < trials; ++trial) {
      GeneratorParams params;
      params.num_processes = 2 + static_cast<std::size_t>(trial);
      params.num_objects = 3 + 2 * static_cast<std::size_t>(trial);
      params.num_mops = mops;
      params.max_ops_per_mop = 4;
      params.overlap = 0.1 * static_cast<double>(trial + 1);
      SCOPED_TRACE("mops=" + std::to_string(mops) + " trial=" + std::to_string(trial));
      {
        SCOPED_TRACE("admissible");
        compare_history(generate_admissible_history(params, rng), coverage);
      }
      {
        SCOPED_TRACE("perturbed");
        History h = generate_admissible_history(params, rng);
        perturb_reads_from(h, rng, 1 + static_cast<std::size_t>(trial));
        compare_history(h, coverage);
      }
      {
        SCOPED_TRACE("free");
        compare_history(generate_free_history(params, rng), coverage);
      }
    }
  }
  EXPECT_GT(coverage.illegal, 0u);
  EXPECT_GT(coverage.constraint_failed, 0u);
  EXPECT_GT(coverage.admissible, 0u);
}

TEST(CheckerKernels, PaperFiguresMatchReferenceLoops) {
  Coverage coverage;
  // Figure 1 (x=0, y=1, z=2).
  History fig1(3, 3);
  const MOpId alpha = fig1.add(MOperation(
      0, {Operation::write(0, 1), Operation::write(1, 1), Operation::write(2, 1)}, 1, 10,
      "alpha"));
  const MOpId eta =
      fig1.add(MOperation(1, {Operation::write(0, 2), Operation::write(1, 2)}, 2, 12, "eta"));
  fig1.add(MOperation(0, {Operation::read(0, 2, eta)}, 13, 14, "beta"));
  fig1.add(MOperation(1, {Operation::read(1, 2, eta)}, 13, 14, "mu"));
  fig1.add(MOperation(2, {Operation::read(2, 1, alpha), Operation::read(1, 2, eta)}, 15,
                      16, "delta"));
  compare_history(fig1, coverage);

  // Figures 2 and 3: H1 under the WW-constraint α ~ww~> γ ~ww~> δ.
  History h1(2, 2);
  const MOpId a =
      h1.add(MOperation(0, {Operation::read(0, 0, kInitialMOp), Operation::write(1, 2)}, 1,
                        2, "alpha"));
  const MOpId g = h1.add(MOperation(1, {Operation::write(0, 1)}, 1, 4, "gamma"));
  h1.add(MOperation(0, {Operation::read(1, 2, a)}, 5, 6, "beta"));
  const MOpId d = h1.add(MOperation(1, {Operation::write(1, 3)}, 5, 8, "delta"));
  compare_history(h1, coverage);
  BitRelation base = base_order(h1, Condition::kMSequentialConsistency);
  base.add(a, g);
  base.add(g, d);
  const FastCheckResult fig2 = fast_check(h1, base, Constraint::kWW);
  EXPECT_TRUE(fig2.admissible);
  expect_same_fast(fig2, ref_fast_check(h1, base, Constraint::kWW));
}

TEST(CheckerKernels, CyclicExtendedRelationMatchesReference) {
  // Independent reads of independent writes: the WO-constraint holds and
  // the history is legal, yet ~rw closes the cycle r1 ~> w1 ~> r2 ~> w2
  // ~> r1, so the single-closure fast check must report ~+ cyclic exactly
  // as the closing one did.
  History h(4, 2);
  const MOpId w1 = h.add(MOperation(0, {Operation::write(0, 1)}, 1, 2, "w1"));
  const MOpId w2 = h.add(MOperation(1, {Operation::write(1, 1)}, 1, 2, "w2"));
  h.add(MOperation(2, {Operation::read(0, 0, kInitialMOp), Operation::read(1, 1, w2)}, 1,
                   2, "r1"));
  h.add(MOperation(3, {Operation::read(1, 0, kInitialMOp), Operation::read(0, 1, w1)}, 1,
                   2, "r2"));
  const BitRelation base = base_order(h, Condition::kMSequentialConsistency);
  const FastCheckResult got = fast_check(h, base, Constraint::kWO);
  EXPECT_TRUE(got.legal);
  EXPECT_FALSE(got.admissible);
  EXPECT_EQ(got.detail, "extended relation ~+ is cyclic (Lemma 3/4 precondition violated)");
  expect_same_fast(got, ref_fast_check(h, base, Constraint::kWO));
}

TEST(CheckerKernels, RepeatedObjectOpsDeriveLikeSets) {
  // Program-order subtleties: reads after own writes are internal, the
  // last write per object is final, objects repeat out of order.
  const MOperation m(0,
                     {Operation::read(2, 0, kInitialMOp), Operation::write(1, 5),
                      Operation::read(1, 5, kInitialMOp), Operation::write(2, 7),
                      Operation::read(0, 0, kInitialMOp), Operation::write(1, 6),
                      Operation::read(2, 7, kInitialMOp), Operation::read(0, 0, kInitialMOp),
                      Operation::write(3, 1)},
                     1, 2);
  const RefDerived want = ref_derive(m);
  EXPECT_EQ(m.objects(), want.objects);
  EXPECT_EQ(m.robjects(), want.robjects);
  EXPECT_EQ(m.wobjects(), want.wobjects);
  expect_same_ops(m.external_reads(), want.external_reads);
  expect_same_ops(m.final_writes(), want.final_writes);
  EXPECT_EQ(m.final_write_value(1), 6);
}

// ------------------------------------------------- recorded executions

struct Recorded {
  History history;
  ProtocolTrace trace;
  BitRelation ww;
};

Recorded record(const std::string& protocol, std::uint64_t seed) {
  api::SystemConfig config;
  config.num_processes = 4;
  config.num_objects = 6;
  config.protocol = protocol;
  config.seed = seed;
  api::System system(config);
  protocols::WorkloadParams params;
  params.ops_per_process = 50;
  params.update_ratio = 0.5;
  params.zipf_skew = 0.8;
  system.run_workload(params);
  const History h = system.history();
  return Recorded{h,
                  system.recorder().build_trace(h, /*include_process_order=*/protocol == "mseq"),
                  system.recorder().build_ww_order()};
}

void compare_audit(const History& h, const ProtocolTrace& trace, Coverage& coverage) {
  const AuditReport got = audit_protocol_execution(h, trace);
  const AuditReport want = ref_audit(h, trace);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.violations, want.violations);
  if (!got.ok) ++coverage.audit_failed;
}

/// Every audit mutation shape of audit_test, at recorded-run scale.
TEST(CheckerKernels, AuditMutationsMatchReferenceLoops) {
  Coverage coverage;
  std::size_t p53_or_p54 = 0;
  for (const std::string protocol : {"mlin", "mseq"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(protocol + " seed " + std::to_string(seed));
      const Recorded r = record(protocol, seed);
      const History& h = r.history;
      const std::size_t n = h.size();
      ASSERT_GE(n, 100u);
      util::Rng rng(seed);

      compare_audit(h, r.trace, coverage);
      expect_same_fast(
          fast_check_condition(h, Condition::kMLinearizability, r.ww, Constraint::kWW),
          [&] {
            BitRelation base = base_order(h, Condition::kMLinearizability);
            base.merge(r.ww);
            return ref_fast_check(h, base, Constraint::kWW);
          }());

      // Swapped timestamps along sync-ordered pairs.
      for (int k = 0; k < 3; ++k) {
        ProtocolTrace t = r.trace;
        const auto b = static_cast<MOpId>(rng.next_below(n));
        const auto succ = t.sync_order.successors(b);
        if (succ.empty()) continue;
        std::swap(t.timestamps[b], t.timestamps[succ[succ.size() / 2]]);
        compare_audit(h, t, coverage);
      }
      // Zeroed written components and bumped reader versions.
      for (MOpId id = static_cast<MOpId>(seed); id < n; id += 37) {
        ProtocolTrace t = r.trace;
        auto entries = t.timestamps[id].entries();
        const auto& touched =
            h.mop(id).wobjects().empty() ? h.mop(id).objects() : h.mop(id).wobjects();
        if (touched.empty()) continue;
        entries[touched[0]] = h.mop(id).wobjects().empty() ? entries[touched[0]] + 3 : 0;
        t.timestamps[id] = util::VersionVector::from_entries(entries);
        compare_audit(h, t, coverage);
        const AuditReport report = audit_protocol_execution(h, t);
        for (const std::string& v : report.violations) {
          if (v.rfind("P5.3", 0) == 0 || v.rfind("P5.4", 0) == 0) {
            ++p53_or_p54;
            break;
          }
        }
      }
      // Rewired reads: the recorded trace against a history whose reads
      // name another writer of the same object.
      {
        History rewired = h;
        perturb_reads_from(rewired, rng, 3);
        compare_audit(rewired, r.trace, coverage);
        compare_history(rewired, coverage);
      }
      // Dropped ww edges: all of them, then a random sample.
      {
        ProtocolTrace t = r.trace;
        t.sync_order = reads_from_order(h);
        t.sync_order.merge(protocol == "mseq" ? process_order(h) : real_time_order(h));
        compare_audit(h, t, coverage);
        BitRelation thinned(n);
        for (MOpId a = 0; a < n; ++a) {
          for (const std::size_t b : r.trace.sync_order.successors(a)) {
            if (!r.ww.has(a, static_cast<MOpId>(b)) || rng.next_below(10) != 0) {
              thinned.add(a, b);
            }
          }
        }
        t.sync_order = thinned;
        compare_audit(h, t, coverage);
      }
      // A back edge (cycle) and the converse relation.
      {
        ProtocolTrace t = r.trace;
        const auto succ = t.sync_order.successors(0);
        ASSERT_FALSE(succ.empty());
        t.sync_order.add(succ.back(), 0);
        compare_audit(h, t, coverage);
        BitRelation reversed(n);
        for (MOpId a = 0; a < n; ++a) {
          for (const std::size_t b : r.trace.sync_order.successors(a)) reversed.add(b, a);
        }
        t.sync_order = reversed;
        compare_audit(h, t, coverage);
      }
    }
  }
  EXPECT_GT(coverage.audit_failed, 0u);
  EXPECT_GT(p53_or_p54, 0u);
}

}  // namespace
}  // namespace mocc::core
