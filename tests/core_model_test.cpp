// Unit tests for the history model: m-operations, histories, and the
// order-relation builders (§2).
#include <string>

#include <gtest/gtest.h>

#include "core/history.hpp"
#include "core/moperation.hpp"
#include "core/relations.hpp"

namespace mocc::core {
namespace {

MOperation mop(ProcessId p, std::vector<Operation> ops, Time inv, Time resp) {
  return MOperation(p, std::move(ops), inv, resp);
}

// ------------------------------------------------------------ MOperation

TEST(MOperation, DerivesObjectSets) {
  const MOperation m = mop(0,
                           {Operation::read(0, 0, kInitialMOp),
                            Operation::write(1, 5), Operation::write(2, 6)},
                           1, 2);
  EXPECT_EQ(m.objects(), (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_EQ(m.robjects(), (std::vector<ObjectId>{0}));
  EXPECT_EQ(m.wobjects(), (std::vector<ObjectId>{1, 2}));
  EXPECT_TRUE(m.is_update());
  EXPECT_TRUE(m.writes(1));
  EXPECT_FALSE(m.writes(0));
  EXPECT_TRUE(m.reads(0));
  EXPECT_TRUE(m.touches(2));
}

TEST(MOperation, QueryDetection) {
  const MOperation m = mop(0, {Operation::read(0, 0, kInitialMOp)}, 1, 2);
  EXPECT_TRUE(m.is_query());
  EXPECT_FALSE(m.is_update());
}

TEST(MOperation, InternalReadsExcluded) {
  // w(x)5 then r(x)5: the read is satisfied internally — no external
  // constraint (paper §2.2: "we ignore such read operations").
  const MOperation m = mop(0,
                           {Operation::write(0, 5), Operation::read(0, 5, 0),
                            Operation::read(1, 0, kInitialMOp)},
                           1, 2);
  ASSERT_EQ(m.external_reads().size(), 1u);
  EXPECT_EQ(m.external_reads()[0].object, 1u);
}

TEST(MOperation, ReadBeforeOwnWriteIsExternal) {
  // r(x) then w(x): the read happened before the write — external.
  const MOperation m = mop(0,
                           {Operation::read(0, 0, kInitialMOp), Operation::write(0, 5)},
                           1, 2);
  ASSERT_EQ(m.external_reads().size(), 1u);
  EXPECT_EQ(m.external_reads()[0].object, 0u);
}

TEST(MOperation, FinalWritesKeepLastPerObject) {
  // Overwritten internal writes are discarded (paper §2.2).
  const MOperation m = mop(0,
                           {Operation::write(0, 1), Operation::write(0, 2),
                            Operation::write(1, 3)},
                           1, 2);
  ASSERT_EQ(m.final_writes().size(), 2u);
  EXPECT_EQ(m.final_write_value(0), 2);
  EXPECT_EQ(m.final_write_value(1), 3);
}

TEST(MOperationDeath, RespondBeforeInvokeAborts) {
  EXPECT_DEATH(mop(0, {}, 5, 2), "responds before");
}

// --------------------------------------------------------------- History

TEST(History, AddAssignsSequentialIds) {
  History h(2, 2);
  EXPECT_EQ(h.add(mop(0, {Operation::write(0, 1)}, 1, 2)), 0u);
  EXPECT_EQ(h.add(mop(1, {Operation::write(1, 2)}, 1, 2)), 1u);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.process_ops(0), (std::vector<MOpId>{0}));
  EXPECT_EQ(h.process_ops(1), (std::vector<MOpId>{1}));
}

TEST(HistoryDeath, OverlappingSameProcessAborts) {
  History h(1, 1);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  EXPECT_DEATH(h.add(mop(0, {Operation::write(0, 2)}, 5, 20)), "sequential");
}

TEST(History, WellFormedAfterConstruction) {
  History h(2, 1);
  h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  h.add(mop(0, {Operation::write(0, 2)}, 3, 4));
  h.add(mop(1, {Operation::read(0, 1, 0)}, 2, 3));
  EXPECT_TRUE(h.well_formed());
}

// value_coherent's four complaints, byte for byte (the message is built
// only on the failing read, so this pins its wording).
TEST(History, ValueCoherenceComplaintsAreExact) {
  std::string why;
  {
    History h(1, 1);
    h.add(MOperation(0, {Operation::read(0, -2, kInitialMOp)}, 0, 1));
    EXPECT_FALSE(h.value_coherent(&why, /*initial_value=*/7));
    EXPECT_EQ(why, "m0 reads x0 = -2 from the initial write, whose value is 7");
    EXPECT_TRUE(h.value_coherent(nullptr, -2));
  }
  {
    History h(1, 2);
    h.add(MOperation(0, {Operation::read(1, 3, /*reads_from=*/7)}, 0, 1));
    EXPECT_FALSE(h.value_coherent(&why));
    EXPECT_EQ(why, "m0 reads x1 = 3 from m7, which does not exist");
  }
  {
    History h(2, 2);
    h.add(MOperation(0, {Operation::write(0, 1)}, 0, 1));
    h.add(MOperation(1, {Operation::read(1, 1, /*reads_from=*/0)}, 2, 3));
    EXPECT_FALSE(h.value_coherent(&why));
    EXPECT_EQ(why, "m1 reads x1 = 1 from m0, which never writes x1");
  }
  {
    History h(2, 1);
    h.add(MOperation(0, {Operation::write(0, 1), Operation::write(0, 2)}, 0, 1));
    h.add(MOperation(1, {Operation::read(0, 1, /*reads_from=*/0)}, 2, 3));
    EXPECT_FALSE(h.value_coherent(&why));
    EXPECT_EQ(why, "m1 reads x0 = 1 from m0, whose final write stores 2");
    why = "untouched";
    EXPECT_FALSE(h.value_coherent(nullptr));
    EXPECT_EQ(why, "untouched");
  }
}

TEST(History, RfObjects) {
  History h(2, 2);
  const auto w = h.add(mop(0, {Operation::write(0, 1), Operation::write(1, 2)}, 1, 2));
  const auto r = h.add(
      mop(1, {Operation::read(0, 1, w), Operation::read(1, 2, w)}, 3, 4));
  EXPECT_EQ(h.rfobjects(r, w), (std::vector<ObjectId>{0, 1}));
  EXPECT_TRUE(h.reads_from(w, r));
  EXPECT_FALSE(h.reads_from(r, w));
}

TEST(History, ConflictRequiresSharedObjectWithWrite) {
  History h(3, 3);
  const auto a = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  const auto b = h.add(mop(1, {Operation::read(0, 1, a)}, 3, 4));
  const auto c = h.add(mop(2, {Operation::read(1, 0, kInitialMOp)}, 3, 4));
  EXPECT_TRUE(h.conflict(a, b));   // write-read on x0
  EXPECT_FALSE(h.conflict(b, c));  // disjoint objects
  EXPECT_FALSE(h.conflict(a, a));  // never self-conflicting
}

TEST(History, ReadersDoNotConflict) {
  History h(2, 1);
  const auto a = h.add(mop(0, {Operation::read(0, 0, kInitialMOp)}, 1, 2));
  const auto b = h.add(mop(1, {Operation::read(0, 0, kInitialMOp)}, 1, 2));
  EXPECT_FALSE(h.conflict(a, b));
}

TEST(History, InterfereTriple) {
  // δ writes x; α reads x from δ; η writes x  =>  interfere(α, δ, η).
  History h(3, 1);
  const auto delta = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
  const auto eta = h.add(mop(1, {Operation::write(0, 2)}, 3, 4));
  const auto alpha = h.add(mop(2, {Operation::read(0, 1, delta)}, 5, 6));
  EXPECT_TRUE(h.interfere(alpha, delta, eta));
  EXPECT_FALSE(h.interfere(alpha, eta, delta));  // α does not read from η
  EXPECT_FALSE(h.interfere(delta, alpha, eta));  // δ does not read at all
}

TEST(History, EquivalenceSamePerProcessContent) {
  History h1(2, 1);
  const auto w1 = h1.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  h1.add(mop(1, {Operation::read(0, 7, w1)}, 3, 4));

  // Same content, different times, different addition order.
  History h2(2, 1);
  h2.add(mop(1, {Operation::read(0, 7, 1)}, 30, 40));
  h2.add(mop(0, {Operation::write(0, 7)}, 10, 20));

  EXPECT_TRUE(h1.equivalent(h2));
  EXPECT_TRUE(h2.equivalent(h1));
}

TEST(History, EquivalenceBrokenByDifferentReadsFrom) {
  History h1(3, 1);
  const auto a = h1.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  h1.add(mop(1, {Operation::write(0, 7)}, 1, 2));
  h1.add(mop(2, {Operation::read(0, 7, a)}, 3, 4));

  History h2(3, 1);
  h2.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  const auto b2 = h2.add(mop(1, {Operation::write(0, 7)}, 1, 2));
  h2.add(mop(2, {Operation::read(0, 7, b2)}, 3, 4));

  EXPECT_FALSE(h1.equivalent(h2));
}

TEST(History, EquivalenceBrokenByDifferentValues) {
  History h1(1, 1);
  h1.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  History h2(1, 1);
  h2.add(mop(0, {Operation::write(0, 8)}, 1, 2));
  EXPECT_FALSE(h1.equivalent(h2));
}

TEST(History, DeriveReadsFromUniqueValues) {
  History h(2, 1);
  h.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  // Read with an unresolved link (kInitialMOp placeholder, value 7).
  h.add(MOperation(1, {Operation{OpType::kRead, 0, 7, kInitialMOp}}, 3, 4));
  ASSERT_TRUE(h.derive_reads_from());
  EXPECT_TRUE(h.reads_from(0, 1));
}

TEST(History, DeriveReadsFromInitialValue) {
  History h(1, 1);
  h.add(MOperation(0, {Operation{OpType::kRead, 0, 0, 99}}, 1, 2));
  ASSERT_TRUE(h.derive_reads_from());
  EXPECT_EQ(h.mop(0).external_reads()[0].reads_from, kInitialMOp);
}

TEST(History, DeriveReadsFromFailsOnAmbiguousWrites) {
  History h(2, 1);
  h.add(mop(0, {Operation::write(0, 7)}, 1, 2));
  h.add(mop(1, {Operation::write(0, 7)}, 3, 4));
  EXPECT_FALSE(h.derive_reads_from());
}

TEST(History, DeriveReadsFromFailsOnOrphanValue) {
  History h(1, 1);
  h.add(MOperation(0, {Operation{OpType::kRead, 0, 42, kInitialMOp}}, 1, 2));
  EXPECT_FALSE(h.derive_reads_from());
}

// -------------------------------------------------------------- relations

class RelationsFixture : public ::testing::Test {
 protected:
  // P0: α = w(x0)1        [1, 2]
  //     β = r(x0)1 (α)    [5, 6]
  // P1: γ = w(x1)2        [3, 4]
  //     δ = r(x0)1 (α)    [7, 8]
  RelationsFixture() : h(2, 2) {
    alpha = h.add(mop(0, {Operation::write(0, 1)}, 1, 2));
    gamma = h.add(mop(1, {Operation::write(1, 2)}, 3, 4));
    beta = h.add(mop(0, {Operation::read(0, 1, alpha)}, 5, 6));
    delta = h.add(mop(1, {Operation::read(0, 1, alpha)}, 7, 8));
  }
  History h;
  MOpId alpha, beta, gamma, delta;
};

TEST_F(RelationsFixture, ProcessOrder) {
  const auto po = process_order(h);
  EXPECT_TRUE(po.has(alpha, beta));
  EXPECT_TRUE(po.has(gamma, delta));
  EXPECT_FALSE(po.has(alpha, gamma));
  EXPECT_FALSE(po.has(beta, alpha));
  EXPECT_EQ(po.pair_count(), 2u);
}

TEST_F(RelationsFixture, ReadsFromOrder) {
  const auto rf = reads_from_order(h);
  EXPECT_TRUE(rf.has(alpha, beta));
  EXPECT_TRUE(rf.has(alpha, delta));
  EXPECT_EQ(rf.pair_count(), 2u);
}

TEST_F(RelationsFixture, RealTimeOrder) {
  const auto rt = real_time_order(h);
  EXPECT_TRUE(rt.has(alpha, gamma));  // resp 2 < inv 3
  EXPECT_TRUE(rt.has(alpha, beta));
  EXPECT_TRUE(rt.has(gamma, beta));   // resp 4 < inv 5
  EXPECT_TRUE(rt.has(beta, delta));
  EXPECT_FALSE(rt.has(beta, gamma));
}

TEST_F(RelationsFixture, ObjectOrderRequiresSharedObject) {
  const auto oo = object_order(h);
  EXPECT_TRUE(oo.has(alpha, beta));    // share x0, real-time ordered
  EXPECT_FALSE(oo.has(alpha, gamma));  // disjoint objects
  EXPECT_FALSE(oo.has(gamma, beta));   // disjoint objects
  EXPECT_TRUE(oo.has(alpha, delta));
}

TEST_F(RelationsFixture, BaseOrderPerCondition) {
  const auto msc = base_order(h, Condition::kMSequentialConsistency);
  EXPECT_TRUE(msc.has(alpha, beta));
  EXPECT_FALSE(msc.has(alpha, gamma));  // no real-time in m-SC

  const auto mlin = base_order(h, Condition::kMLinearizability);
  EXPECT_TRUE(mlin.has(alpha, gamma));

  const auto mnorm = base_order(h, Condition::kMNormality);
  EXPECT_FALSE(mnorm.has(alpha, gamma));  // disjoint objects: not ordered
  EXPECT_TRUE(mnorm.has(alpha, delta));
}

TEST_F(RelationsFixture, ConditionNames) {
  EXPECT_STREQ(condition_name(Condition::kMSequentialConsistency),
               "m-sequential-consistency");
  EXPECT_STREQ(condition_name(Condition::kMLinearizability), "m-linearizability");
  EXPECT_STREQ(condition_name(Condition::kMNormality), "m-normality");
}

TEST(Relations, OverlappingOpsNotRealTimeOrdered) {
  History h(2, 1);
  const auto a = h.add(mop(0, {Operation::write(0, 1)}, 1, 10));
  const auto b = h.add(mop(1, {Operation::write(0, 2)}, 5, 15));
  const auto rt = real_time_order(h);
  EXPECT_FALSE(rt.has(a, b));
  EXPECT_FALSE(rt.has(b, a));
}

TEST(Relations, TouchingIntervalsNotOrdered) {
  // resp(α) == inv(β): NOT ordered (strict <).
  History h(2, 1);
  const auto a = h.add(mop(0, {Operation::write(0, 1)}, 1, 5));
  const auto b = h.add(mop(1, {Operation::write(0, 2)}, 5, 9));
  EXPECT_FALSE(real_time_order(h).has(a, b));
}

}  // namespace
}  // namespace mocc::core
