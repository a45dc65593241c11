// Tests for the discrete-event simulator and delay models.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "api/system.hpp"
#include "core/serialize.hpp"
#include "sim/delay.hpp"
#include "sim/simulator.hpp"
#include "sim/wire_kinds.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mocc::sim {
namespace {

/// Records everything it receives.
class Recorder final : public Actor {
 public:
  void on_message(Context&, const Message& message) override {
    received.push_back(message);
  }
  void on_timer(Context&, std::uint64_t timer_id) override {
    timers.push_back(timer_id);
  }
  std::vector<Message> received;
  std::vector<std::uint64_t> timers;
};

/// Sends a burst of numbered messages to node 1 at start.
class Burster final : public Actor {
 public:
  explicit Burster(int count) : count_(count) {}
  void on_start(Context& ctx) override {
    for (int i = 0; i < count_; ++i) {
      util::ByteWriter w;
      w.put_u32(static_cast<std::uint32_t>(i));
      ctx.send(1, /*kind=*/7, w.take());
    }
  }
  void on_message(Context&, const Message&) override {}

 private:
  int count_;
};

TEST(Simulator, DeliversMessages) {
  Simulator sim(std::make_unique<ConstantDelay>(5), 1);
  sim.add_node(std::make_unique<Burster>(3));
  const auto rx = sim.add_node(std::make_unique<Recorder>());
  sim.run();
  auto& recorder = dynamic_cast<Recorder&>(sim.actor(rx));
  EXPECT_EQ(recorder.received.size(), 3u);
  EXPECT_EQ(sim.now(), 5u);  // all delivered at t=5
}

TEST(Simulator, ConstantDelayPreservesFifo) {
  Simulator sim(std::make_unique<ConstantDelay>(5), 1);
  sim.add_node(std::make_unique<Burster>(10));
  const auto rx = sim.add_node(std::make_unique<Recorder>());
  sim.run();
  auto& recorder = dynamic_cast<Recorder&>(sim.actor(rx));
  for (std::size_t i = 0; i < recorder.received.size(); ++i) {
    util::ByteReader r(recorder.received[i].payload);
    EXPECT_EQ(r.get_u32(), i);  // same delay + seq tie-break = FIFO
  }
}

TEST(Simulator, ReorderDelayActuallyReorders) {
  Simulator sim(make_delay_model("reorder"), 12345);
  sim.add_node(std::make_unique<Burster>(50));
  const auto rx = sim.add_node(std::make_unique<Recorder>());
  sim.run();
  auto& recorder = dynamic_cast<Recorder&>(sim.actor(rx));
  ASSERT_EQ(recorder.received.size(), 50u);
  bool out_of_order = false;
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < recorder.received.size(); ++i) {
    util::ByteReader r(recorder.received[i].payload);
    const auto id = r.get_u32();
    if (i > 0 && id < prev) out_of_order = true;
    prev = id;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim(make_delay_model("uniform"), 777);
    sim.add_node(std::make_unique<Burster>(20));
    const auto rx = sim.add_node(std::make_unique<Recorder>());
    sim.run();
    auto& recorder = dynamic_cast<Recorder&>(sim.actor(rx));
    std::vector<std::uint32_t> order;
    for (const auto& m : recorder.received) {
      util::ByteReader r(m.payload);
      order.push_back(r.get_u32());
    }
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, TimersFire) {
  class TimerActor final : public Actor {
   public:
    void on_start(Context& ctx) override {
      ctx.set_timer(10, 1);
      ctx.set_timer(5, 2);
    }
    void on_message(Context&, const Message&) override {}
    void on_timer(Context& ctx, std::uint64_t id) override {
      fired.emplace_back(ctx.now(), id);
    }
    std::vector<std::pair<SimTime, std::uint64_t>> fired;
  };
  Simulator sim(std::make_unique<ConstantDelay>(1), 1);
  const auto node = sim.add_node(std::make_unique<TimerActor>());
  sim.run();
  auto& actor = dynamic_cast<TimerActor&>(sim.actor(node));
  ASSERT_EQ(actor.fired.size(), 2u);
  EXPECT_EQ(actor.fired[0], (std::pair<SimTime, std::uint64_t>{5, 2}));
  EXPECT_EQ(actor.fired[1], (std::pair<SimTime, std::uint64_t>{10, 1}));
}

TEST(Simulator, ScheduledCallsRunAtRequestedTime) {
  Simulator sim(std::make_unique<ConstantDelay>(1), 1);
  sim.add_node(std::make_unique<Recorder>());
  std::vector<SimTime> at;
  sim.schedule_call(30, [&] { at.push_back(sim.now()); });
  sim.schedule_call(10, [&] { at.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(at, (std::vector<SimTime>{10, 30}));
}

TEST(Simulator, MaxTimeStopsEarly) {
  Simulator sim(std::make_unique<ConstantDelay>(1), 1);
  sim.add_node(std::make_unique<Recorder>());
  bool ran = false;
  sim.schedule_call(100, [&] { ran = true; });
  sim.run(/*max_time=*/50);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, ResumesAfterMaxTimeWithoutLosingEvents) {
  Simulator sim(std::make_unique<ConstantDelay>(1), 1);
  sim.add_node(std::make_unique<Recorder>());
  bool ran = false;
  sim.schedule_call(100, [&] { ran = true; });
  sim.run(/*max_time=*/50);
  ASSERT_FALSE(ran);
  sim.run();  // resume: the event at t=100 must still fire
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, TrafficStatsCountMessagesAndBytes) {
  Simulator sim(std::make_unique<ConstantDelay>(2), 1);
  sim.add_node(std::make_unique<Burster>(4));
  sim.add_node(std::make_unique<Recorder>());
  sim.run();
  EXPECT_EQ(sim.traffic().messages, 4u);
  EXPECT_EQ(sim.traffic().bytes, 16u);  // 4 bytes each
  EXPECT_EQ(sim.traffic().messages_by_kind.at(7), 4u);
}

TEST(Simulator, SendToOthersSkipsSelf) {
  class Broadcaster final : public Actor {
   public:
    void on_start(Context& ctx) override { ctx.send_to_others(3, {}); }
    void on_message(Context&, const Message& m) override { received.push_back(m); }
    std::vector<Message> received;
  };
  Simulator sim(std::make_unique<ConstantDelay>(1), 1);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(sim.add_node(std::make_unique<Broadcaster>()));
  sim.run();
  for (const auto node : nodes) {
    auto& actor = dynamic_cast<Broadcaster&>(sim.actor(node));
    EXPECT_EQ(actor.received.size(), 3u);  // from every other node
    for (const auto& m : actor.received) EXPECT_NE(m.from, node);
  }
}

// ------------------------------------------------------------ wire kinds

TEST(WireKinds, RegistryPartitionsTheKindSpace) {
  EXPECT_TRUE(wire::kind_ranges_sorted_and_disjoint());
  // Historical values are load-bearing (golden bench artifacts key
  // traffic by numeric kind).
  EXPECT_EQ(wire::reliable_link_kind(0), 50u);
  EXPECT_EQ(wire::abcast_kind(0), 100u);
  EXPECT_EQ(wire::protocols_kind(0), 200u);
  EXPECT_EQ(wire::component_of(0), "app");
  EXPECT_EQ(wire::component_of(51), "reliable_link");
  EXPECT_EQ(wire::component_of(110), "abcast");
  EXPECT_EQ(wire::component_of(215), "protocols");
  EXPECT_EQ(wire::component_of(300), "unregistered");
  EXPECT_TRUE(wire::is_registered(wire::kProtocolsLast));
  EXPECT_FALSE(wire::is_registered(wire::kProtocolsLast + 1));
}

TEST(WireKinds, KindHelperAbortsOutsideTheRange) {
  // reliable_link owns [50, 99]: offset 50 would collide with abcast.
  EXPECT_DEATH((void)wire::reliable_link_kind(50), "outside the component");
}

/// Sends one message with an out-of-registry kind at start.
class RogueSender final : public Actor {
 public:
  void on_start(Context& ctx) override { ctx.send(1, /*kind=*/5000, {}); }
  void on_message(Context&, const Message&) override {}
};

TEST(WireKindsDeath, SimulatorRejectsUnregisteredKindInDebug) {
#ifdef NDEBUG
  GTEST_SKIP() << "MOCC_DEBUG_ASSERT compiles away under NDEBUG";
#else
  EXPECT_DEATH(
      {
        Simulator sim(std::make_unique<ConstantDelay>(1), 1);
        sim.add_node(std::make_unique<RogueSender>());
        sim.add_node(std::make_unique<Recorder>());
        sim.run();
      },
      "is_registered");
#endif
}

// ---------------------------------------------------------------- delays

TEST(Delay, ConstantAlwaysSame) {
  util::Rng rng(1);
  ConstantDelay d(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(0, 1, rng), 9u);
}

TEST(Delay, ConstantClampsToOne) {
  util::Rng rng(1);
  ConstantDelay d(0);
  EXPECT_EQ(d.sample(0, 1, rng), 1u);
}

TEST(Delay, UniformWithinBounds) {
  util::Rng rng(2);
  UniformDelay d(5, 15);
  for (int i = 0; i < 500; ++i) {
    const auto v = d.sample(0, 1, rng);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 15u);
  }
}

TEST(Delay, ExponentialPositiveAndCapped) {
  util::Rng rng(3);
  ExponentialDelay d(10.0, 50);
  for (int i = 0; i < 500; ++i) {
    const auto v = d.sample(0, 1, rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 50u);
  }
}

TEST(Delay, FactoryKnowsAllNames) {
  for (const char* name :
       {"constant", "lan", "wan", "uniform", "reorder", "exponential"}) {
    EXPECT_NE(make_delay_model(name), nullptr) << name;
  }
}

// ------------------------------------------------------ event order oracle

/// Mirrors the simulator's scheduling: every send, timer and scheduled
/// call gets the next stamp (the order the simulator assigns its seq in)
/// and the virtual time it must fire at, kept in a reference ordered set.
/// Each dispatch must be the smallest (time, stamp) still pending.
struct OrderOracle {
  static constexpr SimTime kDelay = 3;
  Simulator* sim = nullptr;
  util::Rng rng{11};
  std::uint64_t next_stamp = 0;
  std::size_t budget = 3000;  ///< events still allowed to be scheduled
  std::set<std::pair<SimTime, std::uint64_t>> pending;
  std::vector<std::pair<SimTime, std::uint64_t>> dispatched;
  std::size_t mismatches = 0;

  std::uint64_t stamp(SimTime at) {
    pending.emplace(at, next_stamp);
    return next_stamp++;
  }
  void send(Context& ctx, NodeId to) {
    util::ByteWriter w;
    w.put_u64(stamp(ctx.now() + kDelay));
    ctx.send(to, /*kind=*/9, w.take());
  }
  void timer(Context& ctx, SimTime delay) {
    const std::uint64_t id = stamp(ctx.now() + std::max<SimTime>(1, delay));
    ctx.set_timer(delay, id);
  }
  void call(SimTime at) {
    const std::uint64_t id = stamp(std::max(at, sim->now()));
    sim->schedule_call(at, [this, id] { fired(id); });
  }
  void fired(std::uint64_t id) {
    const std::pair<SimTime, std::uint64_t> got{sim->now(), id};
    if (pending.empty() || *pending.begin() != got) ++mismatches;
    pending.erase(got);
    dispatched.push_back(got);
    react();
  }
  /// Schedules 0-3 follow-ups from inside the dispatch (so freed queue
  /// slots are reused), mixing kinds and equal and unequal times.
  void react() {
    const auto follow_ups = static_cast<std::size_t>(rng.next_below(4));
    for (std::size_t i = 0; i < follow_ups && budget > 0; ++i, --budget) {
      switch (rng.next_below(5)) {
        case 0:
          call(sim->now());  // same instant, after everything already due
          break;
        case 1:
          call(sim->now() + kDelay);  // ties with this instant's sends
          break;
        case 2:
          call(sim->now() - std::min<SimTime>(sim->now(), 2));  // clamped
          break;
        default:
          pending_actions.push_back(rng.next_below(3));
          break;
      }
    }
  }
  /// Actor-side follow-ups: 0 = send to the peer, 1 = timer tying with a
  /// send, 2 = one-tick timer.
  std::vector<std::uint64_t> pending_actions;
};

class OracleActor final : public Actor {
 public:
  explicit OracleActor(OrderOracle& oracle) : oracle_(oracle) {}
  void on_start(Context& ctx) override {
    for (int i = 0; i < 4; ++i) {
      oracle_.send(ctx, peer(ctx));
      oracle_.timer(ctx, OrderOracle::kDelay);
      oracle_.timer(ctx, 0);
    }
  }
  void on_message(Context& ctx, const Message& message) override {
    util::ByteReader r(message.payload);
    oracle_.fired(r.get_u64());
    act(ctx);
  }
  void on_timer(Context& ctx, std::uint64_t timer_id) override {
    oracle_.fired(timer_id);
    act(ctx);
  }

 private:
  static NodeId peer(const Context& ctx) { return ctx.self() == 0 ? 1 : 0; }
  void act(Context& ctx) {
    std::vector<std::uint64_t> actions;
    actions.swap(oracle_.pending_actions);
    for (const std::uint64_t action : actions) {
      if (action == 0) oracle_.send(ctx, peer(ctx));
      if (action == 1) oracle_.timer(ctx, OrderOracle::kDelay);
      if (action == 2) oracle_.timer(ctx, 1);
    }
  }
  OrderOracle& oracle_;
};

TEST(Simulator, DispatchOrderIsStrictTimeThenSeq) {
  OrderOracle oracle;
  Simulator sim(std::make_unique<ConstantDelay>(OrderOracle::kDelay), 1);
  oracle.sim = &sim;
  sim.add_node(std::make_unique<OracleActor>(oracle));
  sim.add_node(std::make_unique<OracleActor>(oracle));
  for (SimTime t : {0, 3, 3, 6, 1}) oracle.call(t);
  sim.run();

  EXPECT_EQ(oracle.mismatches, 0u);
  EXPECT_TRUE(oracle.pending.empty());
  EXPECT_EQ(sim.queue_depth(), 0u);
  EXPECT_EQ(oracle.dispatched.size(), oracle.next_stamp);
  EXPECT_EQ(oracle.budget, 0u);  // the run went deep enough to reuse slots
  for (std::size_t i = 1; i < oracle.dispatched.size(); ++i) {
    EXPECT_LT(oracle.dispatched[i - 1], oracle.dispatched[i]) << "dispatch " << i;
  }
  // Equal-time groups of every kind were exercised.
  std::size_t ties = 0;
  for (std::size_t i = 1; i < oracle.dispatched.size(); ++i) {
    ties += oracle.dispatched[i - 1].first == oracle.dispatched[i].first ? 1 : 0;
  }
  EXPECT_GT(ties, oracle.dispatched.size() / 2);
}

/// One lossy mlin run: reliable link on, drops and duplicates injected.
struct LossyRun {
  TrafficStats traffic;
  fault::LinkStats link;
  std::string history;
};

LossyRun run_lossy_mlin(std::uint64_t seed) {
  api::SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 5;
  config.num_objects = 16;
  config.delay = "lan";
  config.seed = seed;
  config.reliable_link = true;
  config.link.initial_rto = 40;
  config.faults.seed = seed ^ 0xfa17;
  config.faults.default_link.drop_rate = 0.1;
  config.faults.default_link.duplicate_rate = 0.1;
  api::System system(config);
  protocols::WorkloadParams params;
  params.ops_per_process = 40;
  params.update_ratio = 0.7;
  params.footprint = 2;
  const protocols::WorkloadReport report = system.run_workload(params);
  EXPECT_EQ(report.queries + report.updates, 200u);
  return LossyRun{system.traffic(), system.link_stats(),
                  core::serialize_history(system.history())};
}

TEST(Simulator, LossyReliableLinkRunIsDeterministic) {
  const LossyRun a = run_lossy_mlin(5);
  const LossyRun b = run_lossy_mlin(5);
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
  EXPECT_EQ(a.traffic.bytes, b.traffic.bytes);
  EXPECT_EQ(a.traffic.messages_by_kind, b.traffic.messages_by_kind);
  EXPECT_EQ(a.traffic.bytes_by_kind, b.traffic.bytes_by_kind);
  EXPECT_EQ(a.link.data_sent, b.link.data_sent);
  EXPECT_EQ(a.link.retransmits, b.link.retransmits);
  EXPECT_EQ(a.link.acks_sent, b.link.acks_sent);
  EXPECT_EQ(a.link.delivered, b.link.delivered);
  EXPECT_EQ(a.link.duplicates_suppressed, b.link.duplicates_suppressed);
  EXPECT_EQ(a.link.exhausted, b.link.exhausted);
  EXPECT_EQ(a.history, b.history);
  // The faults really fired: the link retransmitted and deduplicated.
  EXPECT_GT(a.link.retransmits, 0u);
  EXPECT_GT(a.link.duplicates_suppressed, 0u);
  EXPECT_EQ(a.link.exhausted, 0u);
  // Per-kind tallies add up to the totals.
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (const auto& [kind, count] : a.traffic.messages_by_kind) messages += count;
  for (const auto& [kind, count] : a.traffic.bytes_by_kind) bytes += count;
  EXPECT_EQ(messages, a.traffic.messages);
  EXPECT_EQ(bytes, a.traffic.bytes);
}

TEST(DelayDeath, FactoryRejectsUnknown) {
  EXPECT_DEATH((void)make_delay_model("carrier-pigeon"), "unknown delay model");
}

}  // namespace
}  // namespace mocc::sim
