// Deterministic discrete-event simulator for asynchronous message
// passing.
//
// Substitutes the paper's assumed network: reliable (no loss, no
// duplication), unordered (delays are sampled per message, so messages
// overtake each other freely), fully asynchronous (no delay bound is ever
// exposed to protocol code). Virtual time exists only inside the
// simulator — actors observe it solely for measurement, never for
// protocol decisions.
//
// Actors are event-driven: on_start once at t=0, on_message per delivery,
// on_timer for self-scheduled wakeups. All execution is single-threaded
// and deterministic given the seed; ties in delivery time break by event
// sequence number.
//
// Event queue: a binary min-heap of (time, seq, slot) keys over a pool of
// event bodies. Heap sifts move only the 24-byte keys; a dispatched event
// is moved (never copied) out of its slot, and the slot is reused by the
// next event scheduled, including events scheduled from inside that
// dispatch. (time, seq) is unique per event, so the dispatch order is
// exactly the lexicographic (time, seq) order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace.hpp"
#include "sim/delay.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace mocc::sim {

/// Fault-injection hook (implemented by fault::FaultPlan). When attached,
/// the simulator consults it once per send (message fate) and once per
/// dispatch (node liveness). Detached — the default — every site costs
/// exactly one null-pointer branch and the simulator's behavior,
/// including its RNG stream, is bit-identical to a hook-free build.
class FaultInjector {
 public:
  /// The fate of one message at its send instant.
  struct SendAction {
    /// Discard instead of enqueueing (the send is still counted in
    /// TrafficStats: the sender paid for it).
    bool drop = false;
    /// Extra copies enqueued beyond the original, each with its own
    /// sampled network delay (a duplicating network, not a resend).
    std::uint32_t duplicates = 0;
    /// Delay spike added to every enqueued copy.
    SimTime extra_delay = 0;
  };

  virtual ~FaultInjector() = default;

  /// Called once per Simulator::send, in send order (deterministic given
  /// the injector's own seed).
  virtual SendAction on_send(NodeId from, NodeId to, std::uint32_t kind,
                             SimTime now) = 0;

  /// Crash-stop state: while true, the node silently discards every
  /// delivery and timer dispatched to it (counted by the injector,
  /// traced by the simulator). Restart is the transition back to false;
  /// the actor keeps its in-memory state, modeling recovery from a
  /// checkpoint — events discarded while down stay lost.
  virtual bool is_down(NodeId node, SimTime now) = 0;
};

/// Controlled-nondeterminism hook (implemented by the mocc-check
/// explorer, src/check). When attached, message deliveries stop being
/// ordered by sampled network delays: Simulator::send parks each message
/// in a pending list instead of the time-ordered event queue, and
/// whenever no internal event (scheduled call / timer) remains, run()
/// asks the controller which pending delivery dispatches next. Internal
/// events always dispatch first, in deterministic (time, seq) order, so
/// the ONLY nondeterminism surfaced to the controller is the
/// message-delivery interleaving — exactly the choice surface systematic
/// exploration enumerates. Virtual time advances by one tick per chosen
/// delivery (the delay model and the RNG stream are never consulted), so
/// a choice sequence fully determines the execution.
///
/// Replay-stability contract (asserted below, documented in DESIGN.md):
/// the pending list handed to choose() is in ascending send-seq order —
/// the same FIFO tie-break the event queue uses for equal times. Choice
/// indices recorded by one binary stay valid as long as that canonical
/// order and the actors' send behavior are unchanged; replay files carry
/// per-choice structural signatures to detect when they are not.
/// FNV-1a (64-bit) over payload bytes: the fingerprint carried in
/// ScheduleController::Choice and mocc-check replay signatures.
std::uint64_t payload_fingerprint(const std::vector<std::uint8_t>& bytes);

class ScheduleController {
 public:
  /// One pending message delivery, described structurally (not by
  /// pointer) so controllers can persist and compare choices across
  /// re-executions.
  struct Choice {
    std::uint64_t seq = 0;  ///< send sequence number (canonical order)
    NodeId from = 0;
    NodeId to = 0;
    std::uint32_t kind = 0;
    /// FNV-1a over the payload bytes: lets replay detect a divergent
    /// execution without storing payloads in choice files.
    std::uint64_t payload_hash = 0;
  };

  /// Sentinel return from choose(): abandon the run immediately (run()
  /// returns with the remaining pending deliveries undelivered). Used by
  /// the explorer to cut a schedule at a pruned or divergent state.
  static constexpr std::size_t kAbortRun = static_cast<std::size_t>(-1);

  virtual ~ScheduleController() = default;

  /// Picks the next delivery: an index into `pending` (non-empty,
  /// ascending seq), or kAbortRun.
  virtual std::size_t choose(const std::vector<Choice>& pending) = 0;
};

struct Message {
  NodeId from = 0;
  NodeId to = 0;
  /// Protocol-defined discriminator (also keys the traffic statistics).
  std::uint32_t kind = 0;
  std::vector<std::uint8_t> payload;
  /// Causal trace context, stamped by Simulator::send from the current
  /// context. Rides in memory only — it is never serialized, so wire
  /// payloads, traffic accounting, and every golden stay byte-identical
  /// whether or not tracing is attached.
  obs::SpanContext trace;
  /// Virtual send time, stamped by Simulator::send (net_hop span begin).
  SimTime sent_at = 0;
};

class Simulator;

/// The API an actor sees. Deliberately narrow: send, timers, the clock,
/// and nothing else (no shared memory between actors).
class Context {
 public:
  Context(Simulator& sim, NodeId self) : sim_(sim), self_(self) {}

  NodeId self() const { return self_; }
  SimTime now() const;
  std::size_t num_nodes() const;

  void send(NodeId to, std::uint32_t kind, std::vector<std::uint8_t> payload);
  /// Sends to every node except self.
  void send_to_others(std::uint32_t kind, const std::vector<std::uint8_t>& payload);
  /// on_timer(id) fires after `delay` ticks.
  void set_timer(SimTime delay, std::uint64_t timer_id);

  /// The simulator's trace sink — null unless observability is attached.
  /// Emission sites test for null themselves so that building the event
  /// costs nothing when tracing is off:
  ///   if (auto* sink = ctx.trace_sink()) sink->on_event({...});
  obs::TraceSink* trace_sink() const;

  /// Causal-trace context (Dapper-style). The simulator tracks one
  /// "current" context per dispatched event: sends stamp it into the
  /// outgoing message, timers capture it at set_timer and restore it when
  /// they fire, and message delivery re-roots it at the net_hop span it
  /// emits. All invalid (trace id 0) when no sink is attached.
  obs::SpanContext trace_context() const;
  void set_trace_context(obs::SpanContext trace);
  /// Starts a fresh trace: allocates a trace id and a root span id, makes
  /// it the current context, and returns it. Invalid when no sink is
  /// attached, so downstream emission sites stay inert.
  obs::SpanContext begin_trace();
  /// A span id unique within this simulator (for child spans).
  std::uint64_t new_span_id();

 private:
  Simulator& sim_;
  NodeId self_;
};

class Actor {
 public:
  virtual ~Actor() = default;
  virtual void on_start(Context& ctx) { (void)ctx; }
  virtual void on_message(Context& ctx, const Message& message) = 0;
  virtual void on_timer(Context& ctx, std::uint64_t timer_id) {
    (void)ctx;
    (void)timer_id;
  }
};

struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::map<std::uint32_t, std::uint64_t> messages_by_kind;
  std::map<std::uint32_t, std::uint64_t> bytes_by_kind;
};

class Simulator {
 public:
  Simulator(std::unique_ptr<DelayModel> delay, std::uint64_t seed);

  /// Nodes must all be added before run(). Takes ownership.
  NodeId add_node(std::unique_ptr<Actor> actor);
  std::size_t num_nodes() const { return actors_.size(); }

  Actor& actor(NodeId id);

  /// Schedules an external closure (workload injection) at `time`.
  /// NOT thread-safe: call from the simulation thread only (between
  /// run() slices or from inside a dispatched event).
  void schedule_call(SimTime time, std::function<void()> fn);

  /// Thread-safe workload injection: queues a closure from ANY thread;
  /// run() drains posted closures at the next event boundary and executes
  /// them at the current virtual time on the simulation thread. This is
  /// the only cross-thread entry point — everything else on Simulator is
  /// confined to the simulation thread.
  void post(std::function<void()> fn) MOCC_EXCLUDES(post_mu_);

  /// Runs until the event queue drains or `max_time` passes (0 = no
  /// limit). Returns the final virtual time.
  SimTime run(SimTime max_time = 0);

  /// Asks run() to return before dispatching its next event. Sticky:
  /// subsequent run() calls return immediately until clear_stop().
  /// Callable from inside a dispatched event (a streaming auditor's
  /// violation callback aborts the run this way); the current event
  /// finishes, nothing else dispatches.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }
  void clear_stop() { stop_requested_ = false; }

  SimTime now() const { return now_; }
  const TrafficStats& traffic() const { return traffic_; }
  util::Rng& rng() { return rng_; }

  /// Attaches a trace sink (not owned; must outlive the simulator or be
  /// detached with nullptr). Message send/deliver events are emitted by
  /// the simulator itself; protocol layers emit theirs through
  /// Context::trace_sink(). Null (the default) disables tracing at the
  /// cost of one pointer test per event site.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace_sink() const { return trace_; }

  /// Attaches a fault injector (not owned; must outlive the simulator or
  /// be detached with nullptr). Null (the default) keeps the pristine
  /// reliable network at the cost of one branch per send/dispatch site.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  FaultInjector* fault_injector() const { return faults_; }

  /// Attaches a schedule controller (not owned; must outlive the
  /// simulator). Must be set before the first run() and is incompatible
  /// with fault injection (controlled mode models the paper's pristine
  /// reliable network; message fates are the controller's alone). Null —
  /// the default — keeps delay-model ordering, bit-identical to a
  /// hook-free build.
  void set_schedule_controller(ScheduleController* controller);
  ScheduleController* schedule_controller() const { return controller_; }

  /// Installs a deterministic backlog probe: whenever virtual time is
  /// about to cross a multiple of `interval`, `probe(sample_time)` runs
  /// once per crossed multiple, before the crossing event dispatches.
  /// The probe is an observer — it must not schedule events or send
  /// messages (it reads queue_depth() and friends and records gauges /
  /// trace events). Interval 0 (the default) disables sampling; the
  /// probe never fires on an empty queue, so it cannot keep an otherwise
  /// quiescent simulation alive.
  void set_backlog_probe(SimTime interval, std::function<void(SimTime)> probe);

  /// Pending events (messages + timers + scheduled calls), including
  /// deliveries parked for a schedule controller.
  std::size_t queue_depth() const { return queue_.size() + held_messages_.size(); }

  /// Current causal-trace context (see Context::trace_context).
  obs::SpanContext trace_context() const { return current_trace_; }
  void set_trace_context(obs::SpanContext trace) { current_trace_ = trace; }
  obs::SpanContext begin_trace();
  std::uint64_t new_span_id() { return next_span_id_++; }

  // Internal API used by Context -------------------------------------
  void send(NodeId from, NodeId to, std::uint32_t kind,
            std::vector<std::uint8_t> payload);
  void set_timer(NodeId node, SimTime delay, std::uint64_t timer_id);

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;  // tie-break: FIFO among equal times
    // exactly one of:
    bool is_timer = false;
    Message message;
    NodeId timer_node = 0;
    std::uint64_t timer_id = 0;
    obs::SpanContext timer_trace;  // context captured at set_timer
    std::function<void()> call;  // external injection when set
  };
  /// Heap entry: the event's (time, seq) order key and the pool slot
  /// holding its body. Heap sifts move these 24 bytes, never an Event.
  struct QueueKey {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct KeyAfter {
    bool operator()(const QueueKey& a, const QueueKey& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// Per-kind traffic counters: pointers into the TrafficStats maps (map
  /// nodes never move), so a send of a seen kind does no map lookup.
  struct KindCounters {
    std::uint64_t* messages = nullptr;
    std::uint64_t* bytes = nullptr;
  };

  /// Parks `event` in a free pool slot and pushes its key on the heap.
  void enqueue(Event event);
  /// Pops the earliest key and moves its event out of the pool.
  Event dequeue();
  void count_traffic(std::uint32_t kind, std::size_t bytes);
  void dispatch(const Event& event);
  /// Controlled mode: surfaces held_messages_ to the controller and
  /// dispatches the chosen delivery at now_ + 1. Returns false when the
  /// controller aborted the run.
  bool dispatch_controlled_choice();
  /// Moves everything in posted_ into the event queue at virtual time
  /// now_ (in posting order). Runs on the simulation thread.
  void drain_posted() MOCC_EXCLUDES(post_mu_);

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_ MOCC_GUARDED_BY(post_mu_);

  // mocc-lint: allow-begin(guarded-by): post_mu_ guards only posted_;
  // everything below is owned by the single simulation thread (post() is
  // the one cross-thread entry point, and it touches posted_ alone).
  std::unique_ptr<DelayModel> delay_;
  util::Rng rng_;
  std::vector<std::unique_ptr<Actor>> actors_;
  /// The event queue (file comment): a min-heap of keys over `slots_`;
  /// `free_slots_` lists the slots a dequeue emptied.
  std::vector<QueueKey> queue_;
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool started_ = false;
  bool stop_requested_ = false;
  TrafficStats traffic_;
  std::vector<KindCounters> kind_counters_;  ///< indexed by wire kind
  obs::TraceSink* trace_ = nullptr;
  FaultInjector* faults_ = nullptr;
  ScheduleController* controller_ = nullptr;
  /// Controlled mode only: messages awaiting a choose() decision, in
  /// ascending send-seq (canonical) order.
  std::vector<Event> held_messages_;
  /// Tie-break monotonicity witness for the queue path: successive pops
  /// must be lexicographically increasing in (time, seq) — replay files
  /// depend on that order staying deterministic (debug-asserted).
  SimTime last_pop_time_ = 0;
  std::uint64_t last_pop_seq_ = 0;
  bool popped_any_ = false;
  obs::SpanContext current_trace_;
  std::uint64_t next_trace_id_ = 1;  // 0 is "no trace"
  std::uint64_t next_span_id_ = 1;
  SimTime backlog_interval_ = 0;
  SimTime next_backlog_ = 0;
  std::function<void(SimTime)> backlog_probe_;
  // mocc-lint: allow-end(guarded-by)
};

}  // namespace mocc::sim
