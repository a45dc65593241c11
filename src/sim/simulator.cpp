#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/wire_kinds.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mocc::sim {

std::uint64_t payload_fingerprint(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

SimTime Context::now() const { return sim_.now(); }

obs::TraceSink* Context::trace_sink() const { return sim_.trace_sink(); }

obs::SpanContext Context::trace_context() const { return sim_.trace_context(); }

void Context::set_trace_context(obs::SpanContext trace) {
  sim_.set_trace_context(trace);
}

obs::SpanContext Context::begin_trace() { return sim_.begin_trace(); }

std::uint64_t Context::new_span_id() { return sim_.new_span_id(); }

std::size_t Context::num_nodes() const { return sim_.num_nodes(); }

void Context::send(NodeId to, std::uint32_t kind, std::vector<std::uint8_t> payload) {
  sim_.send(self_, to, kind, std::move(payload));
}

void Context::send_to_others(std::uint32_t kind,
                             const std::vector<std::uint8_t>& payload) {
  for (NodeId to = 0; to < sim_.num_nodes(); ++to) {
    if (to != self_) sim_.send(self_, to, kind, payload);
  }
}

void Context::set_timer(SimTime delay, std::uint64_t timer_id) {
  sim_.set_timer(self_, delay, timer_id);
}

Simulator::Simulator(std::unique_ptr<DelayModel> delay, std::uint64_t seed)
    : delay_(std::move(delay)), rng_(seed) {
  MOCC_ASSERT(delay_ != nullptr);
}

NodeId Simulator::add_node(std::unique_ptr<Actor> actor) {
  MOCC_ASSERT_MSG(!started_, "nodes must be added before run()");
  MOCC_ASSERT(actor != nullptr);
  actors_.push_back(std::move(actor));
  return static_cast<NodeId>(actors_.size() - 1);
}

Actor& Simulator::actor(NodeId id) {
  MOCC_ASSERT(id < actors_.size());
  return *actors_[id];
}

void Simulator::enqueue(Event event) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(event));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(event);
  }
  queue_.push_back(QueueKey{slots_[slot].time, slots_[slot].seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), KeyAfter{});
}

Simulator::Event Simulator::dequeue() {
  std::pop_heap(queue_.begin(), queue_.end(), KeyAfter{});
  const std::uint32_t slot = queue_.back().slot;
  queue_.pop_back();
  free_slots_.push_back(slot);
  return std::move(slots_[slot]);
}

void Simulator::count_traffic(std::uint32_t kind, std::size_t bytes) {
  traffic_.messages += 1;
  traffic_.bytes += bytes;
  // A kind's map entries are created on its first send and cached; kinds
  // outside the registered wire space (release builds do not assert
  // registration) are counted through the maps directly.
  constexpr std::uint32_t kKindSpaceEnd =
      wire::kKindRanges[wire::kNumKindRanges - 1].last + 1;
  if (kind >= kKindSpaceEnd) {
    traffic_.messages_by_kind[kind] += 1;
    traffic_.bytes_by_kind[kind] += bytes;
    return;
  }
  if (kind >= kind_counters_.size()) kind_counters_.resize(kind + 1);
  KindCounters& cached = kind_counters_[kind];
  if (cached.messages == nullptr) {
    cached.messages = &traffic_.messages_by_kind[kind];
    cached.bytes = &traffic_.bytes_by_kind[kind];
  }
  *cached.messages += 1;
  *cached.bytes += bytes;
}

void Simulator::schedule_call(SimTime time, std::function<void()> fn) {
  Event event;
  event.time = std::max(time, now_);
  event.seq = next_seq_++;
  event.call = std::move(fn);
  enqueue(std::move(event));
}

void Simulator::post(std::function<void()> fn) {
  MOCC_ASSERT(fn != nullptr);
  std::lock_guard<std::mutex> lock(post_mu_);
  posted_.push_back(std::move(fn));
}

void Simulator::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) schedule_call(now_, std::move(fn));
}

void Simulator::set_schedule_controller(ScheduleController* controller) {
  MOCC_ASSERT_MSG(!started_,
                  "schedule controller must be attached before the first run()");
  MOCC_ASSERT_MSG(controller == nullptr || faults_ == nullptr,
                  "controlled exploration is incompatible with fault injection");
  controller_ = controller;
}

obs::SpanContext Simulator::begin_trace() {
  // No sink, no trace: keeps the disabled-tracing path free of id churn
  // and every downstream emission site inert (invalid contexts propagate
  // as invalid).
  if (trace_ == nullptr) return {};
  current_trace_ = obs::SpanContext{next_trace_id_++, next_span_id_++};
  return current_trace_;
}

void Simulator::set_backlog_probe(SimTime interval,
                                  std::function<void(SimTime)> probe) {
  MOCC_ASSERT_MSG(interval == 0 || probe != nullptr,
                  "a nonzero sampling interval needs a probe");
  backlog_interval_ = interval;
  next_backlog_ = interval;  // skip t=0: nothing has happened yet
  backlog_probe_ = std::move(probe);
}

void Simulator::send(NodeId from, NodeId to, std::uint32_t kind,
                     std::vector<std::uint8_t> payload) {
  MOCC_ASSERT(from < actors_.size() && to < actors_.size());
  // Every kind on the wire must belong to a range registered in
  // sim/wire_kinds.hpp (hot path, so debug builds only).
  MOCC_DEBUG_ASSERT(wire::is_registered(kind));
  const std::size_t bytes = payload.size();
  MOCC_DEBUG() << "t=" << now_ << " send " << from << "->" << to << " kind=" << kind
               << " bytes=" << bytes;

  // Traffic counts what the sender emitted — dropped and duplicated
  // copies are the network's doing and are tallied by the fault plan.
  count_traffic(kind, bytes);

  if (trace_ != nullptr) {
    trace_->on_event({obs::TraceEventType::kMessageSend, now_, from, to, kind, 0,
                      bytes});
  }

  // Schedule-controller hook: in controlled mode the delivery instant is
  // the controller's decision, not the delay model's. Park the message in
  // canonical send order; run() surfaces it as a choice point. No delay
  // sample is drawn, so the RNG stream is untouched and a choice sequence
  // alone determines the execution.
  if (controller_ != nullptr) {
    Event event;
    event.seq = next_seq_++;
    event.message = Message{from, to, kind, std::move(payload), current_trace_, now_};
    held_messages_.push_back(std::move(event));
    return;
  }

  // Fault hook: one branch when detached; the detached path below is
  // byte-for-byte the pristine reliable network (one copy, no extra rng
  // draws — the injector keeps its own stream).
  std::uint32_t copies = 1;
  SimTime extra_delay = 0;
  if (faults_ != nullptr) {
    const FaultInjector::SendAction action = faults_->on_send(from, to, kind, now_);
    if (action.drop) {
      if (trace_ != nullptr) {
        trace_->on_event({obs::TraceEventType::kFaultDrop, now_, from, to, kind, 0,
                          bytes});
      }
      return;
    }
    copies += action.duplicates;
    extra_delay = action.extra_delay;
    if (trace_ != nullptr) {
      for (std::uint32_t i = 0; i < action.duplicates; ++i) {
        trace_->on_event({obs::TraceEventType::kFaultDuplicate, now_, from, to, kind,
                          0, bytes});
      }
      if (extra_delay != 0) {
        trace_->on_event({obs::TraceEventType::kFaultDelay, now_, from, to, kind,
                          extra_delay, bytes});
      }
    }
  }

  for (std::uint32_t copy = 0; copy < copies; ++copy) {
    Event event;
    event.time = now_ + delay_->sample(from, to, rng_) + extra_delay;
    event.seq = next_seq_++;
    event.message = Message{from, to, kind,
                            copy + 1 == copies ? std::move(payload)
                                               : std::vector<std::uint8_t>(payload),
                            current_trace_, now_};
    enqueue(std::move(event));
  }
}

void Simulator::set_timer(NodeId node, SimTime delay, std::uint64_t timer_id) {
  Event event;
  event.time = now_ + std::max<SimTime>(1, delay);
  event.seq = next_seq_++;
  event.is_timer = true;
  event.timer_node = node;
  event.timer_id = timer_id;
  event.timer_trace = current_trace_;
  enqueue(std::move(event));
}

void Simulator::dispatch(const Event& event) {
  if (event.call) {
    // External injections start context-free; a trace begins only at an
    // m-operation invocation (Context::begin_trace).
    current_trace_ = obs::SpanContext{};
    event.call();
    return;
  }
  if (event.is_timer) {
    MOCC_DEBUG() << "t=" << now_ << " timer node=" << event.timer_node
                 << " id=" << event.timer_id;
    if (faults_ != nullptr && faults_->is_down(event.timer_node, now_)) {
      if (trace_ != nullptr) {
        trace_->on_event({obs::TraceEventType::kFaultCrashDiscard, now_,
                          event.timer_node, 0, 0, event.timer_id, 1});
      }
      return;
    }
    current_trace_ = event.timer_trace;
    Context ctx(*this, event.timer_node);
    actors_[event.timer_node]->on_timer(ctx, event.timer_id);
    return;
  }
  MOCC_DEBUG() << "t=" << now_ << " deliver " << event.message.from << "->"
               << event.message.to << " kind=" << event.message.kind;
  MOCC_DEBUG_ASSERT(wire::is_registered(event.message.kind));
  if (faults_ != nullptr && faults_->is_down(event.message.to, now_)) {
    if (trace_ != nullptr) {
      trace_->on_event({obs::TraceEventType::kFaultCrashDiscard, now_,
                        event.message.to, event.message.from, event.message.kind, 0,
                        0});
    }
    return;
  }
  if (trace_ != nullptr) {
    trace_->on_event({obs::TraceEventType::kMessageDeliver, now_, event.message.to,
                      event.message.from, event.message.kind, 0,
                      event.message.payload.size()});
  }
  // One net_hop span per traced delivery, then re-root the context at it:
  // whatever this delivery causes is a child of the hop that carried it.
  obs::SpanContext incoming = event.message.trace;
  if (trace_ != nullptr && incoming.valid()) {
    obs::Span hop;
    hop.type = obs::SpanType::kNetHop;
    hop.trace_id = incoming.trace_id;
    hop.span_id = next_span_id_++;
    hop.parent_span = incoming.span_id;
    hop.begin = event.message.sent_at;
    hop.end = now_;
    hop.node = event.message.to;
    hop.peer = event.message.from;
    hop.kind = event.message.kind;
    hop.arg = event.message.payload.size();
    trace_->on_span(hop);
    incoming.span_id = hop.span_id;
  }
  current_trace_ = incoming;
  Context ctx(*this, event.message.to);
  actors_[event.message.to]->on_message(ctx, event.message);
}

SimTime Simulator::run(SimTime max_time) {
  if (!started_) {
    started_ = true;
    for (NodeId id = 0; id < actors_.size(); ++id) {
      Context ctx(*this, id);
      actors_[id]->on_start(ctx);
    }
  }
  for (;;) {
    if (stop_requested_) return now_;
    drain_posted();
    if (queue_.empty()) {
      // Controlled mode: internal events (calls, timers) always dispatch
      // first in deterministic (time, seq) order; only once they are
      // exhausted does the controller pick among pending deliveries.
      if (controller_ == nullptr || held_messages_.empty()) break;
      if (!dispatch_controlled_choice()) return now_;
      continue;
    }
    // Check the deadline BEFORE popping so a paused run can resume
    // without losing the event at the horizon.
    if (max_time != 0 && queue_.front().time > max_time) {
      now_ = max_time;
      return now_;
    }
    // Backlog sampling: fire once per interval multiple the next event is
    // about to cross. Piggybacking on the event loop (instead of a
    // self-rescheduling timer) keeps quiescence detection intact.
    if (backlog_interval_ != 0) {
      while (next_backlog_ <= queue_.front().time) {
        backlog_probe_(next_backlog_);
        next_backlog_ += backlog_interval_;
      }
    }
    const Event event = dequeue();
    MOCC_ASSERT_MSG(event.time >= now_, "time went backwards");
    // Deterministic tie-break: pops are lexicographically increasing in
    // (time, seq) — equal-time events dispatch in send order. mocc-check
    // replay files are only valid against this order (DESIGN.md).
    MOCC_DEBUG_ASSERT(!popped_any_ || event.time > last_pop_time_ ||
                      (event.time == last_pop_time_ && event.seq > last_pop_seq_));
    popped_any_ = true;
    last_pop_time_ = event.time;
    last_pop_seq_ = event.seq;
    now_ = event.time;
    dispatch(event);
  }
  return now_;
}

bool Simulator::dispatch_controlled_choice() {
  std::vector<ScheduleController::Choice> choices;
  choices.reserve(held_messages_.size());
  for (const Event& held : held_messages_) {
    // Canonical choice order — ascending send seq (the same FIFO
    // tie-break the event queue uses). Replay indices depend on it.
    MOCC_DEBUG_ASSERT(choices.empty() || held.seq > choices.back().seq);
    choices.push_back(ScheduleController::Choice{
        held.seq, held.message.from, held.message.to, held.message.kind,
        payload_fingerprint(held.message.payload)});
  }
  const std::size_t pick = controller_->choose(choices);
  if (pick == ScheduleController::kAbortRun) return false;
  MOCC_ASSERT_MSG(pick < held_messages_.size(),
                  "schedule controller chose an out-of-range delivery");
  Event event = std::move(held_messages_[pick]);
  held_messages_.erase(held_messages_.begin() +
                       static_cast<std::ptrdiff_t>(pick));
  now_ += 1;  // one tick per delivery: step-counter virtual time
  event.time = now_;
  dispatch(event);
  return true;
}

}  // namespace mocc::sim
