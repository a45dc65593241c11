#include "fault/reliable_link.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace mocc::fault {

namespace {

/// kLinkData frame: u64 seq | u32 inner kind | raw inner payload.
constexpr std::size_t kDataHeaderBytes = 12;

/// kLinkBatchData frame header: u64 seq | u32 item count.
constexpr std::size_t kBatchHeaderBytes = 12;

std::vector<std::uint8_t> encode_data(std::uint64_t seq, std::uint32_t kind,
                                      std::span<const std::uint8_t> payload) {
  util::ByteWriter writer;
  writer.reserve(kDataHeaderBytes + payload.size());
  writer.put_u64(seq);
  writer.put_u32(kind);
  writer.put_raw(payload);
  return writer.take();
}

}  // namespace

ReliableLink::ReliableLink(Options options) : options_(options) {
  MOCC_ASSERT(options_.initial_rto >= 1);
  MOCC_ASSERT(options_.backoff >= 1.0);
  MOCC_ASSERT(options_.max_rto >= options_.initial_rto);
  MOCC_ASSERT_MSG(options_.coalesce_max_items >= 1,
                  "coalesce_max_items 0 makes no frames");
  MOCC_ASSERT_MSG(
      options_.coalesce_max_items == 1 || options_.coalesce_max_age >= 1,
      "coalescing needs an age trigger to keep partial queues live");
}

void ReliableLink::bump(std::uint64_t LinkStats::* field) {
  ++(stats_.*field);
  if (shared_ != nullptr) ++(shared_->*field);
}

ReliableLink::Outbound& ReliableLink::outbound(sim::NodeId to) {
  if (to >= outbound_.size()) outbound_.resize(to + 1);
  return outbound_[to];
}

ReliableLink::Inbound& ReliableLink::inbound(sim::NodeId from) {
  if (from >= inbound_.size()) inbound_.resize(from + 1);
  return inbound_[from];
}

bool ReliableLink::Inbound::record(std::uint64_t seq) {
  if (seq <= floor) return false;
  if (seq == floor + 1) {
    ++floor;
    auto filled = above.begin();
    while (filled != above.end() && *filled == floor + 1) {
      ++floor;
      ++filled;
    }
    above.erase(above.begin(), filled);
    return true;
  }
  const auto at = std::lower_bound(above.begin(), above.end(), seq);
  if (at != above.end() && *at == seq) return false;
  above.insert(at, seq);
  return true;
}

void ReliableLink::settle(std::uint64_t token) {
  const Pending& pending = **pending_.find(token);
  buffer_bytes_ -= pending.frame.size();
  outbound_[pending.to].token_by_seq.erase(pending.seq);
  pending_.erase(token);
}

void ReliableLink::send(sim::Context& ctx, sim::NodeId to, std::uint32_t kind,
                        std::span<const std::uint8_t> payload) {
  MOCC_ASSERT_MSG(to != ctx.self(), "reliable link never loops back to self");
  Outbound& out = outbound(to);
  if (options_.coalesce_max_items > 1) {
    // Coalescing path: encode the message into the queue's frame body; a
    // size, byte, or age trigger frames the whole queue under one link seq.
    CoalesceQueue& queue = out.coalesce;
    const bool was_empty = queue.items == 0;
    if (was_empty) queue.carrier = ctx.trace_context();
    queue.body.put_u32(kind);
    queue.body.put_bytes(payload);
    ++queue.items;
    queue.payload_bytes += payload.size();
    const bool size_hit =
        queue.items >= options_.coalesce_max_items ||
        (options_.coalesce_max_bytes != 0 &&
         queue.payload_bytes >= options_.coalesce_max_bytes);
    if (size_hit) {
      flush_queue(ctx, to, /*trigger=*/0);
    } else if (was_empty) {
      queue.deadline = ctx.now() + options_.coalesce_max_age;
      ctx.set_timer(options_.coalesce_max_age,
                    kLinkTimerTag | kLinkFlushTimerBit | to);
    }
    return;
  }
  const std::uint64_t seq = ++out.last_seq;
  transmit_frame(ctx, to, kLinkData, kind, seq, encode_data(seq, kind, payload));
}

void ReliableLink::transmit_frame(sim::Context& ctx, sim::NodeId to,
                                  std::uint32_t wire_kind, std::uint32_t inner_kind,
                                  std::uint64_t seq,
                                  std::vector<std::uint8_t> frame) {
  auto boxed = std::make_unique<Pending>();
  Pending& pending = *boxed;
  pending.to = to;
  pending.seq = seq;
  pending.kind = inner_kind;
  pending.wire_kind = wire_kind;
  pending.frame = std::move(frame);
  pending.rto = options_.initial_rto;
  pending.attempts = 1;
  pending.trace = ctx.trace_context();
  pending.last_sent = ctx.now();

  ctx.send(to, wire_kind, pending.frame);
  buffer_bytes_ += pending.frame.size();
  const std::uint64_t token = pending_.push(std::move(boxed));
  ctx.set_timer(pending.rto, kLinkTimerTag | token);
  const std::uint64_t key = outbound(to).token_by_seq.push(token);
  MOCC_ASSERT_MSG(key == seq, "link seqs must reach transmit_frame once each, in order");
  bump(&LinkStats::data_sent);
}

void ReliableLink::flush_queue(sim::Context& ctx, sim::NodeId to,
                               std::uint32_t trigger) {
  if (to >= outbound_.size() || outbound_[to].coalesce.items == 0) return;
  // Swap out before transmitting: upper-layer reactions must enqueue
  // into a fresh queue, not the one being framed.
  CoalesceQueue queue;
  std::swap(queue, outbound_[to].coalesce);

  const std::uint64_t seq = ++outbound_[to].last_seq;
  util::ByteWriter out;
  out.reserve(kBatchHeaderBytes + queue.body.size());
  out.put_u64(seq);
  out.put_u32(queue.items);
  out.put_raw(queue.body.bytes());
  std::vector<std::uint8_t> frame = out.take();
  if (auto* sink = ctx.trace_sink()) {
    sink->on_event({obs::TraceEventType::kBatchFlush, ctx.now(), ctx.self(), to,
                    trigger, frame.size(), queue.items});
  }
  // The frame rides the first queued item's context (the batch carrier;
  // docs/batching.md) — restore the caller's context afterwards.
  const obs::SpanContext saved = ctx.trace_context();
  ctx.set_trace_context(queue.carrier);
  transmit_frame(ctx, to, kLinkBatchData, kLinkBatchData, seq, std::move(frame));
  ctx.set_trace_context(saved);
}

void ReliableLink::flush(sim::Context& ctx, sim::NodeId to) {
  flush_queue(ctx, to, /*trigger=*/2);
}

void ReliableLink::flush_all(sim::Context& ctx) {
  for (sim::NodeId to = 0; to < outbound_.size(); ++to) {
    flush_queue(ctx, to, /*trigger=*/2);
  }
}

std::size_t ReliableLink::queued(sim::NodeId to) const {
  return to < outbound_.size() ? outbound_[to].coalesce.items : 0;
}

bool ReliableLink::on_message(sim::Context& ctx, const sim::Message& message) {
  if (message.kind == kLinkAck) {
    util::ByteReader reader(message.payload);
    const std::uint64_t seq = reader.get_u64();
    if (message.from < outbound_.size()) {
      if (const std::uint64_t* token = outbound_[message.from].token_by_seq.find(seq)) {
        settle(*token);
      }
    }
    // Acks for already-settled seqs (duplicated ack, or ack after
    // exhaustion) are ignored; retransmit timers for erased entries
    // no-op when they fire.
    return true;
  }
  if (message.kind == kLinkBatchData) {
    util::ByteReader reader(message.payload);
    const std::uint64_t seq = reader.get_u64();
    const std::uint32_t count = reader.get_u32();

    util::ByteWriter ack;
    ack.put_u64(seq);
    ctx.send(message.from, kLinkAck, ack.take());
    bump(&LinkStats::acks_sent);

    if (!inbound(message.from).record(seq)) {
      bump(&LinkStats::duplicates_suppressed);
      if (auto* sink = ctx.trace_sink()) {
        sink->on_event({obs::TraceEventType::kLinkDuplicate, ctx.now(),
                        ctx.self(), message.from, kLinkBatchData, seq, count});
      }
      return true;
    }

    bump(&LinkStats::delivered);
    // Unpack in enqueue order: within one frame, per-sender FIFO is the
    // sender's queue order by construction.
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t inner_kind = reader.get_u32();
      std::vector<std::uint8_t> payload = reader.get_bytes();
      if (deliver_) {
        sim::Message inner;
        inner.from = message.from;
        inner.to = message.to;
        inner.kind = inner_kind;
        inner.payload = std::move(payload);
        deliver_(ctx, inner);
      }
    }
    return true;
  }
  if (message.kind != kLinkData) return false;

  util::ByteReader reader(message.payload);
  const std::uint64_t seq = reader.get_u64();
  const std::uint32_t inner_kind = reader.get_u32();

  // Ack every data frame, duplicates included: a duplicate usually means
  // the previous ack was lost.
  util::ByteWriter ack;
  ack.put_u64(seq);
  ctx.send(message.from, kLinkAck, ack.take());
  bump(&LinkStats::acks_sent);

  if (!inbound(message.from).record(seq)) {
    bump(&LinkStats::duplicates_suppressed);
    if (auto* sink = ctx.trace_sink()) {
      sink->on_event({obs::TraceEventType::kLinkDuplicate, ctx.now(), ctx.self(),
                      message.from, inner_kind, seq, 0});
    }
    return true;
  }

  bump(&LinkStats::delivered);
  if (deliver_) {
    sim::Message inner;
    inner.from = message.from;
    inner.to = message.to;
    inner.kind = inner_kind;
    inner.payload.assign(message.payload.begin() + kDataHeaderBytes,
                         message.payload.end());
    deliver_(ctx, inner);
  }
  return true;
}

bool ReliableLink::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if ((timer_id & kLinkTimerTag) == 0) return false;
  if ((timer_id & kLinkFlushTimerBit) != 0) {
    const auto to = static_cast<sim::NodeId>(
        timer_id & ~(kLinkTimerTag | kLinkFlushTimerBit));
    // One timer per empty->nonempty transition; a size flush in between
    // makes this firing stale (the live queue armed a later deadline).
    if (queued(to) != 0 && ctx.now() >= outbound_[to].coalesce.deadline) {
      flush_queue(ctx, to, /*trigger=*/1);
    }
    return true;
  }
  const std::uint64_t token = timer_id & ~kLinkTimerTag;
  std::unique_ptr<Pending>* found = pending_.find(token);
  if (found == nullptr) return true;  // acked since; stale timer

  Pending& pending = **found;
  if (pending.attempts > options_.max_retransmits) {
    bump(&LinkStats::exhausted);
    if (auto* sink = ctx.trace_sink()) {
      sink->on_event({obs::TraceEventType::kLinkExhausted, ctx.now(), ctx.self(),
                      pending.to, pending.kind, pending.seq, pending.attempts});
    }
    failed_.push_back({pending.to, pending.seq, pending.kind, pending.attempts});
    settle(token);
    return true;
  }

  ++pending.attempts;
  bump(&LinkStats::retransmits);
  if (auto* sink = ctx.trace_sink()) {
    sink->on_event({obs::TraceEventType::kLinkRetransmit, ctx.now(), ctx.self(),
                    pending.to, pending.kind, pending.seq, pending.attempts});
    if (pending.trace.valid()) {
      // One retransmit span per resend, chained: each parents at the
      // previous transmission's context, and the resent frame rides the
      // new span so its net_hop lands underneath it.
      obs::Span rt;
      rt.type = obs::SpanType::kRetransmit;
      rt.trace_id = pending.trace.trace_id;
      rt.span_id = ctx.new_span_id();
      rt.parent_span = pending.trace.span_id;
      rt.begin = pending.last_sent;
      rt.end = ctx.now();
      rt.node = ctx.self();
      rt.peer = pending.to;
      rt.kind = pending.kind;
      rt.id = pending.seq;
      rt.arg = pending.attempts;
      sink->on_span(rt);
      pending.trace.span_id = rt.span_id;
    }
  }
  pending.last_sent = ctx.now();
  ctx.set_trace_context(pending.trace);
  ctx.send(pending.to, pending.wire_kind, pending.frame);
  const double next_rto = static_cast<double>(pending.rto) * options_.backoff;
  pending.rto = next_rto >= static_cast<double>(options_.max_rto)
                    ? options_.max_rto
                    : static_cast<sim::SimTime>(next_rto);
  ctx.set_timer(pending.rto, kLinkTimerTag | token);
  return true;
}

}  // namespace mocc::fault
