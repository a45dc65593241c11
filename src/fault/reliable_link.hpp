// Reliable point-to-point delivery over a lossy network.
//
// The paper's protocols assume reliable channels (§5); the fault layer
// deliberately breaks that assumption. ReliableLink restores it with the
// classic positive-ack scheme: every data message carries a per-
// destination sequence number, the receiver acks every data frame it
// sees (including duplicates — acks are how the sender learns to stop),
// and the sender retransmits on a timer with exponential backoff until
// acked or a bounded retry budget runs out.
//
// Guarantees over a network that drops and duplicates (but does not
// forge): every message sent is delivered to the destination's upper
// layer EXACTLY ONCE, provided the retry budget suffices — at drop rate
// p the residual loss probability is p^(max_retransmits+1), which the
// default budget of 16 makes negligible for the fault rates the chaos
// harness sweeps. Exhausted sends are reported, never silent.
//
// The link does NOT reorder: frames deliver upward in network-arrival
// order, preserving the simulator's unordered-channel model. Ordering
// remains the job of the layers above (atomic broadcast / protocol
// logic), exactly as in the fault-free stack.
//
// Wire format (kinds 50, 51 and 52, reserved range [50, 99]):
//   kLinkData:      u64 link-seq | u32 inner kind | inner payload bytes
//   kLinkAck:       u64 link-seq
//   kLinkBatchData: u64 link-seq | u32 item count |
//                   count x (u32 inner kind | length-prefixed payload)
// Retransmit timers use ids tagged with kLinkTimerTag so they can share
// an actor's timer namespace; hosts forward unrecognized timers here.
//
// Message coalescing (docs/batching.md; the itemized-queue / flush-
// trigger design of cortx-motr's rpc formation): with
// Options::coalesce_max_items > 1 each send() parks its message on a
// per-destination queue instead of transmitting. The queue flushes into
// ONE kLinkBatchData frame — one link sequence number, one ack, whole-
// frame retransmission — when it reaches coalesce_max_items items or
// coalesce_max_bytes queued payload bytes (size trigger), or when its
// oldest item ages past coalesce_max_age ticks (age trigger, bit-61
// flush timers inside the bit-62 link timer space). The delivery
// contract is unchanged: exactly once, frames in network-arrival order
// (a retransmitted frame can overtake a later one, batched or not), and
// items inside one frame unwrap upward in enqueue order. End-to-end
// FIFO / total order stays the job of the abcast layer above, exactly
// as for singleton frames.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/types.hpp"
#include "sim/wire_kinds.hpp"
#include "util/bytes.hpp"

namespace mocc::fault {

/// Message-kind range reserved for the reliable link (below abcast's
/// [100, 199] and the protocols' [200, 299]; see sim/wire_kinds.hpp).
inline constexpr std::uint32_t kLinkKindFirst = sim::wire::kReliableLinkFirst;
// Data/ack pairs are declared in sim/wire_kinds.hpp kKindPairs: the
// msg-flow closure check guarantees both frame shapes keep an emitter
// and that kLinkAck keeps answering them.
inline constexpr std::uint32_t kLinkData = sim::wire::reliable_link_kind(0);
inline constexpr std::uint32_t kLinkAck = sim::wire::reliable_link_kind(1);
/// Coalesced frame: several application messages under one link seq.
inline constexpr std::uint32_t kLinkBatchData = sim::wire::reliable_link_kind(2);
inline constexpr std::uint32_t kLinkKindLast = sim::wire::kReliableLinkLast;

/// High-bit tag distinguishing link retransmit timers from host timers.
inline constexpr std::uint64_t kLinkTimerTag = 1ULL << 62;
/// Second tag (inside the bit-62 link space) marking coalescing flush
/// timers; the low bits carry the destination node. Retransmit tokens
/// never reach bit 61, so the two link timer families cannot collide.
inline constexpr std::uint64_t kLinkFlushTimerBit = 1ULL << 61;

/// Counters for one link endpoint (or, via a shared sink, a whole
/// system — see set_shared_stats).
struct LinkStats {
  std::uint64_t data_sent = 0;    ///< first transmissions
  std::uint64_t retransmits = 0;  ///< timer-driven resends
  std::uint64_t acks_sent = 0;
  std::uint64_t delivered = 0;              ///< frames handed to the upper layer
  std::uint64_t duplicates_suppressed = 0;  ///< dedup hits
  std::uint64_t exhausted = 0;              ///< sends that ran out of retries
};

/// A send whose retry budget ran out. The payload is intentionally not
/// retained — by exhaustion time it has been transmitted
/// (1 + max_retransmits) times and the upper layer's recovery story is
/// protocol-level, not another resend.
struct FailedSend {
  sim::NodeId to = 0;
  std::uint64_t seq = 0;
  std::uint32_t kind = 0;       ///< inner (application) kind
  std::uint32_t attempts = 0;   ///< transmissions made before giving up
};

/// One endpoint of the reliable layer, owned by the hosting actor (one
/// per node). Not an Actor itself: the host calls send() instead of
/// Context::send, offers every incoming message to on_message() first,
/// and forwards unrecognized timers to on_timer().
class ReliableLink {
 public:
  struct Options {
    sim::SimTime initial_rto = 16;  ///< first retransmit timeout, ticks
    double backoff = 2.0;           ///< rto multiplier per retry
    sim::SimTime max_rto = 1024;    ///< backoff cap
    std::uint32_t max_retransmits = 16;  ///< resends beyond the original
    /// Message coalescing: > 1 enables the itemized per-destination
    /// queue; 1 (the default) transmits each send() immediately and
    /// byte-identically to the pre-batching link.
    std::size_t coalesce_max_items = 1;
    /// Additional size trigger on queued payload bytes (0 = items only).
    std::size_t coalesce_max_bytes = 0;
    /// Age flush trigger for a partial queue, virtual-time ticks. Must
    /// be >= 1 when coalescing — it is what keeps partial queues live.
    sim::SimTime coalesce_max_age = 4;
  };

  /// Upward delivery: `message` is the reconstructed application message
  /// (original sender, inner kind, inner payload).
  using DeliverFn = std::function<void(sim::Context& ctx, const sim::Message& message)>;

  ReliableLink() : ReliableLink(Options()) {}
  explicit ReliableLink(Options options);

  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Reliably sends (kind, payload) to `to`. Self-sends are forbidden —
  /// hosts short-circuit local work without touching the network.
  void send(sim::Context& ctx, sim::NodeId to, std::uint32_t kind,
            std::span<const std::uint8_t> payload);

  /// Consumes kLinkData / kLinkAck; returns false for foreign kinds.
  /// Data frames are acked and, if new, delivered via the deliver
  /// callback before this returns.
  bool on_message(sim::Context& ctx, const sim::Message& message);

  /// Consumes kLinkTimerTag-tagged retransmit and flush timers; returns
  /// false for foreign timer ids.
  bool on_timer(sim::Context& ctx, std::uint64_t timer_id);

  /// Transmits `to`'s coalescing queue now as one frame (no-op when the
  /// queue is empty). Emitted with the drain trigger (2); size and age
  /// flushes happen automatically.
  void flush(sim::Context& ctx, sim::NodeId to);
  /// Drains every destination's queue (ascending destination order).
  void flush_all(sim::Context& ctx);
  /// Messages parked on `to`'s coalescing queue, not yet framed.
  std::size_t queued(sim::NodeId to) const;

  /// Sends still awaiting an ack (retry budget not yet exhausted).
  std::size_t in_flight() const { return pending_.live(); }
  /// Bytes of encoded frames held for possible retransmission (running
  /// counter over pending_; feeds the link_retransmit_buffer_bytes gauge).
  std::uint64_t buffer_bytes() const { return buffer_bytes_; }
  const std::vector<FailedSend>& failed() const { return failed_; }
  const LinkStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// Optional second stats sink shared by every link in a system (not
  /// owned; must outlive the link). Lets System report aggregate link
  /// traffic without walking replicas.
  void set_shared_stats(LinkStats* shared) { shared_ = shared; }

 private:
  /// Values under consecutive integer keys (link seqs, retransmit
  /// tokens), handed out in order by push(). erase() settles a key, and
  /// settled keys at the front are dropped, so find() is an index and
  /// memory follows the span of unsettled keys.
  template <typename T>
  class KeyedWindow {
   public:
    explicit KeyedWindow(std::uint64_t first_key) : front_key_(first_key) {}
    /// Stores `value` under the next key and returns that key.
    std::uint64_t push(T value) {
      slots_.emplace_back(std::move(value));
      ++live_;
      return front_key_ + (slots_.size() - head_) - 1;
    }
    /// The value under `key`, or null when it was settled or never pushed.
    T* find(std::uint64_t key) {
      if (key < front_key_ || key - front_key_ >= slots_.size() - head_) return nullptr;
      std::optional<T>& slot = slots_[head_ + (key - front_key_)];
      return slot ? &*slot : nullptr;
    }
    /// Settles a key that find() returns a value for.
    void erase(std::uint64_t key) {
      slots_[head_ + (key - front_key_)].reset();
      --live_;
      while (head_ < slots_.size() && !slots_[head_]) {
        ++head_;
        ++front_key_;
      }
      if (head_ == slots_.size()) {
        slots_.clear();
        head_ = 0;
      } else if (head_ >= 64 && 2 * head_ >= slots_.size()) {
        slots_.erase(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    std::size_t live() const { return live_; }

   private:
    std::vector<std::optional<T>> slots_;
    std::size_t head_ = 0;  ///< slots_[head_] holds front_key_
    std::uint64_t front_key_;
    std::size_t live_ = 0;
  };

  struct Pending {
    sim::NodeId to = 0;
    std::uint64_t seq = 0;
    std::uint32_t kind = 0;            ///< inner kind (for reporting;
                                       ///< kLinkBatchData for coalesced frames)
    std::uint32_t wire_kind = kLinkData;  ///< kind the frame is resent under
    std::vector<std::uint8_t> frame;   ///< encoded frame, resent as-is
    sim::SimTime rto = 0;              ///< next backoff interval
    std::uint32_t attempts = 0;        ///< transmissions so far
    obs::SpanContext trace;            ///< re-rooted at each retransmit span
    sim::SimTime last_sent = 0;        ///< retransmit span begin
  };
  /// Receiver-side dedup per sender: `floor` is the highest seq below
  /// which everything has been seen; `above` holds the out-of-order seqs
  /// past the floor, ascending (folded into the floor as gaps fill). An
  /// in-order frame touches only the floor.
  struct Inbound {
    std::uint64_t floor = 0;
    std::vector<std::uint64_t> above;
    /// Records `seq`; false when it was seen before (a duplicate).
    bool record(std::uint64_t seq);
  };
  /// Coalescing queue: items are encoded into `body` as they are sent
  /// (u32 inner kind | length-prefixed payload each) and framed at flush.
  /// The first item's context is the frame's carrier (docs/batching.md).
  struct CoalesceQueue {
    util::ByteWriter body;
    std::uint32_t items = 0;
    std::size_t payload_bytes = 0;
    obs::SpanContext carrier;
    sim::SimTime deadline = 0;  ///< age timers firing earlier are stale
  };
  /// Everything the link keeps per destination.
  struct Outbound {
    std::uint64_t last_seq = 0;  ///< link seqs count from 1
    KeyedWindow<std::uint64_t> token_by_seq{1};  ///< unacked seq → token
    CoalesceQueue coalesce;                      ///< batching on only
  };

  void bump(std::uint64_t LinkStats::* field);
  Outbound& outbound(sim::NodeId to);
  Inbound& inbound(sim::NodeId from);
  /// Drops the retransmit state of `token` (acked or exhausted).
  void settle(std::uint64_t token);

  /// Registers `frame` (already encoded) as one reliably-delivered unit:
  /// assigns the next per-destination seq, transmits, arms the
  /// retransmit timer. Shared by the unbatched path and flushes.
  void transmit_frame(sim::Context& ctx, sim::NodeId to, std::uint32_t wire_kind,
                      std::uint32_t inner_kind, std::uint64_t seq,
                      std::vector<std::uint8_t> frame);
  void flush_queue(sim::Context& ctx, sim::NodeId to, std::uint32_t trigger);

  Options options_;
  DeliverFn deliver_;
  std::vector<Outbound> outbound_;     ///< by destination, grown on demand
  /// By retransmit token. Each entry is boxed, so a window held open by
  /// one long-retransmitting frame costs a pointer per later frame.
  KeyedWindow<std::unique_ptr<Pending>> pending_{0};
  std::vector<Inbound> inbound_;       ///< by sender, grown on demand
  std::vector<FailedSend> failed_;
  LinkStats stats_;
  LinkStats* shared_ = nullptr;
  std::uint64_t buffer_bytes_ = 0;  ///< sum of pending_ frame sizes
};

}  // namespace mocc::fault
