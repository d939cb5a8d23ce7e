// Per-peer sliding-window reliability layer between Process and Network.
//
// The raw network is a fair-weather datagram service: the FaultInjector may
// drop, duplicate or reorder any frame.  The paper handles that inside the
// arbiter protocol itself (Section 6 timeouts and NEW-ARBITER enquiry); the
// other baselines assume lossless FIFO channels and simply stall when a
// PRIVILEGE or REPLY evaporates.  A ReliableEndpoint gives every algorithm
// the transport those papers assume:
//
//   * monotonic per-(src,dst) sequence numbers on RT-DATA frames;
//   * cumulative + selective acks, piggybacked on reverse-path data and
//     otherwise sent standalone after a delayed-ack timer;
//   * retransmission on a per-peer timer with exponential backoff, seeded
//     deterministic jitter, and a retry cap (the peer is presumed dead and
//     the window abandoned under a fresh stream generation — see below);
//   * receive-side dedup and reorder buffering, so the algorithm above
//     observes exactly-once, in-order delivery per peer.
//
// Crash fencing.  Sequence numbers only mean something within one
// incarnation of each endpoint, so every frame carries an epoch pair:
// src_epoch (the sender's incarnation) and dst_epoch (the sender's view of
// the receiver's).  A restarted node bumps its epoch; frames addressed to a
// previous incarnation are counted stale_dropped and answered with a
// standalone RT-ACK announcing the new epoch, which makes the sender fence:
// abandon its window, restart its sequence space, and drop every piece of
// rx state it holds for the dead incarnation (so a piggybacked ack can
// never carry the old incarnation's cum/sack into the new one and falsely
// retire fresh frames).  Acks are likewise only applied when they describe
// the exact stream the current window belongs to.
//
// Stream generations.  Retry-cap abandonment clears the window; against a
// peer that was merely unreachable (a long loss window) rather than dead,
// the receiver would then hold a sequence gap nothing will ever fill and
// every later frame would buffer forever.  So each (src, dst, epoch) stream
// carries a generation number: abandonment bumps the sender's generation
// and restarts its sequence space, and a receiver seeing a newer generation
// adopts a fresh sequence space (the abandoned payloads are lost — that is
// what the retry cap means — but the link resynchronises by itself the
// moment loss heals).  Acks name the generation they describe and are
// ignored by a sender that has since moved on.
//
// Everything is deterministic: timers run on the simulation clock and
// retransmit jitter comes from a seeded per-endpoint Rng, so a (seed,
// config) pair fully determines a lossy run — golden traces hold.
#pragma once

#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "net/payload.hpp"
#include "net/transport.hpp"
#include "obs/tracer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "stats/kind_counter.hpp"

namespace dmx::net {

/// Reliability-layer tuning.  Defaults suit the paper's T_msg = 0.1 units;
/// scaled_to() derives the same proportions for any message delay.
struct ReliableTransportConfig {
  sim::SimTime ack_delay = sim::SimTime::units(0.05);    ///< Delayed-ack wait.
  sim::SimTime rto_initial = sim::SimTime::units(0.3);   ///< First timeout.
  sim::SimTime rto_max = sim::SimTime::units(4.8);       ///< Backoff ceiling.
  double backoff_factor = 2.0;   ///< RTO multiplier per consecutive timeout.
  double jitter_frac = 0.1;      ///< RTO *= 1 + jitter_frac * U[0,1).
  int max_retries = 12;          ///< Retransmissions per frame before abandon.

  /// Proportional defaults for a given one-way message delay: half a delay
  /// of ack batching, an RTO of three delays (one round trip plus slack),
  /// and a ceiling that keeps a dead peer from being probed forever.
  [[nodiscard]] static ReliableTransportConfig scaled_to(sim::SimTime t_msg);
};

/// Reliability-plane counters for one endpoint (merged per cluster for the
/// sweep tables).  Per-kind counters are indexed by the *inner* payload kind,
/// so "retransmits of PRIVILEGE" is a first-class statistic.
struct TransportStats {
  /// Pre-sizes the per-kind tables to every registered kind (same policy as
  /// NetworkStats): the growth branch in increment() never fires mid-run.
  TransportStats() {
    const std::size_t n = MsgKindRegistry::instance().size();
    retrans_by_kind.ensure(n);
    dup_dropped_by_kind.ensure(n);
  }

  std::uint64_t data_sent = 0;     ///< Fresh RT-DATA frames.
  std::uint64_t retransmits = 0;   ///< RT-DATA frames resent on timeout.
  std::uint64_t acks_sent = 0;     ///< Standalone RT-ACK frames.
  std::uint64_t dup_dropped = 0;   ///< Frames suppressed as duplicates.
  std::uint64_t reorder_buffered = 0;  ///< Out-of-order frames parked.
  std::uint64_t stale_dropped = 0;     ///< Wrong-epoch frames fenced.
  std::uint64_t abandoned = 0;     ///< Payloads given up at the retry cap
                                   ///< or fenced by an epoch change.
  stats::KindCounter retrans_by_kind;      ///< By inner payload kind.
  stats::KindCounter dup_dropped_by_kind;  ///< By inner payload kind.

  void merge(const TransportStats& o);
};

/// Sequenced data frame.  Wraps one algorithm payload; fault configuration
/// keyed by message type matches the inner payload (fault_target()).
struct RtData final : Msg<RtData> {
  DMX_REGISTER_MESSAGE(RtData, "RT-DATA");

  RtData(std::uint32_t se, std::uint32_t de, std::uint32_t g,
         std::uint64_t sequence, std::uint64_t cum, std::uint64_t sack,
         std::uint32_t ag, bool rtx, PayloadPtr payload)
      : src_epoch(se), dst_epoch(de), gen(g), seq(sequence), cum_ack(cum),
        sack_mask(sack), ack_gen(ag), is_retransmit(rtx),
        inner(std::move(payload)) {}

  std::uint32_t src_epoch;
  std::uint32_t dst_epoch;
  std::uint32_t gen;        ///< Sender's stream generation for seq.
  std::uint64_t seq;
  std::uint64_t cum_ack;    ///< Reverse path: all peer seqs <= this received.
  std::uint64_t sack_mask;  ///< Bit i: peer seq cum_ack+1+i received.
  std::uint32_t ack_gen;    ///< Generation of the reverse-path stream that
                            ///< cum_ack/sack_mask describe.
  bool is_retransmit;
  PayloadPtr inner;

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t size_hint() const override {
    return 36 + inner->size_hint();  // epochs + gens + seq + cum/sack + flag.
  }
  [[nodiscard]] const Payload& fault_target() const override { return *inner; }
};

/// Standalone acknowledgement (delayed-ack timer fired, or an epoch
/// announcement in reply to a stale frame).
struct RtAck final : Msg<RtAck> {
  DMX_REGISTER_MESSAGE(RtAck, "RT-ACK");

  RtAck(std::uint32_t se, std::uint32_t de, std::uint32_t ag,
        std::uint64_t cum, std::uint64_t sack)
      : src_epoch(se), dst_epoch(de), ack_gen(ag), cum_ack(cum),
        sack_mask(sack) {}

  std::uint32_t src_epoch;
  std::uint32_t dst_epoch;
  std::uint32_t ack_gen;  ///< Generation of the stream cum_ack describes.
  std::uint64_t cum_ack;
  std::uint64_t sack_mask;

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t size_hint() const override { return 28; }
};

/// One node's end of the reliability layer.  Implements Transport for the
/// Process above it and MessageHandler for the Network below it; the Cluster
/// attaches it to the network in place of the Process and points the
/// Process's transport at it.
class ReliableEndpoint final : public Transport, public MessageHandler {
 public:
  /// `tracer` (optional) receives transport.retransmit / .abandon / .fence
  /// events so retransmission storms and fencing show up on run timelines.
  ReliableEndpoint(Network& net, NodeId self, MessageHandler& upper,
                   ReliableTransportConfig cfg, std::uint64_t rng_seed,
                   obs::Tracer tracer = {});

  // Transport: downcalls from the Process.  src must equal the owning node.
  void send(NodeId src, NodeId dst, PayloadPtr payload) override;
  void broadcast(NodeId src, const PayloadPtr& payload) override;

  // MessageHandler: raw frames up from the Network.
  void on_message(const Envelope& env) override;

  /// Crash lifecycle, driven by the Cluster in lockstep with the Process.
  /// on_restart() bumps the epoch and must run before the Process's own
  /// restart hook, so rejoin traffic already carries the new incarnation.
  void on_crash();
  void on_restart();

  [[nodiscard]] const TransportStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

 private:
  struct Unacked {
    std::uint64_t seq;
    PayloadPtr inner;
    int retries = 0;
  };
  struct Buffered {
    std::uint64_t seq;
    PayloadPtr inner;
    sim::SimTime sent_at;
    std::uint64_t msg_id;
  };
  // Both per-peer queues are plain vectors: empty ones own no heap, so a
  // link costs its hash-table node until it carries traffic, and a warmed
  // link reuses the capacity it already has.
  struct PeerState {
    // --- transmit side.
    std::uint32_t peer_epoch = 1;  ///< Our view of the peer's incarnation.
    std::uint32_t tx_gen = 1;  ///< Our stream generation (bumps on abandon).
    std::uint64_t next_seq = 1;
    std::vector<Unacked> window;  ///< Unacked frames in seq order.
    sim::SimTime rto;  ///< Current timeout (backs off; resets on progress).
    sim::EventId rto_event;
    // --- receive side.
    std::uint32_t rx_epoch = 0;  ///< Incarnation this rx state belongs to.
    std::uint32_t rx_gen = 0;    ///< Generation of the peer stream we track.
    std::uint64_t cum = 0;       ///< Highest contiguously delivered seq.
    /// Frames that arrived after a gap, sorted by seq (all > cum + 1); an
    /// in-order frame is delivered without passing through here.
    std::vector<Buffered> buffer;
    sim::EventId ack_event;      ///< Pending delayed-ack timer.
  };

  void handle_data(const Envelope& env, const RtData& d);
  void handle_ack(NodeId peer, const RtAck& a);

  /// Record a newly observed peer incarnation; if it is newer than the one
  /// our window addresses, fence: abandon the window, restart the sequence
  /// space (the new incarnation's rx state starts from zero), and discard
  /// our own rx state for the dead incarnation so no stale cum/sack is ever
  /// piggybacked — or acked standalone — into the new one.
  void note_peer_epoch(NodeId peer, std::uint32_t e);

  /// Retire window entries covered by (cum, sack); on progress the RTO
  /// resets to its initial value.
  void apply_ack(NodeId peer, PeerState& ps, std::uint64_t cum,
                 std::uint64_t sack);

  /// Hand one in-order payload to the Process above.
  void deliver_up(NodeId peer, PayloadPtr inner, sim::SimTime sent_at,
                  std::uint64_t msg_id);
  /// Deliver the buffered frames that the last delivery made contiguous.
  void deliver_ready(NodeId peer, PeerState& ps);
  void transmit(PeerState& ps, NodeId dst, const Unacked& u,
                bool is_retransmit);
  void schedule_ack(NodeId peer);
  void send_standalone_ack(NodeId peer);
  void arm_rto(NodeId peer);
  void on_rto(NodeId peer);
  void emit(obs::EventKind kind, NodeId peer, double value) const;
  [[nodiscard]] std::uint64_t sack_mask(const PeerState& ps) const;

  /// Per-peer state materializes on first contact: a node talks to O(active
  /// peers), not O(N), so a 100k-node cluster is not forced into N^2
  /// PeerStates at construction.  A new PeerState costs one hash-table node
  /// and nothing else until its window or reorder buffer first holds a frame.
  PeerState& peer_state(NodeId peer) {
    auto [it, inserted] = peers_.try_emplace(peer.value());
    if (inserted) it->second.rto = cfg_.rto_initial;
    return it->second;
  }

  Network& net_;
  sim::Simulator& sim_;
  NodeId self_;
  MessageHandler& upper_;
  ReliableTransportConfig cfg_;
  sim::Rng rng_;
  obs::Tracer tracer_;
  std::uint32_t epoch_ = 1;
  bool down_ = false;
  std::unordered_map<std::int32_t, PeerState> peers_;  ///< Keyed by peer id.
  TransportStats stats_;
  /// Timer identity for controlled scheduling (src/verify/): ack and RTO
  /// timers are tagged kTimer like process timers, but in a disjoint detail
  /// namespace so transport and protocol timers can never share a choice
  /// key on the same node.
  static constexpr std::uint64_t kTimerIdBase = 1u << 20;
  std::uint64_t next_timer_id_ = kTimerIdBase;
};

}  // namespace dmx::net
