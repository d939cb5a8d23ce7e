#include "net/reliable_transport.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/events.hpp"

namespace dmx::net {

ReliableTransportConfig ReliableTransportConfig::scaled_to(sim::SimTime t_msg) {
  ReliableTransportConfig cfg;
  cfg.ack_delay = t_msg.scaled(0.5);
  cfg.rto_initial = t_msg.scaled(3.0);
  cfg.rto_max = t_msg.scaled(48.0);
  return cfg;
}

void TransportStats::merge(const TransportStats& o) {
  data_sent += o.data_sent;
  retransmits += o.retransmits;
  acks_sent += o.acks_sent;
  dup_dropped += o.dup_dropped;
  reorder_buffered += o.reorder_buffered;
  stale_dropped += o.stale_dropped;
  abandoned += o.abandoned;
  retrans_by_kind.merge(o.retrans_by_kind);
  dup_dropped_by_kind.merge(o.dup_dropped_by_kind);
}

std::string RtData::describe() const {
  std::ostringstream os;
  os << "RT-DATA seq=" << seq << " g=" << gen << " e=" << src_epoch << ">"
     << dst_epoch << " cum=" << cum_ack << "/g" << ack_gen;
  if (sack_mask != 0) os << " sack=0x" << std::hex << sack_mask << std::dec;
  if (is_retransmit) os << " rtx";
  os << " [" << inner->describe() << "]";
  return os.str();
}

std::string RtAck::describe() const {
  std::ostringstream os;
  os << "RT-ACK e=" << src_epoch << ">" << dst_epoch << " cum=" << cum_ack
     << "/g" << ack_gen;
  if (sack_mask != 0) os << " sack=0x" << std::hex << sack_mask << std::dec;
  return os.str();
}

ReliableEndpoint::ReliableEndpoint(Network& net, NodeId self,
                                   MessageHandler& upper,
                                   ReliableTransportConfig cfg,
                                   std::uint64_t rng_seed, obs::Tracer tracer)
    : net_(net), sim_(net.simulator()), self_(self), upper_(upper), cfg_(cfg),
      rng_(rng_seed), tracer_(std::move(tracer)) {
  if (!self.valid() || self.index() >= net.size()) {
    throw std::out_of_range("ReliableEndpoint: node id out of range");
  }
  // peers_ stays empty until first contact (see peer_state()): endpoints are
  // O(1) to build regardless of cluster size.
}

void ReliableEndpoint::emit(obs::EventKind kind, NodeId peer,
                            double value) const {
  if (!tracer_.enabled()) return;
  tracer_.write(obs::Event{sim_.now(), kind, self_.value(), 0,
                           static_cast<std::int64_t>(peer.value()), value});
}

void ReliableEndpoint::send(NodeId src, NodeId dst, PayloadPtr payload) {
  if (src != self_) {
    throw std::invalid_argument("ReliableEndpoint::send: src is not owner");
  }
  if (dst == self_) {
    // Self-traffic needs no reliability machinery (the network never drops
    // or reorders a node's messages to itself); forward raw so delivery
    // timing matches the raw transport exactly.
    net_.send(src, dst, std::move(payload));
    return;
  }
  PeerState& ps = peer_state(dst);
  ps.window.push_back(Unacked{ps.next_seq++, std::move(payload), 0});
  ++stats_.data_sent;
  transmit(ps, dst, ps.window.back(), /*is_retransmit=*/false);
  if (!ps.rto_event.valid() || !sim_.pending(ps.rto_event)) arm_rto(dst);
}

void ReliableEndpoint::broadcast(NodeId src, const PayloadPtr& payload) {
  for (std::size_t i = 0; i < net_.size(); ++i) {
    const NodeId dst{static_cast<std::int32_t>(i)};
    if (dst == src) continue;
    send(src, dst, payload);
  }
}

void ReliableEndpoint::transmit(PeerState& ps, NodeId dst, const Unacked& u,
                                bool is_retransmit) {
  // Piggyback the reverse-path ack state; a pending delayed ack becomes
  // redundant the moment this frame leaves.
  if (ps.ack_event.valid()) {
    sim_.cancel(ps.ack_event);
    ps.ack_event = sim::EventId{};
  }
  net_.send(self_, dst,
            make_payload<RtData>(epoch_, ps.peer_epoch, ps.tx_gen, u.seq,
                                 ps.cum, sack_mask(ps), ps.rx_gen,
                                 is_retransmit, u.inner));
}

void ReliableEndpoint::on_message(const Envelope& env) {
  if (down_) return;
  if (const auto* d = env.as<RtData>()) {
    handle_data(env, *d);
  } else if (const auto* a = env.as<RtAck>()) {
    handle_ack(env.src, *a);
  } else {
    // Unwrapped traffic (self-sends bypass the layer); pass straight up.
    upper_.on_message(env);
  }
}

void ReliableEndpoint::note_peer_epoch(NodeId peer, std::uint32_t e) {
  PeerState& ps = peer_state(peer);
  if (e <= ps.peer_epoch) return;
  // The peer restarted: every unacked frame in the window addresses an
  // incarnation that no longer exists.  Fence — abandon, never replay — and
  // restart the sequence space, matching the fresh rx state the new
  // incarnation holds for us.
  emit(kEvRtFence, peer, static_cast<double>(ps.window.size()));
  stats_.abandoned += ps.window.size();
  ps.window.clear();
  ps.next_seq = 1;
  ps.tx_gen = 1;
  ps.rto = cfg_.rto_initial;
  if (ps.rto_event.valid()) {
    sim_.cancel(ps.rto_event);
    ps.rto_event = sim::EventId{};
  }
  ps.peer_epoch = e;
  // The rx state likewise describes the dead incarnation.  Adopt the new
  // epoch with an empty stream immediately — not at the first data frame
  // from it — because until then every frame we transmit piggybacks
  // cum/sack, and the old incarnation's values would pass the receiver's
  // epoch checks and falsely retire fresh frames it has yet to deliver.
  // Pointing rx_epoch at the new incarnation also fences old-incarnation
  // stragglers still in flight (d.src_epoch < rx_epoch drops them) instead
  // of re-adopting their dead stream.
  ps.rx_epoch = e;
  ps.rx_gen = 0;
  ps.cum = 0;
  ps.buffer.clear();
  if (ps.ack_event.valid()) {
    sim_.cancel(ps.ack_event);
    ps.ack_event = sim::EventId{};
  }
}

void ReliableEndpoint::handle_data(const Envelope& env, const RtData& d) {
  // Frames addressed to a previous incarnation of this node are fenced, and
  // the sender is told the current epoch so it stops retransmitting them.
  if (d.dst_epoch != epoch_) {
    ++stats_.stale_dropped;
    ++stats_.acks_sent;
    // Epoch announcement; ack_gen 0 never matches a live stream, so the
    // zero cum/sack can never be applied — only the fence matters.
    net_.send(self_, env.src,
              make_payload<RtAck>(epoch_, d.src_epoch, std::uint32_t{0},
                                  std::uint64_t{0}, std::uint64_t{0}));
    return;
  }
  note_peer_epoch(env.src, d.src_epoch);
  PeerState& ps = peer_state(env.src);

  if (d.src_epoch < ps.rx_epoch) {  // Old incarnation of the peer.
    ++stats_.stale_dropped;
    return;
  }
  if (d.src_epoch > ps.rx_epoch) {  // New incarnation: fresh sequence space.
    ps.rx_epoch = d.src_epoch;
    ps.rx_gen = d.gen;
    ps.cum = 0;
    ps.buffer.clear();
  } else if (d.gen != ps.rx_gen) {
    if (d.gen < ps.rx_gen) {  // Pre-abandonment straggler: dead stream.
      ++stats_.stale_dropped;
      return;
    }
    // The peer hit its retry cap, abandoned its window and restarted its
    // stream under a new generation; adopt the fresh sequence space (any
    // buffered frames belong to the abandoned stream and will never become
    // deliverable).
    ps.rx_gen = d.gen;
    ps.cum = 0;
    ps.buffer.clear();
  }

  // Piggybacked ack, valid only for the exact stream our window belongs to:
  // the incarnation it addresses and the generation it numbers.
  if (d.src_epoch == ps.peer_epoch && d.ack_gen == ps.tx_gen) {
    apply_ack(env.src, ps, d.cum_ack, d.sack_mask);
  }

  const auto slot = std::ranges::lower_bound(ps.buffer, d.seq, {},
                                             &Buffered::seq);
  if (d.seq <= ps.cum || (slot != ps.buffer.end() && slot->seq == d.seq)) {
    // Duplicate (fault-injected copy, or a retransmission whose original
    // got through).  Suppress, but still ack: the sender may be resending
    // precisely because our ack was lost.
    ++stats_.dup_dropped;
    stats_.dup_dropped_by_kind.increment(d.inner->kind().index());
    schedule_ack(env.src);
    return;
  }

  if (d.seq != ps.cum + 1) {  // A gap: park the frame until it is filled.
    ++stats_.reorder_buffered;
    ps.buffer.insert(slot, Buffered{d.seq, d.inner, env.sent_at, env.msg_id});
  } else {
    ++ps.cum;
    deliver_up(env.src, d.inner, env.sent_at, env.msg_id);
    if (down_) return;  // The upcall may have crashed us: no new timers.
    deliver_ready(env.src, ps);
  }
  schedule_ack(env.src);  // A no-op if an upcall crashed us.
}

void ReliableEndpoint::deliver_up(NodeId peer, PayloadPtr inner,
                                  sim::SimTime sent_at, std::uint64_t msg_id) {
  Envelope up;
  up.src = peer;
  up.dst = self_;
  up.sent_at = sent_at;
  up.delivered_at = sim_.now();
  up.msg_id = msg_id;
  up.payload = std::move(inner);
  upper_.on_message(up);
}

void ReliableEndpoint::deliver_ready(NodeId peer, PeerState& ps) {
  while (!ps.buffer.empty() && ps.buffer.front().seq == ps.cum + 1) {
    // Pop before the upcall: a send it makes piggybacks sack_mask(ps).
    Buffered b = std::move(ps.buffer.front());
    ps.buffer.erase(ps.buffer.begin());
    ++ps.cum;
    deliver_up(peer, std::move(b.inner), b.sent_at, b.msg_id);
    if (down_) return;  // The upcall may have crashed us (test harnesses).
  }
}

void ReliableEndpoint::handle_ack(NodeId peer, const RtAck& a) {
  if (a.dst_epoch != epoch_) {
    ++stats_.stale_dropped;
    return;
  }
  note_peer_epoch(peer, a.src_epoch);
  PeerState& ps = peer_state(peer);
  // Acks describing an older incarnation or a pre-abandonment generation
  // number a dead sequence space; applying one could wrongly retire fresh
  // frames that happen to reuse the same seqs.
  if (a.src_epoch == ps.peer_epoch && a.ack_gen == ps.tx_gen) {
    apply_ack(peer, ps, a.cum_ack, a.sack_mask);
  }
}

void ReliableEndpoint::apply_ack(NodeId peer, PeerState& ps, std::uint64_t cum,
                                 std::uint64_t sack) {
  const auto acked = std::ranges::partition_point(
      ps.window, [cum](const Unacked& u) { return u.seq <= cum; });
  bool progress = acked != ps.window.begin();
  ps.window.erase(ps.window.begin(), acked);
  if (sack != 0) {
    const auto sacked = [&](const Unacked& u) {
      return u.seq > cum && u.seq <= cum + 64 &&
             ((sack >> (u.seq - cum - 1)) & 1) != 0;
    };
    const auto n = std::erase_if(ps.window, sacked);
    progress = progress || n > 0;
  }
  if (!progress) return;
  ps.rto = cfg_.rto_initial;
  if (ps.rto_event.valid()) {
    sim_.cancel(ps.rto_event);
    ps.rto_event = sim::EventId{};
  }
  if (!ps.window.empty()) arm_rto(peer);
}

std::uint64_t ReliableEndpoint::sack_mask(const PeerState& ps) const {
  std::uint64_t mask = 0;
  for (const Buffered& b : ps.buffer) {
    if (b.seq > ps.cum + 64) break;  // The buffer is sorted by seq.
    mask |= 1ULL << (b.seq - ps.cum - 1);
  }
  return mask;
}

void ReliableEndpoint::schedule_ack(NodeId peer) {
  if (down_) return;  // Never arm a timer on a crashed endpoint.
  PeerState& ps = peer_state(peer);
  if (ps.ack_event.valid() && sim_.pending(ps.ack_event)) return;
  ps.ack_event = sim_.schedule_after(
      cfg_.ack_delay, [this, peer] { send_standalone_ack(peer); },
      sim::EventTag{self_.value(), sim::EventClass::kTimer,
                    next_timer_id_++});
}

void ReliableEndpoint::send_standalone_ack(NodeId peer) {
  if (down_) return;
  PeerState& ps = peer_state(peer);
  ps.ack_event = sim::EventId{};
  ++stats_.acks_sent;
  net_.send(self_, peer,
            make_payload<RtAck>(epoch_, ps.rx_epoch, ps.rx_gen, ps.cum,
                                sack_mask(ps)));
}

void ReliableEndpoint::arm_rto(NodeId peer) {
  PeerState& ps = peer_state(peer);
  // Seeded jitter decorrelates retransmit bursts across endpoints without
  // breaking determinism (each endpoint owns a forked Rng).
  const sim::SimTime delay =
      ps.rto.scaled(1.0 + cfg_.jitter_frac * rng_.uniform01());
  ps.rto_event = sim_.schedule_after(
      delay, [this, peer] { on_rto(peer); },
      sim::EventTag{self_.value(), sim::EventClass::kTimer, next_timer_id_++});
}

void ReliableEndpoint::on_rto(NodeId peer) {
  if (down_) return;
  PeerState& ps = peer_state(peer);
  ps.rto_event = sim::EventId{};
  if (ps.window.empty()) return;

  if (ps.window.front().retries >= cfg_.max_retries) {
    // Retry cap: presume the peer dead and abandon everything outstanding,
    // restarting the stream under a new generation.  If the peer was in
    // fact alive behind a long loss window, its rx state holds a sequence
    // gap the abandoned frames will never fill; the generation bump makes
    // it adopt a fresh sequence space, so the link resynchronises by
    // itself once loss heals instead of buffering every later frame
    // forever.  If the peer really is dead, the eventual epoch exchange
    // resynchronises as before.
    emit(kEvRtAbandon, peer, static_cast<double>(ps.window.size()));
    stats_.abandoned += ps.window.size();
    ps.window.clear();
    ++ps.tx_gen;
    ps.next_seq = 1;
    ps.rto = cfg_.rto_initial;
    return;
  }
  emit(kEvRtRetransmit, peer, static_cast<double>(ps.window.size()));
  for (auto& u : ps.window) {
    ++u.retries;
    ++stats_.retransmits;
    stats_.retrans_by_kind.increment(u.inner->kind().index());
    transmit(ps, peer, u, /*is_retransmit=*/true);
  }
  const sim::SimTime backed = ps.rto.scaled(cfg_.backoff_factor);
  ps.rto = std::min(backed, cfg_.rto_max);
  arm_rto(peer);
}

void ReliableEndpoint::on_crash() {
  down_ = true;
  // Map iteration order is unspecified; every operation below is per-peer
  // and order-independent, so determinism is unaffected.
  for (auto& [peer, ps] : peers_) {
    if (ps.rto_event.valid()) sim_.cancel(ps.rto_event);
    if (ps.ack_event.valid()) sim_.cancel(ps.ack_event);
    ps.rto_event = sim::EventId{};
    ps.ack_event = sim::EventId{};
  }
}

void ReliableEndpoint::on_restart() {
  ++epoch_;
  for (auto& [peer, ps] : peers_) {
    // The old incarnation's outbound state dies with it...
    stats_.abandoned += ps.window.size();
    ps.window.clear();
    ps.next_seq = 1;
    ps.tx_gen = 1;
    ps.rto = cfg_.rto_initial;
    // ...and so does its receive state: rx_epoch 0 re-adopts whatever the
    // peer sends next.  peer_epoch survives — it is knowledge about the
    // *peer*, and keeping it avoids a gratuitous fence round-trip.
    ps.rx_epoch = 0;
    ps.rx_gen = 0;
    ps.cum = 0;
    ps.buffer.clear();
  }
  down_ = false;
}

}  // namespace dmx::net
