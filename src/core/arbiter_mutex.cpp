#include "core/arbiter_mutex.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/events.hpp"
#include "obs/lifecycle.hpp"

namespace dmx::core {

namespace {

// The initial arbiter, which also holds the initial token (paper §2.2).
constexpr net::NodeId kInitialArbiter{0};
// Moving-window length of the average Q-list size estimate that drives the
// adaptive token-to-monitor period (§4.1).
constexpr std::size_t kQWindow = 10;
// A quorum-blocked invalidation round retries after this delay, doubling
// per consecutive blocked round up to the cap.
const sim::SimTime kQuorumBackoff = sim::SimTime::units(1.0);
const sim::SimTime kQuorumBackoffCap = sim::SimTime::units(8.0);

}  // namespace

void ArbiterStats::merge(const ArbiterStats& o) {
  requests_forwarded += o.requests_forwarded;
  requests_dropped_stale += o.requests_dropped_stale;
  requests_dropped_overforwarded += o.requests_dropped_overforwarded;
  duplicates_dropped += o.duplicates_dropped;
  resubmissions += o.resubmissions;
  monitor_resubmissions += o.monitor_resubmissions;
  dispatches += o.dispatches;
  monitor_dispatches += o.monitor_dispatches;
  monitor_buffered += o.monitor_buffered;
  monitor_patience_releases += o.monitor_patience_releases;
  monitor_visits += o.monitor_visits;
  warnings_sent += o.warnings_sent;
  enquiries_sent += o.enquiries_sent;
  resumes_sent += o.resumes_sent;
  invalidates_sent += o.invalidates_sent;
  tokens_regenerated += o.tokens_regenerated;
  probes_sent += o.probes_sent;
  arbiter_takeovers += o.arbiter_takeovers;
  quorum_blocked += o.quorum_blocked;
  quorum_reconciles += o.quorum_reconciles;
}

ArbiterMutex::ArbiterMutex(ArbiterParams params, std::size_t n_nodes)
    : params_(params), n_(n_nodes), q_sizes_(kQWindow),
      // The L array exists only in the sequenced variant; sizing it O(N) per
      // node unconditionally costs O(N^2) memory cluster-wide (80 GB at
      // N = 100k) and dominates large-N runs with page faults.
      last_granted_(params.sequenced ? n_nodes : 0, 0) {
  if (n_nodes == 0) throw std::invalid_argument("ArbiterMutex: zero nodes");
  if (params_.starvation_free &&
      (!params_.monitor.valid() || params_.monitor.index() >= n_nodes)) {
    throw std::invalid_argument("ArbiterMutex: bad monitor node");
  }
}

std::string_view ArbiterMutex::algorithm_name() const {
  if (params_.starvation_free) return "arbiter-tp-sf";
  if (params_.sequenced) return "arbiter-tp-seq";
  return "arbiter-tp";
}

std::string ArbiterMutex::debug_state() const {
  auto phase_name = [](ArbiterPhase p) {
    switch (p) {
      case ArbiterPhase::kNone:
        return "none";
      case ArbiterPhase::kAwaitingToken:
        return "awaiting-token";
      case ArbiterPhase::kIdleWithToken:
        return "idle-with-token";
      case ArbiterPhase::kWindow:
        return "window";
    }
    return "?";
  };
  auto pending_name = [](PendingState s) {
    switch (s) {
      case PendingState::kNone:
        return "none";
      case PendingState::kSent:
        return "sent";
      case PendingState::kScheduled:
        return "scheduled";
      case PendingState::kInCs:
        return "in-cs";
    }
    return "?";
  };
  std::string out(algorithm_name());
  out += ": role=";
  out += is_arbiter_ ? "arbiter" : "requester";
  out += " phase=";
  out += phase_name(phase_);
  out += " token=";
  out += have_token_ ? (suspended_ ? "held-suspended" : "held") : "no";
  out += " epoch=" + std::to_string(epoch_);
  out += " believes arbiter=" + std::to_string(arbiter_.value()) +
         " monitor=" + std::to_string(monitor_.value());
  out += " pending=";
  out += pending_name(pending_state_);
  if (pending_) {
    out += "(req " + std::to_string(pending_->request_id) + ", misses " +
           std::to_string(miss_count_) + ", retries " +
           std::to_string(retry_count_) + ")";
  }
  if (have_token_) out += " Q=" + q_to_string(q_);
  if (is_arbiter_) out += " collected=" + q_to_string(collect_q_);
  if (forwarding_) out += " forwarding";
  if (invalidation_running_) {
    out += " invalidating(round " + std::to_string(enquiry_round_) +
           ", replies " + std::to_string(replies_.size()) + "/" +
           std::to_string(enquiry_recipients_.size()) + ")";
  }
  if (quorum_blocked_streak_ > 0) {
    out += " quorum-parked(blocked x" +
           std::to_string(quorum_blocked_streak_) + ")";
  }
  return out;
}

void ArbiterMutex::on_start() {
  arbiter_ = kInitialArbiter;
  monitor_ = params_.monitor;
  // The initial configuration is static knowledge: everyone knows the
  // initial arbiter starts with the token, so the quorum guard's holder
  // set is never empty before the first dispatch.
  view_epoch_ = epoch_;
  view_arbiter_ = kInitialArbiter;
  view_q_.clear();
  if (id() == kInitialArbiter) {
    // The initial arbiter also holds the initial token (paper §2.2: node 1
    // is the arbiter and transmits the PRIVILEGE at the end of its first
    // collection phase).
    is_arbiter_ = true;
    have_token_ = true;
    phase_ = ArbiterPhase::kIdleWithToken;
    ++times_arbiter_;
    emitf(kEvArbiterInit,
          [] { return std::string("initial arbiter with token"); });
  }
}

void ArbiterMutex::on_restart() {
  // A restarted node rejoins with a clean slate; it re-learns the arbiter
  // from the next NEW-ARBITER broadcast (its stale belief is harmless: stale
  // REQUESTs are forwarded or dropped-and-resubmitted).
  have_token_ = false;
  suspended_ = false;
  q_.clear();
  is_arbiter_ = false;
  phase_ = ArbiterPhase::kNone;
  collect_q_.clear();
  forwarding_ = false;
  pending_.reset();
  pending_state_ = PendingState::kNone;
  miss_count_ = 0;
  monitor_buffer_.clear();
  invalidation_running_ = false;
  replied_waiting_round_ = 0;
  enquiry_recipients_.clear();
  replies_.clear();
  waiting_entries_.clear();
  // The dispatch view (view_epoch_/view_arbiter_/view_q_) survives like the
  // arbiter_ belief: stale holder knowledge only makes the quorum guard
  // more conservative, never less safe.
  quorum_blocked_streak_ = 0;
  last_regen_round_ = 0;
}

// ---------------------------------------------------------------------------
// Local request plane (driver-facing)
// ---------------------------------------------------------------------------

QEntry ArbiterMutex::make_own_entry() const {
  QEntry e;
  e.node = id();
  e.request_id = pending_->request_id;
  e.sequence = pending_->sequence;
  e.priority = pending_->priority;
  e.forward_count = 0;
  return e;
}

void ArbiterMutex::request(const mutex::CsRequest& req) {
  if (pending_.has_value()) {
    throw std::logic_error("ArbiterMutex::request: request already pending");
  }
  pending_ = req;
  pending_state_ = PendingState::kSent;
  miss_count_ = 0;
  retry_count_ = 0;
  if (is_arbiter_) {
    // The arbiter registers its own request locally: zero messages (this is
    // the 1/N term of the paper's Eq. (1)).
    arbiter_add_request(make_own_entry(), /*from_monitor=*/true);
    return;
  }
  send(arbiter_, net::make_payload<RequestMsg>(make_own_entry()));
  arm_request_retry();
}

void ArbiterMutex::arm_request_retry() {
  if (params_.request_retry_timeout <= sim::SimTime::zero()) return;
  cancel_timer(request_retry_timer_);
  request_retry_timer_ = set_timer(params_.request_retry_timeout, [this] {
    // §6's timeout rule: our request vanished and the system may be idle
    // (no NEW-ARBITER traffic to reveal the omission) — retransmit.
    if (pending_.has_value() && pending_state_ == PendingState::kSent &&
        !is_arbiter_) {
      ++retry_count_;
      if (retry_count_ % 3 == 0) {
        // Repeated unicast retries are going nowhere (our arbiter belief is
        // probably stale and the system quiet): broadcast the request as a
        // last resort — whoever is the arbiter will collect it, everyone
        // else drops it.
        emitf(kEvResubmitBroadcast,
              [] { return std::string("broadcast retry"); },
              pending_->request_id);
        broadcast(net::make_payload<RequestMsg>(make_own_entry()));
        // If no node currently holds arbitership (e.g. the arbiter crashed
        // and restarted with amnesia before anyone noticed), the broadcast
        // lands on non-arbiters that all drop it — escalate by probing the
        // believed arbiter: a not-on-duty reply (or silence) triggers the
        // takeover path.
        if (params_.recovery) on_successor_silent();
        arm_request_retry();
      } else {
        resubmit_pending(/*to_monitor=*/false);
      }
    }
  });
}

void ArbiterMutex::release() {
  if (pending_state_ != PendingState::kInCs) {
    throw std::logic_error("ArbiterMutex::release: not in critical section");
  }
  if (params_.sequenced) {
    last_granted_[id().index()] =
        std::max(last_granted_[id().index()], pending_->sequence);
  }
  // Pop our just-served entry from the head of the Q-list.
  if (!q_.empty() && q_.front().node == id() &&
      q_.front().request_id == pending_->request_id) {
    q_.erase(q_.begin());
  }
  pending_.reset();
  pending_state_ = PendingState::kNone;
  miss_count_ = 0;
  retry_count_ = 0;
  cancel_timer(token_timeout_timer_);
  cancel_timer(request_retry_timer_);
  process_token();
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

const runtime::MsgDispatcher<ArbiterMutex>& ArbiterMutex::dispatch_table() {
  static const auto kTable = [] {
    runtime::MsgDispatcher<ArbiterMutex> t;
    t.on<&ArbiterMutex::on_request>()
        .on<&ArbiterMutex::on_privilege>()
        .on<&ArbiterMutex::on_new_arbiter>()
        .on<&ArbiterMutex::on_warning>()
        .on<&ArbiterMutex::on_enquiry>()
        .on<&ArbiterMutex::on_enquiry_reply>()
        .on<&ArbiterMutex::on_resume>()
        .on<&ArbiterMutex::on_invalidate>()
        .on<&ArbiterMutex::on_probe>()
        .on<&ArbiterMutex::on_probe_reply>();
    return t;
  }();
  return kTable;
}

void ArbiterMutex::handle(const net::Envelope& env) {
  if (!dispatch_table().dispatch(*this, env)) {
    throw std::logic_error("ArbiterMutex: unknown message type");
  }
}

void ArbiterMutex::on_probe(const net::Envelope& env, const ProbeMsg&) {
  send(env.src, net::make_payload<ProbeReplyMsg>(is_arbiter_));
}

void ArbiterMutex::on_probe_reply(const net::Envelope& env,
                                  const ProbeReplyMsg& msg) {
  cancel_timer(probe_timer_);
  if (msg.is_arbiter || is_arbiter_ || arbiter_ != env.src) {
    // The successor is alive and on duty (it may simply have no demand to
    // dispatch yet): the hand-off window is confirmed and the watchdog's
    // job is done.  Not re-arming also lets an idle system go quiet.
  } else {
    // The successor is alive but never learned it was elected (its
    // NEW-ARBITER was lost): arbitership is orphaned — take over.
    takeover_arbitership();
  }
}

// ---------------------------------------------------------------------------
// REQUEST plane
// ---------------------------------------------------------------------------

void ArbiterMutex::on_request(const net::Envelope&, const RequestMsg& msg) {
  if (is_arbiter_) {
    arbiter_add_request(msg.entry, msg.from_monitor);
    return;
  }
  const bool at_monitor = params_.starvation_free && id() == monitor_;
  if (at_monitor && msg.to_monitor) {
    // §4.1: the monitor stores potential victims of indefinite forwarding
    // until the token visits.
    if (buffer_at_monitor(msg.entry)) {
      emitf(kEvMonitorBuffered,
            [&msg] { return "buffered " + msg.describe(); },
            msg.entry.request_id);
    }
    return;
  }
  if (arbiter_ != id() && (forwarding_ || at_monitor)) {
    // Request forwarding phase (§2.1): relay to the current arbiter.  A
    // stray REQUEST at the monitor (e.g. routed there during a via-monitor
    // hand-off) is relayed too: the monitor always knows a recent arbiter.
    QEntry fwd = msg.entry;
    ++fwd.forward_count;
    ++stats_.requests_forwarded;
    emit(obs::kEvReqForwarded, fwd.request_id, arbiter_.value());
    send(arbiter_, net::make_payload<RequestMsg>(fwd, /*to_monitor=*/false,
                                                 msg.from_monitor));
    return;
  }
  // Outside both phases: the basic algorithm drops the request; the
  // requester detects the omission from NEW-ARBITER Q-lists (§6) and
  // retransmits.
  ++stats_.requests_dropped_stale;
}

void ArbiterMutex::arbiter_add_request(const QEntry& entry, bool from_monitor) {
  if (params_.starvation_free && !from_monitor &&
      entry.forward_count > static_cast<int>(params_.tau)) {
    ++stats_.requests_dropped_overforwarded;
    return;
  }
  if (q_contains(collect_q_, entry.request_id) ||
      q_contains(last_batch_q_, entry.request_id) ||
      (have_token_ && q_contains(q_, entry.request_id))) {
    ++stats_.duplicates_dropped;
    return;
  }
  if (params_.sequenced &&
      entry.node.index() < last_granted_.size() &&
      entry.sequence <= last_granted_[entry.node.index()]) {
    ++stats_.duplicates_dropped;
    return;
  }
  collect_q_.push_back(entry);
  emit(obs::kEvReqQueued, entry.request_id, id().value());
  if (phase_ == ArbiterPhase::kIdleWithToken) {
    // First demand after an idle spell opens a fresh collection window
    // (Fig. 1's re-entered request-collection, event-driven).
    open_collection_window();
  }
}

// ---------------------------------------------------------------------------
// Arbiter plane
// ---------------------------------------------------------------------------

void ArbiterMutex::become_arbiter(net::NodeId prev_arbiter, QList last_batch) {
  if (is_arbiter_) return;
  is_arbiter_ = true;
  phase_ = ArbiterPhase::kAwaitingToken;
  prev_arbiter_ = prev_arbiter;
  last_batch_q_ = std::move(last_batch);
  ++times_arbiter_;
  emitf(kEvArbiterElected, [] { return std::string("became arbiter"); });
  arm_token_timeout();
}

void ArbiterMutex::open_collection_window() {
  phase_ = ArbiterPhase::kWindow;
  cancel_timer(window_timer_);
  window_timer_ = set_timer(params_.t_req, [this] { dispatch(); });
}

void ArbiterMutex::resume_collection() {
  if (collect_q_.empty()) {
    phase_ = ArbiterPhase::kIdleWithToken;
  } else {
    open_collection_window();
  }
}

std::uint32_t ArbiterMutex::monitor_period() const {
  const double avg = q_sizes_.mean(/*fallback=*/1.0);
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::ceil(avg)));
}

void ArbiterMutex::dedup_batch(QList& q) const {
  std::unordered_set<std::uint64_t> seen;
  std::erase_if(q, [&](const QEntry& e) {
    if (params_.sequenced && e.node.index() < last_granted_.size() &&
        e.sequence <= last_granted_[e.node.index()]) {
      return true;
    }
    return !seen.insert(e.request_id).second;
  });
}

void ArbiterMutex::dispatch() {
  dedup_batch(collect_q_);
  if (collect_q_.empty()) {
    phase_ = ArbiterPhase::kIdleWithToken;
    return;
  }
  order_batch(collect_q_, params_.order);
  // Swap rather than move-assign: q_'s previous batch is dead here, and its
  // buffer becomes the next collection round's capacity, keeping the
  // steady-state enqueue path allocation-free.
  q_.swap(collect_q_);
  collect_q_.clear();
  ++stats_.dispatches;
  emitf(kEvDispatch, [this] { return "Q=" + q_to_string(q_); }, 0,
        static_cast<std::int64_t>(q_.size()));
  note_scheduled_batch(q_);

  if (params_.starvation_free && counter_ + 1 >= monitor_period()) {
    // §4.1: route the token via the monitor, without a NEW-ARBITER
    // broadcast; the monitor appends its buffer and broadcasts instead.
    ++stats_.monitor_dispatches;
    if (monitor_ == id()) {
      monitor_token_visit();
      return;
    }
    send_privilege(monitor_, /*via_monitor=*/true);
    arbiter_ = monitor_;  // best forwarding target until the broadcast lands
    step_down();
    return;
  }

  const net::NodeId head = q_.front().node;
  const net::NodeId tail = q_.back().node;
  ++counter_;
  const bool keep_arbitership = (tail == id());
  // A batch holding only the arbiter's own request needs no messages at all
  // (the 1/N zero-message case of the paper's Eq. (1)).  Every other batch
  // is announced with a NEW-ARBITER broadcast, matching Eq. (4)'s N-1
  // broadcasts per batch — even when the tail is the arbiter itself, unless
  // the suppress_self_broadcast ablation is on.  Under recovery the
  // broadcast is always sent so the previous arbiter's watchdog sees
  // progress.
  const bool sole_self_batch = keep_arbitership && q_.size() == 1;
  const bool skip_broadcast =
      params_.suppress_self_broadcast ? keep_arbitership : sole_self_batch;
  if (!skip_broadcast || params_.recovery) announce(tail, q_, counter_);
  record_batch(tail);
  if (keep_arbitership) {
    await_own_token();
  } else {
    step_down();
  }
  if (head == id()) {
    process_token();  // grants our own pending request (we keep the token)
  } else {
    send_privilege(head, /*via_monitor=*/false);
  }
}

void ArbiterMutex::announce(net::NodeId arbiter, const QList& q,
                            std::uint32_t counter) {
  auto msg = net::make_payload_mut<NewArbiterMsg>();
  msg->new_arbiter = arbiter;
  msg->q = q;
  msg->counter = counter;
  msg->monitor = monitor_;
  msg->epoch = epoch_;
  broadcast(std::move(msg));
}

void ArbiterMutex::record_batch(net::NodeId tail) {
  q_sizes_.add(static_cast<double>(q_.size()));  // broadcast skips self
  arbiter_ = tail;
  note_dispatch_view(epoch_, tail, q_);
}

void ArbiterMutex::await_own_token() {
  phase_ = ArbiterPhase::kAwaitingToken;
  prev_arbiter_ = id();
  last_batch_q_ = q_;
  arm_token_timeout();
}

void ArbiterMutex::step_down() {
  is_arbiter_ = false;
  phase_ = ArbiterPhase::kNone;
  enter_forwarding_phase();
  arm_arbiter_watchdog();
}

void ArbiterMutex::enter_forwarding_phase() {
  forwarding_ = true;
  cancel_timer(forwarding_timer_);
  forwarding_timer_ = set_timer(params_.t_fwd, [this] { forwarding_ = false; });
}

// ---------------------------------------------------------------------------
// Token plane
// ---------------------------------------------------------------------------

void ArbiterMutex::send_privilege(net::NodeId dst, bool via_monitor) {
  auto msg = net::make_payload_mut<PrivilegeMsg>();
  msg->q = q_;
  if (params_.sequenced) msg->last_granted = last_granted_;
  msg->epoch = epoch_;
  msg->via_monitor = via_monitor;
  send(dst, std::move(msg));
  have_token_ = false;
}

void ArbiterMutex::on_privilege(const net::Envelope&,
                                const PrivilegeMsg& msg) {
  if (msg.epoch < epoch_) {
    // A token from before an invalidation: it has been superseded.
    emitf(kEvTokenStale,
          [&msg] { return "discarded stale " + msg.describe(); });
    return;
  }
  epoch_ = msg.epoch;
  have_token_ = true;
  q_ = msg.q;
  note_dispatch_view(msg.epoch, arbiter_, msg.q);
  if (params_.sequenced && !msg.last_granted.empty()) {
    for (std::size_t i = 0; i < last_granted_.size() &&
                            i < msg.last_granted.size(); ++i) {
      last_granted_[i] = std::max(last_granted_[i], msg.last_granted[i]);
    }
  }
  cancel_timer(token_timeout_timer_);
  if (replied_waiting_round_ != 0) {
    // We told an in-progress invalidation round "I am waiting"; entering the
    // CS now could race a token regeneration.  Hold the token suspended and
    // tell the arbiter it surfaced.
    suspended_ = true;
    auto reply = net::make_payload_mut<EnquiryReplyMsg>();
    reply->round = replied_waiting_round_;
    reply->status = TokenStatus::kHaveToken;
    send(arbiter_, std::move(reply));
    return;
  }
  if (msg.via_monitor && params_.starvation_free && id() == monitor_) {
    monitor_token_visit();
    return;
  }
  process_token();
}

void ArbiterMutex::process_token() {
  if (!have_token_ || suspended_) return;
  while (!q_.empty() && q_.front().node == id()) {
    if (pending_.has_value() && pending_state_ != PendingState::kInCs &&
        q_.front().request_id == pending_->request_id) {
      pending_state_ = PendingState::kInCs;
      cancel_timer(token_timeout_timer_);
      emitf(kEvCsEnter,
            [] { return std::string("entering critical section"); },
            pending_->request_id);
      grant(*pending_);
      return;  // release() resumes from here
    }
    // A stale entry for us (e.g. a resubmitted duplicate already served):
    // consume it so the token keeps moving.
    q_.erase(q_.begin());
  }
  if (q_.empty()) {
    arbiter_token_arrived();
    return;
  }
  emitf(kEvTokenPass,
        [this] {
          return "passing to node " + std::to_string(q_.front().node.value());
        },
        q_.front().request_id, q_.front().node.value());
  send_privilege(q_.front().node, /*via_monitor=*/false);
}

void ArbiterMutex::arbiter_token_arrived() {
  if (!is_arbiter_) {
    // The token arriving with an exhausted Q-list is itself proof of
    // arbitership (§3.1), covering a lost or suppressed NEW-ARBITER.
    become_arbiter(arbiter_, QList{});
    arbiter_ = id();
  }
  cancel_timer(token_timeout_timer_);
  clear_quorum_backoff();
  emitf(kEvTokenArrived,
        [this] {
          return "token arrived; collected=" + q_to_string(collect_q_);
        },
        0, static_cast<std::int64_t>(collect_q_.size()));
  resume_collection();
}

void ArbiterMutex::monitor_token_visit() {
  ++stats_.monitor_visits;
  // Append buffered (potentially starving) requests to the Q-list, then
  // broadcast the NEW-ARBITER the dispatching arbiter suppressed.
  q_.insert(q_.end(), monitor_buffer_.begin(), monitor_buffer_.end());
  monitor_buffer_.clear();
  cancel_timer(monitor_patience_timer_);
  dedup_batch(q_);
  counter_ = 0;
  if (params_.rotate_monitor) {
    monitor_ = net::NodeId{
        static_cast<std::int32_t>((id().index() + 1) % n_)};
  }
  if (q_.empty()) {
    // Every entry was a duplicate; keep the token here as a fresh arbiter.
    become_arbiter(arbiter_, QList{});
    arbiter_ = id();
    resume_collection();
    return;
  }
  const net::NodeId tail = q_.back().node;
  announce(tail, q_, counter_);
  record_batch(tail);
  note_scheduled_batch(q_);
  if (tail == id()) {
    if (is_arbiter_) {
      // We dispatched to ourselves as monitor and are also the next arbiter.
      await_own_token();
    } else {
      become_arbiter(id(), q_);
    }
  } else if (is_arbiter_) {
    // Inline monitor visit at the dispatching arbiter: arbitership moves on.
    step_down();
  }
  emitf(kEvMonitorTokenVisit,
        [this] { return "token visit; Q=" + q_to_string(q_); }, 0,
        static_cast<std::int64_t>(q_.size()));
  process_token();
}

bool ArbiterMutex::buffer_at_monitor(const QEntry& entry) {
  if (q_contains(monitor_buffer_, entry.request_id)) return false;
  monitor_buffer_.push_back(entry);
  ++stats_.monitor_buffered;
  if (params_.monitor_patience > sim::SimTime::zero() &&
      !timer_pending(monitor_patience_timer_)) {
    monitor_patience_timer_ = set_timer(params_.monitor_patience,
                                        [this] { monitor_release_buffer(); });
  }
  return true;
}

void ArbiterMutex::monitor_release_buffer() {
  if (monitor_buffer_.empty()) return;
  // Implementation safeguard beyond the paper: the adaptive period only
  // advances on dispatches, so a system that goes idle while the monitor
  // buffers requests would starve them.  Release them to the arbiter as
  // undroppable REQUESTs.
  ++stats_.monitor_patience_releases;
  for (const QEntry& e : monitor_buffer_) {
    if (arbiter_ == id()) break;  // we became arbiter; re-buffering is moot
    send(arbiter_, net::make_payload<RequestMsg>(e, /*to_monitor=*/false,
                                                 /*from_monitor=*/true));
  }
  if (arbiter_ == id()) {
    for (const QEntry& e : monitor_buffer_) {
      arbiter_add_request(e, /*from_monitor=*/true);
    }
  }
  monitor_buffer_.clear();
}

// ---------------------------------------------------------------------------
// NEW-ARBITER plane (requester bookkeeping, §6 implicit acks)
// ---------------------------------------------------------------------------

void ArbiterMutex::mark_scheduled() {
  pending_state_ = PendingState::kScheduled;
  miss_count_ = 0;
  retry_count_ = 0;
  cancel_timer(request_retry_timer_);
  arm_token_timeout();
}

void ArbiterMutex::note_scheduled_batch(const QList& q) {
  if (pending_.has_value() && pending_state_ == PendingState::kSent &&
      q_contains(q, pending_->request_id)) {
    mark_scheduled();
  }
}

void ArbiterMutex::on_new_arbiter(const net::Envelope& env,
                                  const NewArbiterMsg& msg) {
  if (msg.epoch < epoch_) return;  // superseded by an invalidation
  epoch_ = msg.epoch;
  note_dispatch_view(msg.epoch, msg.new_arbiter, msg.q);
  if (msg.new_arbiter != id() && is_arbiter_) {
    // Someone else claims arbitership while we believe we hold it (only
    // possible after recovery takeovers or lost broadcasts).
    if (have_token_) {
      // The token is the ground truth: re-assert our claim; the token-less
      // claimant abdicates on receiving it.
      emitf(kEvRecoveryReassert, [] {
        return std::string("re-asserting arbitership (we hold the token)");
      });
      announce(id(), QList{}, counter_);
      return;  // keep our own arbiter_ = self
    }
    // Token-less: step down and hand our collected batch to the claimant.
    emitf(kEvRecoveryAbdicate,
          [&msg] {
            return "abdicating to node " +
                   std::to_string(msg.new_arbiter.value());
          },
          0, msg.new_arbiter.value());
    is_arbiter_ = false;
    phase_ = ArbiterPhase::kNone;
    cancel_timer(window_timer_);
    clear_quorum_backoff();
    for (const QEntry& e : collect_q_) {
      if (e.node != id()) {
        send(msg.new_arbiter,
             net::make_payload<RequestMsg>(e, /*to_monitor=*/false,
                                           /*from_monitor=*/true));
      }
    }
    collect_q_.clear();
    if (pending_.has_value() && pending_state_ != PendingState::kInCs) {
      pending_state_ = PendingState::kSent;  // re-register below via miss path
    }
  }
  arbiter_ = msg.new_arbiter;
  if (msg.monitor.valid()) monitor_ = msg.monitor;
  counter_ = msg.counter;
  if (!msg.q.empty()) q_sizes_.add(static_cast<double>(msg.q.size()));
  replied_waiting_round_ = 0;  // progress resolves any invalidation round
  cancel_timer(watchdog_timer_);
  cancel_timer(probe_timer_);

  if (msg.new_arbiter == id() && !is_arbiter_) {
    become_arbiter(env.src, msg.q);
  }

  if (!pending_.has_value() || pending_state_ == PendingState::kInCs) return;

  if (q_contains(msg.q, pending_->request_id)) {
    // The Q-list doubles as the implicit acknowledgment (§6).
    mark_scheduled();
    return;
  }

  if (pending_state_ == PendingState::kScheduled) {
    // A new batch was announced without the token ever reaching us: our
    // PRIVILEGE (or our entry) was lost.  Retransmit immediately (§6).
    pending_state_ = PendingState::kSent;
    miss_count_ = 0;
    resubmit_pending(/*to_monitor=*/false);
    return;
  }

  // Still unscheduled: count the miss.
  ++miss_count_;
  if (params_.starvation_free && params_.tau > 0 && miss_count_ >= params_.tau &&
      miss_count_ % params_.tau == 0) {
    resubmit_pending(/*to_monitor=*/true);
  } else if (params_.resubmit_after_misses > 0 &&
             miss_count_ % params_.resubmit_after_misses == 0) {
    resubmit_pending(/*to_monitor=*/false);
  }
}

void ArbiterMutex::resubmit_pending(bool to_monitor) {
  if (!pending_.has_value()) return;
  if (is_arbiter_) {
    arbiter_add_request(make_own_entry(), /*from_monitor=*/true);
    return;
  }
  if (to_monitor) {
    ++stats_.monitor_resubmissions;
    emitf(kEvResubmitMonitor,
          [this] { return "to monitor " + std::to_string(monitor_.value()); },
          pending_->request_id, monitor_.value());
    if (monitor_ == id()) {
      buffer_at_monitor(make_own_entry());  // we are the monitor
    } else {
      send(monitor_, net::make_payload<RequestMsg>(make_own_entry(),
                                                   /*to_monitor=*/true));
    }
    return;
  }
  ++stats_.resubmissions;
  emitf(kEvResubmitArbiter,
        [this] { return "to arbiter " + std::to_string(arbiter_.value()); },
        pending_->request_id, arbiter_.value());
  send(arbiter_, net::make_payload<RequestMsg>(make_own_entry()));
  arm_request_retry();
}

// ---------------------------------------------------------------------------
// Recovery plane (§6)
// ---------------------------------------------------------------------------

void ArbiterMutex::arm_token_timeout() {
  if (!params_.recovery) return;
  cancel_timer(token_timeout_timer_);
  token_timeout_timer_ =
      set_timer(params_.token_timeout, [this] { on_token_timeout(); });
}

void ArbiterMutex::on_token_timeout() {
  if (have_token_) return;
  if (is_arbiter_) {
    if (!invalidation_running_) start_invalidation();
  } else if (arbiter_.valid() && arbiter_ != id()) {
    ++stats_.warnings_sent;
    const std::uint64_t rid = pending_ ? pending_->request_id : 0;
    auto w = net::make_payload_mut<WarningMsg>();
    w->request_id = rid;
    send(arbiter_, std::move(w));
  }
  arm_token_timeout();  // keep watching until the token shows up
}

void ArbiterMutex::on_warning(const net::Envelope&, const WarningMsg&) {
  if (!params_.recovery) return;
  if (!is_arbiter_ || have_token_ || invalidation_running_) return;
  start_invalidation();
}

void ArbiterMutex::start_invalidation() {
  invalidation_running_ = true;
  ++enquiry_round_;
  replies_.clear();
  waiting_entries_.clear();
  enquiry_recipients_.clear();
  std::unordered_set<net::NodeId> targets;
  if (!params_.recovery_quorum) {
    for (const QEntry& e : last_batch_q_) {
      if (e.node != id()) targets.insert(e.node);
    }
    if (prev_arbiter_.valid() && prev_arbiter_ != id()) {
      targets.insert(prev_arbiter_);
    }
  }
  if (targets.empty()) {
    // Ask everyone: quorum mode always does (the majority count is over N,
    // and any node may carry the freshest view of who could hold the
    // token), and so does a takeover, which knows no batch.
    for (std::size_t i = 0; i < n_; ++i) {
      const net::NodeId nid{static_cast<std::int32_t>(i)};
      if (nid != id()) targets.insert(nid);
    }
  }
  emitf(kEvRecoveryInvalidation,
        [&] {
          return "two-phase invalidation round " +
                 std::to_string(enquiry_round_) + " (" +
                 std::to_string(targets.size()) + " enquiries)";
        },
        0, static_cast<std::int64_t>(enquiry_round_),
        static_cast<double>(targets.size()));
  for (net::NodeId t : targets) {
    enquiry_recipients_.push_back(t);
    auto e = net::make_payload_mut<EnquiryMsg>();
    e->round = enquiry_round_;
    send(t, std::move(e));
    ++stats_.enquiries_sent;
  }
  cancel_timer(enquiry_timer_);
  enquiry_timer_ =
      set_timer(params_.enquiry_timeout, [this] { conclude_invalidation(); });
}

void ArbiterMutex::on_enquiry(const net::Envelope& env, const EnquiryMsg& msg) {
  auto reply = net::make_payload_mut<EnquiryReplyMsg>();
  reply->round = msg.round;
  if (have_token_) {
    reply->status = TokenStatus::kHaveToken;
    suspended_ = true;  // phase 1: freeze the token until RESUME/INVALIDATE
  } else if (pending_.has_value() &&
             pending_state_ == PendingState::kScheduled) {
    reply->status = TokenStatus::kWaiting;
    reply->entry = make_own_entry();
    replied_waiting_round_ = msg.round;
  } else {
    reply->status = TokenStatus::kExecutedAndPassed;
  }
  reply->view_epoch = view_epoch_;
  reply->view_arbiter = view_arbiter_;
  reply->view_q = view_q_;
  send(env.src, std::move(reply));
  if (params_.recovery_quorum && have_token_ && is_arbiter_) {
    // Heal-time reconciliation: an ENQUIRY reaching a token-holding arbiter
    // means some other node believes arbitership is orphaned — typically a
    // candidate on the far side of a healed partition.  Its arrival is
    // proof the link works again; re-announce arbitership so that side
    // repoints without replaying stale grants (our epoch rides along,
    // superseding older beliefs).
    ++stats_.quorum_reconciles;
    emitf(kEvQuorumReconcile,
          [&env] {
            return "re-announcing arbitership to healed node " +
                   std::to_string(env.src.value());
          },
          0, env.src.value());
    announce(id(), QList{}, counter_);
  }
}

void ArbiterMutex::send_resume(net::NodeId dst, std::uint64_t round) {
  auto r = net::make_payload_mut<ResumeMsg>();
  r->round = round;
  send(dst, std::move(r));
  ++stats_.resumes_sent;
}

void ArbiterMutex::on_enquiry_reply(const net::Envelope& env,
                                    const EnquiryReplyMsg& msg) {
  if (!invalidation_running_ || msg.round != enquiry_round_) {
    if (msg.status == TokenStatus::kHaveToken) {
      if (params_.recovery_quorum && last_regen_round_ < msg.round) {
        // Quorum mode parked that round without regenerating: the surfaced
        // token is the genuine one, not a superseded duplicate — let it
        // proceed instead of ordering the only token destroyed.
        send_resume(env.src, msg.round);
        arm_token_timeout();
        clear_quorum_backoff();
        return;
      }
      // A token surfaced after we concluded loss and regenerated: it is
      // stale under the new epoch — order it discarded.
      auto inv = net::make_payload_mut<InvalidateMsg>();
      inv->round = msg.round;
      inv->new_epoch = epoch_;
      send(env.src, std::move(inv));
      ++stats_.invalidates_sent;
    }
    return;
  }
  ReplyInfo& info = replies_[env.src];
  info.status = msg.status;
  info.view_epoch = msg.view_epoch;
  info.view_arbiter = msg.view_arbiter;
  info.view_q = msg.view_q;
  if (msg.status == TokenStatus::kHaveToken) {
    // Phase 2, token found: everything resumes.
    send_resume(env.src, msg.round);
    invalidation_running_ = false;
    cancel_timer(enquiry_timer_);
    arm_token_timeout();  // keep waiting for the token to finish its route
    clear_quorum_backoff();
    return;
  }
  if (msg.status == TokenStatus::kWaiting &&
      !q_contains(waiting_entries_, msg.entry.request_id)) {
    waiting_entries_.push_back(msg.entry);
  }
  if (replies_.size() >= enquiry_recipients_.size()) {
    conclude_invalidation();
  }
}

void ArbiterMutex::conclude_invalidation() {
  if (!invalidation_running_) return;
  invalidation_running_ = false;
  cancel_timer(enquiry_timer_);
  if (params_.recovery_quorum && !quorum_regeneration_allowed()) {
    park_invalidation();
    return;
  }
  // Phase 2, token lost: invalidate the waiting nodes' expectations and
  // regenerate the token under a new epoch, with the waiters at the front
  // of the Q-list.  Non-responders are presumed failed and excluded.
  ++epoch_;
  last_regen_round_ = enquiry_round_;
  clear_quorum_backoff();
  for (const QEntry& e : waiting_entries_) {
    auto inv = net::make_payload_mut<InvalidateMsg>();
    inv->round = enquiry_round_;
    inv->new_epoch = epoch_;
    send(e.node, std::move(inv));
    ++stats_.invalidates_sent;
  }
  collect_q_.insert(collect_q_.begin(), waiting_entries_.begin(),
                    waiting_entries_.end());
  if (pending_.has_value() && pending_state_ == PendingState::kScheduled &&
      !q_contains(collect_q_, pending_->request_id)) {
    collect_q_.insert(collect_q_.begin(), make_own_entry());
  }
  waiting_entries_.clear();
  have_token_ = true;
  suspended_ = false;
  q_.clear();
  last_batch_q_.clear();
  // The regenerated token lives here until the next dispatch.
  view_epoch_ = epoch_;
  view_arbiter_ = id();
  view_q_.clear();
  ++stats_.tokens_regenerated;
  emitf(kEvTokenRegenerated,
        [this] {
          return "token regenerated, epoch " + std::to_string(epoch_);
        },
        0, static_cast<std::int64_t>(epoch_));
  resume_collection();
}

// ---------------------------------------------------------------------------
// Partition-safe recovery plane (quorum mode, beyond the paper)
// ---------------------------------------------------------------------------

void ArbiterMutex::note_dispatch_view(std::uint64_t epoch, net::NodeId arb,
                                      const QList& q) {
  if (epoch < view_epoch_) return;
  // An empty Q at the same epoch is a role announcement (takeover,
  // reassert), not a dispatch: it moves no token, so it must not erase the
  // holder knowledge carried by the last real dispatch (or the initial
  // configuration).
  if (epoch == view_epoch_ && q.empty()) return;
  view_epoch_ = epoch;
  view_arbiter_ = arb;
  view_q_ = q;
}

bool ArbiterMutex::quorum_regeneration_allowed() const {
  // (a) Fresh ENQUIRY-REPLYs from a strict majority of N (the candidate
  // counts itself).  A minority partition can never pass this — that alone
  // rules out simultaneous regeneration on both sides of a single cut.
  if (2 * (replies_.size() + 1) <= n_) return false;
  // (b) A majority is not sufficient: the token may sit in the minority
  // (the classic hazard has the cut isolate the in-CS holder).  Every node
  // the freshest views name as a possible holder — the believed arbiter
  // and the Q-list members of each max-epoch dispatch view — must have
  // replied it does not hold the token.  Views at older epochs describe
  // superseded tokens and are ignored.
  std::uint64_t max_epoch = view_epoch_;
  for (const auto& [node, r] : replies_) {
    max_epoch = std::max(max_epoch, r.view_epoch);
  }
  bool unaccounted = false;
  auto check_holder = [&](net::NodeId h) {
    if (h.valid() && h != id() && replies_.find(h) == replies_.end()) {
      unaccounted = true;
    }
  };
  auto scan_view = [&](std::uint64_t e, net::NodeId arb, const QList& q) {
    if (e != max_epoch) return;
    check_holder(arb);
    for (const QEntry& qe : q) check_holder(qe.node);
  };
  scan_view(view_epoch_, view_arbiter_, view_q_);
  for (const auto& [node, r] : replies_) {
    scan_view(r.view_epoch, r.view_arbiter, r.view_q);
  }
  return !unaccounted;
}

void ArbiterMutex::park_invalidation() {
  // Graceful degradation: no second token without the quorum's blessing.
  // Release the round's "waiting" repliers (so a genuinely surfacing token
  // is not stuck suspended at them), keep the collected demand, and retry
  // the invalidation round under bounded exponential backoff — on heal the
  // retried ENQUIRYs reach the other side and resolve the round properly.
  ++stats_.quorum_blocked;
  ++quorum_blocked_streak_;
  emitf(kEvQuorumBlocked,
        [this] {
          return "regeneration blocked: " + std::to_string(replies_.size()) +
                 "/" + std::to_string(n_ - 1) +
                 " replies, quorum or holder coverage unmet (round " +
                 std::to_string(enquiry_round_) + ")";
        },
        0, static_cast<std::int64_t>(enquiry_round_),
        static_cast<double>(replies_.size()));
  for (const auto& [node, r] : replies_) {
    if (r.status == TokenStatus::kWaiting) send_resume(node, enquiry_round_);
  }
  waiting_entries_.clear();
  replies_.clear();
  enquiry_recipients_.clear();
  const std::uint32_t shift =
      std::min<std::uint32_t>(quorum_blocked_streak_ - 1, 20);
  const sim::SimTime delay =
      std::min(kQuorumBackoff * (std::int64_t{1} << shift), kQuorumBackoffCap);
  cancel_timer(quorum_retry_timer_);
  quorum_retry_timer_ = set_timer(delay, [this] {
    if (is_arbiter_ && !have_token_ && !invalidation_running_) {
      start_invalidation();
    }
  });
}

void ArbiterMutex::clear_quorum_backoff() {
  quorum_blocked_streak_ = 0;
  cancel_timer(quorum_retry_timer_);
}

void ArbiterMutex::on_resume(const net::Envelope&, const ResumeMsg& msg) {
  if (replied_waiting_round_ == msg.round) replied_waiting_round_ = 0;
  if (!suspended_) return;
  suspended_ = false;
  emitf(kEvRecoveryResumed, [] { return std::string("resumed"); });
  if (have_token_ && pending_state_ != PendingState::kInCs) process_token();
}

void ArbiterMutex::on_invalidate(const net::Envelope&,
                                 const InvalidateMsg& msg) {
  if (params_.recovery_quorum && msg.new_epoch <= epoch_ && have_token_) {
    // Quorum mode: only a genuinely newer epoch may destroy a held token.
    // A candidate that parked (no epoch bump) knows less than we do — its
    // stale INVALIDATE must not kill the cluster's only token.  Treat it
    // as a resume so a phase-1 freeze cannot wedge us.
    replied_waiting_round_ = 0;
    if (suspended_) {
      suspended_ = false;
      if (pending_state_ != PendingState::kInCs) process_token();
    }
    return;
  }
  if (msg.new_epoch > epoch_) epoch_ = msg.new_epoch;
  replied_waiting_round_ = 0;
  if (have_token_) {
    // Our (suspended or late-arriving) token has been superseded.
    have_token_ = false;
    suspended_ = false;
    q_.clear();
    emitf(kEvTokenInvalidated,
          [] { return std::string("held token invalidated"); });
  }
  if (pending_.has_value() && pending_state_ == PendingState::kScheduled) {
    arm_token_timeout();  // the regenerated token will reach us
  }
}

void ArbiterMutex::arm_arbiter_watchdog() {
  if (!params_.recovery) return;
  cancel_timer(watchdog_timer_);
  watchdog_timer_ =
      set_timer(params_.arbiter_timeout, [this] { on_successor_silent(); });
}

void ArbiterMutex::on_successor_silent() {
  if (is_arbiter_ || arbiter_ == id()) return;
  // A probe is already in flight: let it reach its verdict (a reply, or the
  // probe_timeout takeover) instead of resetting the clock.  Under loss,
  // repeated broadcast-retry escalations would otherwise keep cancelling
  // and re-arming the probe, and a live-but-slow arbiter whose replies are
  // being dropped would be usurped by whichever probe happens to time out.
  if (timer_pending(probe_timer_)) return;
  ++stats_.probes_sent;
  emitf(kEvRecoveryProbe,
        [this] {
          return "probing silent arbiter " + std::to_string(arbiter_.value());
        },
        0, arbiter_.value());
  send(arbiter_, net::make_payload<ProbeMsg>());
  cancel_timer(probe_timer_);
  probe_timer_ =
      set_timer(params_.probe_timeout, [this] { takeover_arbitership(); });
}

void ArbiterMutex::takeover_arbitership() {
  ++stats_.arbiter_takeovers;
  emitf(kEvRecoveryTakeover, [] { return std::string("arbiter takeover"); });
  arbiter_ = id();
  become_arbiter(net::NodeId{}, QList{});
  announce(id(), QList{}, counter_);
  if (pending_.has_value() && pending_state_ != PendingState::kInCs &&
      !q_contains(collect_q_, pending_->request_id)) {
    pending_state_ = PendingState::kSent;
    arbiter_add_request(make_own_entry(), /*from_monitor=*/true);
  }
}

}  // namespace dmx::core
