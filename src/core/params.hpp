// Tunable parameters of the arbiter token-passing algorithm and its variants.
#pragma once

#include <cstdint>

#include "core/q_list.hpp"
#include "mutex/params.hpp"
#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace dmx::core {

struct ArbiterParams {
  // --- basic algorithm (§2.1) ----------------------------------------------
  /// Duration of the timed request-collection window the arbiter runs once it
  /// holds the token (paper: REQUEST-COLLECTION-TIME, swept as 0.1 / 0.2).
  sim::SimTime t_req = sim::SimTime::units(0.1);
  /// Duration of the request-forwarding phase after handing off the token.
  sim::SimTime t_fwd = sim::SimTime::units(0.1);
  /// Batch ordering policy (§2.4 sequence fairness, §5.2 priorities).
  BatchOrder order = BatchOrder::kFcfs;
  /// Sequenced variant (§2.4): token carries the last-granted array L and
  /// duplicate requests (seq <= L[j]) are discarded.
  bool sequenced = false;
  /// Ablation: skip the NEW-ARBITER broadcast whenever the tail of the batch
  /// is the dispatching arbiter itself (arbitership unchanged), not only for
  /// sole-self-request batches.  Under FCFS at saturation the arbiter's own
  /// re-request always sorts last, making the arbiter sticky and eliminating
  /// nearly all broadcasts (~1.9 msgs/CS instead of the paper's 3 - 2/N) at
  /// the cost of arbiter-role rotation.  Off by default (paper-faithful).
  bool suppress_self_broadcast = false;

  // --- request-loss resilience (§6, "Lost Request") -------------------------
  /// After this many consecutive NEW-ARBITER messages without seeing its
  /// request scheduled, a requester retransmits (to the arbiter, or to the
  /// monitor in the starvation-free variant).  0 disables retransmission.
  std::uint32_t resubmit_after_misses = 2;
  /// §6's complementary timeout rule: an unscheduled request also
  /// retransmits after this long even if no NEW-ARBITER arrives at all
  /// (covers a request dropped while the system went idle).  0 disables.
  sim::SimTime request_retry_timeout = sim::SimTime::units(10.0);

  // --- starvation-free variant (§4.1) ---------------------------------------
  bool starvation_free = false;
  /// Monitor node identity (known to all nodes).
  net::NodeId monitor{0};
  /// Drop requests forwarded more than tau times; requesters divert to the
  /// monitor after tau consecutive NEW-ARBITER misses.
  std::uint32_t tau = 3;
  /// Rotate the monitor role round-robin on every monitor visit (§5.1).
  bool rotate_monitor = false;
  /// Implementation safeguard: if the monitor sits on buffered requests this
  /// long without a token visit (system went idle), it releases them to the
  /// current arbiter as undroppable REQUESTs.  Zero disables.
  sim::SimTime monitor_patience = sim::SimTime::units(5.0);

  // --- failure recovery (§6, "Lost Token" / "Failed Arbiter") ----------------
  bool recovery = false;
  /// How long a scheduled node waits for the token before sending WARNING.
  sim::SimTime token_timeout = sim::SimTime::units(10.0);
  /// How long the arbiter collects ENQUIRY replies before presuming silence.
  sim::SimTime enquiry_timeout = sim::SimTime::units(1.0);
  /// How long the previous arbiter waits for the successor's NEW-ARBITER.
  sim::SimTime arbiter_timeout = sim::SimTime::units(10.0);
  /// How long the previous arbiter waits for a PROBE-REPLY.
  sim::SimTime probe_timeout = sim::SimTime::units(1.0);

  // --- partition-safe recovery (beyond the paper) ----------------------------
  /// Quorum-guarded token regeneration: an invalidation round may mint a new
  /// token only when (a) ENQUIRY-REPLYs arrived from a strict majority of N
  /// and (b) every node the freshest replies name as a possible token holder
  /// (believed arbiter and Q-list members of the max-epoch views) has replied
  /// that it does not hold the token.  Otherwise the candidate parks: no
  /// epoch bump, a structured obs event, and a bounded-backoff retry of the
  /// invalidation round.  Off by default (paper-faithful §6 behavior, which
  /// admits split brain under partition — DESIGN.md §13).
  bool recovery_quorum = false;

  /// Build from a generic ParamSet (registry/bench path); unknown keys are
  /// ignored, missing keys keep the defaults above.  Throws
  /// std::invalid_argument naming the key for a negative time, a negative
  /// or fractional tau / resubmit_after_misses / monitor, or a string where
  /// a number belongs.
  static ArbiterParams from_params(const mutex::ParamSet& p);
};

}  // namespace dmx::core
