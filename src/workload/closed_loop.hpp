// Closed-loop workload: each client thinks, requests, executes, thinks again.
//
// The open-loop Poisson model (the paper's) keeps submitting regardless of
// backlog; a closed-loop model — each client cycles think -> request -> CS —
// is the classic alternative (machine-repairman style) and keeps the system
// at a bounded population of at most one pending request per client, which
// matches the paper's heavy-load analysis ("all nodes will have at least
// one pending request") exactly when think time is zero.
//
// Each client is an opaque submit function; the caller reports a finished
// demand through notify_complete(client), typically from the completion
// callback of that client's mutex::CsDriver (as the sharded lock service
// does for every shard).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/arrivals.hpp"

namespace dmx::workload {

class ClosedLoopGenerator {
 public:
  /// One client's demand entry point (e.g. a CsDriver's submit()).
  using SubmitFn = std::function<void()>;

  /// Each submit function is one client; a client resubmits `think` after
  /// the caller reports its demand finished through notify_complete().
  /// Stops after `total_requests` global submissions.
  ClosedLoopGenerator(sim::Simulator& sim, std::vector<SubmitFn> submit,
                      std::vector<std::unique_ptr<ArrivalProcess>> think,
                      std::uint64_t total_requests, std::uint64_t seed);

  ClosedLoopGenerator(const ClosedLoopGenerator&) = delete;
  ClosedLoopGenerator& operator=(const ClosedLoopGenerator&) = delete;

  void start();
  void stop_node(std::size_t node);

  /// Completion signal: client `client` finished its outstanding demand;
  /// think, then resubmit (budget permitting).
  void notify_complete(std::size_t client);

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::size_t clients() const { return submit_.size(); }

 private:
  void think_then_submit(std::size_t node);

  sim::Simulator& sim_;
  std::vector<SubmitFn> submit_;
  std::vector<std::unique_ptr<ArrivalProcess>> think_;
  std::vector<sim::Rng> rngs_;
  std::vector<bool> stopped_;
  std::uint64_t total_requests_;
  std::uint64_t submitted_ = 0;
};

}  // namespace dmx::workload
