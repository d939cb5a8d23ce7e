// Chaos campaign execution: a FaultPlan scheduled against a live Cluster.
//
// The runner turns each FaultAction into a cancellable simulator event that
// fires at its scripted time and acts on the cluster's FaultInjector and
// Process lifecycle (crash/restart, through apply_cluster_action).  A crash needs nothing more from the
// harness: each node's CsDriver voids its own demand when the node
// crashes.  The fault observer feeds the RecoveryMetrics layer so
// time-to-recovery is measured per disruptive action.  Everything executes
// on the deterministic virtual clock, so the same seed plus the same plan
// is the same run, byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/node_id.hpp"
#include "runtime/cluster.hpp"
#include "sim/simulator.hpp"

namespace dmx::fault {

/// Apply a crash, restart, partition or heal action to the cluster: the one
/// place a plan's node indices become NodeIds, shared by the CampaignRunner
/// and the verifier's World.  The action must have passed
/// FaultPlan::validate for this cluster; any other kind is a logic error.
void apply_cluster_action(runtime::Cluster& cluster, const FaultAction& action);

class CampaignRunner {
 public:
  /// Observes every executed action (at its fire time); `disruptive()`
  /// tells whether it opens a recovery window.
  using Observer = std::function<void(sim::SimTime, const FaultAction&)>;

  CampaignRunner(runtime::Cluster& cluster, FaultPlan plan);

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;
  ~CampaignRunner() { cancel(); }

  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Check the plan (FaultPlan::validate for this cluster, and no action
  /// scheduled before the current time) and schedule every action.  Throws
  /// std::invalid_argument listing every problem; call before the
  /// simulation runs.
  void start();

  /// Cancel all not-yet-fired actions (idempotent).
  void cancel();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] std::size_t executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_actions() const {
    return plan_.size() - executed_;
  }

  /// Targeted one-shots (lose-next / dup-next) that executed but have not
  /// yet matched a message.  A finished campaign can assert this is
  /// zero to prove every scripted drop actually fired.
  [[nodiscard]] std::size_t unfired_targeted_drops() const;

  /// Executed actions, in execution order, as "t=<time> <action>" lines.
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  void execute(const FaultAction& action);

  runtime::Cluster& cluster_;
  FaultPlan plan_;
  Observer observer_;
  bool started_ = false;
  std::size_t executed_ = 0;
  std::vector<sim::EventId> events_;
  std::vector<std::uint64_t> one_shot_ids_;  ///< From lose-/dup-next.
  std::vector<std::string> log_;
};

}  // namespace dmx::fault
