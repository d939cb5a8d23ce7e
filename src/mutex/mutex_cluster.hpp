// MutexCluster: the one node assembly every driver of the simulator uses.
//
// N instances of a registered algorithm, installed in a runtime::Cluster,
// each under a CsDriver that reports to one shared SafetyMonitor and draws
// request ids from one sequence.  The sweep (harness::run_experiment), the
// lock service (one per LockSpace shard), the verifier's World, dmx_trace,
// the examples and the tests all build their nodes here, so every
// algorithm runs under identical conditions by construction.
//
// Crashes need no extra step: crash the node through cluster() (directly,
// via crash_at() or from a fault::CampaignRunner) and its driver voids the
// node's in-progress and queued demand by itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mutex/cs_driver.hpp"
#include "mutex/params.hpp"
#include "mutex/safety_monitor.hpp"
#include "net/delay_model.hpp"
#include "net/reliable_transport.hpp"
#include "obs/tracer.hpp"
#include "runtime/cluster.hpp"
#include "sim/simulator.hpp"

namespace dmx::mutex {

/// The optional inputs of a MutexCluster.
struct MutexClusterOptions {
  /// Trace destination of the algorithms, their transport endpoints and
  /// the drivers alike.
  obs::Tracer tracer{};
  /// Interpose the reliable transport beneath every node.
  std::optional<net::ReliableTransportConfig> reliable{};
  /// Externally owned clock and request-id sequence, shared by several
  /// clusters (one per LockSpace resource); both must outlive the cluster.
  /// Null = the cluster owns its own.
  sim::Simulator* simulator = nullptr;
  RequestIdSource* ids = nullptr;
};

class MutexCluster {
 public:
  /// Builds, but does not start, `n` nodes of the registered `algorithm`
  /// whose drivers hold the critical section for `t_exec` units.  Throws
  /// std::invalid_argument for an unregistered name or a parameter the
  /// algorithm rejects.
  MutexCluster(const std::string& algorithm, std::size_t n,
               const ParamSet& params, double t_exec, std::uint64_t seed,
               std::unique_ptr<net::DelayModel> delay,
               MutexClusterOptions options = {});

  MutexCluster(const MutexCluster&) = delete;
  MutexCluster& operator=(const MutexCluster&) = delete;

  /// Starts every node.  Network taps, loss settings and scripted drops
  /// go in before this, so they see the nodes' first messages.
  void start() { cluster_.start(); }

  [[nodiscard]] runtime::Cluster& cluster() { return cluster_; }
  [[nodiscard]] sim::Simulator& sim() { return cluster_.simulator(); }
  [[nodiscard]] net::Network& network() { return cluster_.network(); }
  [[nodiscard]] const SafetyMonitor& monitor() const { return monitor_; }

  [[nodiscard]] std::size_t size() const { return drivers_.size(); }
  [[nodiscard]] CsDriver& driver(std::size_t i) const { return *drivers_[i]; }
  [[nodiscard]] MutexAlgorithm& algorithm(std::size_t i) const {
    return drivers_[i]->algorithm();
  }

  /// Scripted demand and faults at absolute sim time t.
  void submit_at(double t, std::size_t i, int priority = 0);
  void crash_at(double t, std::size_t i);
  void restart_at(double t, std::size_t i);

  [[nodiscard]] std::uint64_t total_completed() const;
  [[nodiscard]] std::uint64_t total_submitted() const;

 private:
  SafetyMonitor monitor_;
  RequestIdSource ids_;  ///< Unused when the options share one.
  runtime::Cluster cluster_;
  std::vector<std::unique_ptr<CsDriver>> drivers_;
};

}  // namespace dmx::mutex
