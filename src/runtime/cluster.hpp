// Cluster: owns the simulator, the network and N processes.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "net/reliable_transport.hpp"
#include "obs/tracer.hpp"
#include "runtime/process.hpp"
#include "sim/simulator.hpp"

namespace dmx::runtime {

/// Wires a Simulator, a Network and a fleet of Processes together and
/// manages their lifecycle (start / crash / restart).
class Cluster {
 public:
  /// A non-null `shared_sim` puts the cluster on an externally owned
  /// simulator (several clusters on one virtual clock, e.g. one network per
  /// lock resource in mutex::LockSpace), which must outlive it; null gives
  /// the cluster its own.
  Cluster(std::size_t n_nodes, std::unique_ptr<net::DelayModel> delay,
          std::uint64_t seed, obs::Tracer tracer = {},
          sim::Simulator* shared_sim = nullptr);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::size_t size() const { return processes_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] net::Network& network() { return *net_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }

  /// Interpose a ReliableEndpoint between every process and the network.
  /// Must be called before the first install(); each installed process then
  /// sends through its endpoint and receives exactly-once, in-order traffic.
  void use_reliable_transport(net::ReliableTransportConfig cfg);
  [[nodiscard]] bool reliable_transport() const { return reliable_; }

  /// The reliability endpoint of a node (null when running raw).
  [[nodiscard]] net::ReliableEndpoint* endpoint(net::NodeId id) const;

  /// Cluster-wide merge of all endpoints' reliability counters (empty stats
  /// when running raw).
  [[nodiscard]] net::TransportStats transport_stats() const;

  /// Install the process for a node slot.  All slots must be filled before
  /// start().  Returns a non-owning pointer to the installed process.
  Process* install(net::NodeId id, std::unique_ptr<Process> process);

  /// Typed accessor for an installed process.
  template <typename T>
  [[nodiscard]] T* process_as(net::NodeId id) const {
    auto* p = dynamic_cast<T*>(process(id));
    if (p == nullptr) {
      throw std::logic_error("Cluster::process_as: wrong process type");
    }
    return p;
  }

  [[nodiscard]] Process* process(net::NodeId id) const;

  /// Calls on_start() on every process (in node-id order).
  void start();

  /// Fail-silent crash / restart of a node.
  void crash_node(net::NodeId id);
  void restart_node(net::NodeId id);

 private:
  std::unique_ptr<sim::Simulator> owned_sim_;  ///< Null when shared.
  sim::Simulator* sim_;
  std::unique_ptr<net::Network> net_;
  obs::Tracer tracer_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<net::ReliableEndpoint>> endpoints_;
  net::ReliableTransportConfig transport_cfg_;
  std::uint64_t seed_;
  bool reliable_ = false;
  bool started_ = false;
};

}  // namespace dmx::runtime
