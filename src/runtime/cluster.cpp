#include "runtime/cluster.hpp"

namespace dmx::runtime {

Cluster::Cluster(std::size_t n_nodes, std::unique_ptr<net::DelayModel> delay,
                 std::uint64_t seed, obs::Tracer tracer,
                 sim::Simulator* shared_sim)
    : owned_sim_(shared_sim != nullptr ? nullptr
                                       : std::make_unique<sim::Simulator>()),
      sim_(shared_sim != nullptr ? shared_sim : owned_sim_.get()),
      net_(std::make_unique<net::Network>(*sim_, n_nodes, std::move(delay),
                                          seed)),
      tracer_(std::move(tracer)), processes_(n_nodes), endpoints_(n_nodes),
      seed_(seed) {
  // Reserve event storage for a broadcast-heavy steady state (one in-flight
  // message per node plus timer slack) so large-N runs build their working
  // set once instead of growing it mid-run.
  sim_->reserve(2 * n_nodes + 64);
}

void Cluster::use_reliable_transport(net::ReliableTransportConfig cfg) {
  for (const auto& p : processes_) {
    if (p != nullptr) {
      throw std::logic_error(
          "Cluster::use_reliable_transport: must precede install()");
    }
  }
  transport_cfg_ = cfg;
  reliable_ = true;
}

net::ReliableEndpoint* Cluster::endpoint(net::NodeId id) const {
  if (!id.valid() || id.index() >= endpoints_.size()) {
    throw std::out_of_range("Cluster::endpoint: node id out of range");
  }
  return endpoints_[id.index()].get();
}

net::TransportStats Cluster::transport_stats() const {
  net::TransportStats total;
  for (const auto& ep : endpoints_) {
    if (ep != nullptr) total.merge(ep->stats());
  }
  return total;
}

Process* Cluster::install(net::NodeId id, std::unique_ptr<Process> process) {
  if (!id.valid() || id.index() >= processes_.size()) {
    throw std::out_of_range("Cluster::install: node id out of range");
  }
  if (!process) throw std::invalid_argument("Cluster::install: null process");
  if (processes_[id.index()] != nullptr) {
    throw std::logic_error("Cluster::install: slot already filled");
  }
  process->bind(this, net_.get(), id, tracer_);
  if (reliable_) {
    // The endpoint takes the process's place on the wire; the process sends
    // through it and sees only deduped, in-order traffic.  Each endpoint
    // gets an independent deterministic jitter stream derived from the
    // cluster seed and its node id.
    const std::uint64_t ep_seed =
        seed_ ^ (0x9e3779b97f4a7c15ULL * (id.index() + 2));
    endpoints_[id.index()] = std::make_unique<net::ReliableEndpoint>(
        *net_, id, *process, transport_cfg_, ep_seed, tracer_);
    process->set_transport(endpoints_[id.index()].get());
    net_->attach(id, endpoints_[id.index()].get());
  } else {
    net_->attach(id, process.get());
  }
  processes_[id.index()] = std::move(process);
  return processes_[id.index()].get();
}

Process* Cluster::process(net::NodeId id) const {
  if (!id.valid() || id.index() >= processes_.size()) {
    throw std::out_of_range("Cluster::process: node id out of range");
  }
  return processes_[id.index()].get();
}

void Cluster::start() {
  if (started_) throw std::logic_error("Cluster::start: already started");
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i] == nullptr) {
      throw std::logic_error("Cluster::start: node slot " + std::to_string(i) +
                             " is empty");
    }
  }
  started_ = true;
  for (auto& p : processes_) p->start();
}

void Cluster::crash_node(net::NodeId id) {
  process(id)->crash();
  if (auto* ep = endpoints_[id.index()].get()) ep->on_crash();
}

void Cluster::restart_node(net::NodeId id) {
  // Epoch bump first: any rejoin traffic the process emits from its restart
  // hook must already carry the new incarnation.
  if (auto* ep = endpoints_[id.index()].get()) ep->on_restart();
  process(id)->restart();
}

}  // namespace dmx::runtime
