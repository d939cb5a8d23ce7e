#include "mutex/mutex_cluster.hpp"

#include <utility>

#include "mutex/registry.hpp"

namespace dmx::mutex {

MutexCluster::MutexCluster(const std::string& algorithm, std::size_t n,
                           const ParamSet& params, double t_exec,
                           std::uint64_t seed,
                           std::unique_ptr<net::DelayModel> delay,
                           MutexClusterOptions options)
    : cluster_(n, std::move(delay), seed, std::move(options.tracer)) {
  if (options.reliable) cluster_.use_reliable_transport(*options.reliable);
  drivers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id{static_cast<std::int32_t>(i)};
    std::unique_ptr<MutexAlgorithm> algo =
        Registry::instance().create(algorithm, FactoryContext{id, n, params});
    MutexAlgorithm& node = *algo;
    cluster_.install(id, std::move(algo));
    drivers_.push_back(std::make_unique<CsDriver>(
        cluster_.simulator(), node, sim::SimTime::units(t_exec), &monitor_,
        &ids_));
    drivers_.back()->set_tracer(cluster_.tracer());
  }
}

void MutexCluster::submit_at(double t, std::size_t i, int priority) {
  sim().schedule_at(sim::SimTime::units(t), [this, i, priority] {
    drivers_[i]->submit(priority);
  });
}

void MutexCluster::crash_at(double t, std::size_t i) {
  sim().schedule_at(sim::SimTime::units(t), [this, i] {
    cluster_.crash_node(net::NodeId{static_cast<std::int32_t>(i)});
  });
}

void MutexCluster::restart_at(double t, std::size_t i) {
  sim().schedule_at(sim::SimTime::units(t), [this, i] {
    cluster_.restart_node(net::NodeId{static_cast<std::int32_t>(i)});
  });
}

std::uint64_t MutexCluster::total_completed() const {
  std::uint64_t c = 0;
  for (const auto& d : drivers_) c += d->completed();
  return c;
}

std::uint64_t MutexCluster::total_submitted() const {
  std::uint64_t c = 0;
  for (const auto& d : drivers_) c += d->submitted();
  return c;
}

}  // namespace dmx::mutex
