// Shared fixture for protocol-level tests: a started mutex::MutexCluster
// tracing into a memory sink, driven manually (no workload generator) so
// tests can script exact scenarios.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/arbiter_mutex.hpp"
#include "harness/experiment.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/registry.hpp"
#include "obs/sinks.hpp"

namespace dmx::testbed {

struct MutexCluster : mutex::MutexCluster {
  std::shared_ptr<obs::MemorySink> sink;

  /// Build and start an N-node cluster of the named registered algorithm.
  /// Pass a ReliableTransportConfig to interpose the sliding-window
  /// transport beneath every process (defaults are scaled to t_msg).
  MutexCluster(const std::string& algorithm, std::size_t n,
               const mutex::ParamSet& params, double t_msg = 0.1,
               double t_exec = 0.1, std::uint64_t seed = 1,
               std::optional<net::ReliableTransportConfig> reliable =
                   std::nullopt)
      : MutexCluster(new_sink(), algorithm, n, params, t_msg, t_exec, seed,
                     reliable) {}

  core::ArbiterMutex& arbiter(std::size_t i) {
    return dynamic_cast<core::ArbiterMutex&>(algorithm(i));
  }

  core::ArbiterStats protocol_stats() {
    core::ArbiterStats s;
    for (std::size_t i = 0; i < size(); ++i) {
      if (auto* arb = dynamic_cast<core::ArbiterMutex*>(&algorithm(i))) {
        s.merge(arb->protocol_stats());
      }
    }
    return s;
  }

 private:
  static std::shared_ptr<obs::MemorySink> new_sink() {
    harness::register_builtin_algorithms();
    return std::make_shared<obs::MemorySink>();
  }

  MutexCluster(std::shared_ptr<obs::MemorySink> s,
               const std::string& algorithm, std::size_t n,
               const mutex::ParamSet& params, double t_msg, double t_exec,
               std::uint64_t seed,
               std::optional<net::ReliableTransportConfig> reliable)
      : mutex::MutexCluster(
            algorithm, n, params, t_exec, seed,
            std::make_unique<net::ConstantDelay>(sim::SimTime::units(t_msg)),
            {.tracer = obs::Tracer(s), .reliable = reliable}),
        sink(std::move(s)) {
    start();
  }
};

}  // namespace dmx::testbed
