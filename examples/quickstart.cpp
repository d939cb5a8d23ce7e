// Quickstart: reproduce the paper's Section 2.2 walk-through.
//
// Five nodes, node 0 initially the arbiter (the paper's node 1, renumbered
// from 0).  Nodes 1 and 4 request during the collection window, node 3's
// request arrives during the forwarding phase and is forwarded to the new
// arbiter.  Every protocol step is printed from the trace.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "core/arbiter_mutex.hpp"
#include "harness/experiment.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "obs/sinks.hpp"
#include "obs/tracer.hpp"

int main() {
  using namespace dmx;
  harness::register_builtin_algorithms();

  std::cout << "Arbiter token-passing mutual exclusion — the paper's §2.2 "
               "example\n"
               "(all durations = 1 time unit; node 0 is the initial arbiter "
               "and token holder)\n\n";

  // Five arbiter-tp nodes, built through the registry exactly as the
  // harness does, whose drivers hold the critical section for 1 unit and
  // report to one global safety monitor.  Every protocol event is printed;
  // the drivers' own request-lifecycle events are left out.
  mutex::ParamSet params;
  params.set("t_req", 1.0).set("t_fwd", 1.0);
  mutex::MutexCluster nodes(
      "arbiter-tp", 5, params, 1.0, 7,
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(1.0)),
      {.tracer = obs::Tracer(std::make_shared<obs::TextSink>(std::cout, 0))});
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes.driver(i).set_tracer({});
  nodes.start();

  // The paper's scenario: requests from nodes 1 and 4 land in the first
  // collection window; node 3's request reaches the old arbiter during its
  // forwarding phase.
  nodes.submit_at(0.0, 1);
  nodes.submit_at(0.2, 4);
  nodes.submit_at(1.9, 3);
  nodes.sim().run();

  std::cout << "\nDone: " << nodes.monitor().entries()
            << " critical sections executed, "
            << nodes.network().stats().sent << " messages, "
            << nodes.monitor().violations() << " safety violations.\n";
  std::cout << "Final arbiter: node "
            << dynamic_cast<core::ArbiterMutex&>(nodes.algorithm(0))
                   .known_arbiter()
            << " (agreed by all nodes).\n";
  return nodes.monitor().violations() == 0 ? 0 : 1;
}
