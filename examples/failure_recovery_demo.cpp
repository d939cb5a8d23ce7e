// Failure-recovery demonstration (§6 of the paper).
//
// A five-node cluster runs the arbiter token-passing algorithm with the
// recovery machinery enabled, and the demo injects the paper's three fault
// scenarios one after another, tracing every recovery action:
//   1. a lost PRIVILEGE message (dropped in flight),
//   2. a token holder crashing inside its critical section,
//   3. the newly elected arbiter crashing before collecting anything.
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

  std::cout
      << "Failure recovery walkthrough — lost token, crashed holder, "
         "crashed arbiter\n"
         "Watch for: WARNING timeouts, the two-phase invalidation "
         "(ENQUIRY/RESUME/INVALIDATE),\ntoken regeneration under a new "
         "epoch, and the previous arbiter's PROBE/takeover.\n\n";

  mutex::ParamSet params;
  params.set("recovery", 1.0)
      .set("token_timeout", 2.0)
      .set("enquiry_timeout", 0.5)
      .set("arbiter_timeout", 4.0)
      .set("probe_timeout", 0.5);
  // Protocol events only: the drivers' request-lifecycle events stay out.
  mutex::MutexCluster nodes(
      "arbiter-tp", 5, params, 0.2, 3,
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)),
      {.tracer = obs::Tracer(std::make_shared<obs::TextSink>(std::cout, 0))});
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes.driver(i).set_tracer({});
  nodes.start();
  auto& sim = nodes.sim();

  // --- Scenario 1: the PRIVILEGE to node 1 evaporates -----------------------
  sim.schedule_at(sim::SimTime::units(0.0), [&] {
    std::cout << "\n--- scenario 1: dropping the next PRIVILEGE message ---\n";
    nodes.network().faults().drop_next_of_type("PRIVILEGE");
    nodes.driver(1).submit();
    nodes.driver(2).submit();
  });

  // --- Scenario 2: node 3 dies while inside its critical section ------------
  sim.schedule_at(sim::SimTime::units(15.0), [&] {
    std::cout << "\n--- scenario 2: token holder crashes inside its CS ---\n";
    nodes.driver(3).submit();
    nodes.driver(4).submit();
  });
  nodes.crash_at(15.6, 3);
  nodes.restart_at(30.0, 3);

  // --- Scenario 3: the arbiter-elect crashes holding the idle token ---------
  sim.schedule_at(sim::SimTime::units(35.0), [&] {
    std::cout << "\n--- scenario 3: the current arbiter crashes ---\n";
    nodes.driver(2).submit();
  });
  nodes.crash_at(36.5, 2);  // node 2 is now the arbiter, idle with the token
  nodes.submit_at(38.0, 0);

  sim.run_until(sim::SimTime::units(120.0));

  core::ArbiterStats stats;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    stats.merge(
        dynamic_cast<core::ArbiterMutex&>(nodes.algorithm(i)).protocol_stats());
  }
  std::cout << "\nSummary: " << nodes.total_completed()
            << " critical sections completed, "
            << nodes.monitor().violations() << " safety violations\n"
            << "  warnings=" << stats.warnings_sent
            << " enquiries=" << stats.enquiries_sent
            << " resumes=" << stats.resumes_sent
            << " invalidates=" << stats.invalidates_sent << "\n"
            << "  tokens regenerated=" << stats.tokens_regenerated
            << " probes=" << stats.probes_sent
            << " takeovers=" << stats.arbiter_takeovers << "\n";
  return nodes.monitor().violations() == 0 ? 0 : 1;
}
