// Tests for the closed-loop workload.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hpp"
#include "mutex/mutex_cluster.hpp"
#include "workload/closed_loop.hpp"

namespace dmx {
namespace {

// The registry must be filled before a MutexCluster is built.
std::string registered_arbiter_tp() {
  harness::register_builtin_algorithms();
  return "arbiter-tp";
}

struct ClosedLoopFixture {
  mutex::MutexCluster nodes;
  std::vector<mutex::CsDriver*> dp;
  std::unique_ptr<workload::ClosedLoopGenerator> gen;

  explicit ClosedLoopFixture(std::size_t n)
      : nodes(registered_arbiter_tp(), n, mutex::ParamSet{}, 0.1, 2,
              std::make_unique<net::ConstantDelay>(
                  sim::SimTime::units(0.1))) {
    for (std::size_t i = 0; i < n; ++i) dp.push_back(&nodes.driver(i));
    nodes.start();
  }

  /// One client per driver: it submits to its driver and resubmits when
  /// the driver's completion callback fires.
  workload::ClosedLoopGenerator& loop(
      std::vector<std::unique_ptr<workload::ArrivalProcess>> think,
      std::uint64_t total_requests) {
    std::vector<workload::ClosedLoopGenerator::SubmitFn> submit;
    for (mutex::CsDriver* d : dp) submit.emplace_back([d] { d->submit(); });
    gen = std::make_unique<workload::ClosedLoopGenerator>(
        nodes.sim(), std::move(submit), std::move(think), total_requests, 4);
    for (std::size_t i = 0; i < dp.size(); ++i) {
      dp[i]->set_completion_callback(
          [g = gen.get(), i](const mutex::CsRequest&) {
            g->notify_complete(i);
          });
    }
    return *gen;
  }
};

TEST(ClosedLoop, ZeroThinkTimeSaturatesAtHeavyLoadBound) {
  // Think time ~ 0 reproduces the paper's heavy-load regime exactly: every
  // node always has a pending request, so messages/CS -> 3 - 2/N.
  ClosedLoopFixture f(10);
  std::vector<std::unique_ptr<workload::ArrivalProcess>> think;
  for (int i = 0; i < 10; ++i) {
    think.push_back(std::make_unique<workload::DeterministicArrivals>(
        sim::SimTime::ticks(1)));
  }
  f.loop(std::move(think), 10'000).start();
  f.nodes.sim().run();
  const std::uint64_t done = f.nodes.total_completed();
  EXPECT_EQ(done, 10'000u);
  EXPECT_EQ(f.nodes.monitor().violations(), 0u);
  const double mpc =
      static_cast<double>(f.nodes.network().stats().sent) /
      static_cast<double>(done);
  EXPECT_NEAR(mpc, 2.8, 0.15);
}

TEST(ClosedLoop, BoundedPopulation) {
  // A closed loop never queues locally: at most one outstanding demand per
  // node at any time.
  ClosedLoopFixture f(4);
  std::vector<std::unique_ptr<workload::ArrivalProcess>> think;
  for (int i = 0; i < 4; ++i) {
    think.push_back(std::make_unique<workload::PoissonArrivals>(2.0));
  }
  workload::ClosedLoopGenerator& gen = f.loop(std::move(think), 500);
  gen.start();
  f.nodes.sim().run();
  for (const mutex::CsDriver* d : f.dp) {
    EXPECT_TRUE(d->idle());
    // Sojourn equals service when there is no local queueing.
    EXPECT_NEAR(d->sojourn_time().mean(), d->service_time().mean(), 1e-9);
  }
  EXPECT_EQ(gen.submitted(), 500u);
}

TEST(ClosedLoop, StopNodeHaltsItsLoop) {
  ClosedLoopFixture f(3);
  std::vector<std::unique_ptr<workload::ArrivalProcess>> think;
  for (int i = 0; i < 3; ++i) {
    think.push_back(std::make_unique<workload::DeterministicArrivals>(
        sim::SimTime::units(1.0)));
  }
  workload::ClosedLoopGenerator& gen = f.loop(std::move(think), 1'000'000);
  gen.stop_node(2);
  gen.start();
  f.nodes.sim().run_until(sim::SimTime::units(20.0));
  EXPECT_EQ(f.dp[2]->submitted(), 0u);
  EXPECT_GT(f.dp[0]->submitted(), 5u);
}

}  // namespace
}  // namespace dmx
