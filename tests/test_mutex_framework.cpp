// Tests for the algorithm-agnostic mutex framework: SafetyMonitor, CsDriver
// (serialization, metrics, crash handling) and the registry/params layer.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "harness/experiment.hpp"
#include "mutex/cs_driver.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/registry.hpp"
#include "mutex/safety_monitor.hpp"
#include "net/delay_model.hpp"
#include "runtime/cluster.hpp"

namespace dmx::mutex {
namespace {

TEST(SafetyMonitor, CleanAlternationHasNoViolations) {
  SafetyMonitor m;
  m.on_enter(net::NodeId{0}, sim::SimTime::units(1.0));
  m.on_exit(net::NodeId{0}, sim::SimTime::units(2.0));
  m.on_enter(net::NodeId{1}, sim::SimTime::units(3.0));
  m.on_exit(net::NodeId{1}, sim::SimTime::units(4.0));
  EXPECT_EQ(m.violations(), 0u);
  EXPECT_EQ(m.entries(), 2u);
  EXPECT_EQ(m.max_occupancy(), 1);
  EXPECT_TRUE(m.reports().empty());
}

TEST(SafetyMonitor, OverlapIsAViolation) {
  SafetyMonitor m;
  m.on_enter(net::NodeId{0}, sim::SimTime::units(1.0));
  m.on_enter(net::NodeId{1}, sim::SimTime::units(1.5));
  EXPECT_EQ(m.violations(), 1u);
  EXPECT_EQ(m.max_occupancy(), 2);
  ASSERT_EQ(m.reports().size(), 1u);
  EXPECT_NE(m.reports().front().detail.find("node 1"), std::string::npos);
}

TEST(SafetyMonitor, ExitWithoutEntryIsAViolation) {
  SafetyMonitor m;
  m.on_exit(net::NodeId{3}, sim::SimTime::units(1.0));
  EXPECT_EQ(m.violations(), 1u);
}

/// Grants on explicit demand, to script driver scenarios.
class ScriptedMutex final : public MutexAlgorithm {
 public:
  int requests = 0;
  int releases = 0;
  std::optional<CsRequest> last;

  void request(const CsRequest& req) override {
    ++requests;
    last = req;
  }
  void release() override { ++releases; }
  void grant_now() { grant(*last); }
  void grant_stale(std::uint64_t bogus_id) {
    CsRequest r = *last;
    r.request_id = bogus_id;
    grant(r);
  }
  [[nodiscard]] std::string_view algorithm_name() const override {
    return "scripted";
  }

 protected:
  void handle(const net::Envelope&) override {}
};

struct DriverFixture {
  runtime::Cluster cluster{
      1, std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), 1};
  RequestIdSource ids;
  SafetyMonitor monitor;
  ScriptedMutex* algo;
  std::unique_ptr<CsDriver> driver;

  DriverFixture() {
    auto up = std::make_unique<ScriptedMutex>();
    algo = up.get();
    cluster.install(net::NodeId{0}, std::move(up));
    driver = std::make_unique<CsDriver>(cluster.simulator(), *algo,
                                        sim::SimTime::units(0.5), &monitor,
                                        &ids);
    cluster.start();
  }
};

TEST(CsDriver, SerializesOutstandingRequests) {
  DriverFixture f;
  f.driver->submit();
  f.driver->submit();
  f.driver->submit();
  EXPECT_EQ(f.driver->submitted(), 3u);
  EXPECT_EQ(f.algo->requests, 1);  // only one outstanding
  f.algo->grant_now();
  f.cluster.simulator().run();  // CS completes, next issues, and so on
  EXPECT_EQ(f.algo->requests, 2);
  f.algo->grant_now();
  f.cluster.simulator().run();
  f.algo->grant_now();
  f.cluster.simulator().run();
  EXPECT_EQ(f.driver->completed(), 3u);
  EXPECT_EQ(f.algo->releases, 3);
  EXPECT_TRUE(f.driver->idle());
}

TEST(CsDriver, MeasuresServiceTimes) {
  DriverFixture f;
  f.driver->submit();
  f.algo->grant_now();
  f.cluster.simulator().run();
  EXPECT_EQ(f.driver->service_time().count(), 1u);
  EXPECT_DOUBLE_EQ(f.driver->service_time().mean(), 0.5);  // t_exec only
  EXPECT_DOUBLE_EQ(f.driver->response_time().mean(), 0.0);
}

TEST(CsDriver, QueuedDemandKeepsArrivalTimeForSojourn) {
  DriverFixture f;
  f.driver->submit();          // t=0, granted immediately below
  f.driver->submit();          // t=0, queued
  f.algo->grant_now();
  f.cluster.simulator().run();  // first CS done at 0.5; second issues
  f.algo->grant_now();
  f.cluster.simulator().run();  // second CS done at 1.0
  EXPECT_EQ(f.driver->completed(), 2u);
  // Second request: arrival 0, completion 1.0.
  EXPECT_DOUBLE_EQ(f.driver->sojourn_time().max(), 1.0);
  // Service time of the second measured from issuance (0.5) -> 0.5.
  EXPECT_DOUBLE_EQ(f.driver->service_time().max(), 0.5);
}

TEST(CsDriver, GrantAndCompletionCallbacksFireOncePerDemand) {
  // Closed-loop clients resubmit from the completion callback, so every
  // demand, queued ones included, must produce exactly one grant and then
  // exactly one completion.
  harness::register_builtin_algorithms();
  MutexCluster nodes(
      "arbiter-tp", 4, ParamSet{}, 0.1, 3,
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)));
  std::map<std::uint64_t, int> grants;
  std::map<std::uint64_t, int> completions;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes.driver(i).set_grant_callback(
        [&](const CsRequest& r) { ++grants[r.request_id]; });
    nodes.driver(i).set_completion_callback([&](const CsRequest& r) {
      EXPECT_EQ(grants[r.request_id], 1) << "completed before its grant";
      ++completions[r.request_id];
    });
  }
  nodes.start();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes.submit_at(0.0, i);
    nodes.submit_at(0.0, i);  // queued behind the first
  }
  nodes.sim().run();
  EXPECT_EQ(nodes.total_completed(), 8u);
  EXPECT_EQ(grants.size(), 8u);
  EXPECT_EQ(completions.size(), 8u);
  for (const auto& [id, n] : completions) EXPECT_EQ(n, 1) << "request " << id;
  for (const auto& [id, n] : grants) EXPECT_EQ(n, 1) << "request " << id;
}

TEST(CsDriver, SpuriousGrantsIgnoredAndCounted) {
  DriverFixture f;
  f.driver->submit();
  f.algo->grant_stale(999999);  // wrong id: must not enter CS
  EXPECT_EQ(f.driver->spurious_grants(), 1u);
  f.algo->grant_now();
  f.algo->grant_now();  // double grant while already in CS
  EXPECT_EQ(f.driver->spurious_grants(), 2u);
  f.cluster.simulator().run();
  EXPECT_EQ(f.driver->completed(), 1u);
  EXPECT_EQ(f.monitor.violations(), 0u);
}

TEST(CsDriver, CrashInsideCsReleasesOccupancyAndVoidsQueue) {
  DriverFixture f;
  f.driver->submit();
  f.driver->submit();
  f.algo->grant_now();
  EXPECT_EQ(f.monitor.current_occupancy(), 1);
  f.cluster.crash_node(net::NodeId{0});
  EXPECT_EQ(f.monitor.current_occupancy(), 0);
  EXPECT_EQ(f.monitor.violations(), 0u);
  EXPECT_EQ(f.driver->aborted_by_crash(), 2u);  // in-CS demand + queued demand
  f.cluster.simulator().run();
  EXPECT_EQ(f.driver->completed(), 0u);
  EXPECT_EQ(f.driver->submitted(), 2u);
}

TEST(CsDriver, CrashedNodeIgnoresNewSubmissions) {
  DriverFixture f;
  f.cluster.crash_node(net::NodeId{0});
  f.driver->submit();
  EXPECT_EQ(f.driver->submitted(), 0u);
  EXPECT_EQ(f.algo->requests, 0);
}

TEST(Registry, UnknownAlgorithmThrows) {
  harness::register_builtin_algorithms();
  ParamSet params;
  FactoryContext ctx{net::NodeId{0}, 4, params};
  EXPECT_THROW((void)Registry::instance().create("no-such-algo", ctx),
               std::invalid_argument);
}

TEST(Registry, AllBuiltinsRegistered) {
  harness::register_builtin_algorithms();
  for (const char* name :
       {"arbiter-tp", "arbiter-tp-sf", "centralized", "suzuki-kasami",
        "ricart-agrawala", "lamport", "raymond", "maekawa", "singhal"}) {
    EXPECT_TRUE(Registry::instance().contains(name)) << name;
  }
}

TEST(Registry, FactoriesProduceWorkingInstances) {
  harness::register_builtin_algorithms();
  ParamSet params;
  for (const auto& name : Registry::instance().names()) {
    FactoryContext ctx{net::NodeId{1}, 9, params};
    auto algo = Registry::instance().create(name, ctx);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_FALSE(algo->algorithm_name().empty()) << name;
  }
}

TEST(ParamSet, TypedAccessAndDefaults) {
  ParamSet p;
  p.set("t_req", 0.2).set("name", std::string("x"));
  EXPECT_DOUBLE_EQ(p.get_num("t_req", 0.5), 0.2);
  EXPECT_DOUBLE_EQ(p.get_num("missing", 0.5), 0.5);
  EXPECT_EQ(p.get_time("t_req", sim::SimTime::zero()),
            sim::SimTime::units(0.2));
  EXPECT_EQ(p.get_str("name", "y"), "x");
  EXPECT_EQ(p.get_str("other", "y"), "y");
  EXPECT_TRUE(p.has("t_req"));
  EXPECT_FALSE(p.has("nope"));
  EXPECT_DOUBLE_EQ(p.require_num("t_req"), 0.2);
  EXPECT_THROW((void)p.require_num("nope"), std::invalid_argument);
  p.set("flag", 1.0);
  EXPECT_TRUE(p.get_bool("flag", false));
  EXPECT_FALSE(p.get_bool("flag2", false));
}

TEST(ArbiterParams, FromParamSet) {
  ParamSet p;
  p.set("t_req", 0.3)
      .set("t_fwd", 0.4)
      .set("tau", 5.0)
      .set("order", std::string("priority"))
      .set("recovery", 1.0)
      .set("token_timeout", 3.0);
  const auto a = core::ArbiterParams::from_params(p);
  EXPECT_EQ(a.t_req, sim::SimTime::units(0.3));
  EXPECT_EQ(a.t_fwd, sim::SimTime::units(0.4));
  EXPECT_EQ(a.tau, 5u);
  EXPECT_EQ(a.order, core::BatchOrder::kPriority);
  EXPECT_TRUE(a.recovery);
  EXPECT_EQ(a.token_timeout, sim::SimTime::units(3.0));
  ParamSet bad;
  bad.set("order", std::string("bogus"));
  EXPECT_THROW(core::ArbiterParams::from_params(bad), std::invalid_argument);
}

TEST(ParamSet, ReadingAKeyAsTheOtherKindThrows) {
  ParamSet p;
  p.set("t_req", std::string("0.5x")).set("order", 1.0);
  EXPECT_THROW((void)p.get_num("t_req", 0.1), std::invalid_argument);
  EXPECT_THROW((void)p.require_num("t_req"), std::invalid_argument);
  EXPECT_THROW((void)p.get_time("t_req", sim::SimTime::zero()),
               std::invalid_argument);
  EXPECT_THROW((void)p.get_bool("t_req", false), std::invalid_argument);
  EXPECT_THROW((void)p.get_str("order", "fcfs"), std::invalid_argument);
  // Setting a key again replaces its kind.
  p.set("t_req", 0.2).set("order", std::string("priority"));
  EXPECT_DOUBLE_EQ(p.get_num("t_req", 0.1), 0.2);
  EXPECT_EQ(p.get_str("order", "fcfs"), "priority");
}

// The from_params error names the offending key.
void expect_rejected(const std::string& key, const ParamSet& p) {
  try {
    (void)core::ArbiterParams::from_params(p);
    ADD_FAILURE() << key << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(ArbiterParams, RejectsNegativeOrInfiniteTimes) {
  for (const char* key :
       {"t_req", "t_fwd", "request_retry_timeout", "monitor_patience",
        "token_timeout", "enquiry_timeout", "arbiter_timeout",
        "probe_timeout"}) {
    expect_rejected(key, ParamSet().set(key, -1.0));
    expect_rejected(key, ParamSet().set(key, HUGE_VAL));
  }
}

TEST(ArbiterParams, RejectsNegativeOrFractionalCounts) {
  for (const char* key : {"tau", "resubmit_after_misses", "monitor"}) {
    expect_rejected(key, ParamSet().set(key, -1.0));
    expect_rejected(key, ParamSet().set(key, 1.5));
  }
}

TEST(ArbiterParams, RejectsAMalformedNumber) {
  // What --param t_req=0.5x stores: not a number, so not silently 0.1.
  expect_rejected("t_req", ParamSet().set("t_req", std::string("0.5x")));
}

TEST(ArbiterParams, AcceptsTheZerosThatDisableAFeature) {
  ParamSet p;
  p.set("resubmit_after_misses", 0.0)
      .set("request_retry_timeout", 0.0)
      .set("monitor_patience", 0.0)
      .set("tau", 0.0)
      .set("t_req", 0.0)
      .set("t_fwd", 0.0)
      .set("monitor", 0.0);
  const auto a = core::ArbiterParams::from_params(p);
  EXPECT_EQ(a.resubmit_after_misses, 0u);
  EXPECT_EQ(a.request_retry_timeout, sim::SimTime::zero());
  EXPECT_EQ(a.monitor_patience, sim::SimTime::zero());
  EXPECT_EQ(a.tau, 0u);
  EXPECT_EQ(a.t_req, sim::SimTime::zero());
  EXPECT_EQ(a.t_fwd, sim::SimTime::zero());
  EXPECT_EQ(a.monitor, net::NodeId{0});
}

// The baseline factories read their keys through the same checked readers
// as ArbiterParams, so a bad value fails at construction naming its key
// instead of being truncated or reaching the simulator's clock.
void expect_factory_rejects(const std::string& algo, const std::string& key,
                            double value) {
  harness::register_builtin_algorithms();
  ParamSet p;
  p.set(key, value);
  try {
    (void)Registry::instance().create(algo,
                                      FactoryContext{net::NodeId{0}, 3, p});
    ADD_FAILURE() << algo << " accepted " << key << "=" << value;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

void expect_factory_accepts(const std::string& algo, const std::string& key,
                            double value) {
  harness::register_builtin_algorithms();
  ParamSet p;
  p.set(key, value);
  EXPECT_NE(Registry::instance().create(algo,
                                        FactoryContext{net::NodeId{0}, 3, p}),
            nullptr);
}

TEST(BaselineParams, TokenRingHopDwellIsANonNegativeTime) {
  expect_factory_rejects("token-ring", "hop_dwell", -1.0);
  expect_factory_rejects("token-ring", "hop_dwell", std::nan(""));
  expect_factory_rejects("token-ring", "hop_dwell", HUGE_VAL);
  expect_factory_accepts("token-ring", "hop_dwell", 0.5);
}

TEST(BaselineParams, CentralizedCoordinatorIsAWholeNodeIndex) {
  expect_factory_rejects("centralized", "coordinator", 1.5);
  expect_factory_rejects("centralized", "coordinator", -1.0);
  expect_factory_accepts("centralized", "coordinator", 2.0);
}

TEST(BaselineParams, SuzukiKasamiInitialHolderIsAWholeNodeIndex) {
  expect_factory_rejects("suzuki-kasami", "initial_holder", 2.7);
  expect_factory_rejects("suzuki-kasami", "initial_holder", std::nan(""));
  expect_factory_accepts("suzuki-kasami", "initial_holder", 2.0);
}

}  // namespace
}  // namespace dmx::mutex
