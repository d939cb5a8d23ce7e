// Tests for the sharded lock-service scenario (harness/lock_service.hpp):
// config validation, mixed per-shard algorithms, the SLO report and the
// byte-identical fan-out over worker counts.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "harness/experiment.hpp"
#include "harness/lock_service.hpp"
#include "harness/manifest.hpp"
#include "mutex/registry.hpp"
#include "workload/zipf.hpp"

namespace dmx::harness {
namespace {

LockServiceConfig small_service() {
  LockServiceConfig cfg;
  cfg.n_resources = 12;
  cfg.zipf_s = 0.9;
  cfg.total_demands = 1'500;
  cfg.hot_nodes = 6;
  cfg.cold_nodes = 3;
  cfg.think_mean = 0.5;
  cfg.seed = 42;
  return cfg;
}

TEST(LockService, ValidateReportsEveryErrorAtOnce) {
  register_builtin_algorithms();
  LockServiceConfig cfg;
  cfg.n_resources = 0;
  cfg.zipf_s = -1.0;
  cfg.total_demands = 0;
  cfg.hot_algorithm = "no-such-hot";
  cfg.cold_algorithm = "no-such-cold";
  cfg.think_mean = 0.0;
  const auto errors = cfg.validate();
  EXPECT_GE(errors.size(), 6u);
  EXPECT_THROW((void)run_lock_service(cfg), std::invalid_argument);
}

TEST(LockService, RejectsNonFiniteValues) {
  register_builtin_algorithms();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LockServiceConfig cfg;
  cfg.zipf_s = nan;
  cfg.t_msg = std::numeric_limits<double>::infinity();
  cfg.t_exec = nan;
  cfg.think_mean = nan;
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), 4u);
  const char* fields[] = {"zipf_s", "t_msg", "t_exec", "think_mean"};
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_NE(errors[i].find(fields[i]), std::string::npos) << errors[i];
  }
}

TEST(LockService, MixedShardAlgorithmsZeroViolations) {
  register_builtin_algorithms();
  const LockServiceReport report =
      run_lock_service(small_service());
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.safety_violations, 0u);
  EXPECT_EQ(report.total_completed, 1'500u);
  // The Zipf head/tail split exercises BOTH algorithms.
  EXPECT_GE(report.hot_shards, 1u);
  EXPECT_LT(report.hot_shards, report.shards.size());
  EXPECT_EQ(report.shards[0].algorithm, "arbiter-tp");
  EXPECT_TRUE(report.shards[0].hot);
  EXPECT_EQ(report.shards.back().algorithm, "path-reversal");
  // The demand split is the canonical Zipf vector.
  const auto demand = workload::zipf_demand_vector(12, 0.9, 1'500, 42);
  for (std::size_t r = 0; r < report.shards.size(); ++r) {
    EXPECT_EQ(report.shards[r].demand, demand[r]) << "shard " << r;
    EXPECT_EQ(report.shards[r].completed, demand[r]) << "shard " << r;
  }
  // SLO material is populated on loaded shards.
  EXPECT_GT(report.shards[0].grant_p99, 0.0);
  EXPECT_GE(report.shards[0].grant_p99, report.shards[0].grant_p50);
  EXPECT_GT(report.grant_p99_worst, 0.0);
  EXPECT_GT(report.fairness_min, 0.0);
  EXPECT_LE(report.fairness_min, 1.0);
}

TEST(LockService, WorksWithEveryRegisteredAlgorithm) {
  register_builtin_algorithms();
  for (const std::string& algo : mutex::Registry::instance().names()) {
    LockServiceConfig cfg = small_service();
    cfg.n_resources = 4;
    cfg.total_demands = 200;
    cfg.hot_algorithm = algo;
    cfg.cold_algorithm = algo;
    const LockServiceReport report = run_lock_service(cfg);
    for (const ShardResult& s : report.shards) {
      EXPECT_TRUE(s.drained) << algo << " shard " << s.resource;
      EXPECT_EQ(s.safety_violations, 0u) << algo << " shard " << s.resource;
    }
  }
}

TEST(LockService, HottestShardReportsGrantWait) {
  register_builtin_algorithms();
  const LockServiceReport report = run_lock_service(small_service());
  // Shard 0 is the Zipf head: its clients contend, so some demand waits.
  const ShardResult& hottest = report.shards[0];
  EXPECT_GT(hottest.grant_p99, 0.0);
  EXPECT_GE(hottest.grant_p99, hottest.grant_p50);
  EXPECT_GT(hottest.grant_mean, 0.0);
}

TEST(LockService, MessageAccountingIsPerShard) {
  register_builtin_algorithms();
  LockServiceConfig cfg = small_service();
  cfg.total_demands = 20;  // too little demand to reach every shard
  const LockServiceReport report = run_lock_service(cfg);
  std::uint64_t messages = 0;
  std::size_t idle = 0;
  for (const ShardResult& s : report.shards) {
    messages += s.messages;
    if (s.demand > 0) continue;
    ++idle;  // an idle shard sends nothing and drains vacuously
    EXPECT_EQ(s.messages, 0u) << "shard " << s.resource;
    EXPECT_EQ(s.completed, 0u) << "shard " << s.resource;
    EXPECT_TRUE(s.drained) << "shard " << s.resource;
  }
  EXPECT_GT(idle, 0u);
  EXPECT_GT(report.shards[0].messages, 0u);
  EXPECT_EQ(report.total_messages, messages);
}

TEST(LockService, JobsFanOutIsByteIdentical) {
  register_builtin_algorithms();
  LockServiceConfig cfg = small_service();
  auto manifest_of = [&cfg](std::size_t jobs) {
    cfg.jobs = jobs;
    const LockServiceReport report =
        run_lock_service(cfg);
    ExperimentConfig mc;
    mc.n_resources = cfg.n_resources;
    mc.zipf_s = cfg.zipf_s;
    mc.total_requests = cfg.total_demands;
    ExperimentResult mr;
    mr.algorithm = "lock-service";
    mr.completed = report.total_completed;
    mr.drained = report.drained;
    mr.lock_service =
        std::make_shared<const LockServiceReport>(report);
    std::ostringstream os;
    write_run_manifest(os, {RunRecord{mc, mr}});
    return os.str();
  };
  const std::string serial = manifest_of(1);
  // The full per-shard scorecard — every double included — is byte-stable
  // for any worker count (shards are independently seeded simulators).
  EXPECT_EQ(serial, manifest_of(8));
  EXPECT_EQ(serial, manifest_of(0));  // 0 = hardware concurrency
}

TEST(LockService, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({5, 5, 5}), 1.0);
  // One tenant hogging everything: index collapses to 1/n.
  EXPECT_NEAR(jain_fairness({9, 0, 0}), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace dmx::harness
