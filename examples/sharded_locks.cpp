// Sharded lock service: many independent locks, skewed (hot-key) demand.
//
// A distributed storage system guards each shard with its own lock.  Demand
// is Zipf-ish: shard 0 is hot, the tail is cold.  Each shard runs a full
// instance of the chosen mutual exclusion protocol (one mutex::MutexCluster
// on its own clock), so the example shows (a) cross-shard parallelism,
// (b) how each algorithm's message bill scales with per-shard load — the
// arbiter algorithm gets *cheaper* per CS on the hot shard (batching!)
// while permission-based schemes do not.
#include <algorithm>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "sim/rng.hpp"

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kNodes = 8;

struct ShardReport {
  std::vector<std::uint64_t> completed;
  std::vector<double> msgs_per_cs;
  std::vector<double> mean_wait;
  int max_parallel = 0;
  std::uint64_t violations = 0;
};

ShardReport run(const std::string& algorithm, std::uint64_t total_ops) {
  using namespace dmx;
  harness::register_builtin_algorithms();
  std::vector<std::unique_ptr<mutex::MutexCluster>> shards;
  // Every grant (+1) and completion (-1) on any shard, by sim time.
  std::vector<std::pair<sim::SimTime, int>> holds;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<mutex::MutexCluster>(
        algorithm, kNodes, mutex::ParamSet{}, 0.05, 77 * 7919 + s,
        std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1))));
    mutex::MutexCluster& shard = *shards.back();
    for (std::size_t i = 0; i < kNodes; ++i) {
      mutex::CsDriver& driver = shard.driver(i);
      driver.set_grant_callback([&holds, &shard](const mutex::CsRequest&) {
        holds.emplace_back(shard.sim().now(), 1);
      });
      driver.set_completion_callback(
          [&holds, &shard](const mutex::CsRequest&) {
            holds.emplace_back(shard.sim().now(), -1);
          });
    }
    shard.start();
  }

  // Skewed shard popularity: 8 : 4 : 2 : 1.
  const std::vector<double> weights = {8.0, 4.0, 2.0, 1.0};
  sim::Rng rng(31);
  double t = 0.0;
  for (std::uint64_t k = 0; k < total_ops; ++k) {
    t += rng.exponential(4.0);  // aggregate demand: 4 ops per time unit
    const auto node = static_cast<std::size_t>(rng.uniform_int(0, 7));
    const std::size_t shard = rng.weighted_index(weights);
    shards[shard]->submit_at(t, node);
  }

  ShardReport rep;
  for (const auto& shard : shards) {
    shard->sim().run();
    rep.completed.push_back(shard->total_completed());
    rep.msgs_per_cs.push_back(
        shard->total_completed() > 0
            ? static_cast<double>(shard->network().stats().sent) /
                  static_cast<double>(shard->total_completed())
            : 0.0);
    stats::Welford wait;
    for (std::size_t i = 0; i < kNodes; ++i) {
      wait.merge(shard->driver(i).sojourn_time());
    }
    rep.mean_wait.push_back(wait.mean());
    rep.violations += shard->monitor().violations();
  }
  // The shards ran on separate clocks; replay their holds on one timeline
  // (a release before a grant at the same instant) to find the most locks
  // held at once.
  std::sort(holds.begin(), holds.end());
  int held = 0;
  for (const auto& [at, delta] : holds) {
    held += delta;
    rep.max_parallel = std::max(rep.max_parallel, held);
  }
  return rep;
}

}  // namespace

int main() {
  using namespace dmx;
  const std::uint64_t kOps = 20'000;
  std::cout << "Sharded lock service: 8 nodes, 4 shards with 8:4:2:1 demand "
               "skew, "
            << kOps << " lock operations\n\n";

  for (const std::string algo : {"arbiter-tp", "ricart-agrawala"}) {
    const auto rep = run(algo, kOps);
    std::cout << "algorithm: " << algo
              << "   (max concurrent shard grants: " << rep.max_parallel
              << ", safety violations: " << rep.violations << ")\n";
    harness::Table table({"shard", "ops", "msgs/op", "mean lock wait"});
    for (std::size_t s = 0; s < kShards; ++s) {
      table.add_row({harness::Table::integer(s),
                     harness::Table::integer(rep.completed[s]),
                     harness::Table::num(rep.msgs_per_cs[s], 2),
                     harness::Table::num(rep.mean_wait[s], 3)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "The arbiter algorithm amortizes its NEW-ARBITER broadcast "
               "over the hot shard's\nbatches (msgs/op falls with load); "
               "Ricart-Agrawala pays 2(N-1) on every shard.\n";
  return 0;
}
