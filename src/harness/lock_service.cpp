#include "harness/lock_service.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "workload/arrivals.hpp"
#include "workload/closed_loop.hpp"
#include "workload/zipf.hpp"

namespace dmx::harness {

namespace {

std::string join_errors(const std::vector<std::string>& errors) {
  std::string msg = "LockServiceConfig invalid:";
  for (const auto& e : errors) {
    msg += "\n  - ";
    msg += e;
  }
  return msg;
}

/// Upper edge of every shard's grant_wait histogram (time units).
constexpr double kGrantHistMax = 1000.0;

/// One shard, in isolation: its own MutexCluster driven by a closed-loop
/// client population until the shard's demand budget drains.
ShardResult run_shard(const LockServiceConfig& cfg, std::size_t r,
                      std::uint64_t demand, bool hot) {
  ShardResult out;
  out.resource = r;
  out.hot = hot;
  out.algorithm = hot ? cfg.hot_algorithm : cfg.cold_algorithm;
  out.nodes = hot ? cfg.hot_nodes : cfg.cold_nodes;
  out.demand = demand;
  if (demand == 0) {
    out.drained = true;  // vacuously: nobody ever wants this resource
    return out;
  }

  // The replication seed schedule applied to shards: shard r is
  // "replication r" of the service's base seed, whether it runs serially
  // or on any worker.
  const std::uint64_t shard_seed =
      cfg.seed + 1000 * static_cast<std::uint64_t>(r) + 17;

  // Sink chain: SpanCollector [-> the trace sink, on trace_shard only].
  const auto spans = std::make_shared<obs::SpanCollector>(
      r == cfg.trace_shard ? cfg.trace_sink : nullptr, kGrantHistMax);
  mutex::MutexCluster nodes(
      out.algorithm, out.nodes, cfg.params, cfg.t_exec, shard_seed * 7919,
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(cfg.t_msg)),
      {.tracer = obs::Tracer(spans)});
  nodes.start();
  sim::Simulator& sim = nodes.sim();

  // Same-timestamp flush: demands that arrive at one instant enter the
  // protocol together, in arrival order, from one zero-delay event.
  std::vector<std::size_t> arrived;
  const auto flush = [&nodes, &arrived] {
    for (const std::size_t i : std::exchange(arrived, {})) {
      nodes.driver(i).submit();
    }
  };

  // Closed-loop clients, one per node; a driver's completion callback is
  // the client's resubmission signal.
  std::vector<workload::ClosedLoopGenerator::SubmitFn> submit;
  std::vector<std::unique_ptr<workload::ArrivalProcess>> think;
  submit.reserve(out.nodes);
  think.reserve(out.nodes);
  for (std::size_t i = 0; i < out.nodes; ++i) {
    submit.emplace_back([&sim, &arrived, &flush, i] {
      if (arrived.empty()) sim.schedule_after(sim::SimTime::zero(), flush);
      arrived.push_back(i);
    });
    think.push_back(
        std::make_unique<workload::PoissonArrivals>(1.0 / cfg.think_mean));
  }
  workload::ClosedLoopGenerator gen(sim, std::move(submit), std::move(think),
                                    demand, shard_seed * 31 + 7);
  for (std::size_t i = 0; i < out.nodes; ++i) {
    nodes.driver(i).set_completion_callback(
        [&gen, i](const mutex::CsRequest&) { gen.notify_complete(i); });
  }
  gen.start();
  sim.run();

  out.completed = nodes.total_completed();
  out.messages = nodes.network().stats().sent;
  out.messages_per_cs =
      out.completed == 0
          ? 0.0
          : static_cast<double>(out.messages) / static_cast<double>(out.completed);
  out.safety_violations = nodes.monitor().violations();
  out.drained = out.completed == demand;
  out.sim_duration_units = sim.now().to_units();

  const obs::SpanReport& report = spans->report();
  if (report.completed > 0) {
    out.grant_mean = report.grant_wait.moments.mean();
    out.grant_p50 = report.grant_wait.hist.quantile(0.50);
    out.grant_p99 = report.grant_wait.hist.quantile(0.99);
  }
  // With fewer demands than clients, even a perfectly fair service leaves
  // some clients at zero; the index is not meaningful there.
  if (demand >= out.nodes) {
    std::vector<std::uint64_t> per_client;
    per_client.reserve(out.nodes);
    for (std::size_t i = 0; i < out.nodes; ++i) {
      per_client.push_back(nodes.driver(i).completed());
    }
    out.fairness = jain_fairness(per_client);
  }
  return out;
}

}  // namespace

std::vector<std::string> LockServiceConfig::validate() const {
  std::vector<std::string> errors;
  auto& registry = mutex::Registry::instance();
  if (n_resources == 0) errors.push_back("n_resources must be > 0");
  // Written so NaN fails too: a NaN skew or delay passes `<` comparisons.
  if (!(std::isfinite(zipf_s) && zipf_s >= 0.0)) {
    errors.push_back("zipf_s must be finite and >= 0");
  }
  if (total_demands == 0) errors.push_back("total_demands must be > 0");
  if (hot_nodes == 0) errors.push_back("hot_nodes must be > 0");
  if (cold_nodes == 0) errors.push_back("cold_nodes must be > 0");
  if (!(std::isfinite(t_msg) && t_msg >= 0.0)) {
    errors.push_back("t_msg must be finite and >= 0");
  }
  if (!(std::isfinite(t_exec) && t_exec >= 0.0)) {
    errors.push_back("t_exec must be finite and >= 0");
  }
  if (!(std::isfinite(think_mean) && think_mean > 0.0)) {
    errors.push_back("think_mean must be finite and > 0");
  }
  if (!registry.contains(hot_algorithm)) {
    errors.push_back("hot algorithm not registered: " + hot_algorithm);
  }
  if (!registry.contains(cold_algorithm)) {
    errors.push_back("cold algorithm not registered: " + cold_algorithm);
  }
  return errors;
}

double jain_fairness(const std::vector<std::uint64_t>& counts) {
  if (counts.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::uint64_t c : counts) {
    const auto x = static_cast<double>(c);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(counts.size()) * sum_sq);
}

LockServiceReport run_lock_service(const LockServiceConfig& cfg) {
  register_builtin_algorithms();
  const auto errors = cfg.validate();
  if (!errors.empty()) throw std::invalid_argument(join_errors(errors));

  LockServiceReport report;
  report.total_demands = cfg.total_demands;

  // THE canonical Zipf split: every consumer of this config derives the
  // same per-shard demand vector.
  const std::vector<std::uint64_t> demand = workload::zipf_demand_vector(
      cfg.n_resources, cfg.zipf_s, cfg.total_demands, cfg.seed);

  report.shards.resize(cfg.n_resources);
  const ParallelRunner runner(cfg.jobs);
  runner.run_indexed(cfg.n_resources, [&](std::size_t r) {
    // Hot = at or above the mean per-shard demand, computed without
    // division so the classification is exact in integers.
    const bool hot =
        demand[r] * static_cast<std::uint64_t>(cfg.n_resources) >=
        cfg.total_demands;
    report.shards[r] = run_shard(cfg, r, demand[r], hot);
  });

  for (const ShardResult& s : report.shards) {
    report.total_completed += s.completed;
    report.total_messages += s.messages;
    report.safety_violations += s.safety_violations;
    if (s.hot) ++report.hot_shards;
    if (s.grant_p99 > report.grant_p99_worst) {
      report.grant_p99_worst = s.grant_p99;
    }
    if (s.fairness < report.fairness_min) report.fairness_min = s.fairness;
  }
  report.messages_per_cs =
      report.total_completed == 0
          ? 0.0
          : static_cast<double>(report.total_messages) /
                static_cast<double>(report.total_completed);
  report.drained = true;
  for (const ShardResult& s : report.shards) {
    if (!s.drained) report.drained = false;
  }
  return report;
}

}  // namespace dmx::harness
