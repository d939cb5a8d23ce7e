#include "mutex/lock_space.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "obs/tracer.hpp"

namespace dmx::mutex {

namespace {

std::string join_errors(const std::vector<std::string>& errors) {
  std::string msg = "LockSpaceSpec invalid:";
  for (const auto& e : errors) {
    msg += "\n  - ";
    msg += e;
  }
  return msg;
}

}  // namespace

std::vector<std::string> LockSpaceSpec::validate() const {
  std::vector<std::string> errors;
  auto& registry = Registry::instance();
  if (n_nodes == 0) errors.push_back("n_nodes must be > 0");
  if (n_resources == 0) errors.push_back("n_resources must be > 0");
  // Written so NaN fails too: it passes every `<` comparison.
  if (!(std::isfinite(t_msg) && t_msg >= 0.0)) {
    errors.push_back("t_msg must be finite and >= 0");
  }
  if (!(std::isfinite(t_exec) && t_exec >= 0.0)) {
    errors.push_back("t_exec must be finite and >= 0");
  }
  if (!(std::isfinite(span_hist_max) && span_hist_max > 0.0)) {
    errors.push_back("span_hist_max must be finite and > 0");
  }
  if (!registry.contains(algorithm)) {
    errors.push_back(
        "algorithm not registered (call "
        "harness::register_builtin_algorithms first): " +
        algorithm);
  }
  for (const auto& [r, ov] : overrides) {
    const std::string where = "override for resource " + std::to_string(r);
    if (n_resources > 0 && r >= n_resources) {
      errors.push_back(where + ": index out of range (n_resources = " +
                       std::to_string(n_resources) + ")");
    }
    if (ov.algorithm && !registry.contains(*ov.algorithm)) {
      errors.push_back(where + ": algorithm not registered: " +
                       *ov.algorithm);
    }
    if (ov.n_nodes && *ov.n_nodes == 0) {
      errors.push_back(where + ": n_nodes must be > 0");
    }
  }
  return errors;
}

const std::string& LockSpaceSpec::algorithm_for(std::size_t r) const {
  auto it = overrides.find(r);
  if (it != overrides.end() && it->second.algorithm) {
    return *it->second.algorithm;
  }
  return algorithm;
}

std::size_t LockSpaceSpec::nodes_for(std::size_t r) const {
  auto it = overrides.find(r);
  if (it != overrides.end() && it->second.n_nodes) return *it->second.n_nodes;
  return n_nodes;
}

ParamSet LockSpaceSpec::params_for(std::size_t r) const {
  auto it = overrides.find(r);
  if (it == overrides.end()) return params;
  ParamSet merged = params;
  for (const auto& [k, v] : it->second.params.nums()) merged.set(k, v);
  return merged;
}

LockSpaceSpec LockSpaceBuilder::build() const {
  const auto errors = spec_.validate();
  if (!errors.empty()) throw std::invalid_argument(join_errors(errors));
  return spec_;
}

std::unique_ptr<LockSpace> LockSpaceBuilder::build_space() const {
  return std::make_unique<LockSpace>(build());
}

LockSpace::LockSpace(LockSpaceSpec spec) : spec_(std::move(spec)) {
  const auto errors = spec_.validate();
  if (!errors.empty()) throw std::invalid_argument(join_errors(errors));

  shards_.reserve(spec_.n_resources);
  pending_.resize(spec_.n_resources);
  span_collectors_.resize(spec_.n_resources);
  for (std::size_t r = 0; r < spec_.n_resources; ++r) {
    const std::size_t n = spec_.nodes_for(r);
    obs::Tracer tracer;
    if (spec_.collect_spans) {
      span_collectors_[r] = std::make_shared<obs::SpanCollector>(
          spec_.trace_sink, spec_.span_hist_max);
      tracer = obs::Tracer(span_collectors_[r]);
    } else if (spec_.trace_sink) {
      tracer = obs::Tracer(spec_.trace_sink);
    }
    shards_.push_back(std::make_unique<MutexCluster>(
        spec_.algorithm_for(r), n, spec_.params_for(r), spec_.t_exec,
        spec_.seed * 7919 + r,
        std::make_unique<net::ConstantDelay>(sim::SimTime::units(spec_.t_msg)),
        MutexClusterOptions{
            .tracer = tracer, .simulator = &sim_, .ids = &ids_}));
    pending_[r].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      CsDriver& driver = shards_[r]->driver(i);
      driver.set_grant_callback([this, r, i](const CsRequest&) {
        on_driver_granted(r, i);
      });
      driver.set_completion_callback([this, r, i](const CsRequest&) {
        on_driver_released(r, i);
      });
    }
    shards_[r]->start();
  }
  if (spec_.batch_size > 0) batch_buffer_.reserve(spec_.batch_size);
}

LockRequestId LockSpace::acquire(std::size_t node, std::size_t resource,
                                 int priority) {
  if (resource >= spec_.n_resources || node >= shards_[resource]->size()) {
    throw std::out_of_range("LockSpace::acquire: bad node or resource");
  }
  const LockRequestId ticket{next_ticket_++};
  pending_[resource][node].push_back(ticket);
  const LockDemand demand{node, resource, priority};
  if (spec_.batch_size == 0) {
    submit_now(demand);
    return ticket;
  }
  batch_buffer_.push_back(demand);
  if (batch_buffer_.size() >= spec_.batch_size) {
    flush();
  } else if (!flush_scheduled_) {
    // Same-timestamp auto-flush: a partial batch never waits for more
    // demand that may not come.  Scheduling at +0 keeps batched and
    // unbatched runs on identical virtual-time behavior.
    flush_scheduled_ = true;
    sim_.schedule_after(sim::SimTime::units(0.0), [this] {
      flush_scheduled_ = false;
      flush();
    });
  }
  return ticket;
}

std::vector<LockRequestId> LockSpace::submit_batch(
    std::span<const LockDemand> batch) {
  std::vector<LockRequestId> tickets;
  tickets.reserve(batch.size());
  for (const LockDemand& d : batch) {
    tickets.push_back(acquire(d.node, d.resource, d.priority));
  }
  return tickets;
}

void LockSpace::flush() {
  // submit_now can re-enter the simulator but never acquire(), so draining
  // a local move of the buffer keeps re-entrant growth impossible.
  std::vector<LockDemand> draining = std::move(batch_buffer_);
  batch_buffer_.clear();
  for (const LockDemand& d : draining) submit_now(d);
}

void LockSpace::submit_now(const LockDemand& d) {
  shards_[d.resource]->driver(d.node).submit(d.priority);
}

void LockSpace::on_driver_granted(std::size_t resource, std::size_t node) {
  ++current_parallel_;
  if (current_parallel_ > max_parallel_) max_parallel_ = current_parallel_;
  if (on_granted_) {
    const auto& queue = pending_[resource][node];
    const LockRequestId id = queue.empty() ? LockRequestId{} : queue.front();
    on_granted_(LockEvent{id, resource, node, sim_.now()});
  }
}

void LockSpace::on_driver_released(std::size_t resource, std::size_t node) {
  --current_parallel_;
  auto& queue = pending_[resource][node];
  const LockRequestId id = queue.empty() ? LockRequestId{} : queue.front();
  if (!queue.empty()) queue.pop_front();
  if (on_released_) on_released_(LockEvent{id, resource, node, sim_.now()});
}

std::uint64_t LockSpace::safety_violations() const {
  std::uint64_t v = 0;
  for (const auto& shard : shards_) v += shard->monitor().violations();
  return v;
}

std::uint64_t LockSpace::total_completed() const {
  std::uint64_t c = 0;
  for (const auto& shard : shards_) c += shard->total_completed();
  return c;
}

std::uint64_t LockSpace::total_submitted() const {
  std::uint64_t c = batch_buffer_.size();  // ticketed, not yet flushed
  for (const auto& shard : shards_) c += shard->total_submitted();
  return c;
}

std::uint64_t LockSpace::completed(std::size_t resource) const {
  return shards_[resource]->total_completed();
}

std::uint64_t LockSpace::messages(std::size_t resource) const {
  return shards_[resource]->network().stats().sent;
}

std::uint64_t LockSpace::total_messages() const {
  std::uint64_t m = 0;
  for (const auto& shard : shards_) m += shard->network().stats().sent;
  return m;
}

stats::Welford LockSpace::sojourn(std::size_t resource) const {
  stats::Welford w;
  const MutexCluster& shard = *shards_[resource];
  for (std::size_t i = 0; i < shard.size(); ++i) {
    w.merge(shard.driver(i).sojourn_time());
  }
  return w;
}

std::vector<std::uint64_t> LockSpace::completions_per_node(
    std::size_t resource) const {
  const MutexCluster& shard = *shards_[resource];
  std::vector<std::uint64_t> out;
  out.reserve(shard.size());
  for (std::size_t i = 0; i < shard.size(); ++i) {
    out.push_back(shard.driver(i).completed());
  }
  return out;
}

const obs::SpanReport* LockSpace::span_report(std::size_t resource) {
  if (span_collectors_[resource] == nullptr) return nullptr;
  return &span_collectors_[resource]->report();
}

}  // namespace dmx::mutex
