// Multi-resource lock space.
//
// Real deployments guard many independent resources (shards, keys, files),
// not one global critical section.  A LockSpace instantiates one complete
// mutual exclusion protocol per resource — its own logical network and its
// own per-node algorithm instances — all driven by a single shared virtual
// clock, so cross-resource parallelism and aggregate message bills can be
// studied.  Any registered algorithm works; resources are fully independent
// (a grant on resource A never waits on resource B).
//
// The API is spec + builder:
//
//   auto space = mutex::LockSpaceBuilder()
//                    .resources(1024).nodes(16)
//                    .algorithm("raymond")              // default (cold)
//                    .resource_algorithm(0, "arbiter-tp")  // hot override
//                    .resource_nodes(0, 64)
//                    .batch(32)
//                    .collect_spans()
//                    .build_space();
//   space->set_on_granted([](const LockEvent& e) { ... });
//   LockRequestId id = space->acquire(node, resource);
//
// LockSpaceSpec::validate() reports *every* configuration error at once;
// build()/the ctor throw the joined list.  Per-resource overrides let hot
// resources run a different algorithm, node count or parameter set than the
// cold default — the substrate of the sharded lock-service scenario
// (harness/lock_service.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mutex/api.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/params.hpp"
#include "mutex/safety_monitor.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace dmx::mutex {

/// Per-resource deviation from the LockSpaceSpec defaults.  Unset fields
/// inherit; `params` entries are merged *over* the default ParamSet (an
/// override key wins, untouched defaults stay).
struct ResourceOverride {
  std::optional<std::string> algorithm;
  std::optional<std::size_t> n_nodes;
  ParamSet params;
};

/// Full description of a lock space.  Plain aggregate — fill it directly or
/// through LockSpaceBuilder; validate() tells you everything wrong with it.
struct LockSpaceSpec {
  std::string algorithm = "arbiter-tp";  ///< Default for all resources.
  std::size_t n_nodes = 8;               ///< Default nodes per resource.
  std::size_t n_resources = 4;
  double t_msg = 0.1;
  double t_exec = 0.1;
  ParamSet params;  ///< Default algorithm parameters.
  std::uint64_t seed = 1;
  /// Demand batching at the driver layer: acquire() buffers demands and
  /// flushes them `batch_size` at a time (plus a same-timestamp auto-flush
  /// so nothing ever sticks).  0 = unbatched, every acquire submits
  /// immediately (the legacy behavior).
  std::size_t batch_size = 0;
  /// Assemble per-resource request-lifecycle spans (obs/span.hpp); exposes
  /// span_report(resource) with the grant_wait (time-to-grant) phase the
  /// lock-service SLO tables quote p99s of.
  bool collect_spans = false;
  /// Histogram upper edge for span phase distributions (time units).
  double span_hist_max = 1000.0;
  /// Optional downstream sink receiving every resource's trace events (and
  /// completed spans when collect_spans is on).
  std::shared_ptr<obs::Sink> trace_sink;
  /// Per-resource overrides, keyed by resource index.
  std::map<std::size_t, ResourceOverride> overrides;

  /// Validate without building: one actionable message per problem (zero
  /// sizes, unknown algorithm names — default or override —, negative
  /// times, out-of-range override indices, ...); empty means buildable.
  /// The LockSpace ctor throws the joined messages, so a caller sees every
  /// configuration error at once instead of dying on the first.
  [[nodiscard]] std::vector<std::string> validate() const;

  // Resolved per-resource views (override if present, default otherwise).
  [[nodiscard]] const std::string& algorithm_for(std::size_t r) const;
  [[nodiscard]] std::size_t nodes_for(std::size_t r) const;
  [[nodiscard]] ParamSet params_for(std::size_t r) const;
};

/// One lock demand, the unit submit_batch() accepts in bulk.
struct LockDemand {
  std::size_t node = 0;
  std::size_t resource = 0;
  int priority = 0;
};

/// Fluent construction with fail-fast validation: build() runs
/// LockSpaceSpec::validate() and throws std::invalid_argument listing every
/// problem.
class LockSpaceBuilder {
 public:
  LockSpaceBuilder& algorithm(std::string name) {
    spec_.algorithm = std::move(name);
    return *this;
  }
  LockSpaceBuilder& nodes(std::size_t n) {
    spec_.n_nodes = n;
    return *this;
  }
  LockSpaceBuilder& resources(std::size_t n) {
    spec_.n_resources = n;
    return *this;
  }
  LockSpaceBuilder& t_msg(double units) {
    spec_.t_msg = units;
    return *this;
  }
  LockSpaceBuilder& t_exec(double units) {
    spec_.t_exec = units;
    return *this;
  }
  LockSpaceBuilder& param(const std::string& key, double value) {
    spec_.params.set(key, value);
    return *this;
  }
  LockSpaceBuilder& param(const std::string& key, const std::string& value) {
    spec_.params.set(key, value);
    return *this;
  }
  LockSpaceBuilder& seed(std::uint64_t s) {
    spec_.seed = s;
    return *this;
  }
  LockSpaceBuilder& batch(std::size_t size) {
    spec_.batch_size = size;
    return *this;
  }
  LockSpaceBuilder& collect_spans(bool on = true) {
    spec_.collect_spans = on;
    return *this;
  }
  LockSpaceBuilder& span_hist_max(double hi) {
    spec_.span_hist_max = hi;
    return *this;
  }
  LockSpaceBuilder& trace_sink(std::shared_ptr<obs::Sink> sink) {
    spec_.trace_sink = std::move(sink);
    return *this;
  }
  LockSpaceBuilder& resource_algorithm(std::size_t r, std::string name) {
    spec_.overrides[r].algorithm = std::move(name);
    return *this;
  }
  LockSpaceBuilder& resource_nodes(std::size_t r, std::size_t n) {
    spec_.overrides[r].n_nodes = n;
    return *this;
  }
  LockSpaceBuilder& resource_param(std::size_t r, const std::string& key,
                                   double value) {
    spec_.overrides[r].params.set(key, value);
    return *this;
  }

  /// Throws std::invalid_argument joining every validation error.
  [[nodiscard]] LockSpaceSpec build() const;

  /// build() + construct the space in one step.
  [[nodiscard]] std::unique_ptr<class LockSpace> build_space() const;

 private:
  LockSpaceSpec spec_;
};

class LockSpace {
 public:
  /// Grant / release notification hook (see the LockRequestId contract in
  /// mutex/api.hpp).  SmallCallback keeps typical captures allocation-free.
  using LockHook = sim::SmallCallback<void(const LockEvent&)>;

  explicit LockSpace(LockSpaceSpec spec);

  LockSpace(const LockSpace&) = delete;
  LockSpace& operator=(const LockSpace&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const LockSpaceSpec& spec() const { return spec_; }
  /// Default node count; resources with a n_nodes override differ.
  [[nodiscard]] std::size_t nodes() const { return spec_.n_nodes; }
  [[nodiscard]] std::size_t nodes(std::size_t resource) const {
    return shards_[resource]->size();
  }
  [[nodiscard]] std::size_t resources() const { return spec_.n_resources; }
  [[nodiscard]] const std::string& algorithm(std::size_t resource) const {
    return spec_.algorithm_for(resource);
  }

  /// Submit lock demand: node wants resource (queued FIFO per
  /// node+resource).  Returns the demand's ticket; on_granted/on_released
  /// fire with it.  With batching on, the demand is buffered and hits the
  /// protocol at the next flush (same timestamp — a zero-delay auto-flush
  /// is scheduled whenever the buffer becomes non-empty).
  LockRequestId acquire(std::size_t node, std::size_t resource,
                        int priority = 0);

  /// Bulk submission: one ticket per demand, in order.  Equivalent to
  /// calling acquire() per element; exists so drivers hand the space whole
  /// batches without per-demand call overhead.
  std::vector<LockRequestId> submit_batch(std::span<const LockDemand> batch);

  /// Force any buffered demands into the protocol now.  No-op when
  /// unbatched or empty.
  void flush();

  /// Exactly-once grant / release notifications (mutex/api.hpp contract).
  void set_on_granted(LockHook hook) { on_granted_ = std::move(hook); }
  void set_on_released(LockHook hook) { on_released_ = std::move(hook); }

  /// Per-resource exclusivity monitor.
  [[nodiscard]] const SafetyMonitor& monitor(std::size_t resource) const {
    return shards_[resource]->monitor();
  }
  [[nodiscard]] std::uint64_t safety_violations() const;

  /// Grants completed / demands submitted, summed over everything.
  /// Buffered-but-unflushed demands count as submitted (they hold tickets).
  [[nodiscard]] std::uint64_t total_completed() const;
  [[nodiscard]] std::uint64_t total_submitted() const;
  [[nodiscard]] std::uint64_t completed(std::size_t resource) const;

  /// Messages sent on a resource's network / across all of them.
  [[nodiscard]] std::uint64_t messages(std::size_t resource) const;
  [[nodiscard]] std::uint64_t total_messages() const;

  /// Lock-wait statistics (arrival -> release) aggregated over all nodes of
  /// one resource.
  [[nodiscard]] stats::Welford sojourn(std::size_t resource) const;

  /// Per-resource completions by node (tenant-fairness raw material).
  [[nodiscard]] std::vector<std::uint64_t> completions_per_node(
      std::size_t resource) const;

  /// Per-resource lifecycle decomposition; null unless spec.collect_spans.
  /// grant_wait is the time-to-grant SLO phase.
  [[nodiscard]] const obs::SpanReport* span_report(std::size_t resource);

  /// Highest number of resources ever held concurrently (across distinct
  /// resources, by any nodes) — proof of cross-resource parallelism.
  [[nodiscard]] int max_parallel_grants() const { return max_parallel_; }

 private:
  void submit_now(const LockDemand& d);
  void on_driver_granted(std::size_t resource, std::size_t node);
  void on_driver_released(std::size_t resource, std::size_t node);

  LockSpaceSpec spec_;
  sim::Simulator sim_;
  RequestIdSource ids_;
  std::vector<std::unique_ptr<MutexCluster>> shards_;  // per resource
  std::vector<std::shared_ptr<obs::SpanCollector>> span_collectors_;
  // FIFO ticket ledger per (resource, node): CsDriver queues demand FIFO
  // with at most one CS in flight, so the front ticket is always the one
  // being granted / released.  Popped on release.
  std::vector<std::vector<std::deque<LockRequestId>>> pending_;
  std::vector<LockDemand> batch_buffer_;
  LockHook on_granted_;
  LockHook on_released_;
  std::uint64_t next_ticket_ = 1;
  bool flush_scheduled_ = false;
  int current_parallel_ = 0;
  int max_parallel_ = 0;
};

}  // namespace dmx::mutex
