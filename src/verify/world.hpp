// One controlled execution of a verification world.
//
// A World builds the ordinary production stack — a mutex::MutexCluster of
// the algorithm under test, as the sweep uses it — but never calls
// Simulator::run().  Instead the explorer (or a counterexample replay)
// pulls the enabled choice set, picks one, applies it, and asks the world
// whether an invariant just broke.  All demand is submitted at t=0, so the
// world is a closed system whose only nondeterminism is the choice
// sequence: identical sequences produce identical executions, which is what
// makes stateless DFS re-execution and byte-identical replay possible.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/violation.hpp"
#include "obs/sink.hpp"
#include "verify/choice.hpp"
#include "verify/config.hpp"

namespace dmx::verify {

class World {
 public:
  /// Builds the cluster, submits every request at t=0 and leaves the event
  /// queue untouched.  `sink` attaches structured tracing (counterexample
  /// replay); null runs dark.  Throws std::invalid_argument on a bad config.
  explicit World(const VerifyConfig& cfg,
                 std::shared_ptr<obs::Sink> sink = nullptr);

  /// The enabled choice set at the current state, sorted by key():
  /// deliveries (per-link FIFO heads under fifo_links), each node's
  /// earliest timer, CS exits — all within the time_slack window — plus
  /// every applicable unconsumed fault choice.  Deterministic.
  [[nodiscard]] std::vector<Choice> enabled();

  /// Re-derives the enabled set and returns the choice matching `key`.
  [[nodiscard]] std::optional<Choice> find_enabled(std::string_view key);

  /// Executes one choice (must come from this world's current enabled set).
  void apply(const Choice& c);

  /// Any invariant broken by the last transition: unconsumed SafetyMonitor
  /// reports first, then global token uniqueness over live nodes.
  [[nodiscard]] std::optional<mutex::Violation> check();

  /// Starvation verdict for a state with no enabled choices: pending
  /// demand at a live node can never be served once nothing can fire.
  [[nodiscard]] std::optional<mutex::Violation> terminal_check();

  /// All demand served (or voided by crashes) and every fault choice
  /// consumed: no future transition can break an invariant, so the
  /// explorer accepts the schedule without unwinding idle timer chains.
  [[nodiscard]] bool quiescent() const;

  /// Per-node protocol + driver state, one line per node (diagnostics).
  [[nodiscard]] std::string debug_dump() const;

  [[nodiscard]] sim::Simulator& simulator() { return nodes_.sim(); }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::uint64_t completed() const;

 private:
  struct MsgInfo {
    std::int32_t src = -1;
    std::string type;
    std::uint64_t index = 0;  ///< k-th (src, dst, type) transmission.
  };

  void record_send(const net::Envelope& env);

  VerifyConfig cfg_;
  mutex::MutexCluster nodes_;
  std::vector<fault::FaultAction> actions_;
  std::vector<char> action_done_;
  std::unordered_map<std::uint64_t, MsgInfo> msg_info_;  ///< By msg_id.
  std::unordered_map<std::string, std::uint64_t> occurrence_;
  std::vector<sim::PendingEvent> pending_;  ///< Scratch for enabled().
  std::size_t consumed_reports_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace dmx::verify
