#include "verify/world.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/delay_model.hpp"
#include "obs/tracer.hpp"

namespace dmx::verify {

namespace {

// Canonical "0,1|2" rendering of partition groups for choice identity.
std::string groups_key(const std::vector<std::vector<int>>& groups) {
  std::string out;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) out += "|";
    for (std::size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(groups[g][i]);
    }
  }
  return out;
}

// Validates before anything is built; check() also populates the registry.
const VerifyConfig& checked(const VerifyConfig& cfg) {
  cfg.check();
  return cfg;
}

std::optional<net::ReliableTransportConfig> transport_for(
    const VerifyConfig& cfg) {
  if (!cfg.reliable) return std::nullopt;
  auto tc =
      net::ReliableTransportConfig::scaled_to(sim::SimTime::units(cfg.t_msg));
  tc.jitter_frac = 0.0;  // keep the timer schedule seed-free
  return tc;
}

}  // namespace

World::World(const VerifyConfig& cfg, std::shared_ptr<obs::Sink> sink)
    : cfg_(checked(cfg)),
      nodes_(cfg_.algorithm, cfg_.n_nodes, cfg_.params, cfg_.t_exec,
             /*seed=*/1,
             std::make_unique<net::ConstantDelay>(
                 sim::SimTime::units(cfg_.t_msg)),
             {.tracer = sink ? obs::Tracer(std::move(sink)) : obs::Tracer(),
              .reliable = transport_for(cfg_)}) {
  nodes_.network().set_tap([this](const net::Envelope& env, bool dropped) {
    // Sends adjudicated dead on the spot (destination already down) never
    // become pending events, so only surviving transmissions need identity.
    if (!dropped) record_send(env);
  });
  if (!cfg_.fault_plan.empty()) {
    actions_ = fault::FaultPlan::parse(cfg_.fault_plan).actions;
  }
  action_done_.assign(actions_.size(), 0);
  nodes_.start();
  // The whole closed-system demand, round-robin at t=0: surplus beyond one
  // outstanding request per node queues inside the drivers.
  for (std::uint64_t r = 0; r < cfg_.requests_per_node; ++r) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) nodes_.driver(i).submit();
  }
}

void World::record_send(const net::Envelope& env) {
  MsgInfo info;
  info.src = env.src.value();
  info.type = std::string(env.payload->fault_target().type_name());
  std::string link = std::to_string(info.src) + ">" +
                     std::to_string(env.dst.value()) + " " + info.type;
  info.index = occurrence_[link]++;
  msg_info_.emplace(env.msg_id, std::move(info));
}

std::vector<Choice> World::enabled() {
  nodes_.sim().collect_pending(pending_);
  std::vector<Choice> out;
  out.reserve(pending_.size() + actions_.size());
  const bool bounded = cfg_.time_slack >= 0.0;
  sim::SimTime horizon;
  if (!pending_.empty()) {
    // pending_ is sorted by (time, seq): front() is the earliest event.
    horizon = pending_.front().time + sim::SimTime::units(cfg_.time_slack);
  }
  std::vector<std::int32_t> seen_links;
  std::uint32_t timer_nodes = 0;
  for (const sim::PendingEvent& ev : pending_) {
    Choice c;
    c.klass = ev.tag.klass;
    c.node = ev.tag.node;
    c.event = ev.id;
    c.time = ev.time;
    switch (ev.tag.klass) {
      case sim::EventClass::kDelivery: {
        const auto it = msg_info_.find(ev.tag.detail);
        if (it == msg_info_.end()) {
          throw std::logic_error("verify: pending delivery without a send "
                                 "record (tap installed too late?)");
        }
        c.src = it->second.src;
        c.msg_type = it->second.type;
        c.index = it->second.index;
        if (cfg_.fifo_links) {
          // Only the oldest in-flight frame per link is eligible; younger
          // ones stay shadowed even when the head falls outside the slack
          // window (FIFO means they cannot overtake it).
          const std::int32_t link = c.src * 64 + c.node;
          if (std::find(seen_links.begin(), seen_links.end(), link) !=
              seen_links.end()) {
            continue;
          }
          seen_links.push_back(link);
        }
        break;
      }
      case sim::EventClass::kTimer: {
        // A process's timers fire in deadline order; only its earliest is
        // a real scheduling alternative.
        const std::uint32_t bit = 1u << (ev.tag.node & 31);
        if ((timer_nodes & bit) != 0) continue;
        timer_nodes |= bit;
        c.index = ev.tag.detail;
        break;
      }
      case sim::EventClass::kCsExit:
        c.index = ev.tag.detail;
        break;
      default:
        throw std::logic_error(
            "verify: untagged event in a verification world");
    }
    if (bounded && ev.time > horizon) continue;
    out.push_back(std::move(c));
  }

  // Fault choices: each unconsumed plan action is available at every state
  // where it applies (its t= is ignored — timing is the explorer's job).
  const std::size_t fires = out.size();
  for (std::size_t a = 0; a < actions_.size(); ++a) {
    if (action_done_[a] != 0) continue;
    const fault::FaultAction& act = actions_[a];
    if (act.kind == fault::FaultAction::Kind::kCrash) {
      if (!nodes_.algorithm(static_cast<std::size_t>(act.node)).crashed()) {
        Choice c;
        c.kind = Choice::Kind::kCrash;
        c.node = act.node;
        c.action = static_cast<std::int32_t>(a);
        out.push_back(std::move(c));
      }
    } else if (act.kind == fault::FaultAction::Kind::kRestart) {
      if (nodes_.algorithm(static_cast<std::size_t>(act.node)).crashed()) {
        Choice c;
        c.kind = Choice::Kind::kRestart;
        c.node = act.node;
        c.action = static_cast<std::int32_t>(a);
        out.push_back(std::move(c));
      }
    } else if (act.kind == fault::FaultAction::Kind::kPartition) {
      // A cut is a real scheduling alternative at any un-partitioned state;
      // in-flight messages keep their delivery events (a cut severs links,
      // not packets already in the air).
      if (!nodes_.network().faults().partitioned()) {
        Choice c;
        c.kind = Choice::Kind::kPartition;
        c.action = static_cast<std::int32_t>(a);
        c.groups = groups_key(act.groups);
        out.push_back(std::move(c));
      }
    } else if (act.kind == fault::FaultAction::Kind::kHeal) {
      if (nodes_.network().faults().partitioned()) {
        Choice c;
        c.kind = Choice::Kind::kHeal;
        c.action = static_cast<std::int32_t>(a);
        out.push_back(std::move(c));
      }
    } else {  // kLoseNext (the only other verb the config validator admits)
      for (std::size_t i = 0; i < fires; ++i) {
        const Choice& f = out[i];
        if (f.klass != sim::EventClass::kDelivery) continue;
        if (act.msg_type != "*" && f.msg_type != act.msg_type) continue;
        if (act.src >= 0 && f.src != act.src) continue;
        if (act.dst >= 0 && f.node != act.dst) continue;
        Choice d = f;
        d.kind = Choice::Kind::kDrop;
        d.action = static_cast<std::int32_t>(a);
        out.push_back(std::move(d));
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Choice& x, const Choice& y) {
    return x.key() < y.key();
  });
  return out;
}

std::optional<Choice> World::find_enabled(std::string_view key) {
  for (Choice& c : enabled()) {
    if (c.key() == key) return std::move(c);
  }
  return std::nullopt;
}

void World::apply(const Choice& c) {
  switch (c.kind) {
    case Choice::Kind::kFire:
      if (!nodes_.sim().fire(c.event)) {
        throw std::logic_error("verify: fire() on an event no longer pending");
      }
      break;
    case Choice::Kind::kDrop:
      if (!nodes_.sim().cancel(c.event)) {
        throw std::logic_error("verify: drop of an event no longer pending");
      }
      ++nodes_.network().mutable_stats().dropped;
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
    case Choice::Kind::kCrash:
      nodes_.cluster().crash_node(net::NodeId{c.node});
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
    case Choice::Kind::kRestart:
      nodes_.cluster().restart_node(net::NodeId{c.node});
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
    case Choice::Kind::kPartition: {
      const fault::FaultAction& act =
          actions_[static_cast<std::size_t>(c.action)];
      std::vector<std::vector<net::NodeId>> groups;
      groups.reserve(act.groups.size());
      for (const auto& group : act.groups) {
        std::vector<net::NodeId>& g = groups.emplace_back();
        g.reserve(group.size());
        for (int n : group) g.push_back(net::NodeId{n});
      }
      nodes_.network().faults().set_partition(std::move(groups));
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
    }
    case Choice::Kind::kHeal:
      nodes_.network().faults().heal_partition();
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
  }
  ++steps_;
}

std::optional<mutex::Violation> World::check() {
  const std::vector<mutex::Violation>& reports = nodes_.monitor().reports();
  if (consumed_reports_ < reports.size()) {
    return reports[consumed_reports_++];
  }
  std::vector<net::NodeId> holders;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const mutex::MutexAlgorithm& algo = nodes_.algorithm(i);
    if (algo.crashed()) continue;
    if (algo.holds_token().value_or(false)) holders.push_back(algo.id());
  }
  if (holders.size() > 1) {
    mutex::Violation v;
    v.kind = mutex::Violation::Kind::kTokenDuplicated;
    v.time = nodes_.sim().now();
    v.nodes = std::move(holders);
    v.detail = std::to_string(v.nodes.size()) +
               " live nodes hold the token simultaneously";
    // Epochs tell a regenerated second token (different epochs — the
    // split-brain signature) from a plain duplication bug (same epoch).
    std::string epochs;
    for (const net::NodeId h : v.nodes) {
      const auto e = nodes_.algorithm(h.index()).token_epoch();
      if (!e.has_value()) continue;
      if (!epochs.empty()) epochs += ", ";
      epochs +=
          "node " + std::to_string(h.value()) + " epoch " + std::to_string(*e);
    }
    if (!epochs.empty()) v.detail += " (" + epochs + ")";
    return v;
  }
  return std::nullopt;
}

std::optional<mutex::Violation> World::terminal_check() {
  std::vector<net::NodeId> starving;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_.driver(i).idle() && !nodes_.algorithm(i).crashed()) {
      starving.push_back(nodes_.algorithm(i).id());
    }
  }
  if (starving.empty()) return std::nullopt;
  mutex::Violation v;
  v.kind = mutex::Violation::Kind::kStarvation;
  v.time = nodes_.sim().now();
  v.nodes = std::move(starving);
  v.detail = "pending live demand with no enabled transition left";
  return v;
}

bool World::quiescent() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_.driver(i).idle()) return false;
  }
  for (const char done : action_done_) {
    if (done == 0) return false;
  }
  return true;
}

std::string World::debug_dump() const {
  std::string out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const mutex::MutexAlgorithm& algo = nodes_.algorithm(i);
    out += "  node " + std::to_string(i) + ": ";
    out += algo.crashed() ? "CRASHED" : algo.debug_state();
    if (!nodes_.driver(i).idle()) out += " [demand pending]";
    out += "\n";
  }
  return out;
}

std::uint64_t World::completed() const {
  return nodes_.total_completed();
}

}  // namespace dmx::verify
