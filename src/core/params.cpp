#include "core/params.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dmx::core {

namespace {

[[noreturn]] void reject(const std::string& key, const char* what, double v) {
  std::ostringstream msg;
  msg << "ArbiterParams: " << key << " must be " << what << ", got " << v;
  throw std::invalid_argument(msg.str());
}

sim::SimTime time_param(const mutex::ParamSet& p, const std::string& key,
                        sim::SimTime fallback) {
  if (!p.has(key)) return fallback;
  const double v = p.get_num(key, 0.0);
  // The upper bound keeps SimTime's tick conversion in range (and rejects
  // inf); !(v >= 0) also rejects NaN.
  constexpr double kMaxUnits =
      static_cast<double>(sim::SimTime::max().raw() /
                          sim::SimTime::kTicksPerUnit);
  if (!(v >= 0.0) || v > kMaxUnits) reject(key, "a non-negative time", v);
  return sim::SimTime::units(v);
}

std::uint32_t count_param(const mutex::ParamSet& p, const std::string& key,
                          std::uint32_t fallback) {
  const double v = p.get_num(key, fallback);
  if (!(v >= 0.0) || v != std::floor(v) ||
      v > std::numeric_limits<std::int32_t>::max()) {
    reject(key, "a non-negative integer", v);
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

ArbiterParams ArbiterParams::from_params(const mutex::ParamSet& p) {
  ArbiterParams a;
  a.t_req = time_param(p, "t_req", a.t_req);
  a.t_fwd = time_param(p, "t_fwd", a.t_fwd);
  const std::string order = p.get_str("order", "fcfs");
  if (order == "fcfs") {
    a.order = BatchOrder::kFcfs;
  } else if (order == "sequence") {
    a.order = BatchOrder::kSequence;
  } else if (order == "priority") {
    a.order = BatchOrder::kPriority;
  } else {
    throw std::invalid_argument("ArbiterParams: unknown order: " + order);
  }
  a.sequenced = p.get_bool("sequenced", a.sequenced);
  a.suppress_self_broadcast =
      p.get_bool("suppress_self_broadcast", a.suppress_self_broadcast);
  a.resubmit_after_misses =
      count_param(p, "resubmit_after_misses", a.resubmit_after_misses);
  a.request_retry_timeout =
      time_param(p, "request_retry_timeout", a.request_retry_timeout);
  a.starvation_free = p.get_bool("starvation_free", a.starvation_free);
  a.monitor = net::NodeId{static_cast<std::int32_t>(count_param(
      p, "monitor", static_cast<std::uint32_t>(a.monitor.value())))};
  a.tau = count_param(p, "tau", a.tau);
  a.rotate_monitor = p.get_bool("rotate_monitor", a.rotate_monitor);
  a.monitor_patience = time_param(p, "monitor_patience", a.monitor_patience);
  a.recovery = p.get_bool("recovery", a.recovery);
  a.token_timeout = time_param(p, "token_timeout", a.token_timeout);
  a.enquiry_timeout = time_param(p, "enquiry_timeout", a.enquiry_timeout);
  a.arbiter_timeout = time_param(p, "arbiter_timeout", a.arbiter_timeout);
  a.probe_timeout = time_param(p, "probe_timeout", a.probe_timeout);
  a.recovery_quorum = p.get_bool("recovery_quorum", a.recovery_quorum);
  return a;
}

}  // namespace dmx::core
