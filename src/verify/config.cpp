#include "verify/config.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "fault/fault_plan.hpp"
#include "harness/experiment.hpp"
#include "mutex/registry.hpp"
#include "verify/mutants.hpp"

namespace dmx::verify {

std::vector<std::string> VerifyConfig::validate() const {
  harness::register_builtin_algorithms();
  register_mutant_algorithms();
  std::vector<std::string> errors;
  if (!mutex::Registry::instance().contains(algorithm)) {
    errors.push_back("unknown algorithm \"" + algorithm + "\"");
  }
  if (n_nodes == 0 || n_nodes > 4) {
    errors.push_back("n_nodes must be in [1, 4] for exhaustive exploration, "
                     "got " + std::to_string(n_nodes));
  }
  if (requests_per_node == 0) {
    errors.emplace_back("requests_per_node must be at least 1");
  }
  // Written so NaN and infinities fail too.
  if (!(std::isfinite(t_msg) && t_msg > 0.0)) {
    errors.emplace_back("t_msg must be positive and finite");
  }
  if (!(std::isfinite(t_exec) && t_exec > 0.0)) {
    errors.emplace_back("t_exec must be positive and finite");
  }
  if (max_depth == 0) errors.emplace_back("max_depth must be at least 1");
  if (max_schedules == 0) {
    errors.emplace_back("max_schedules must be at least 1");
  }
  if (!fault_plan.empty()) {
    try {
      const fault::FaultPlan plan = fault::FaultPlan::parse(fault_plan);
      for (std::string& e : plan.validate(n_nodes)) {
        errors.push_back(std::move(e));
      }
      for (const fault::FaultAction& act : plan.actions) {
        switch (act.kind) {
          case fault::FaultAction::Kind::kCrash:
          case fault::FaultAction::Kind::kRestart:
          case fault::FaultAction::Kind::kLoseNext:
          case fault::FaultAction::Kind::kPartition:
          case fault::FaultAction::Kind::kHeal:
            break;
          default:
            errors.push_back(
                "fault plan action '" + act.describe() +
                "': only crash, restart, lose-next, partition and heal "
                "become explorable choices");
            break;
        }
      }
    } catch (const std::exception& e) {
      errors.emplace_back(e.what());
    }
  }
  return errors;
}

void VerifyConfig::check() const {
  const std::vector<std::string> errors = validate();
  if (errors.empty()) return;
  std::string joined = "invalid verify config:";
  for (const std::string& e : errors) joined += "\n  - " + e;
  throw std::invalid_argument(joined);
}

}  // namespace dmx::verify
