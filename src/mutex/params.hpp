// Loosely typed parameter bag for algorithm construction.
//
// Benches and the harness sweep algorithm parameters by name ("t_req",
// "t_fwd", "tau", ...); each algorithm factory reads what it understands and
// falls back to its documented defaults.  A key holds either a number or a
// string; reading it as the other kind throws std::invalid_argument, so a
// malformed number (t_req=0.5x) fails instead of silently keeping the
// default.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "sim/time.hpp"

namespace dmx::mutex {

class ParamSet {
 public:
  ParamSet& set(const std::string& key, double value) {
    strs_.erase(key);
    nums_[key] = value;
    return *this;
  }
  ParamSet& set(const std::string& key, const std::string& value) {
    nums_.erase(key);
    strs_[key] = value;
    return *this;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return nums_.contains(key) || strs_.contains(key);
  }

  [[nodiscard]] double get_num(const std::string& key,
                               double fallback) const {
    const double* v = find_num(key);
    return v == nullptr ? fallback : *v;
  }

  [[nodiscard]] double require_num(const std::string& key) const {
    const double* v = find_num(key);
    if (v == nullptr) {
      throw std::invalid_argument("missing required parameter: " + key);
    }
    return *v;
  }

  [[nodiscard]] sim::SimTime get_time(const std::string& key,
                                      sim::SimTime fallback) const {
    const double* v = find_num(key);
    return v == nullptr ? fallback : sim::SimTime::units(*v);
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const {
    const double* v = find_num(key);
    return v == nullptr ? fallback : *v != 0.0;
  }

  [[nodiscard]] std::string get_str(const std::string& key,
                                    const std::string& fallback) const {
    if (nums_.contains(key)) {
      throw std::invalid_argument("parameter " + key +
                                  " expects a name, got a number");
    }
    auto it = strs_.find(key);
    return it == strs_.end() ? fallback : it->second;
  }

  [[nodiscard]] const std::map<std::string, double>& nums() const {
    return nums_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& strs() const {
    return strs_;
  }

 private:
  [[nodiscard]] const double* find_num(const std::string& key) const {
    if (auto s = strs_.find(key); s != strs_.end()) {
      throw std::invalid_argument("parameter " + key +
                                  " expects a number, got '" + s->second +
                                  "'");
    }
    auto it = nums_.find(key);
    return it == nums_.end() ? nullptr : &it->second;
  }

  std::map<std::string, double> nums_;
  std::map<std::string, std::string> strs_;
};

}  // namespace dmx::mutex
