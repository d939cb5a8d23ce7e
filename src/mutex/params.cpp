#include "mutex/params.hpp"

#include <cmath>
#include <limits>
#include <sstream>

namespace dmx::mutex {

namespace {

[[noreturn]] void reject(const std::string& key, const char* what, double v) {
  std::ostringstream msg;
  msg << "param " << key << " must be " << what << ", got " << v;
  throw std::invalid_argument(msg.str());
}

}  // namespace

sim::SimTime ParamSet::get_time(const std::string& key,
                                sim::SimTime fallback) const {
  const double* v = find_num(key);
  if (v == nullptr) return fallback;
  // The upper bound keeps SimTime's tick conversion in range (and rejects
  // inf); !(v >= 0) also rejects NaN.
  constexpr double kMaxUnits =
      static_cast<double>(sim::SimTime::max().raw() /
                          sim::SimTime::kTicksPerUnit);
  if (!(*v >= 0.0) || *v > kMaxUnits) reject(key, "a non-negative time", *v);
  return sim::SimTime::units(*v);
}

std::uint32_t ParamSet::get_count(const std::string& key,
                                  std::uint32_t fallback) const {
  const double v = get_num(key, fallback);
  if (!(v >= 0.0) || v != std::floor(v) ||
      v > std::numeric_limits<std::int32_t>::max()) {
    reject(key, "a non-negative integer", v);
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace dmx::mutex
