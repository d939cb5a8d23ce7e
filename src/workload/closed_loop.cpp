#include "workload/closed_loop.hpp"

#include <stdexcept>

namespace dmx::workload {

ClosedLoopGenerator::ClosedLoopGenerator(
    sim::Simulator& sim, std::vector<SubmitFn> submit,
    std::vector<std::unique_ptr<ArrivalProcess>> think,
    std::uint64_t total_requests, std::uint64_t seed)
    : sim_(sim), submit_(std::move(submit)), think_(std::move(think)),
      stopped_(submit_.size(), false), total_requests_(total_requests) {
  if (submit_.size() != think_.size()) {
    throw std::invalid_argument("ClosedLoopGenerator: size mismatch");
  }
  sim::Rng root(seed);
  for (std::size_t i = 0; i < submit_.size(); ++i) {
    if (!submit_[i] || think_[i] == nullptr) {
      throw std::invalid_argument("ClosedLoopGenerator: null entry");
    }
    rngs_.push_back(root.fork());
  }
}

void ClosedLoopGenerator::start() {
  for (std::size_t i = 0; i < submit_.size(); ++i) think_then_submit(i);
}

void ClosedLoopGenerator::stop_node(std::size_t node) {
  if (node >= stopped_.size()) {
    throw std::out_of_range("ClosedLoopGenerator::stop_node");
  }
  stopped_[node] = true;
}

void ClosedLoopGenerator::notify_complete(std::size_t client) {
  if (client >= submit_.size()) {
    throw std::out_of_range("ClosedLoopGenerator::notify_complete");
  }
  think_then_submit(client);
}

void ClosedLoopGenerator::think_then_submit(std::size_t node) {
  if (submitted_ >= total_requests_ || stopped_[node]) return;
  const sim::SimTime gap = think_[node]->next_gap(rngs_[node]);
  sim_.schedule_after(gap, [this, node] {
    if (submitted_ >= total_requests_ || stopped_[node]) return;
    ++submitted_;
    submit_[node]();
  });
}

}  // namespace dmx::workload
