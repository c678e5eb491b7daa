#include "net/async.hpp"

#include <algorithm>
#include <stdexcept>

namespace p3s::net {

void AsyncNetwork::send(const std::string& from, const std::string& to,
                        Bytes frame) {
  ++tick_;
  const Admission fate = admit(from, to, frame, frame.size());
  for (int i = 0; i < fate.copies; ++i) {
    const std::uint64_t deliver_at =
        tick_ + static_cast<std::uint64_t>(fate.delay[i]);
    queue_.push_back(InFlight{from, to,
                              i + 1 < fate.copies ? frame : std::move(frame),
                              deliver_at});
  }
}

bool AsyncNetwork::pump_one() {
  FaultPlan* plan = fault_plan();
  while (!queue_.empty()) {
    InFlight msg;
    if (plan != nullptr) {
      // Earliest deliver_at first (FIFO on ties); a reorder fault lets a
      // uniformly chosen in-flight frame overtake the scheduled one.
      std::size_t idx = 0;
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (queue_[i].deliver_at < queue_[idx].deliver_at) idx = i;
      }
      if (queue_.size() > 1 &&
          plan->should_reorder(queue_[idx].from, queue_[idx].to)) {
        const std::size_t victim = plan->pick(queue_.size());
        if (victim != idx) count_reordered();
        idx = victim;
      }
      msg = std::move(queue_[idx]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
      tick_ = std::max(tick_ + 1, msg.deliver_at);
    } else if (reorder_) {
      msg = std::move(queue_.back());
      queue_.pop_back();
      ++tick_;
    } else {
      msg = std::move(queue_.front());
      queue_.pop_front();
      ++tick_;
    }
    if (drop_remaining_ > 0) {
      --drop_remaining_;
      count_drop(msg.from, msg.to);
      continue;  // frame lost on the wire
    }
    if (deliver(msg.from, msg.to, msg.frame)) return true;
  }
  return false;
}

std::size_t AsyncNetwork::run_until_idle(std::size_t max_deliveries) {
  std::size_t delivered = 0;
  while (pump_one()) {
    if (++delivered > max_deliveries) {
      throw std::runtime_error("AsyncNetwork: live-lock (message storm)");
    }
  }
  return delivered;
}

}  // namespace p3s::net
