// Deferred-delivery in-process network. Unlike DirectNetwork (inline,
// synchronous), send() only enqueues; frames are delivered when the test or
// application pumps the queue. This models true asynchronous message
// passing — in-flight races, loss, reordering — while staying fully
// deterministic and single-threaded. Every send and every pump is one
// logical tick; the chaos suites' timeouts are counted in these ticks.
//
// Fault injection hooks cover the §6.1 robustness discussion: "participants
// can detect if network failures cause message loss at the application
// level" and the slow-consumer/deletion races behind the T_G grace period.
// Beyond the manual drop_next/set_reorder knobs, a seeded net::FaultPlan
// drives probabilistic per-link drop/duplicate/reorder/delay and endpoint
// blackout windows — every chaos schedule is replayable from its seed. The
// plan's send-side decisions and the receiver-blackout check are the shared
// ones in net::Network; this class adds only the queue, the tick clock and
// plan-driven reorder. Without a plan installed the behavior (and the tick
// sequence) is exactly the pre-fault-plan network.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>

#include "net/network.hpp"

namespace p3s::net {

class AsyncNetwork final : public Network {
 public:
  void send(const std::string& from, const std::string& to,
            Bytes frame) override;
  double now() const override { return static_cast<double>(tick_); }

  /// Advance logical time without delivering anything.
  void advance(std::uint64_t ticks) { tick_ += ticks; }

  /// Deliver one in-flight frame (oldest first; newest first when
  /// reordering is on; earliest deliver_at first under a FaultPlan).
  /// Returns false when nothing is in flight.
  bool pump_one();

  /// Deliver until the queue drains (frames sent during delivery are also
  /// processed). Returns the number of frames delivered. Throws
  /// std::runtime_error if `max_deliveries` is exceeded (live-lock guard).
  std::size_t run_until_idle(std::size_t max_deliveries = 100000);

  std::size_t in_flight() const { return queue_.size(); }

  // --- fault injection -----------------------------------------------------
  /// Drop the next `n` frames instead of delivering them (they still appear
  /// in the traffic log — the wire saw them; the receiver did not).
  void drop_next(std::size_t n) { drop_remaining_ += n; }
  /// Deliver newest-first (adversarial reordering) while enabled.
  void set_reorder(bool on) { reorder_ = on; }

  /// Seeded fault schedule (delays in ticks); clear_fault_plan() restores
  /// the exact legacy delivery order. Losses from drop_next count too.
  using Network::clear_fault_plan;
  using Network::dropped_frames;
  using Network::dropped_on;
  using Network::fault_plan;
  using Network::set_fault_plan;

 private:
  struct InFlight {
    std::string from;
    std::string to;
    Bytes frame;
    std::uint64_t deliver_at = 0;
  };

  /// The clock moves in whole ticks, so a drawn delay is truncated.
  double applied_delay(double drawn) const override {
    return std::floor(drawn);
  }

  std::deque<InFlight> queue_;
  std::uint64_t tick_ = 0;
  std::size_t drop_remaining_ = 0;
  bool reorder_ = false;
};

}  // namespace p3s::net
