// In-process message-passing substrate standing in for the paper's
// ActiveMQ/JMS transport. Components register named endpoints and exchange
// opaque byte frames. `Network` owns everything the transports share: the
// endpoint table, the one delivery routine, the eavesdropper traffic log and
// the seeded fault admission. Each implementation only decides WHEN a frame
// is delivered:
//   * DirectNetwork (this file) — inline, synchronous dispatch; drives
//     perfbench, the runnable examples and the functional tests.
//   * AsyncNetwork (net/async.hpp) — deferred delivery pumped by the caller
//     in logical ticks; drives the chaos, attack, privacy and anon suites.
//   * sim::SimNetwork (src/sim) — discrete-event delivery with link latency
//     and NIC bandwidth; drives the figure benches through model/flowsim.
//
// Every frame that crosses the network is also appended to a traffic log:
// this is the "eavesdropper's view" used by the privacy tests (the paper's
// §6.1 analysis of what network observers learn — sizes and endpoints, not
// content).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "net/fault.hpp"

namespace p3s::net {

/// What an eavesdropper records per frame.
struct TrafficRecord {
  double time = 0.0;
  std::string from;
  std::string to;
  std::size_t size = 0;
  Bytes frame;  // ciphertext as seen on the wire
};

class Network {
 public:
  using Handler =
      std::function<void(const std::string& from, BytesView frame)>;

  virtual ~Network() = default;

  /// Register a named endpoint. Throws std::invalid_argument on duplicates.
  virtual void register_endpoint(const std::string& name, Handler handler);
  /// Remove an endpoint (component crash/leave). Unknown names are ignored.
  virtual void unregister_endpoint(const std::string& name);
  /// Queue a frame for delivery. Frames to unknown endpoints are dropped
  /// (recorded in the traffic log either way, like a real wire). Marked
  /// P3S_BLOCKING: delivery may dispatch handlers inline or touch transport
  /// queues, so pool tasks must never call it — sends stay serial on the
  /// caller (p3s-lint no-block).
  virtual void send(const std::string& from, const std::string& to,
                    Bytes frame) P3S_BLOCKING = 0;
  /// Current network time in seconds (wall-free; simulated or logical).
  virtual double now() const = 0;

  const std::vector<TrafficRecord>& traffic() const { return traffic_; }
  void clear_traffic() { traffic_.clear(); }
  /// Total bytes ever sent from `name` (NIC egress counter).
  std::uint64_t bytes_sent_by(const std::string& name) const;

 protected:
  /// The fate fault admission gave one sent frame: the extra delay of each
  /// copy still travelling, in scheduling order (a duplicate before the
  /// original). `copies == 0` means the frame is lost; `on_wire` is false
  /// when it was lost before the wire (a dark sender).
  struct Admission {
    bool on_wire = false;
    int copies = 0;
    double delay[2] = {0.0, 0.0};
  };

  /// Send-side fault admission. Without a plan the frame is recorded and
  /// travels once, undelayed. Under a plan: a sender in blackout loses it
  /// before the wire; otherwise it is recorded, then the plan decides drop,
  /// delay, duplicate (recorded again) and the duplicate's delay, in that
  /// order. The traffic log stores `wire_size` as the frame's size.
  Admission admit(const std::string& from, const std::string& to,
                  const Bytes& frame, std::size_t wire_size);
  /// Hand a frame to its receiver now: lost if the receiver is in blackout
  /// at this moment, dropped if no such endpoint exists. Returns whether a
  /// handler ran.
  bool deliver(const std::string& from, const std::string& to,
               BytesView frame);
  /// Append a frame to the eavesdropper's log at the current time.
  void record(const std::string& from, const std::string& to,
              const Bytes& frame, std::size_t wire_size);
  /// Count one lost frame on the (from, to) link.
  void count_drop(const std::string& from, const std::string& to);
  /// A plan-driven reorder let another frame overtake the scheduled one.
  static void count_reordered();
  /// A drawn plan delay as the transport applies it (its own time units).
  virtual double applied_delay(double drawn) const { return drawn; }

  // Fault API; the transports that take a FaultPlan make these public.
  /// Install a seeded fault schedule; every probabilistic fault (and its
  /// replay) comes from the plan.
  void set_fault_plan(FaultPlan plan) { plan_ = std::move(plan); }
  void clear_fault_plan() { plan_.reset(); }
  /// Mutable access so a running harness can add blackout windows at the
  /// current network time. nullptr when no plan is installed.
  FaultPlan* fault_plan() { return plan_.has_value() ? &*plan_ : nullptr; }
  /// Every frame lost for any reason. All but a dark sender's were recorded
  /// in the traffic log first.
  std::size_t dropped_frames() const { return dropped_; }
  /// Per-link loss counter for the same events.
  std::size_t dropped_on(const std::string& from, const std::string& to) const;

 private:
  std::map<std::string, Handler> endpoints_;
  std::vector<TrafficRecord> traffic_;
  std::optional<FaultPlan> plan_;
  std::size_t dropped_ = 0;
  std::map<std::pair<std::string, std::string>, std::size_t> dropped_by_link_;
};

/// Immediate synchronous delivery: `send` invokes the receiver's handler
/// inline (re-entrantly for protocol chains). Logical time is a counter.
class DirectNetwork final : public Network {
 public:
  void send(const std::string& from, const std::string& to,
            Bytes frame) override;
  double now() const override { return static_cast<double>(tick_); }

  /// Advance logical time (e.g. to trigger RS garbage collection windows).
  void advance(std::uint64_t ticks) { tick_ += ticks; }

 private:
  std::uint64_t tick_ = 0;
};

}  // namespace p3s::net
