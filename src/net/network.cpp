#include "net/network.hpp"

#include <stdexcept>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace p3s::net {

namespace {
struct NetFaultMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& dropped = reg.counter(obs::names::kNetFaultDroppedTotal);
  obs::Counter& duplicated =
      reg.counter(obs::names::kNetFaultDuplicatedTotal);
  obs::Counter& delayed = reg.counter(obs::names::kNetFaultDelayedTotal);
  obs::Counter& reordered = reg.counter(obs::names::kNetFaultReorderedTotal);
  obs::Counter& blackout_dropped =
      reg.counter(obs::names::kNetFaultBlackoutDroppedTotal);
};

NetFaultMetrics& net_fault_metrics() {
  static NetFaultMetrics m;
  return m;
}
}  // namespace

void Network::register_endpoint(const std::string& name, Handler handler) {
  if (!endpoints_.emplace(name, std::move(handler)).second) {
    throw std::invalid_argument("Network: duplicate endpoint '" + name + "'");
  }
}

void Network::unregister_endpoint(const std::string& name) {
  endpoints_.erase(name);
}

std::uint64_t Network::bytes_sent_by(const std::string& name) const {
  std::uint64_t total = 0;
  for (const TrafficRecord& rec : traffic_) {
    if (rec.from == name) total += rec.size;
  }
  return total;
}

void Network::record(const std::string& from, const std::string& to,
                     const Bytes& frame, std::size_t wire_size) {
  traffic_.push_back({now(), from, to, wire_size, frame});
}

void Network::count_drop(const std::string& from, const std::string& to) {
  ++dropped_;
  ++dropped_by_link_[{from, to}];
}

void Network::count_reordered() { net_fault_metrics().reordered.inc(); }

std::size_t Network::dropped_on(const std::string& from,
                                const std::string& to) const {
  const auto it = dropped_by_link_.find({from, to});
  return it != dropped_by_link_.end() ? it->second : 0;
}

Network::Admission Network::admit(const std::string& from,
                                  const std::string& to, const Bytes& frame,
                                  std::size_t wire_size) {
  Admission out;
  if (!plan_.has_value()) {
    record(from, to, frame, wire_size);
    out.on_wire = true;
    out.copies = 1;
    return out;
  }
  NetFaultMetrics& metrics = net_fault_metrics();
  if (plan_->in_blackout(from, now())) {
    // A dark sender's frames never leave the host segment — they are lost
    // before the wire, so the eavesdropper (whose tap is the wire) never
    // sees them. Plan drops and receiver blackouts happen PAST the
    // observation point and stay in the traffic log.
    count_drop(from, to);
    metrics.blackout_dropped.inc();
    return out;
  }
  // The wire sees the frame whether or not it survives delivery: the traffic
  // log is the eavesdropper's view, and loss happens past the observation
  // point (a duplicate appears twice — once per wire appearance).
  record(from, to, frame, wire_size);
  out.on_wire = true;
  if (plan_->should_drop(from, to)) {
    count_drop(from, to);
    metrics.dropped.inc();
    return out;
  }
  const auto draw_delay = [&] {
    const double d = applied_delay(plan_->delay(from, to));
    if (d > 0.0) metrics.delayed.inc();
    return d;
  };
  const double delay = draw_delay();
  if (plan_->should_duplicate(from, to)) {
    metrics.duplicated.inc();
    record(from, to, frame, wire_size);  // the eavesdropper sees both copies
    out.delay[out.copies++] = draw_delay();
  }
  out.delay[out.copies++] = delay;
  return out;
}

bool Network::deliver(const std::string& from, const std::string& to,
                      BytesView frame) {
  if (plan_.has_value() && plan_->in_blackout(to, now())) {
    count_drop(from, to);
    net_fault_metrics().blackout_dropped.inc();
    return false;  // receiver dark at delivery time
  }
  const auto it = endpoints_.find(to);
  if (it == endpoints_.end()) return false;  // dropped, like a dead host
  // Copy the handler: the receiver may unregister itself while handling.
  Handler handler = it->second;
  handler(from, frame);
  return true;
}

void DirectNetwork::send(const std::string& from, const std::string& to,
                         Bytes frame) {
  ++tick_;
  record(from, to, frame, frame.size());
  deliver(from, to, frame);
}

}  // namespace p3s::net
