// One deployed P3S instance under test: the real core::P3sSystem on a
// DirectNetwork (optionally behind the tracing decorator), its subscribers
// and its publisher. Every library call the benchmark makes goes through
// here, is timed with the benchmark's own clock, and is checked: joins must
// connect, subscribes must yield exactly one token, and each publication
// must reach exactly the subscribers the oracle names, with the published
// payload bytes, and nobody else.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/guid.hpp"
#include "common/rng.hpp"
#include "p3s/system.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Raw samples in seconds; every reported statistic comes from these.
struct Samples {
  std::vector<double> publish, delivery, subscribe, join;
  std::uint64_t delivered_bytes = 0;  // plaintext payload bytes delivered
};

/// Every library operation attempted, and those that failed.
struct Tally {
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;  // the first few, for the report

  void fail(const std::string& why);
};

/// Frame count, bytes and SHA-256 over (from, to, frame) of a slice of the
/// traffic log, in order.
struct WireDigest {
  std::size_t frames = 0;
  std::uint64_t bytes = 0;
  std::string sha256;

  bool operator==(const WireDigest&) const = default;
};

class Deployment {
 public:
  Deployment(const Workload& workload, std::uint64_t system_seed, bool traced);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Deploy ARA/DS/RS/PBE-TS/anonymizer, join the initial subscribers,
  /// subscribe their interests (token round trips) and connect the
  /// publisher. Returns wall seconds.
  double set_up(const std::vector<SubscriberSpec>& initial);

  /// The same set-up in pieces, to interleave with other work: the first
  /// step deploys the services, each further step joins one initial
  /// subscriber with its interests, the last connects the publisher.
  /// Returns false once the set-up is complete; set_up_seconds() is the
  /// wall time spent in the steps.
  bool set_up_step(const std::vector<SubscriberSpec>& initial);
  double set_up_seconds() const { return set_up_seconds_; }

  /// Run one operation; `expected` is required for publications. Returns
  /// wall seconds.
  double run(const Op& op, const Oracle::Expectation* expected);

  /// Whether publications add to the publish/delivery samples (off for
  /// warm-up). Joins and subscribes are always sampled.
  void record_publications(bool on) { record_publications_ = on; }

  /// Oracle self-check: silently drop one subscriber off the network.
  void sabotage(std::size_t subscriber);

  const p3s::net::Network& wire() const { return *wire_; }
  TracingNetwork* tracer() { return traced_.get(); }
  const std::string& ds_name() const { return ds_name_; }
  std::size_t subscribers() const { return subs_.size(); }
  WireDigest digest(std::size_t from_frame) const;
  /// (subscriber index, GUID) of every delivery, in order.
  const std::vector<std::pair<std::size_t, p3s::Guid>>& delivered() const {
    return delivered_;
  }
  const Samples& samples() const { return samples_; }
  Tally& tally() { return tally_; }

 private:
  struct Received {
    std::size_t subscriber;
    p3s::Guid guid;
    double time;
    bool payload_ok;
  };

  void join(const SubscriberSpec& spec);
  void subscribe(std::size_t index, const Interest& interest);
  void change_interest(std::size_t index, const Interest& drop,
                       const Interest& add);
  void publish(const Publication& pub, const Oracle::Expectation& expected);
  void on_delivery(std::size_t index, const p3s::Bytes& payload,
                   const p3s::Guid& guid);

  const Workload& workload_;
  p3s::TestRng rng_;
  std::string ds_name_;
  std::unique_ptr<p3s::net::DirectNetwork> direct_;
  std::unique_ptr<TracingNetwork> traced_;
  p3s::net::Network* net_ = nullptr;
  const p3s::net::Network* wire_ = nullptr;
  std::unique_ptr<p3s::core::P3sSystem> system_;
  // Declared after the system: clients unregister from the network first.
  std::vector<std::unique_ptr<p3s::core::Subscriber>> subs_;
  std::unique_ptr<p3s::core::Publisher> publisher_;

  const p3s::Bytes* inflight_payload_ = nullptr;
  std::vector<Received> received_;
  bool record_publications_ = false;
  std::size_t set_up_steps_ = 0;
  double set_up_seconds_ = 0.0;
  std::vector<std::pair<std::size_t, p3s::Guid>> delivered_;
  Samples samples_;
  Tally tally_;
};

}  // namespace perfbench
