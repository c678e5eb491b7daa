// Adversarial workload scenarios (DESIGN.md §11): a full P3S deployment on
// an AsyncNetwork, a population of subscribers with known ground-truth
// interests, and a publish schedule the adversary correlates against. The
// same scenario runs in two modes:
//
//   vulnerable — the attacked defense is OFF (no traffic shaping, or no
//                anonymizer). The executable attack must LAND here:
//                advantage above its leak budget.
//   hardened   — batched mixing, jittered flushes, decoy cover and bucketed
//                padding (P3sConfig hardening knobs). Advantage must stay
//                within budget while deliveries remain exactly-once.
//
// Pacing matters and is deliberate: publish() drains in-flight frames but
// does NOT poll, so hardened components hold their batches across publish
// rounds — mixing defends only because the workload gives it something to
// mix, which is the honest version of the trade-off.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/attacks.hpp"
#include "attack/observer.hpp"
#include "common/rng.hpp"
#include "net/async.hpp"
#include "p3s/system.hpp"

namespace p3s::attack {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  bool hardened = false;         // traffic-shaping defenses (P3sConfig)
  bool with_anonymizer = true;   // off = the intersection baseline
  bool reliability = false;      // client retries and gap-repair sync
  std::size_t subs_per_topic = 3;
};

class AttackScenario {
 public:
  explicit AttackScenario(const ScenarioConfig& cfg);

  /// The two ground-truth interest classes subscribers split over.
  static std::vector<std::string> topics() { return {"finance", "tech"}; }

  net::AsyncNetwork& net() { return net_; }
  core::P3sSystem& system() { return *system_; }
  const std::vector<PublishEvent>& schedule() const { return schedule_; }
  /// Subscriber endpoint → topic it subscribed to.
  const std::map<std::string, std::string>& truth() const { return truth_; }
  std::vector<core::Subscriber*> subscribers();

  /// The malicious publisher issuing probe publications. Lazily registered
  /// (a legitimate registration — the ARA cannot tell intent).
  core::Publisher& attacker();

  /// Deploy subscribers (subs_per_topic per topic) and the workload
  /// publisher; converge to connected/tokened state.
  [[nodiscard]] bool settle();

  /// Publish on `topic` (from the attacker when `probe`), record the event
  /// in the ground-truth schedule, and drain in-flight frames without
  /// polling (see file comment).
  Guid publish(const std::string& topic, bool probe = false);

  /// Pump + poll + advance until `done()` holds with an idle wire.
  [[nodiscard]] bool converge(const std::function<bool()>& done,
                              int max_rounds = 500);
  /// Converge until queued batches are flushed and the wire is idle.
  [[nodiscard]] bool drain();

  EavesdropperObserver observer() const {
    return EavesdropperObserver(net_.traffic());
  }

  std::size_t metadata_received_total() const;
  std::size_t duplicate_metadata_total() const;
  /// Deliveries of `topic` publications seen by `sub` (exactly-once check).
  std::size_t deliveries_of(const core::Subscriber& sub) const;

 private:
  void poll_all();

  ScenarioConfig cfg_;
  net::AsyncNetwork net_;
  TestRng rng_;
  std::unique_ptr<core::P3sSystem> system_;
  std::vector<std::unique_ptr<core::Subscriber>> subs_;
  std::unique_ptr<core::Publisher> pub_;
  std::unique_ptr<core::Publisher> attacker_;
  std::vector<PublishEvent> schedule_;
  std::map<std::string, std::string> truth_;
};

}  // namespace p3s::attack
