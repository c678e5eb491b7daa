// Executable attacks with leak budgets (DESIGN.md §11). Each evaluator
// turns an eavesdropper's (or malicious service's) view of a finished
// scenario into an AttackReport: a quantified adversary advantage compared
// against the declared leak budget for that attack class. The attacks are
// the paper's §6.1 threats made concrete:
//
//   frequency     — passive reaction analysis: correlate a known publish
//                   schedule with per-subscriber outbound traffic timing.
//   probe         — chosen-publication oracle (Vivek): a malicious publisher
//                   probes each topic and watches who reacts.
//   intersection  — malicious RS: intersect request arrival rounds with the
//                   publish schedule to attribute interests.
//   replay        — malicious relay griefing: duplicate broadcasts to
//                   amplify subscriber metadata processing.
//
// tests/attack_test.cpp runs every attack twice per seed: against a
// vulnerable baseline (defense off — the attack must LAND, exceeding its
// budget) and against the hardened configuration (advantage must stay
// within budget). A budget that both sides satisfy would be vacuous. The
// replay attack is the exception: its defense, broadcast-index suppression,
// is part of the one publish protocol and cannot be switched off, so it
// runs hardened only and proves non-vacuity by the duplicates suppressed.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "attack/observer.hpp"

namespace p3s::attack {

/// One entry of the ground-truth publish schedule the adversary correlates
/// against. `probe` marks publications the adversary issued itself.
struct PublishEvent {
  double time = 0.0;
  std::string topic;
  bool probe = false;
};

/// Quantified outcome of one attack run.
struct AttackReport {
  std::string name;
  double advantage = 0.0;  // over random guessing; >= 0
  double budget = 0.0;     // declared leak budget for this attack class
  std::size_t samples = 0; // guesses (or expected frames, for replay)
  std::size_t correct = 0; // correct guesses (classification attacks)
  std::string detail;

  bool within_budget() const { return advantage <= budget; }
};

/// Does this sighting count as `victim` reacting? (e.g. victim → relay for
/// the wire eavesdropper, victim → RS for the malicious-RS view.)
using ReactionFilter =
    std::function<bool(const Sighting&, const std::string& victim)>;

/// Shared core of the classification attacks: for every victim, compute a
/// per-topic reaction rate — the fraction of that topic's publish windows
/// (publish time, next event time] in which the victim emitted a reaction —
/// and guess the topic with the highest rate (ties fall to schedule order).
/// Advantage = max(0, accuracy - 1/|topics|). With `probes_only`, only
/// adversary-issued publications open windows (the chosen-publication
/// oracle); ambient publications still close them.
AttackReport classify_by_reaction(
    const std::string& name, const EavesdropperObserver& observer,
    const std::vector<PublishEvent>& schedule, bool probes_only,
    const std::map<std::string, std::string>& truth,
    const ReactionFilter& is_reaction, const std::vector<std::string>& topics,
    double budget);

/// Passive frequency/reaction analysis over the full wire: reactions are
/// victim → relay frames.
AttackReport frequency_attack(const EavesdropperObserver& observer,
                              const std::vector<PublishEvent>& schedule,
                              const std::map<std::string, std::string>& truth,
                              const std::string& relay,
                              const std::vector<std::string>& topics,
                              double budget);

/// Chosen-publication oracle: same inference, but only the adversary's own
/// probe publications open reaction windows.
AttackReport probe_attack(const EavesdropperObserver& observer,
                          const std::vector<PublishEvent>& schedule,
                          const std::map<std::string, std::string>& truth,
                          const std::string& relay,
                          const std::vector<std::string>& topics,
                          double budget);

/// Malicious-RS intersection: the adversary sees only frames ARRIVING at
/// the RS. A victim it can identify there (direct fetches — no anonymizer)
/// is classified by intersecting its request rounds with the schedule; a
/// victim it never sees falls back to the uniform prior.
AttackReport intersection_attack(
    const EavesdropperObserver& observer,
    const std::vector<PublishEvent>& schedule,
    const std::map<std::string, std::string>& truth, const std::string& rs,
    const std::vector<std::string>& topics, double budget);

/// Replay griefing: a malicious relay duplicates broadcast frames.
/// Advantage = amplification of metadata processing at the victims,
/// max(0, (received - expected) / expected) with expected =
/// broadcasts x subscribers.
AttackReport replay_attack(std::size_t broadcasts, std::size_t subscribers,
                           std::size_t metadata_received_total, double budget);

/// Record the run in the p3s.attack.* metrics (scenarios, frames observed,
/// guesses/correct, probes, advantage in basis points).
void emit_attack_metrics(const AttackReport& report,
                         std::size_t frames_observed, std::size_t probes = 0);

}  // namespace p3s::attack
