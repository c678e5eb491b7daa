// Workload generation and the plaintext delivery oracle.
//
// A workload is fully determined by its name and the seed: the schema, the
// access policy, the initial subscribers (attributes + interests) and the
// sequence of operations of the measured phase. The system under test only
// ever receives these generated inputs.
//
// Every publication is drawn so that it matches EXACTLY round(f * N_s)
// subscribers (and, on fetch_heavy, is policy-denied for exactly a fifth of
// those), spread evenly over up to five contiguous strata of the subscriber
// order: metadata is sampled from the seeded distribution and re-drawn until
// the oracle's expectation meets these counts. The DS fans out in endpoint
// name order, which is subscriber order, so a delivery's latency depends on
// its position; stratifying the positions keeps the delivery median from
// swinging with which subscribers a few publications happened to hit.
// Which subscribers match still varies per publication and per seed, but
// the work per publication does not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "abe/policy.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "pbe/schema.hpp"

namespace perfbench {

using p3s::Bytes;
using p3s::abe::PolicyNode;
using p3s::pbe::Interest;
using p3s::pbe::Metadata;

struct SubscriberSpec {
  std::string endpoint;              // network endpoint name, "sub0007"
  std::set<std::string> attributes;  // CP-ABE attributes the ARA certifies
  std::vector<Interest> interests;   // subscribed in this order
};

struct Publication {
  Metadata metadata;
  Bytes payload;
};

enum class OpKind { kPublish, kInterestChange, kJoin };

struct Op {
  OpKind kind = OpKind::kPublish;
  Publication publication;      // kPublish
  std::size_t subscriber = 0;   // kInterestChange: index into the oracle
  Interest drop, add;           // kInterestChange: unsubscribe, then subscribe
  SubscriberSpec joiner;        // kJoin
};

/// Fixed parameters of one workload.
struct Shape {
  std::string name;
  std::string why;
  std::size_t initial_subscribers = 0;
  std::size_t payload_bytes = 0;
  bool reliable = false;           // ReliabilityConfig.enabled
  double match_fraction = 0.0;     // f
  std::size_t value_range = 8;     // interests/metadata use values v0..v{n-1}
  double one_attribute_share = 0;  // share of 1-attribute interests (else 2)
  std::size_t min_interests = 1, max_interests = 1;  // per subscriber
  double denied_share = 0.0;       // matching subscribers lacking a policy attr
  // Subscribers 2k and 2k+1 hold complementary 1-attribute interests on an
  // attribute of their own (needs value_range 2): exactly half match.
  bool complementary_pairs = false;
  // Operation mix per block of 10 (publish-only when both are 0).
  std::size_t interest_changes_per_10 = 0, joins_per_10 = 0;
};

/// Plaintext model of the deployed subscribers: who must receive what.
class Oracle {
 public:
  struct Expectation {
    std::vector<std::uint8_t> match;    // HVE match on some interest
    std::vector<std::uint8_t> deliver;  // match and policy satisfied
    std::size_t matches = 0, deliveries = 0;
  };

  void add(SubscriberSpec spec) { subs_.push_back(std::move(spec)); }
  void change_interest(std::size_t sub, const Interest& drop,
                       const Interest& add);
  std::size_t size() const { return subs_.size(); }
  const SubscriberSpec& subscriber(std::size_t i) const { return subs_[i]; }

  Expectation expect(const Metadata& metadata, const PolicyNode& policy) const;

 private:
  std::vector<SubscriberSpec> subs_;
};

class Workload {
 public:
  /// Throws std::invalid_argument for an unknown name.
  Workload(const std::string& name, std::uint64_t seed);

  const Shape& shape() const { return shape_; }
  const p3s::pbe::MetadataSchema& schema() const { return schema_; }
  const PolicyNode& policy() const { return policy_; }
  const std::vector<SubscriberSpec>& initial() const { return initial_; }

  /// Next operation of the measured phase, drawn against the oracle's state.
  Op next(const Oracle& oracle);
  /// A publication matching exactly the workload's target share of the
  /// oracle's subscribers.
  Publication publication(const Oracle& oracle);

 private:
  Interest draw_interest(std::size_t n_attrs);
  Interest draw_interest();
  SubscriberSpec draw_subscriber(std::size_t index, std::size_t n_interests,
                                 bool lacks_attribute);
  Metadata draw_metadata();

  Shape shape_;
  p3s::pbe::MetadataSchema schema_;
  std::vector<std::string> policy_attributes_;
  PolicyNode policy_;
  p3s::TestRng rng_;
  std::vector<SubscriberSpec> initial_;
  std::vector<OpKind> block_;  // remaining kinds of the current block of 10
  std::size_t next_index_ = 0;  // endpoint index of the next joiner
};

}  // namespace perfbench
