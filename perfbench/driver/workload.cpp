#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

constexpr std::size_t kSchemaAttributes = 13;  // 13 x 8 values = 39-bit HVE
constexpr std::size_t kSchemaValues = 8;
constexpr std::size_t kPolicyAttributes = 10;  // v = 10, an AND policy
constexpr std::size_t kMaxDraws = 1000000;
constexpr std::size_t kMaxStrata = 5;
constexpr std::size_t kStrataDraws = 100000;

std::vector<Shape> shapes() {
  std::vector<Shape> out;

  Shape broadcast;
  broadcast.name = "paper_broadcast";
  broadcast.why =
      "paper Table 1 point: matching non-matching broadcasts and DS egress "
      "P_E*N_s dominate; the payload path does little";
  broadcast.initial_subscribers = 100;
  broadcast.payload_bytes = 1024;
  broadcast.match_fraction = 0.05;
  broadcast.value_range = kSchemaValues;
  // P(match) = s/8 + (1-s)/64 = 0.05 for s = 0.314.
  broadcast.one_attribute_share = 0.31;
  out.push_back(broadcast);

  Shape fetch;
  fetch.name = "fetch_heavy";
  fetch.why =
      "large-payload regime of Fig. 9: CP-ABE decrypt and payload AEAD on "
      "fetched content, frame copies and the reliable DS-RS path";
  fetch.initial_subscribers = 20;
  fetch.payload_bytes = 256 * 1024;
  fetch.reliable = true;
  fetch.match_fraction = 0.5;
  fetch.value_range = 2;
  fetch.one_attribute_share = 1.0;
  fetch.complementary_pairs = true;  // f = 1/2 on every publication
  fetch.denied_share = 0.2;
  out.push_back(fetch);

  Shape churn;
  churn.name = "subscription_churn";
  churn.why =
      "subscription writes beside publication reads: token server, ARA "
      "KeyGen, channel handshakes, ECIES and multi-token matching";
  churn.initial_subscribers = 40;
  churn.payload_bytes = 1024;
  churn.match_fraction = 0.10;
  churn.value_range = kSchemaValues;
  // Per interest q = s/8 + (1-s)/64 = 0.04 for s = 0.22; with 1-4 interests
  // per subscriber (mean 2.5) a subscriber matches with probability ~0.1.
  churn.one_attribute_share = 0.22;
  churn.min_interests = 1;
  churn.max_interests = 4;
  churn.interest_changes_per_10 = 6;
  churn.joins_per_10 = 2;
  out.push_back(churn);
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, p3s::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform(i)]);
  }
}

/// `total` flags of which exactly round(share * total) are set, shuffled:
/// the realised proportion is the same for every seed.
std::vector<std::uint8_t> deck(double share, std::size_t total,
                               p3s::Rng& rng) {
  const auto set = static_cast<std::size_t>(
      std::lround(share * static_cast<double>(total)));
  std::vector<std::uint8_t> out(total, 0);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(set), 1);
  shuffle(out, rng);
  return out;
}

}  // namespace

void Oracle::change_interest(std::size_t sub, const Interest& drop,
                             const Interest& add) {
  auto& interests = subs_.at(sub).interests;
  const auto it = std::find(interests.begin(), interests.end(), drop);
  if (it == interests.end()) {
    throw std::logic_error("oracle: dropped interest not held");
  }
  interests.erase(it);
  interests.push_back(add);
}

Oracle::Expectation Oracle::expect(const Metadata& metadata,
                                   const PolicyNode& policy) const {
  Expectation e;
  e.match.assign(subs_.size(), 0);
  e.deliver.assign(subs_.size(), 0);
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    const SubscriberSpec& s = subs_[i];
    const bool match = std::any_of(
        s.interests.begin(), s.interests.end(), [&](const Interest& in) {
          return p3s::pbe::interest_matches(in, metadata);
        });
    if (!match) continue;
    e.match[i] = 1;
    ++e.matches;
    if (policy.satisfied_by(s.attributes)) {
      e.deliver[i] = 1;
      ++e.deliveries;
    }
  }
  return e;
}

Workload::Workload(const std::string& name, std::uint64_t seed)
    : schema_(p3s::pbe::MetadataSchema::uniform(kSchemaAttributes,
                                                kSchemaValues)),
      policy_(PolicyNode::leaf("role0")),
      rng_(seed) {
  const std::vector<Shape> all = shapes();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Shape& s) { return s.name == name; });
  if (it == all.end()) {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  shape_ = *it;

  std::vector<PolicyNode> leaves;
  for (std::size_t i = 0; i < kPolicyAttributes; ++i) {
    policy_attributes_.push_back("role" + std::to_string(i));
    leaves.push_back(PolicyNode::leaf(policy_attributes_.back()));
  }
  policy_ = PolicyNode::threshold(kPolicyAttributes, std::move(leaves));

  // Initial subscribers: interest counts cycle over [min, max], 1-attribute
  // interests and policy-denied subscribers come in exact proportions.
  const std::size_t n = shape_.initial_subscribers;
  const std::size_t span = shape_.max_interests - shape_.min_interests + 1;
  std::vector<std::size_t> counts(n);
  std::size_t total_interests = 0;
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] = shape_.min_interests + i % span;
    total_interests += counts[i];
  }
  shuffle(counts, rng_);
  const auto one_attr = deck(shape_.one_attribute_share, total_interests, rng_);
  const auto lacking = deck(shape_.denied_share, n, rng_);
  std::vector<std::size_t> pair_attrs(kSchemaAttributes);
  for (std::size_t a = 0; a < pair_attrs.size(); ++a) pair_attrs[a] = a;
  shuffle(pair_attrs, rng_);
  std::size_t next_interest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SubscriberSpec spec = draw_subscriber(i, 0, lacking[i] != 0);
    if (shape_.complementary_pairs) {
      const auto& attr = schema_.attributes()[pair_attrs.at(i / 2)];
      if (i % 2 == 0) {
        spec.interests.push_back({{attr.name, attr.values[rng_.uniform(2)]}});
      } else {
        const Interest& mate = initial_.back().interests.front();
        const bool mate_has_first = mate.at(attr.name) == attr.values[0];
        spec.interests.push_back(
            {{attr.name, attr.values[mate_has_first ? 1 : 0]}});
      }
    } else {
      for (std::size_t k = 0; k < counts[i]; ++k) {
        spec.interests.push_back(
            draw_interest(one_attr[next_interest++] ? 1 : 2));
      }
    }
    initial_.push_back(std::move(spec));
  }
  next_index_ = n;
}

Interest Workload::draw_interest(std::size_t n_attrs) {
  Interest interest;
  while (interest.size() < n_attrs) {
    const auto& spec = schema_.attributes()[rng_.uniform(kSchemaAttributes)];
    if (interest.count(spec.name) != 0) continue;
    interest[spec.name] = spec.values[rng_.uniform(shape_.value_range)];
  }
  return interest;
}

Interest Workload::draw_interest() {
  const bool one = static_cast<double>(rng_.uniform(1000000)) <
                   shape_.one_attribute_share * 1e6;
  return draw_interest(one ? 1 : 2);
}

SubscriberSpec Workload::draw_subscriber(std::size_t index,
                                         std::size_t n_interests,
                                         bool lacks_attribute) {
  SubscriberSpec spec;
  // Zero-padded so that name order (the DS fan-out order) is index order.
  const std::string digits = std::to_string(index);
  spec.endpoint = "sub" +
                  std::string(digits.size() < 4 ? 4 - digits.size() : 0, '0') +
                  digits;
  spec.attributes.insert(policy_attributes_.begin(), policy_attributes_.end());
  if (lacks_attribute) {
    spec.attributes.erase(policy_attributes_[rng_.uniform(kPolicyAttributes)]);
  }
  for (std::size_t k = 0; k < n_interests; ++k) {
    spec.interests.push_back(draw_interest());
  }
  return spec;
}

Metadata Workload::draw_metadata() {
  Metadata md;
  for (const auto& spec : schema_.attributes()) {
    md[spec.name] = spec.values[rng_.uniform(shape_.value_range)];
  }
  return md;
}

Publication Workload::publication(const Oracle& oracle) {
  const std::size_t n = oracle.size();
  const auto target = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(shape_.match_fraction * static_cast<double>(n))));
  const auto denied = static_cast<std::size_t>(
      std::lround(shape_.denied_share * static_cast<double>(target)));
  // Strata: contiguous index ranges (= DS fan-out order), each holding an
  // equal share of the matches, so delivery positions are spread evenly.
  const std::size_t strata = std::min({target, kMaxStrata, n});
  std::vector<std::size_t> want(strata, target / strata);
  for (std::size_t k = 0; k < target % strata; ++k) ++want[k];
  std::vector<std::size_t> got(strata);
  for (std::size_t draw = 0; draw < kMaxDraws; ++draw) {
    Metadata md = draw_metadata();
    const Oracle::Expectation e = oracle.expect(md, policy_);
    if (e.matches != target || e.matches - e.deliveries != denied) continue;
    // Interests that always match together can make the strata
    // unreachable; after kStrataDraws, the counts alone must hold.
    if (draw < kStrataDraws) {
      std::fill(got.begin(), got.end(), 0);
      for (std::size_t i = 0; i < n; ++i) got[i * strata / n] += e.match[i];
      if (got != want) continue;
    }
    return {std::move(md), rng_.bytes(shape_.payload_bytes)};
  }
  throw std::logic_error(
      "workload: no publication with the target match count");
}

Op Workload::next(const Oracle& oracle) {
  Op op;
  if (shape_.interest_changes_per_10 + shape_.joins_per_10 == 0) {
    op.publication = publication(oracle);
    return op;
  }
  if (block_.empty()) {
    block_.assign(shape_.interest_changes_per_10, OpKind::kInterestChange);
    block_.insert(block_.end(), shape_.joins_per_10, OpKind::kJoin);
    block_.resize(10, OpKind::kPublish);
    shuffle(block_, rng_);
  }
  op.kind = block_.back();
  block_.pop_back();
  switch (op.kind) {
    case OpKind::kPublish:
      op.publication = publication(oracle);
      break;
    case OpKind::kInterestChange: {
      op.subscriber = rng_.uniform(oracle.size());
      const auto& held = oracle.subscriber(op.subscriber).interests;
      op.drop = held[rng_.uniform(held.size())];
      op.add = draw_interest();
      break;
    }
    case OpKind::kJoin: {
      const std::size_t span = shape_.max_interests - shape_.min_interests + 1;
      op.joiner = draw_subscriber(next_index_++,
                                  shape_.min_interests + rng_.uniform(span),
                                  false);
      break;
    }
  }
  return op;
}

}  // namespace perfbench
