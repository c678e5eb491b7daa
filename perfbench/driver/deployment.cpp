#include "deployment.hpp"

#include <algorithm>
#include <exception>

#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace perfbench {

using p3s::core::Subscriber;

namespace {
constexpr std::size_t kMaxErrors = 5;
constexpr char kPublisherEndpoint[] = "pub";
}  // namespace

void Tally::fail(const std::string& why) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(why);
}

Deployment::Deployment(const Workload& workload, std::uint64_t system_seed,
                       bool traced)
    : workload_(workload), rng_(system_seed) {
  const p3s::core::P3sConfig defaults;  // service endpoint names
  ds_name_ = defaults.ds_name;
  if (traced) {
    traced_ = std::make_unique<TracingNetwork>(
        [ds = defaults.ds_name, rs = defaults.rs_name, ts = defaults.ts_name,
         anon = defaults.anon_name](const std::string& endpoint) {
          if (endpoint == kPublisherEndpoint) return Role::kPublisher;
          if (endpoint == ds) return Role::kDissemination;
          if (endpoint == rs) return Role::kRepository;
          if (endpoint == ts) return Role::kTokenServer;
          if (endpoint == anon) return Role::kAnonymizer;
          return Role::kSubscriber;
        });
    net_ = traced_.get();
    wire_ = &traced_->inner();
  } else {
    direct_ = std::make_unique<p3s::net::DirectNetwork>();
    net_ = direct_.get();
    wire_ = direct_.get();
  }
}

Deployment::~Deployment() = default;

double Deployment::set_up(const std::vector<SubscriberSpec>& initial) {
  while (set_up_step(initial)) {
  }
  return set_up_seconds_;
}

bool Deployment::set_up_step(const std::vector<SubscriberSpec>& initial) {
  const std::size_t step = set_up_steps_++;
  if (step > initial.size() + 1) return false;
  const double t0 = now_s();
  if (step == 0) {
    p3s::core::P3sConfig config;
    config.pairing = p3s::pairing::Pairing::paper_pairing();
    config.schema = workload_.schema();
    config.reliability.enabled = workload_.shape().reliable;
    system_ = std::make_unique<p3s::core::P3sSystem>(*net_, config, rng_);
  } else if (step <= initial.size()) {
    join(initial[step - 1]);
  } else {
    ++tally_.attempted;
    publisher_ = system_->make_publisher(kPublisherEndpoint, "press", rng_);
    if (!publisher_->connected()) tally_.fail("publisher did not connect");
  }
  set_up_seconds_ += now_s() - t0;
  return step <= initial.size();
}

double Deployment::run(const Op& op, const Oracle::Expectation* expected) {
  const double t0 = now_s();
  switch (op.kind) {
    case OpKind::kPublish:
      if (expected == nullptr) throw std::logic_error("publish: no oracle");
      publish(op.publication, *expected);
      break;
    case OpKind::kInterestChange:
      change_interest(op.subscriber, op.drop, op.add);
      break;
    case OpKind::kJoin:
      join(op.joiner);
      break;
  }
  return now_s() - t0;
}

void Deployment::join(const SubscriberSpec& spec) {
  ++tally_.attempted;
  const std::size_t index = subs_.size();
  std::unique_ptr<Subscriber> sub;
  try {
    const double t0 = now_s();
    {
      OpScope scope(traced_.get(), OpType::kJoin);
      sub = system_->make_subscriber(spec.endpoint, "p-" + spec.endpoint,
                                     spec.attributes, rng_);
    }
    samples_.join.push_back(now_s() - t0);
    if (!sub->connected()) {
      tally_.fail("join: " + spec.endpoint + " not connected");
    }
    sub->set_delivery_handler([this, index](const Subscriber::Delivery& d) {
      on_delivery(index, d.payload, d.guid);
    });
  } catch (const std::exception& e) {
    tally_.fail("join: " + std::string(e.what()));
  }
  subs_.push_back(std::move(sub));  // null on failure: later checks fail
  for (const Interest& interest : spec.interests) subscribe(index, interest);
}

void Deployment::subscribe(std::size_t index, const Interest& interest) {
  ++tally_.attempted;
  Subscriber* sub = subs_[index].get();
  if (sub == nullptr) return tally_.fail("subscribe: subscriber not joined");
  try {
    const std::size_t tokens = sub->token_count();
    const std::size_t rejections = sub->token_rejections();
    const double t0 = now_s();
    {
      OpScope scope(traced_.get(), OpType::kSubscribe);
      sub->subscribe(interest);
    }
    samples_.subscribe.push_back(now_s() - t0);
    if (sub->token_count() != tokens + 1 ||
        sub->token_rejections() != rejections) {
      tally_.fail("subscribe: no token for " + sub->name());
    }
  } catch (const std::exception& e) {
    tally_.fail("subscribe: " + std::string(e.what()));
  }
}

void Deployment::change_interest(std::size_t index, const Interest& drop,
                                 const Interest& add) {
  ++tally_.attempted;
  Subscriber* sub = subs_.at(index).get();
  if (sub == nullptr) return tally_.fail("unsubscribe: subscriber not joined");
  try {
    const std::size_t tokens = sub->token_count();
    bool dropped = false;
    {
      OpScope scope(traced_.get(), OpType::kUnsubscribe);
      dropped = sub->unsubscribe(drop);
    }
    // Tokens are rebuilt from the remaining interests: one fewer.
    if (!dropped || sub->token_count() + 1 != tokens) {
      tally_.fail("unsubscribe: token set not rebuilt for " + sub->name());
    }
  } catch (const std::exception& e) {
    tally_.fail("unsubscribe: " + std::string(e.what()));
  }
  subscribe(index, add);
}

void Deployment::on_delivery(std::size_t index, const p3s::Bytes& payload,
                             const p3s::Guid& guid) {
  const bool ok = inflight_payload_ != nullptr && payload == *inflight_payload_;
  received_.push_back({index, guid, now_s(), ok});
}

void Deployment::publish(const Publication& pub,
                         const Oracle::Expectation& expected) {
  ++tally_.attempted;
  struct Counts {
    std::size_t matches, undecryptable, fetch_failures;
  };
  std::vector<Counts> before(subs_.size(), Counts{0, 0, 0});
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    if (subs_[i] == nullptr) continue;
    before[i] = {subs_[i]->match_count(), subs_[i]->undecryptable_payloads(),
                 subs_[i]->fetch_failures()};
  }
  received_.clear();
  inflight_payload_ = &pub.payload;
  p3s::Guid guid;
  const double t0 = now_s();
  try {
    OpScope scope(traced_.get(), OpType::kPublish);
    guid = publisher_->publish(pub.metadata, pub.payload, workload_.policy());
  } catch (const std::exception& e) {
    inflight_payload_ = nullptr;
    return tally_.fail("publish: " + std::string(e.what()));
  }
  const double wall = now_s() - t0;
  inflight_payload_ = nullptr;

  // Check every delivery against the oracle.
  std::string error;
  std::vector<std::size_t> got(subs_.size(), 0);
  for (const Received& r : received_) {
    if (r.guid != guid) error = "delivery of a foreign GUID";
    if (!r.payload_ok) error = "payload bytes differ from the published ones";
    if (r.subscriber >= expected.deliver.size() ||
        expected.deliver[r.subscriber] == 0) {
      error = "unexpected delivery to sub" + std::to_string(r.subscriber);
    } else {
      ++got[r.subscriber];
    }
  }
  if (subs_.size() != expected.match.size()) {
    error = "oracle and deployment disagree on the subscriber count";
  }
  for (std::size_t i = 0; i < std::min(subs_.size(), expected.match.size());
       ++i) {
    if (got[i] != expected.deliver[i]) {
      error = (got[i] < expected.deliver[i] ? "missing" : "duplicate") +
              std::string(" delivery at ") + "sub" + std::to_string(i);
      continue;
    }
    const Subscriber* s = subs_[i].get();
    if (s == nullptr) continue;  // only possible with deliver[i] == 0
    const bool match = expected.match[i] != 0;
    const bool denied = match && expected.deliver[i] == 0;
    if (s->match_count() - before[i].matches != (match ? 1u : 0u)) {
      error = "HVE match differs from the oracle at " + s->name();
    } else if (s->undecryptable_payloads() - before[i].undecryptable !=
               (denied ? 1u : 0u)) {
      error = "policy decision differs from the oracle at " + s->name();
    } else if (s->fetch_failures() != before[i].fetch_failures) {
      error = "unexpected fetch failure at " + s->name();
    }
  }
  if (!error.empty()) tally_.fail("publish: " + error);

  for (const Received& r : received_) {
    delivered_.emplace_back(r.subscriber, r.guid);
    if (!record_publications_) continue;
    samples_.delivery.push_back(r.time - t0);
    samples_.delivered_bytes += pub.payload.size();
  }
  if (record_publications_) samples_.publish.push_back(wall);
}

void Deployment::sabotage(std::size_t subscriber) {
  net_->unregister_endpoint(workload_.initial().at(subscriber).endpoint);
}

WireDigest Deployment::digest(std::size_t from_frame) const {
  WireDigest d;
  p3s::crypto::Sha256 h;
  const auto& log = wire_->traffic();
  for (std::size_t i = from_frame; i < log.size(); ++i) {
    const p3s::net::TrafficRecord& rec = log[i];
    p3s::Writer w;
    w.str(rec.from);
    w.str(rec.to);
    w.u64(rec.frame.size());
    h.update(w.data());
    h.update(rec.frame);
    ++d.frames;
    d.bytes += rec.size;
  }
  d.sha256 = p3s::to_hex(h.finish());
  return d;
}

}  // namespace perfbench
