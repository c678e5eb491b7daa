#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.hpp"
#include "net/async.hpp"
#include "net/network.hpp"
#include "net/secure.hpp"
#include "pairing/pairing.hpp"
#include "pairing/schnorr.hpp"
#include "sim/simnet.hpp"

namespace p3s::net {
namespace {

// --- One endpoint contract for every transport ---------------------------------
// Each case is written once as a template over a rig that owns a transport
// and knows how to let it run until every frame sent so far is delivered,
// then registered under each transport's own suite.

struct DirectRig {
  DirectNetwork net;
  void settle() {}
};

struct AsyncRig {
  AsyncNetwork net;
  void settle() { net.run_until_idle(); }
};

struct SimRig {
  sim::SimEngine eng;
  sim::SimNetwork net{eng};
  void settle() { eng.run(); }
};

template <class Rig>
void delivers_frames() {
  Rig rig;
  std::vector<std::pair<std::string, Bytes>> got;
  rig.net.register_endpoint("b", [&](const std::string& from, BytesView frame) {
    got.emplace_back(from, Bytes(frame.begin(), frame.end()));
  });
  rig.net.send("a", "b", str_to_bytes("hello"));
  rig.settle();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, "a");
  EXPECT_EQ(bytes_to_str(got[0].second), "hello");
}

template <class Rig>
void drops_frames_to_unknown_endpoints() {
  Rig rig;
  EXPECT_NO_THROW(rig.net.send("a", "ghost", str_to_bytes("x")));
  EXPECT_NO_THROW(rig.settle());
  // Still recorded on the wire.
  EXPECT_EQ(rig.net.traffic().size(), 1u);
}

template <class Rig>
void duplicate_endpoint_rejected() {
  Rig rig;
  rig.net.register_endpoint("a", [](const std::string&, BytesView) {});
  EXPECT_THROW(
      rig.net.register_endpoint("a", [](const std::string&, BytesView) {}),
      std::invalid_argument);
}

template <class Rig>
void unregister_stops_delivery() {
  Rig rig;
  int count = 0;
  rig.net.register_endpoint("a",
                            [&](const std::string&, BytesView) { ++count; });
  rig.net.send("x", "a", {});
  rig.settle();
  rig.net.unregister_endpoint("a");
  rig.net.send("x", "a", {});
  rig.settle();
  EXPECT_EQ(count, 1);
}

template <class Rig>
void traffic_log_records_sizes_and_endpoints() {
  Rig rig;
  rig.net.register_endpoint("b", [](const std::string&, BytesView) {});
  rig.net.send("a", "b", Bytes(100));
  rig.net.send("a", "b", Bytes(50));
  rig.net.send("b", "a", Bytes(7));
  rig.settle();
  EXPECT_EQ(rig.net.bytes_sent_by("a"), 150u);
  EXPECT_EQ(rig.net.bytes_sent_by("b"), 7u);
  EXPECT_EQ(rig.net.traffic().size(), 3u);
  EXPECT_EQ(rig.net.traffic()[0].size, 100u);
}

template <class Rig>
void reentrant_send_during_delivery() {
  Rig rig;
  std::vector<std::string> order;
  rig.net.register_endpoint("relay", [&](const std::string&, BytesView frame) {
    order.push_back("relay");
    rig.net.send("relay", "sink", Bytes(frame.begin(), frame.end()));
  });
  rig.net.register_endpoint("sink", [&](const std::string&, BytesView) {
    order.push_back("sink");
  });
  rig.net.send("src", "relay", str_to_bytes("m"));
  rig.settle();
  EXPECT_EQ(order, (std::vector<std::string>{"relay", "sink"}));
}

template <class Rig>
void receiver_unregisters_itself_while_handling() {
  Rig rig;
  int calls = 0;
  std::string seen;
  // The handler keeps using its own captures after removing itself, so the
  // transport must run a copy of it, not the table entry it just erased.
  rig.net.register_endpoint(
      "once", [&, tag = std::string(64, 'h')](const std::string& from,
                                              BytesView) {
        rig.net.unregister_endpoint("once");
        ++calls;
        seen = from + tag;
      });
  rig.net.send("x", "once", Bytes(1));
  rig.settle();
  rig.net.send("y", "once", Bytes(1));
  rig.settle();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, "x" + std::string(64, 'h'));
  EXPECT_EQ(rig.net.traffic().size(), 2u);
}

TEST(DirectNetwork, DeliversFrames) { delivers_frames<DirectRig>(); }
TEST(AsyncNetwork, DeliversFrames) { delivers_frames<AsyncRig>(); }
TEST(SimNetwork, DeliversFrames) { delivers_frames<SimRig>(); }

TEST(DirectNetwork, DropsFramesToUnknownEndpoints) {
  drops_frames_to_unknown_endpoints<DirectRig>();
}
TEST(AsyncNetwork, DropsFramesToUnknownEndpoints) {
  drops_frames_to_unknown_endpoints<AsyncRig>();
}
TEST(SimNetwork, DropsFramesToUnknownEndpoints) {
  drops_frames_to_unknown_endpoints<SimRig>();
}

TEST(DirectNetwork, DuplicateEndpointRejected) {
  duplicate_endpoint_rejected<DirectRig>();
}
TEST(AsyncNetwork, DuplicateEndpointRejected) {
  duplicate_endpoint_rejected<AsyncRig>();
}
TEST(SimNetwork, DuplicateEndpointRejected) {
  duplicate_endpoint_rejected<SimRig>();
}

TEST(DirectNetwork, UnregisterStopsDelivery) {
  unregister_stops_delivery<DirectRig>();
}
TEST(AsyncNetwork, UnregisterStopsDelivery) {
  unregister_stops_delivery<AsyncRig>();
}
TEST(SimNetwork, UnregisterStopsDelivery) {
  unregister_stops_delivery<SimRig>();
}

TEST(DirectNetwork, TrafficLogRecordsSizesAndEndpoints) {
  traffic_log_records_sizes_and_endpoints<DirectRig>();
}
TEST(AsyncNetwork, TrafficLogRecordsSizesAndEndpoints) {
  traffic_log_records_sizes_and_endpoints<AsyncRig>();
}
TEST(SimNetwork, TrafficLogRecordsSizesAndEndpoints) {
  traffic_log_records_sizes_and_endpoints<SimRig>();
}

TEST(DirectNetwork, ReentrantSendDuringDelivery) {
  reentrant_send_during_delivery<DirectRig>();
}
TEST(AsyncNetwork, ReentrantSendDuringDelivery) {
  reentrant_send_during_delivery<AsyncRig>();
}
TEST(SimNetwork, ReentrantSendDuringDelivery) {
  reentrant_send_during_delivery<SimRig>();
}

TEST(DirectNetwork, ReceiverUnregistersItselfWhileHandling) {
  receiver_unregisters_itself_while_handling<DirectRig>();
}
TEST(AsyncNetwork, ReceiverUnregistersItselfWhileHandling) {
  receiver_unregisters_itself_while_handling<AsyncRig>();
}
TEST(SimNetwork, ReceiverUnregistersItselfWhileHandling) {
  receiver_unregisters_itself_while_handling<SimRig>();
}

// --- One fault admission for both fault-capable transports ---------------------

TEST(FaultAdmission, AsyncAndSimDecideAlike) {
  // The same seeded plan over the same send sequence must lose, delay and
  // duplicate the same frames on both transports: the decisions come from
  // one admission path, whatever the transport's time unit.
  const auto make_plan = [] {
    FaultPlan plan(0xfa17);
    LinkFaults f;
    f.drop = 0.2;
    f.duplicate = 0.2;
    f.delay_max = 3.0;
    plan.set_default(f);
    return plan;
  };
  const std::vector<std::pair<std::string, std::string>> links = {
      {"a", "b"}, {"b", "a"}, {"a", "c"}};
  const auto drive = [&](auto& rig, std::map<std::string, int>& received) {
    rig.net.set_fault_plan(make_plan());
    for (const char* name : {"a", "b", "c"}) {
      rig.net.register_endpoint(
          name, [&received, name](const std::string&, BytesView) {
            ++received[name];
          });
    }
    for (std::size_t i = 0; i < 200; ++i) {
      const auto& [from, to] = links[i % links.size()];
      rig.net.send(from, to, Bytes(1 + i % 37));
    }
    rig.settle();
  };
  AsyncRig async;
  SimRig sim;
  std::map<std::string, int> async_received, sim_received;
  drive(async, async_received);
  drive(sim, sim_received);

  const auto wire = [](const Network& net) {
    std::vector<std::tuple<std::string, std::string, std::size_t>> out;
    for (const TrafficRecord& r : net.traffic()) {
      out.emplace_back(r.from, r.to, r.size);
    }
    return out;
  };
  EXPECT_EQ(wire(async.net), wire(sim.net));
  EXPECT_EQ(async_received, sim_received);
  for (const auto& [from, to] : links) {
    EXPECT_EQ(async.net.dropped_on(from, to), sim.net.dropped_on(from, to))
        << from << "->" << to;
  }
  // Non-vacuous: the plan both lost and duplicated frames.
  EXPECT_GT(async.net.dropped_frames(), 0u);
  EXPECT_GT(async.net.traffic().size(), 200u);
  EXPECT_EQ(async.net.dropped_frames(), sim.net.dropped_frames());
}

class SecureSessionTest : public ::testing::Test {
 protected:
  pairing::PairingPtr pp_ = pairing::Pairing::test_pairing();
  TestRng rng_{0x7e57};
};

TEST_F(SecureSessionTest, RoundTrip) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  auto server = SecureSession::accept(*pp_, kp.secret, hello);
  ASSERT_TRUE(server.has_value());

  const Bytes rec = client.seal(str_to_bytes("register"), rng_);
  const auto out = server->open(rec);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(bytes_to_str(*out), "register");

  // And the reverse direction.
  const Bytes resp = server->seal(str_to_bytes("ack"), rng_);
  const auto out2 = client.open(resp);
  ASSERT_TRUE(out2.has_value());
  EXPECT_EQ(bytes_to_str(*out2), "ack");
}

TEST_F(SecureSessionTest, WrongServerKeyRejectsHello) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  const auto other = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  (void)SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  EXPECT_FALSE(SecureSession::accept(*pp_, other.secret, hello).has_value());
}

TEST_F(SecureSessionTest, ReplayDetected) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  auto server = SecureSession::accept(*pp_, kp.secret, hello);
  const Bytes rec = client.seal(str_to_bytes("once"), rng_);
  ASSERT_TRUE(server->open(rec).has_value());
  EXPECT_FALSE(server->open(rec).has_value());  // replay
}

TEST_F(SecureSessionTest, TamperDetected) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  auto server = SecureSession::accept(*pp_, kp.secret, hello);
  Bytes rec = client.seal(str_to_bytes("payload"), rng_);
  rec[rec.size() / 2] ^= 1;
  EXPECT_FALSE(server->open(rec).has_value());
}

TEST_F(SecureSessionTest, CrossDirectionKeysDiffer) {
  // A record sealed by the client cannot be opened by the client's own
  // receive path (directional keys).
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  Bytes rec = client.seal(str_to_bytes("m"), rng_);
  EXPECT_FALSE(client.open(rec).has_value());
}

TEST_F(SecureSessionTest, SequencePreservedAcrossManyRecords) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  auto server = SecureSession::accept(*pp_, kp.secret, hello);
  for (int i = 0; i < 50; ++i) {
    const Bytes rec = client.seal(str_to_bytes("m" + std::to_string(i)), rng_);
    const auto out = server->open(rec);
    ASSERT_TRUE(out.has_value()) << i;
    EXPECT_EQ(bytes_to_str(*out), "m" + std::to_string(i));
  }
}

// --- Schnorr certificates ------------------------------------------------------

TEST_F(SecureSessionTest, SchnorrSignVerify) {
  const auto kp = pairing::schnorr_keygen(*pp_, rng_);
  const Bytes msg = str_to_bytes("subscriber-cert:alice");
  const auto sig = pairing::schnorr_sign(*pp_, kp.secret, msg, rng_);
  EXPECT_TRUE(pairing::schnorr_verify(*pp_, kp.public_key, msg, sig));
  EXPECT_FALSE(pairing::schnorr_verify(*pp_, kp.public_key,
                                       str_to_bytes("subscriber-cert:mallory"),
                                       sig));
  const auto other = pairing::schnorr_keygen(*pp_, rng_);
  EXPECT_FALSE(pairing::schnorr_verify(*pp_, other.public_key, msg, sig));
}

TEST_F(SecureSessionTest, SchnorrSerializationRoundTrip) {
  const auto kp = pairing::schnorr_keygen(*pp_, rng_);
  const Bytes msg = str_to_bytes("m");
  const auto sig = pairing::schnorr_sign(*pp_, kp.secret, msg, rng_);
  const auto sig2 =
      pairing::SchnorrSignature::deserialize(*pp_, sig.serialize(*pp_));
  EXPECT_TRUE(pairing::schnorr_verify(*pp_, kp.public_key, msg, sig2));
}

}  // namespace
}  // namespace p3s::net
