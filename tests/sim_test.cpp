#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/simnet.hpp"

namespace p3s::sim {
namespace {

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine eng;
  std::vector<int> order;
  eng.at(3.0, [&] { order.push_back(3); });
  eng.at(1.0, [&] { order.push_back(1); });
  eng.at(2.0, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(SimEngine, SimultaneousEventsAreFifo) {
  SimEngine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.at(1.0, [&, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimEngine, AfterIsRelative) {
  SimEngine eng;
  double fired_at = -1;
  eng.at(5.0, [&] { eng.after(2.5, [&] { fired_at = eng.now(); }); });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimEngine, PastSchedulingClampsToNow) {
  SimEngine eng;
  double fired_at = -1;
  eng.at(10.0, [&] { eng.at(3.0, [&] { fired_at = eng.now(); }); });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(SimEngine, RunUntilStopsAtBoundary) {
  SimEngine eng;
  int fired = 0;
  eng.at(1.0, [&] { ++fired; });
  eng.at(5.0, [&] { ++fired; });
  eng.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimNetwork, DeliveryTimeIsSerializationPlusLatency) {
  SimEngine eng;
  SimNetwork net(eng, {0.045, 10e6});
  double arrival = -1;
  net.register_endpoint("b", [&](const std::string&, BytesView) {
    arrival = eng.now();
  });
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  net.send("a", "b", Bytes(12'500));  // 12500 B = 100 kbit -> 10 ms at 10 Mbps
  eng.run();
  EXPECT_NEAR(arrival, 0.045 + 0.010, 1e-9);
}

TEST(SimNetwork, NicSerializesFanOut) {
  // Two frames out of the same NIC: second waits for the first (the DS
  // broadcast bottleneck from the paper's throughput model).
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});  // zero latency, 1 MB/s
  std::vector<double> arrivals;
  net.register_endpoint("s1", [&](const std::string&, BytesView) {
    arrivals.push_back(eng.now());
  });
  net.register_endpoint("s2", [&](const std::string&, BytesView) {
    arrivals.push_back(eng.now());
  });
  net.register_endpoint("ds", [](const std::string&, BytesView) {});
  net.send("ds", "s1", Bytes(1'000'000));  // 1 s of wire time
  net.send("ds", "s2", Bytes(1'000'000));
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 1.0, 1e-9);
  EXPECT_NEAR(arrivals[1], 2.0, 1e-9);  // queued behind the first
}

TEST(SimNetwork, PerLinkOverride) {
  SimEngine eng;
  SimNetwork net(eng, {0.045, 10e6});
  net.set_link("ds", "rs", {0.001, 100e6});
  double arrival = -1;
  net.register_endpoint("rs", [&](const std::string&, BytesView) {
    arrival = eng.now();
  });
  net.register_endpoint("ds", [](const std::string&, BytesView) {});
  net.send("ds", "rs", Bytes(125'000));  // 1 Mbit -> 10 ms at 100 Mbps
  eng.run();
  EXPECT_NEAR(arrival, 0.001 + 0.010, 1e-9);
}

TEST(SimNetwork, EgressOverrideAppliesToAllDestinations) {
  SimEngine eng;
  SimNetwork net(eng, {0.0, 10e6});
  net.set_egress("fast", {0.0, 100e6});
  std::vector<double> arrivals;
  net.register_endpoint("x", [&](const std::string&, BytesView) {
    arrivals.push_back(eng.now());
  });
  net.register_endpoint("fast", [](const std::string&, BytesView) {});
  net.send("fast", "x", Bytes(125'000));  // 10 ms at 100 Mbps
  eng.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0], 0.010, 1e-9);
}

TEST(SimNetwork, FramesToDeadHostsAreLost) {
  SimEngine eng;
  SimNetwork net(eng);
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  EXPECT_NO_THROW(net.send("a", "dead", Bytes(10)));
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(net.traffic().size(), 1u);  // eavesdropper still saw it
}

TEST(SimNetwork, FaultPlanMirrorsAsyncSemantics) {
  // The same seeded FaultPlan drives the discrete-event network through the
  // admission path AsyncNetwork uses: drops and duplicates by probability,
  // extra delay added to the computed arrival, blackouts by sim time with
  // the receiver checked when the frame actually arrives. (Reorder
  // probabilities are ignored — delay variance is what reorders a
  // discrete-event schedule.)
  SimEngine eng;
  SimNetwork net(eng, {0.001, 10e6});
  net::FaultPlan plan(11);
  net::LinkFaults lossy;
  lossy.drop = 1.0;
  plan.set_link("a", "b", lossy);
  net.set_fault_plan(std::move(plan));
  int got_b = 0, got_a = 0;
  net.register_endpoint("a", [&](const std::string&, BytesView) { ++got_a; });
  net.register_endpoint("b", [&](const std::string&, BytesView) { ++got_b; });
  net.send("a", "b", Bytes(100));
  net.send("b", "a", Bytes(100));
  eng.run();
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(net.dropped_frames(), 1u);
  EXPECT_EQ(net.dropped_on("a", "b"), 1u);
  EXPECT_EQ(net.dropped_on("b", "a"), 0u);
  EXPECT_EQ(net.traffic().size(), 2u);  // dropped frame still on the log
}

TEST(SimNetwork, FaultPlanDuplicateAndDelay) {
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});
  net::FaultPlan plan(12);
  net::LinkFaults f;
  f.duplicate = 1.0;
  f.delay_max = 0.5;
  plan.set_default(f);
  net.set_fault_plan(std::move(plan));
  std::vector<double> arrivals;
  net.register_endpoint("b", [&](const std::string&, BytesView) {
    arrivals.push_back(eng.now());
  });
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  net.send("a", "b", Bytes(10));
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);  // original + duplicate
  EXPECT_EQ(net.traffic().size(), 2u);
  // Extra delay only ever pushes arrivals later than the fault-free time.
  for (const double t : arrivals) EXPECT_GE(t, 10 * 8.0 / 8e6);
}

TEST(SimNetwork, FaultPlanBlackoutBySimTime) {
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});
  net::FaultPlan plan(13);
  plan.add_blackout("b", 0.0, 1.0);
  net.set_fault_plan(std::move(plan));
  int got = 0;
  net.register_endpoint("b", [&](const std::string&, BytesView) { ++got; });
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  eng.at(0.5, [&] { net.send("a", "b", Bytes(10)); });  // inside: lost
  eng.at(2.0, [&] { net.send("a", "b", Bytes(10)); });  // after: delivered
  eng.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.dropped_frames(), 1u);
}

// A twin of a plan replays the delays the network draws from it: with drop
// at 0 the admission path draws the original's delay first, then (with
// duplicate at 1) the duplicate's.

TEST(SimNetwork, FrameDelayedIntoReceiverBlackoutIsLost) {
  net::LinkFaults f;
  f.delay_max = 1.0;
  net::FaultPlan twin(21);
  twin.set_default(f);
  const double extra = twin.delay("a", "b");
  ASSERT_GT(extra, 0.0);
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});
  const double on_time = 10 * 8.0 / 8e6;  // fault-free arrival
  net::FaultPlan plan(21);
  plan.set_default(f);
  // b goes dark after the fault-free arrival but before the delayed one.
  plan.add_blackout("b", on_time + extra / 2, on_time + extra + 1.0);
  net.set_fault_plan(std::move(plan));
  int got = 0;
  net.register_endpoint("b", [&](const std::string&, BytesView) { ++got; });
  net.send("a", "b", Bytes(10));
  eng.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.dropped_on("a", "b"), 1u);
  EXPECT_EQ(net.traffic().size(), 1u);  // lost past the wire tap
}

TEST(SimNetwork, DuplicateDelayedIntoReceiverBlackoutIsLost) {
  net::LinkFaults f;
  f.duplicate = 1.0;
  f.delay_max = 1.0;
  net::FaultPlan twin(25);
  twin.set_default(f);
  const double original = twin.delay("a", "b");
  const double copy = twin.delay("a", "b");
  ASSERT_GT(copy, original);  // this seed delays the duplicate more
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});
  const double on_time = 10 * 8.0 / 8e6;
  net::FaultPlan plan(25);
  plan.set_default(f);
  // b goes dark between the original's arrival and the duplicate's.
  plan.add_blackout("b", on_time + (original + copy) / 2, on_time + copy + 1.0);
  net.set_fault_plan(std::move(plan));
  std::vector<double> arrivals;
  net.register_endpoint("b", [&](const std::string&, BytesView) {
    arrivals.push_back(eng.now());
  });
  net.send("a", "b", Bytes(10));
  eng.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0], on_time + original);
  EXPECT_EQ(net.dropped_on("a", "b"), 1u);
  EXPECT_EQ(net.traffic().size(), 2u);  // both copies crossed the wire
}

TEST(SimNetwork, TrafficLogTimestamps) {
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});
  net.register_endpoint("b", [](const std::string&, BytesView) {});
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  eng.at(1.5, [&] { net.send("a", "b", Bytes(10)); });
  eng.run();
  ASSERT_EQ(net.traffic().size(), 1u);
  EXPECT_DOUBLE_EQ(net.traffic()[0].time, 1.5);
}

}  // namespace
}  // namespace p3s::sim
