// Zero-allocation regression tests for the pooled message plane.
//
// These tests pin the contract of net/pool.hpp: once a cluster is warmed up
// (pool slabs stocked, per-node containers at steady-state capacity), the
// send -> deliver -> dispatch path performs no global heap allocations, and
// a broadcast costs exactly one pooled payload no matter the fan-out.
// PRIVILEGE QList copies are out of scope: a privilege transfer carries a
// std::vector batch by design, so the full-cycle test asserts that the pool
// absorbs all *payload* allocations (heap_served stays zero) rather than
// that vectors never allocate.
//
// All tests skip under the std::allocator fallback (ASan/TSan builds): the
// fallback intentionally routes every payload through the global heap so
// sanitizers see each object.
#include "allocation_guard.hpp"  // must precede any allocation (one TU only)

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/arbiter_mutex.hpp"
#include "harness/experiment.hpp"
#include "mutex/cs_driver.hpp"
#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "net/payload.hpp"
#include "net/pool.hpp"
#include "net/reliable_transport.hpp"
#include "runtime/cluster.hpp"
#include "sim/simulator.hpp"

namespace dmx {
namespace {

/// Minimal registered payload for pure network-layer tests.
struct PingMsg final : net::Msg<PingMsg> {
  DMX_REGISTER_MESSAGE(PingMsg, "TEST-PING");
};

/// Counting sink for raw Network tests.
struct CountingHandler final : net::MessageHandler {
  int delivered = 0;
  void on_message(const net::Envelope&) override { ++delivered; }
};

/// A cluster of `algorithm` nodes with per-node drivers and no tracing (a
/// trace sink would allocate per event and mask the property under test),
/// over the raw network or, given a config, the reliable transport.
struct QuietCluster {
  runtime::Cluster cluster;
  mutex::RequestIdSource ids;
  std::vector<mutex::MutexAlgorithm*> algos;
  std::vector<std::unique_ptr<mutex::CsDriver>> drivers;

  QuietCluster(const std::string& algorithm, std::size_t n,
               const std::vector<double>& t_exec,
               std::optional<net::ReliableTransportConfig> reliable = {})
      : cluster(n,
                std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)),
                /*seed=*/1, obs::Tracer{}) {
    harness::register_builtin_algorithms();
    if (reliable) cluster.use_reliable_transport(*reliable);
    for (std::size_t i = 0; i < n; ++i) {
      const net::NodeId nid{static_cast<std::int32_t>(i)};
      mutex::FactoryContext ctx{nid, n, mutex::ParamSet{}};
      auto algo = mutex::Registry::instance().create(algorithm, ctx);
      algos.push_back(algo.get());
      cluster.install(nid, std::move(algo));
      drivers.push_back(std::make_unique<mutex::CsDriver>(
          cluster.simulator(), *algos.back(),
          sim::SimTime::units(t_exec[i % t_exec.size()]), nullptr, &ids));
    }
    cluster.start();
  }

  sim::Simulator& sim() { return cluster.simulator(); }

  /// Serial warm-up: each node runs `rounds` solo critical sections, widely
  /// spaced, so every node has held the token/arbiter role and every
  /// container (pool buckets, simulator slots, arbiter queues, timers) is at
  /// steady-state capacity.
  void warm_up(int rounds) {
    double t = sim().now().to_units() + 1.0;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < drivers.size(); ++i) {
        sim().schedule_at(sim::SimTime::units(t),
                          [this, i] { drivers[i]->submit(); });
        t += 2.0;
      }
    }
    sim().run_until(sim::SimTime::units(t + 5.0));
  }

  [[nodiscard]] std::uint64_t completed() const {
    std::uint64_t c = 0;
    for (const auto& d : drivers) c += d->completed();
    return c;
  }
};

TEST(Allocations, NetworkBroadcastIsOnePooledPayload) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  constexpr std::size_t kN = 8;
  sim::Simulator sim;
  net::Network net(sim, kN,
                   std::make_unique<net::ConstantDelay>(sim::SimTime::units(1)),
                   /*seed=*/7);
  std::vector<CountingHandler> sinks(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    net.attach(net::NodeId{static_cast<std::int32_t>(i)}, &sinks[i]);
  }
  // Warm-up round: stocks the pool bucket and grows the simulator slot
  // vectors to broadcast capacity.
  net.broadcast(net::NodeId{0}, net::make_payload<PingMsg>());
  sim.run();

  const auto before = net::payload_alloc_stats();
  testutil::AllocationGuard guard;
  net.broadcast(net::NodeId{0}, net::make_payload<PingMsg>());
  sim.run();
  const auto after = net::payload_alloc_stats();

  EXPECT_EQ(guard.count(), 0u) << "broadcast hit the global heap";
  EXPECT_EQ(after.pool_served - before.pool_served, 1u)
      << "broadcast should cost exactly one pooled payload";
  EXPECT_EQ(after.live, before.live) << "payload leaked after delivery";
  for (std::size_t i = 1; i < kN; ++i) EXPECT_EQ(sinks[i].delivered, 2);
  EXPECT_EQ(sinks[0].delivered, 0) << "self-delivery is not expected";
}

TEST(Allocations, ArbiterRequestPathIsZeroAlloc) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  QuietCluster tb("arbiter-tp", 5, {0.1});
  tb.warm_up(3);
  const std::uint64_t warm_completed = tb.completed();
  ASSERT_EQ(warm_completed, 15u);

  // Pick any node that is not the current arbiter: its submit sends one
  // REQUEST message to the arbiter.  We stop the clock right after delivery
  // (t_msg = 0.1, collection window t_req = 0.1), so the measured segment is
  // exactly send -> deliver -> enqueue-at-arbiter.
  std::size_t requester = tb.algos.size();
  for (std::size_t i = 0; i < tb.algos.size(); ++i) {
    if (!dynamic_cast<core::ArbiterMutex*>(tb.algos[i])->is_arbiter()) {
      requester = i;
      break;
    }
  }
  ASSERT_LT(requester, tb.algos.size());

  const double t0 = tb.sim().now().to_units();
  const auto before = net::payload_alloc_stats();
  testutil::AllocationGuard guard;
  tb.drivers[requester]->submit();
  tb.sim().run_until(sim::SimTime::units(t0 + 0.15));
  const auto after = net::payload_alloc_stats();

  EXPECT_EQ(guard.count(), 0u)
      << "steady-state REQUEST send/deliver/dispatch allocated";
  EXPECT_EQ(after.pool_served - before.pool_served, 1u);
  EXPECT_EQ(after.heap_served, before.heap_served);

  tb.sim().run();  // drain: privilege transfer, CS, new-arbiter broadcast
  EXPECT_EQ(tb.completed(), warm_completed + 1);
}

// The same segment over the reliable transport: on a warmed link the
// REQUEST's RT-DATA frame is sequenced, sent, delivered in order straight
// to the arbiter and acknowledged by an armed delayed-ack timer, all
// without touching the heap.
TEST(Allocations, ReliableRequestPathIsZeroAlloc) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  QuietCluster tb("arbiter-tp", 5, {0.1},
                  net::ReliableTransportConfig::scaled_to(
                      sim::SimTime::units(0.1)));
  tb.warm_up(3);  // Every node has broadcast: every link is warm both ways.
  const std::uint64_t warm_completed = tb.completed();
  ASSERT_EQ(warm_completed, 15u);

  std::size_t requester = tb.algos.size();
  for (std::size_t i = 0; i < tb.algos.size(); ++i) {
    if (!dynamic_cast<core::ArbiterMutex*>(tb.algos[i])->is_arbiter()) {
      requester = i;
      break;
    }
  }
  ASSERT_LT(requester, tb.algos.size());

  // The frame lands at t0 + 0.1 and arms a 0.05 delayed ack; stop before
  // that ack fires and before the arbiter's collection window closes.
  const double t0 = tb.sim().now().to_units();
  const net::TransportStats ts0 = tb.cluster.transport_stats();
  const auto before = net::payload_alloc_stats();
  testutil::AllocationGuard guard;
  tb.drivers[requester]->submit();
  tb.sim().run_until(sim::SimTime::units(t0 + 0.12));
  const auto after = net::payload_alloc_stats();
  const std::uint64_t allocations = guard.count();

  EXPECT_EQ(allocations, 0u)
      << "steady-state reliable REQUEST send/deliver/dispatch allocated";
  EXPECT_EQ(after.pool_served - before.pool_served, 2u)
      << "one REQUEST and its RT-DATA frame, both pooled";
  EXPECT_EQ(after.heap_served, before.heap_served);
  const net::TransportStats ts1 = tb.cluster.transport_stats();
  EXPECT_EQ(ts1.data_sent, ts0.data_sent + 1);
  EXPECT_EQ(ts1.acks_sent, ts0.acks_sent) << "the delayed ack fired early";
  EXPECT_EQ(ts1.reorder_buffered, 0u);

  tb.sim().run_until(sim::SimTime::units(t0 + 0.16));
  EXPECT_EQ(tb.cluster.transport_stats().acks_sent, ts0.acks_sent + 1)
      << "the REQUEST's delayed ack was not armed";
  tb.sim().run();
  EXPECT_EQ(tb.completed(), warm_completed + 1);
}

// First contact with a fresh peer costs the endpoint one hash-table node
// for its PeerState and nothing else: neither the send window nor the
// reorder buffer owns heap until a frame needs it.
TEST(Allocations, ReliableFirstContactCostsOneHashNode) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  constexpr std::size_t kN = 3;
  sim::Simulator sim;
  net::Network net(sim, kN,
                   std::make_unique<net::ConstantDelay>(sim::SimTime::units(1)),
                   /*seed=*/7);
  std::vector<CountingHandler> sinks(kN);
  std::vector<std::unique_ptr<net::ReliableEndpoint>> eps;
  for (std::size_t i = 0; i < kN; ++i) {
    const net::NodeId id{static_cast<std::int32_t>(i)};
    eps.push_back(std::make_unique<net::ReliableEndpoint>(
        net, id, sinks[i],
        net::ReliableTransportConfig::scaled_to(sim::SimTime::units(1)),
        /*rng_seed=*/100 + i));
    net.attach(id, eps.back().get());
  }
  // Node 1's exchange with node 0 stocks the pool, grows the simulator's
  // slots and gives node 0's peer table its bucket array.
  eps[1]->send(net::NodeId{1}, net::NodeId{0}, net::make_payload<PingMsg>());
  sim.run();
  ASSERT_EQ(sinks[0].delivered, 1);

  // Node 2's first frame is in flight; its in-order arrival is node 0's
  // first contact with node 2.
  eps[2]->send(net::NodeId{2}, net::NodeId{0}, net::make_payload<PingMsg>());
  const double t = sim.now().to_units();
  testutil::AllocationGuard guard;
  sim.run_until(sim::SimTime::units(t + 1.0));
  const std::uint64_t allocations = guard.count();

  EXPECT_EQ(sinks[0].delivered, 2);
  EXPECT_EQ(allocations, 1u) << "first contact should cost one hash node";
  EXPECT_EQ(eps[0]->stats().reorder_buffered, 0u);
}

TEST(Allocations, SuzukiKasamiRequestBroadcastIsZeroAlloc) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  // Node 0 runs a long critical section; node 2 broadcasts SK-REQUEST into
  // it.  Every receiver only bumps its request counter, so the measured
  // segment is the pure broadcast fan-out.
  constexpr std::size_t kN = 6;
  QuietCluster tb("suzuki-kasami", kN, {50.0, 0.1, 0.1, 0.1, 0.1, 0.1});
  // Warm-up: one remote acquisition (node 1) exercises the full message
  // path once — broadcast, token transfer, and the lazily-built static
  // dispatch table — then hands the token back to node 0.
  tb.sim().schedule_at(sim::SimTime::units(1.0),
                       [&tb] { tb.drivers[1]->submit(); });
  tb.sim().schedule_at(sim::SimTime::units(2.0),
                       [&tb] { tb.drivers[0]->submit(); });
  tb.sim().run_until(sim::SimTime::units(4.0));  // node 0 now inside its CS
  ASSERT_EQ(tb.completed(), 1u);  // node 1 done; node 0 holds the CS

  const auto before = net::payload_alloc_stats();
  testutil::AllocationGuard guard;
  tb.drivers[2]->submit();
  tb.sim().run_until(sim::SimTime::units(5.0));  // all N-1 deliveries done
  const auto after = net::payload_alloc_stats();

  EXPECT_EQ(guard.count(), 0u) << "SK-REQUEST broadcast allocated";
  EXPECT_EQ(after.pool_served - before.pool_served, 1u)
      << "broadcast to N-1 nodes should cost one pooled payload";
  EXPECT_EQ(after.live, before.live);

  tb.sim().run();  // drain: node 0 exits, token travels to node 2
  EXPECT_EQ(tb.completed(), 3u);
}

TEST(Allocations, PoolAbsorbsAllPayloadChurn) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  // Full protocol cycles, including PRIVILEGE transfers and NEW-ARBITER
  // broadcasts: every payload must come from the pool (heap_served frozen)
  // and every payload must go back (live returns to baseline).
  QuietCluster tb("arbiter-tp", 5, {0.1});
  tb.warm_up(2);

  const auto before = net::payload_alloc_stats();
  tb.warm_up(4);
  const auto after = net::payload_alloc_stats();

  EXPECT_GT(after.pool_served, before.pool_served);
  EXPECT_EQ(after.heap_served, before.heap_served)
      << "a payload bypassed the pool";
  EXPECT_EQ(after.live, before.live) << "payloads leaked across cycles";
  EXPECT_EQ(tb.completed(), 30u);
}

}  // namespace
}  // namespace dmx
