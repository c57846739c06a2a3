#include "core/dynamic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "topology/failures.hpp"
#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workload/provider.hpp"
#include "workload/wire.hpp"

namespace tacc {
namespace {

AlgorithmOptions cheap_options(std::uint64_t seed) {
  AlgorithmOptions options;
  options.apply_seed(seed);
  options.rl.episodes = 60;
  return options;
}

DynamicCluster make_cluster(std::uint64_t seed,
                            std::size_t iot = 60,
                            std::size_t edge = 6) {
  const Scenario scenario = Scenario::campus(iot, edge, seed);
  return DynamicCluster(scenario, Algorithm::kGreedyBestFit,
                        cheap_options(seed));
}

workload::IotDevice test_device(double x, double y, double rate = 10.0) {
  workload::IotDevice device;
  device.position = {x, y};
  device.request_rate_hz = rate;
  device.demand = rate;
  return device;
}

TEST(DynamicCluster, StartsFromInitialConfiguration) {
  DynamicCluster cluster = make_cluster(1);
  EXPECT_EQ(cluster.active_count(), 60u);
  EXPECT_EQ(cluster.server_count(), 6u);
  EXPECT_TRUE(cluster.feasible());
  EXPECT_GT(cluster.avg_delay_ms(), 0.0);
}

TEST(DynamicCluster, JoinAddsActiveDevice) {
  DynamicCluster cluster = make_cluster(2);
  const JoinResult joined = cluster.join(test_device(1.0, 1.0));
  EXPECT_EQ(joined.device_index, 60u);
  EXPECT_EQ(joined.server, cluster.server_of(joined.device_index));
  EXPECT_EQ(cluster.active_count(), 61u);
  EXPECT_TRUE(cluster.is_active(joined.device_index));
  EXPECT_LT(cluster.server_of(joined.device_index), cluster.server_count());
}

TEST(DynamicCluster, JoinPrefersFeasibleCheapServer) {
  DynamicCluster cluster = make_cluster(3);
  const JoinResult joined = cluster.join(test_device(2.0, 2.0, 1.0));
  // With tiny demand, the chosen server must be feasible.
  EXPECT_TRUE(joined.feasible);
  EXPECT_FALSE(joined.overload_fallback);
  EXPECT_TRUE(cluster.feasible());
  EXPECT_TRUE(cluster.is_active(joined.device_index));
}

TEST(DynamicCluster, JoinReportsOverloadFallback) {
  DynamicCluster cluster = make_cluster(3);
  // A device far beyond any server's remaining capacity cannot be placed
  // feasibly; the report must say so instead of silently overloading.
  const JoinResult joined = cluster.join(test_device(2.0, 2.0, 1e6));
  EXPECT_FALSE(joined.feasible);
  EXPECT_TRUE(joined.overload_fallback);
  EXPECT_FALSE(cluster.feasible());
  EXPECT_FALSE(cluster.server_failed(joined.server));
}

TEST(DynamicCluster, LeaveFreesLoad) {
  DynamicCluster cluster = make_cluster(4);
  const std::size_t index = cluster.join(test_device(1.0, 3.0)).device_index;
  const double util_with = cluster.max_utilization();
  cluster.leave(index);
  EXPECT_EQ(cluster.active_count(), 60u);
  EXPECT_FALSE(cluster.is_active(index));
  EXPECT_LE(cluster.max_utilization(), util_with + 1e-9);
}

TEST(DynamicCluster, DoubleLeaveThrows) {
  DynamicCluster cluster = make_cluster(5);
  const std::size_t index = cluster.join(test_device(0.5, 0.5)).device_index;
  cluster.leave(index);
  EXPECT_THROW(cluster.leave(index), std::invalid_argument);
  EXPECT_THROW(cluster.leave(9999), std::invalid_argument);
  EXPECT_THROW((void)cluster.server_of(index), std::invalid_argument);
}

TEST(DynamicCluster, LeaveRecyclesSlotAndGraphNode) {
  DynamicCluster cluster = make_cluster(5);
  const std::size_t slots = cluster.device_slot_count();
  // The graph holds routers and servers only: devices never add a node.
  const std::size_t nodes = cluster.graph_node_count();
  EXPECT_EQ(nodes, Scenario::campus(60, 6, 5).network().graph.node_count() -
                       60u);
  const std::size_t index = cluster.join(test_device(0.5, 0.5)).device_index;
  EXPECT_EQ(cluster.device_slot_count(), slots + 1);
  EXPECT_EQ(cluster.graph_node_count(), nodes);
  cluster.leave(index);
  EXPECT_EQ(cluster.free_slot_count(), 1u);
  // The next join reuses the departed slot: no growth.
  const JoinResult joined = cluster.join(test_device(3.0, 3.0));
  EXPECT_EQ(joined.device_index, index);
  EXPECT_EQ(cluster.device_slot_count(), slots + 1);
  EXPECT_EQ(cluster.graph_node_count(), nodes);
  EXPECT_EQ(cluster.free_slot_count(), 0u);
}

TEST(DynamicCluster, ChurnLeakRegression) {
  // N join/leave/move cycles must leave slot and node storage exactly at
  // baseline — an earlier implementation leaked one node + access edge +
  // delay row per move.
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster cluster = make_cluster(6);
  util::Rng rng(99);
  const std::size_t slots = cluster.device_slot_count();
  const std::size_t nodes = cluster.graph_node_count();
  for (int cycle = 0; cycle < 50; ++cycle) {
    const std::size_t index =
        cluster
            .join(test_device(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)))
            .device_index;
    for (int m = 0; m < 4; ++m) {
      const JoinResult moved = cluster.move(
          index, {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)});
      EXPECT_EQ(moved.device_index, index);  // indices are stable
    }
    cluster.leave(index);
    EXPECT_EQ(cluster.device_slot_count(), slots + 1);
    EXPECT_EQ(cluster.graph_node_count(), nodes);
    if (cycle % 10 == 0) cluster.check_invariants();
  }
  EXPECT_EQ(cluster.free_slot_count(), 1u);
  EXPECT_EQ(cluster.active_count(), 60u);
  cluster.check_invariants();
}

TEST(DynamicCluster, DrainingEveryDeviceLeavesAnExactlyEmptyTally) {
  // The access-latency sum is kept by += and -=; once the last device
  // leaves it must read exactly 0, not the rounding left over from the
  // joins and leaves that came before.
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster cluster = make_cluster(8);
  util::Rng rng(17);
  for (int k = 0; k < 2000; ++k) {
    (void)cluster.join(
        test_device(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0), 0.01));
  }
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < cluster.device_slot_count(); ++i) {
    if (cluster.is_active(i)) active.push_back(i);
  }
  ASSERT_EQ(active.size(), 2060u);
  // Leave in an order unrelated to the joins, so additions and
  // subtractions do not cancel term by term.
  rng.shuffle(active);
  for (const std::size_t index : active) cluster.leave(index);
  EXPECT_EQ(cluster.active_count(), 0u);
  EXPECT_EQ(cluster.delay_oracle().assigned_access_sum(), 0.0);
  EXPECT_EQ(cluster.avg_delay_ms(), 0.0);
  EXPECT_NO_THROW(cluster.check_invariants());
  // The tally restarts cleanly on the next join.
  (void)cluster.join(test_device(1.0, 1.0));
  EXPECT_NO_THROW(cluster.check_invariants());
}

TEST(DynamicCluster, RebalanceNeverIncreasesAvgDelay) {
  DynamicCluster cluster = make_cluster(6);
  util::Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    cluster.join(test_device(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0),
                             rng.uniform(2.0, 15.0)));
  }
  const double before = cluster.avg_delay_ms();
  const std::size_t moves = cluster.rebalance(100);
  EXPECT_LE(cluster.avg_delay_ms(), before + 1e-9);
  EXPECT_LE(moves, 100u);
}

TEST(DynamicCluster, RebalanceBudgetRespected) {
  DynamicCluster cluster = make_cluster(7);
  util::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    cluster.join(test_device(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)));
  }
  EXPECT_LE(cluster.rebalance(3), 3u);
}

TEST(DynamicCluster, ChurnStormStaysFeasible) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster cluster = make_cluster(8);
  util::Rng rng(8);
  std::vector<std::size_t> joined;
  for (int event = 0; event < 200; ++event) {
    if (joined.empty() || rng.bernoulli(0.6)) {
      joined.push_back(cluster
                           .join(test_device(rng.uniform(0.0, 4.0),
                                             rng.uniform(0.0, 4.0),
                                             rng.uniform(1.0, 8.0)))
                           .device_index);
    } else {
      const std::size_t pick = rng.index(joined.size());
      cluster.leave(joined[pick]);
      joined[pick] = joined.back();
      joined.pop_back();
    }
  }
  // Moderate load base + small joiners: the incremental policy must keep
  // the cluster feasible throughout.
  EXPECT_TRUE(cluster.feasible());
  EXPECT_EQ(cluster.active_count(), 60u + joined.size());
  DynamicCluster::InvariantOptions strict;
  strict.require_feasible = true;
  strict.forbid_failed_residents = true;
  cluster.check_invariants(strict);
}

TEST(DynamicClusterLinks, FailRestoreRoundTripRestoresDelaysExactly) {
  DynamicCluster cluster = make_cluster(10);
  const double baseline = cluster.avg_delay_ms();
  const std::uint64_t epoch0 = cluster.delay_epoch();
  const auto links = topo::backbone_links(cluster.network());
  ASSERT_FALSE(links.empty());

  util::Rng rng(10);
  const auto failable =
      topo::sample_failable_links(cluster.network(), 0.2, rng);
  ASSERT_FALSE(failable.empty());
  std::uint64_t epoch = cluster.delay_epoch();
  for (const auto& [u, v] : failable) {
    const LinkUpdateReport report = cluster.fail_link(u, v);
    EXPECT_GT(report.epoch, epoch);
    epoch = report.epoch;
    EXPECT_GT(report.latency_ms, 0.0);
  }
  EXPECT_EQ(cluster.link_stats().link_updates, failable.size());
  for (auto it = failable.rbegin(); it != failable.rend(); ++it) {
    cluster.restore_link(it->first, it->second);
  }
  // Delays return to their exact pre-failure values (bit-identical)…
  EXPECT_EQ(cluster.avg_delay_ms(), baseline);
  // …but the epoch still records that the topology churned.
  EXPECT_EQ(cluster.delay_epoch(), epoch0 + 2 * failable.size());
  EXPECT_EQ(cluster.link_stats().link_updates, 2 * failable.size());
}

TEST(DynamicClusterLinks, SetLinkLatencyReportsPreviousAndMovesDelays) {
  DynamicCluster cluster = make_cluster(11);
  const double baseline = cluster.avg_delay_ms();
  const auto links = topo::backbone_links(cluster.network());
  ASSERT_FALSE(links.empty());

  std::vector<double> original(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto* props =
        cluster.network().graph.edge_props(links[i].first, links[i].second);
    ASSERT_NE(props, nullptr);
    original[i] = props->latency_ms;
    const LinkUpdateReport report = cluster.set_link_latency(
        links[i].first, links[i].second, original[i] * 10.0);
    EXPECT_DOUBLE_EQ(report.latency_ms, original[i]);
  }
  // Every backbone link 10x slower: the mean delay must strictly rise.
  EXPECT_GT(cluster.avg_delay_ms(), baseline);
  for (std::size_t i = 0; i < links.size(); ++i) {
    cluster.set_link_latency(links[i].first, links[i].second, original[i]);
  }
  EXPECT_EQ(cluster.avg_delay_ms(), baseline);
}

TEST(DynamicClusterLinks, LinkVerbsRequireRouterEndpoints) {
  DynamicCluster cluster = make_cluster(12);
  // Device ids follow the routers and servers in the scenario numbering.
  const auto device = static_cast<topo::NodeId>(cluster.graph_node_count());
  const topo::NodeId server = cluster.network().edge_nodes.front();
  const auto links = topo::backbone_links(cluster.network());
  ASSERT_FALSE(links.empty());
  const auto [u, v] = links.front();

  EXPECT_THROW(cluster.fail_link(device, v), std::invalid_argument);
  EXPECT_THROW(cluster.fail_link(u, server), std::invalid_argument);
  EXPECT_THROW(cluster.set_link_latency(device, server, 1.0),
               std::invalid_argument);
  // Restoring a link that is not failed (or failing one twice) throws too.
  EXPECT_THROW(cluster.restore_link(u, v), std::invalid_argument);
  cluster.fail_link(u, v);
  EXPECT_THROW(cluster.fail_link(u, v), std::invalid_argument);
  cluster.restore_link(u, v);
}

TEST(DynamicClusterLinks, StatsCountSavingsAndRefreshes) {
  DynamicCluster cluster = make_cluster(13);
  const auto links = topo::backbone_links(cluster.network());
  ASSERT_FALSE(links.empty());
  const auto [u, v] = links.front();

  const LinkUpdateReport failed = cluster.fail_link(u, v);
  const LinkUpdateReport restored = cluster.restore_link(u, v);
  // Incrementality: each update must leave some tree nodes untouched
  // relative to a full recompute.
  EXPECT_GT(failed.nodes_saved + restored.nodes_saved, 0u);
  // Delays are derived on read: no device row is ever rewritten.
  EXPECT_EQ(failed.rows_refreshed + restored.rows_refreshed, 0u);
  // The trees span the backbone only.
  EXPECT_LE(failed.nodes_affected,
            cluster.server_count() * cluster.graph_node_count());
  EXPECT_EQ(cluster.link_stats().nodes_affected,
            failed.nodes_affected + restored.nodes_affected);
}

TEST(DynamicCluster, RejectsMultiHomedDevices) {
  ScenarioParams params;
  params.workload.iot_count = 20;
  params.workload.edge_count = 3;
  params.attach.attach_count = 2;
  const Scenario scenario = Scenario::generate(params);
  EXPECT_THROW(DynamicCluster(scenario, Algorithm::kGreedyBestFit),
               std::invalid_argument);
}

/// Applies one provider event to `cluster` through the adapter's slots.
void apply_event(DynamicCluster& cluster, workload::WireAdapter& adapter,
                 const workload::ProviderContext& ctx,
                 const workload::Event& event) {
  const auto joiner = [&event] {
    workload::IotDevice device;
    device.position = event.position;
    device.request_rate_hz = event.rate_hz;
    device.demand = event.demand;
    return device;
  };
  switch (event.kind) {
    case workload::EventKind::kJoin:
      (void)adapter.render(event);
      (void)cluster.join(joiner());
      break;
    case workload::EventKind::kLeave: {
      const std::size_t slot = adapter.slot_of(event.device);
      (void)adapter.render(event);
      cluster.leave(slot);
      break;
    }
    case workload::EventKind::kMove: {
      const std::size_t slot = adapter.slot_of(event.device);
      (void)adapter.render(event);
      (void)cluster.move(slot, event.position);
      break;
    }
    case workload::EventKind::kDemandPulse: {
      const std::size_t slot = adapter.slot_of(event.device);
      (void)adapter.render(event);
      cluster.leave(slot);
      (void)cluster.join(joiner());
      break;
    }
    case workload::EventKind::kLinkFail:
      (void)adapter.render(event);
      (void)cluster.fail_link(ctx.links[event.link].first,
                              ctx.links[event.link].second);
      break;
    case workload::EventKind::kLinkRestore:
      (void)adapter.render(event);
      (void)cluster.restore_link(ctx.links[event.link].first,
                                 ctx.links[event.link].second);
      break;
    case workload::EventKind::kLinkSetLatency:
      (void)adapter.render(event);
      (void)cluster.set_link_latency(ctx.links[event.link].first,
                                     ctx.links[event.link].second,
                                     event.latency_ms);
      break;
  }
}

/// Every served delay equals Dijkstra over a full graph built here from
/// scratch: the cluster's backbone in its current link state plus each
/// active device on its own access link to its nearest router. The mean
/// matches a fresh per-device sum.
testing::AssertionResult delays_match_full_graph(
    const DynamicCluster& cluster, const topo::LinkDelayModel& delay) {
  const topo::NetworkTopology& backbone = cluster.network();
  topo::Graph full = backbone.graph;
  std::vector<topo::NodeId> node_of(cluster.device_slot_count(),
                                    topo::kInvalidNode);
  for (std::size_t i = 0; i < node_of.size(); ++i) {
    if (!cluster.is_active(i)) continue;
    const topo::Point2D at = cluster.device(i).position;
    topo::NodeId nearest = topo::kInvalidNode;
    double best = std::numeric_limits<double>::infinity();
    for (topo::NodeId r = 0; r < backbone.graph.node_count(); ++r) {
      if (backbone.kinds[r] != topo::NodeKind::kRouter) continue;
      const double d = topo::euclidean_distance(backbone.positions[r], at);
      if (d < best) {
        best = d;
        nearest = r;
      }
    }
    node_of[i] = full.add_node();
    full.add_edge(node_of[i], nearest, delay.access_link(best));
  }
  const auto trees = topo::dijkstra_fan_out(full, backbone.edge_nodes);
  double sum = 0.0;
  for (std::size_t i = 0; i < node_of.size(); ++i) {
    if (node_of[i] == topo::kInvalidNode) continue;
    for (std::size_t j = 0; j < cluster.server_count(); ++j) {
      const double want = trees[j].distance_ms[node_of[i]];
      const double got = cluster.delay_ms(i, j);
      if (!(got == want)) {
        return testing::AssertionFailure()
               << "device " << i << " server " << j << ": served " << got
               << " vs Dijkstra " << want;
      }
    }
    sum += trees[cluster.server_of(i)].distance_ms[node_of[i]];
  }
  const double mean = sum / static_cast<double>(cluster.active_count());
  const double served = cluster.avg_delay_ms();
  if (!(served == mean ||
        std::abs(served - mean) <= 1e-9 * std::abs(mean))) {
    return testing::AssertionFailure()
           << "avg_delay_ms " << served << " vs per-device mean " << mean;
  }
  return testing::AssertionSuccess();
}

TEST(DynamicCluster, DelaysMatchFullGraphDijkstraForEveryProvider) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  const std::uint64_t seed = 23;
  const Scenario scenario = Scenario::smart_city(24, 4, seed);
  for (const std::string_view name : workload::provider_names()) {
    const workload::ProviderContext ctx = workload::make_context(
        scenario.network(), scenario.workload(),
        scenario.params().workload.area_km, seed);
    DynamicCluster cluster(scenario, Algorithm::kGreedyBestFit,
                           cheap_options(seed));
    auto provider = workload::make_provider(name, ctx);
    workload::WireAdapter adapter(ctx, "s");
    ASSERT_TRUE(delays_match_full_graph(cluster,
                                        scenario.params().delay_model));
    std::size_t events = 0;
    for (int step = 0; step < 40; ++step) {
      for (const workload::Event& event : provider->step(1.0)) {
        apply_event(cluster, adapter, ctx, event);
        ++events;
        ASSERT_TRUE(delays_match_full_graph(cluster,
                                            scenario.params().delay_model))
            << name << " event " << events;
        cluster.check_invariants();
      }
    }
    EXPECT_GT(events, 0u) << name;
  }
}

TEST(DynamicCluster, LoadsMatchAssignments) {
  DynamicCluster cluster = make_cluster(9);
  double total = 0.0;
  for (double load : cluster.loads()) total += load;
  // 60 initial devices, each demand == rate; joins none yet.
  const Scenario scenario = Scenario::campus(60, 6, 9);
  EXPECT_NEAR(total, scenario.workload().total_demand(), 1e-6);
}

}  // namespace
}  // namespace tacc
