// The oracle= spec grammar and the factored delay store: exact delays
// bit-identical to Dijkstra over the full graph through link churn, and the
// O(routers × servers) tally behind the mean served delay.
#include "topology/oracle/factored.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "topology/failures.hpp"
#include "topology/oracle/config.hpp"
#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo::oracle {
namespace {

const LinkDelayModel kDelay;

NetworkTopology make_net(TopologyFamily family, std::uint64_t seed,
                         std::size_t routers = 49, std::size_t devices = 24,
                         std::size_t servers = 4) {
  util::Rng rng(seed);
  GeneratorParams params;
  params.node_count = routers;
  const GeoGraph infra = generate(family, params, kDelay, rng);
  std::vector<Point2D> iot(devices);
  std::vector<Point2D> edges(servers);
  for (auto& p : iot) p = {rng.uniform(0.0, params.area_km),
                           rng.uniform(0.0, params.area_km)};
  for (auto& p : edges) p = {rng.uniform(0.0, params.area_km),
                             rng.uniform(0.0, params.area_km)};
  return build_network(infra, iot, edges, kDelay);
}

// ---- Spec parsing ----------------------------------------------------------

TEST(OracleConfig, ParsesSpecsAndRoundTrips) {
  const OracleConfig def = parse_oracle_spec("");
  EXPECT_EQ(def, OracleConfig{});
  EXPECT_EQ(parse_oracle_spec("exact"), OracleConfig{});

  const OracleConfig landmark = parse_oracle_spec("landmark,k=12,eps=0.2");
  EXPECT_EQ(landmark.backend, OracleBackend::kLandmark);
  EXPECT_EQ(landmark.landmarks, 12u);
  EXPECT_DOUBLE_EQ(landmark.max_rel_error, 0.2);

  const OracleConfig compressed = parse_oracle_spec("exact,compress=1,hot=7");
  EXPECT_TRUE(compressed.compress);
  EXPECT_EQ(compressed.hot_rows, 7u);

  // Canonical round trip for both backends.
  EXPECT_EQ(parse_oracle_spec(to_string(landmark)), landmark);
  EXPECT_EQ(parse_oracle_spec(to_string(compressed)), compressed);
  const OracleConfig seeded = parse_oracle_spec("landmark,seed=9,k=3");
  EXPECT_EQ(parse_oracle_spec(to_string(seeded)), seeded);
}

TEST(OracleConfig, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_oracle_spec("alt"), std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("exact,k=4"), std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("landmark,k=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("landmark,eps=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("landmark,eps=xyz"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("landmark,bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("exact,hot=0"), std::invalid_argument);
}

// ---- FactoredDelayStore ----------------------------------------------------

/// Every store entry equals Dijkstra over the full graph (devices included)
/// bit for bit; unreachable compares equal to unreachable.
testing::AssertionResult store_matches_full_graph(
    const FactoredDelayStore& store, const NetworkTopology& full) {
  const auto trees = dijkstra_fan_out(full.graph, full.edge_nodes);
  for (std::size_t i = 0; i < full.iot_count(); ++i) {
    for (std::size_t j = 0; j < full.edge_count(); ++j) {
      const double want = trees[j].distance_ms[full.iot_nodes[i]];
      const double got = store.delay_ms(i, j);
      if (!(got == want)) {
        return testing::AssertionFailure()
               << "device " << i << " server " << j << ": store " << got
               << " vs Dijkstra " << want;
      }
    }
  }
  return testing::AssertionSuccess();
}

TEST(FactoredDelayStore, MatchesFullGraphDijkstraThroughLinkChurn) {
  NetworkTopology full = make_net(TopologyFamily::kRandomGeometric, 71);
  NetworkTopology backbone = backbone_of(full);
  incr::IncrementalDelayEngine engine(backbone);
  FactoredDelayStore store(engine, full);
  ASSERT_TRUE(store_matches_full_graph(store, full));

  // The same mutation on the backbone (through the engine) and on the full
  // graph (directly); free failures may strand devices (inf entries).
  util::Rng rng(72);
  for (int event = 0; event < 200; ++event) {
    const auto live = backbone_links(backbone);
    const double roll = rng.uniform();
    if (!backbone.failed_links.empty() && (roll < 0.35 || live.empty())) {
      const FailedLink pick =
          backbone.failed_links[rng.index(backbone.failed_links.size())];
      engine.restore_link(pick.u, pick.v);
      full.restore_link(pick.u, pick.v);
    } else if (roll < 0.7 && !live.empty()) {
      const auto [u, v] = live[rng.index(live.size())];
      engine.fail_link(u, v);
      full.fail_link(u, v);
    } else if (!live.empty()) {
      const auto [u, v] = live[rng.index(live.size())];
      const double to =
          backbone.graph.edge_props(u, v)->latency_ms * rng.uniform(0.5, 2.0);
      engine.set_link_latency(u, v, to);
      full.set_link_latency(u, v, to);
    }
    store.refresh();
    ASSERT_TRUE(store_matches_full_graph(store, full)) << "event " << event;
  }
}

TEST(FactoredDelayStore, TallyMatchesPerDeviceSumThroughDisconnection) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  const NetworkTopology full = make_net(TopologyFamily::kGrid, 81);
  NetworkTopology backbone = backbone_of(full);
  incr::IncrementalDelayEngine engine(backbone);
  FactoredDelayStore store(engine, full);
  std::vector<std::size_t> server(full.iot_count());
  for (std::size_t i = 0; i < server.size(); ++i) {
    server[i] = i % full.edge_count();
    store.count_assigned(i, server[i]);
  }
  const auto per_device_sum = [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < server.size(); ++i) {
      sum += store.delay_ms(i, server[i]);
    }
    return sum;
  };
  EXPECT_NEAR(store.assigned_delay_sum(), per_device_sum(),
              1e-9 * per_device_sum());

  // Cut every other link of server 0's router: devices elsewhere lose
  // server 0, so the sum goes to inf — and not to NaN, which 0·inf on the
  // (router, server) pairs nobody is counted on would give.
  const NodeId server_node = full.edge_nodes[0];
  const NodeId router = backbone.graph.neighbors(server_node).front().to;
  std::vector<NodeId> cut;
  for (const Adjacency& adj : backbone.graph.neighbors(router)) {
    cut.push_back(adj.to);
  }
  for (const NodeId other : cut) {
    if (other != server_node) engine.fail_link(router, other);
  }
  store.refresh();
  EXPECT_TRUE(std::isinf(store.assigned_delay_sum()));
  EXPECT_TRUE(std::isinf(per_device_sum()));

  // Restored: finite again, and equal to the per-device sum.
  for (const NodeId other : cut) {
    if (other != server_node) engine.restore_link(router, other);
  }
  store.refresh();
  EXPECT_FALSE(std::isinf(store.assigned_delay_sum()));
  EXPECT_NEAR(store.assigned_delay_sum(), per_device_sum(),
              1e-9 * per_device_sum());
  store.check_invariants();
}

TEST(FactoredDelayStore, QueriesCountServedEntriesAndEpochsTrackChanges) {
  const NetworkTopology full = make_net(TopologyFamily::kGrid, 91);
  NetworkTopology backbone = backbone_of(full);
  incr::IncrementalDelayEngine engine(backbone);
  FactoredDelayStore store(engine, full);
  EXPECT_EQ(store.name(), "exact");
  store.count_assigned(0, 0);
  (void)store.assigned_delay_sum();  // the tally reads no entries
  EXPECT_EQ(store.stats().queries, 0u);
  (void)store.delay_ms(0, 1);
  (void)store.delay_ms(1, 0);
  EXPECT_EQ(store.stats().queries, 2u);  // one read, one query
  const OracleStats stats = store.stats();
  EXPECT_EQ(stats.bound_hits + stats.exact_fallbacks + stats.row_fills, 0u);

  // Slots start at epoch 0; re-attaching stamps the slot, and a link
  // update stamps only the routers whose distances moved.
  EXPECT_EQ(store.row_epoch(1), 0u);
  store.detach(1);
  store.attach(1, store.router(2), 0.25);
  EXPECT_EQ(store.row_epoch(1), store.epoch());
  EXPECT_EQ(store.delay_ms(1, 0),
            engine.delay_ms(0, store.router(2)) + 0.25);
  const auto links = backbone_links(backbone);
  engine.set_link_latency(links[0].first, links[0].second, 1e-6);
  const std::size_t moved = store.refresh();
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, backbone.graph.node_count());
  EXPECT_GT(store.resident_bytes(), 0u);
}

TEST(FactoredDelayStore, BackboneRejectsMultiHomedDevices) {
  util::Rng rng(5);
  GeneratorParams params;
  params.node_count = 25;
  const GeoGraph infra =
      generate(TopologyFamily::kWaxman, params, kDelay, rng);
  const std::vector<Point2D> iot = {{1.0, 1.0}, {2.0, 2.0}};
  const std::vector<Point2D> edges = {{3.0, 3.0}};
  AttachParams attach;
  attach.attach_count = 2;
  const NetworkTopology multi = build_network(infra, iot, edges, kDelay, attach);
  EXPECT_THROW((void)backbone_of(multi), std::invalid_argument);
  const NetworkTopology single = build_network(infra, iot, edges, kDelay);
  const NetworkTopology backbone = backbone_of(single);
  EXPECT_EQ(backbone.graph.node_count(), 26u);  // routers + the server
  EXPECT_EQ(backbone.iot_count(), 0u);
  EXPECT_EQ(backbone_links(backbone), backbone_links(single));
}

}  // namespace
}  // namespace tacc::topo::oracle
