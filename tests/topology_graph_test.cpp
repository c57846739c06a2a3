#include "topology/graph.hpp"

#include <gtest/gtest.h>

#include "tests/test_helpers.hpp"
#include "util/contracts.hpp"

namespace tacc::topo {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, AddNodeReturnsSequentialIds) {
  Graph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(Graph, AddEdgeIsUndirected) {
  Graph g(3);
  g.add_edge(0, 1, {2.0, 50.0});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, NeighborsCarryProps) {
  Graph g(2);
  g.add_edge(0, 1, {3.5, 75.0});
  const auto neighbors = g.neighbors(0);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].to, 1u);
  EXPECT_DOUBLE_EQ(neighbors[0].props.latency_ms, 3.5);
  EXPECT_DOUBLE_EQ(neighbors[0].props.bandwidth_mbps, 75.0);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5, {1.0, 1.0}), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 0, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, {-1.0, 1.0}), std::invalid_argument);
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  Graph g(1);
  EXPECT_THROW((void)g.neighbors(3), std::out_of_range);
}

TEST(Graph, TotalLatencyCountsEachEdgeOnce) {
  Graph g(3);
  g.add_edge(0, 1, {2.0, 1.0});
  g.add_edge(1, 2, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(g.total_latency(), 5.0);
}

TEST(Graph, ParallelEdgesAllowedAndCounted) {
  Graph g(2);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(0, 1, {2.0, 1.0});
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(KnownGraph, HelperShape) {
  const Graph g = test::known_graph();
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_TRUE(g.has_edge(4, 5));
}

}  // namespace
}  // namespace tacc::topo
