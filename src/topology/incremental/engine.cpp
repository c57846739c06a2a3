#include "topology/incremental/engine.hpp"

#include <algorithm>
#include <string>

#include "runtime/thread_pool.hpp"
#include "util/contracts.hpp"

namespace tacc::topo::incr {

IncrementalDelayEngine::IncrementalDelayEngine(NetworkTopology& net,
                                               std::size_t threads)
    : net_(&net), threads_(threads) {
  trees_.resize(net.edge_count());
  runtime::parallel_for(net.edge_count(), threads_, [&](std::size_t j) {
    trees_[j] = DynamicSsspTree(net.graph, net.edge_nodes[j]);
  });
  in_dirty_.assign(net.graph.node_count(), 0);
}

void IncrementalDelayEngine::apply_to_trees(int kind, NodeId u, NodeId v,
                                            double old_ms, double new_ms) {
  // A full recompute would settle every live node once per tree; the
  // difference against what the incremental repair actually touched is the
  // work saved — the number bench_m4_linkchurn's speedup gate measures.
  const std::uint64_t full_cost =
      static_cast<std::uint64_t>(trees_.size()) * net_->graph.node_count();
  std::uint64_t affected = 0;
  changed_scratch_.clear();
  for (DynamicSsspTree& tree : trees_) {
    SsspUpdateStats update;
    switch (kind) {
      case 0:
        update = tree.on_edge_added(net_->graph, u, v, new_ms,
                                    changed_scratch_);
        break;
      case 1:
        update = tree.on_edge_removed(net_->graph, u, v, changed_scratch_);
        break;
      default:
        update = tree.on_edge_latency_changed(net_->graph, u, v, old_ms,
                                              new_ms, changed_scratch_);
        break;
    }
    affected += update.nodes_affected;
  }
  for (const NodeId node : changed_scratch_) {
    if (in_dirty_[node] == 0) {
      in_dirty_[node] = 1;
      dirty_.push_back(node);
    }
  }
  ++stats_.epoch;
  stats_.nodes_affected += affected;
  stats_.nodes_saved += full_cost > affected ? full_cost - affected : 0;
}

EdgeProps IncrementalDelayEngine::fail_link(NodeId u, NodeId v) {
  const EdgeProps props = net_->fail_link(u, v);
  ++stats_.link_updates;
  apply_to_trees(1, u, v, props.latency_ms, kUnreachable);
  return props;
}

EdgeProps IncrementalDelayEngine::restore_link(NodeId u, NodeId v) {
  const EdgeProps props = net_->restore_link(u, v);
  ++stats_.link_updates;
  apply_to_trees(0, u, v, kUnreachable, props.latency_ms);
  return props;
}

EdgeProps IncrementalDelayEngine::set_link_latency(NodeId u, NodeId v,
                                                   double latency_ms) {
  const EdgeProps previous = net_->set_link_latency(u, v, latency_ms);
  ++stats_.link_updates;
  apply_to_trees(2, u, v, previous.latency_ms, latency_ms);
  return previous;
}

std::size_t IncrementalDelayEngine::drain_dirty(std::vector<NodeId>& out) {
  const std::size_t count = dirty_.size();
  for (const NodeId node : dirty_) in_dirty_[node] = 0;
  out.insert(out.end(), dirty_.begin(), dirty_.end());
  dirty_.clear();
  return count;
}

void IncrementalDelayEngine::rebuild() {
  trees_.assign(net_->edge_count(), DynamicSsspTree());
  runtime::parallel_for(net_->edge_count(), threads_, [&](std::size_t j) {
    trees_[j] = DynamicSsspTree(net_->graph, net_->edge_nodes[j]);
  });
  in_dirty_.resize(net_->graph.node_count(), 0);
  ++stats_.epoch;
  ++stats_.rebuilds;
  for (NodeId node = 0; node < net_->graph.node_count(); ++node) {
    if (in_dirty_[node] == 0) {
      in_dirty_[node] = 1;
      dirty_.push_back(node);
    }
  }
}

void IncrementalDelayEngine::check_invariants(
    std::size_t spot_check_trees) const {
  TACC_CHECK_INVARIANT(trees_.size() == net_->edge_count(),
                       "one tree per edge server");
  TACC_CHECK_INVARIANT(in_dirty_.size() >= net_->graph.node_count(),
                       "dirty bitmap must cover every node");

  // Dirty list and membership bitmap must describe the same set.
  std::size_t flagged = 0;
  for (const std::uint8_t flag : in_dirty_) flagged += flag != 0 ? 1 : 0;
  TACC_CHECK_INVARIANT(flagged == dirty_.size(),
                       "dirty list and bitmap disagree");
  for (const NodeId node : dirty_) {
    TACC_CHECK_INVARIANT(node < in_dirty_.size() && in_dirty_[node] != 0,
                         "dirty node not flagged in the bitmap");
  }

  for (std::size_t j = 0; j < trees_.size(); ++j) {
    TACC_CHECK_INVARIANT(trees_[j].source() == net_->edge_nodes[j],
                         "tree rooted at the wrong server node");
    TACC_CHECK_INVARIANT(trees_[j].node_count() >= net_->graph.node_count(),
                         "tree not grown to the graph's node count");
  }

  // Exactness spot-check vs from-scratch Dijkstra, rotated by epoch so
  // repeated calls (e.g. sampled bench epochs) sweep across servers.
  const std::size_t checks = std::min(spot_check_trees, trees_.size());
  for (std::size_t k = 0; k < checks; ++k) {
    const std::size_t j =
        (static_cast<std::size_t>(stats_.epoch) + k) % trees_.size();
    const ShortestPathTree reference =
        dijkstra(net_->graph, net_->edge_nodes[j]);
    for (NodeId node = 0; node < net_->graph.node_count(); ++node) {
      const double expected = reference.distance_ms[node];
      const double actual = trees_[j].distance_ms(node);
      // Bitwise agreement, except both-unreachable compares equal.
      TACC_CHECK_INVARIANT(
          actual == expected ||
              (actual == kUnreachable && expected == kUnreachable),
          "tree " + std::to_string(j) + " diverged from Dijkstra at node " +
              std::to_string(node));
    }
  }
}

std::size_t IncrementalDelayEngine::scratch_bytes() const noexcept {
  std::size_t bytes = dirty_.capacity() * sizeof(NodeId) +
                      in_dirty_.capacity() +
                      changed_scratch_.capacity() * sizeof(NodeId);
  for (const DynamicSsspTree& tree : trees_) bytes += tree.scratch_bytes();
  return bytes;
}

}  // namespace tacc::topo::incr
