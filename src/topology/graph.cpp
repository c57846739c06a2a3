#include "topology/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace tacc::topo {

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void Graph::add_edge(NodeId u, NodeId v, EdgeProps props) {
  if (u >= node_count() || v >= node_count()) {
    throw std::out_of_range("Graph::add_edge: node id out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loops not supported");
  }
  if (!(props.latency_ms > 0.0)) {
    throw std::invalid_argument("Graph::add_edge: latency must be positive");
  }
  adjacency_[u].push_back({v, props});
  adjacency_[v].push_back({u, props});
  ++edges_;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto& list = adjacency_.at(u);
  return std::any_of(list.begin(), list.end(),
                     [v](const Adjacency& a) { return a.to == v; });
}

const EdgeProps* Graph::edge_props(NodeId u, NodeId v) const {
  for (const Adjacency& adj : adjacency_.at(u)) {
    if (adj.to == v) return &adj.props;
  }
  return nullptr;
}

bool Graph::set_edge_latency(NodeId u, NodeId v, double latency_ms) {
  if (!(latency_ms > 0.0)) {
    throw std::invalid_argument(
        "Graph::set_edge_latency: latency must be positive");
  }
  if (u >= node_count() || v >= node_count()) return false;
  // Mirror entries are kept in matching insertion order (add_edge appends to
  // both lists; remove_edge erases the first match from both), so
  // rewriting the first match on each side updates one undirected edge.
  const auto rewrite_one = [this, latency_ms](NodeId from, NodeId to) {
    for (Adjacency& adj : adjacency_[from]) {
      if (adj.to == to) {
        adj.props.latency_ms = latency_ms;
        return true;
      }
    }
    return false;
  };
  if (!rewrite_one(u, v)) return false;
  rewrite_one(v, u);
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  if (u >= node_count() || v >= node_count()) return false;
  const auto erase_one = [this](NodeId from, NodeId to) {
    auto& list = adjacency_[from];
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (it->to == to) {
        list.erase(it);
        return true;
      }
    }
    return false;
  };
  if (!erase_one(u, v)) return false;
  erase_one(v, u);
  --edges_;
  return true;
}

void Graph::check_invariants() const {
  // Adjacency symmetry: mirror entries are kept in matching insertion order
  // (see set_edge_latency), so the k-th u->v entry must pair with the k-th
  // v->u entry, carrying identical properties.
  std::size_t directed_entries = 0;
  for (NodeId u = 0; u < adjacency_.size(); ++u) {
    std::size_t own_rank = 0;  // rank of each u->v among u's entries to v
    for (const Adjacency& adj : adjacency_[u]) {
      ++directed_entries;
      const NodeId v = adj.to;
      TACC_CHECK_INVARIANT(v < adjacency_.size(),
                           "edge endpoint out of range");
      TACC_CHECK_INVARIANT(v != u, "self-loop at node " + std::to_string(u));
      TACC_CHECK_INVARIANT(adj.props.latency_ms > 0.0,
                           "non-positive edge latency");
      // Rank of this u->v entry among u's edges to v.
      std::size_t rank = 0;
      for (const Adjacency& prior : adjacency_[u]) {
        if (&prior == &adj) break;
        if (prior.to == v) ++rank;
      }
      own_rank = rank;
      // Find the mirror of the same rank.
      const Adjacency* mirror = nullptr;
      std::size_t seen = 0;
      for (const Adjacency& back : adjacency_[v]) {
        if (back.to != u) continue;
        if (seen == own_rank) {
          mirror = &back;
          break;
        }
        ++seen;
      }
      TACC_CHECK_INVARIANT(mirror != nullptr,
                           "asymmetric adjacency: " + std::to_string(u) +
                               "->" + std::to_string(v) + " has no mirror");
      TACC_CHECK_INVARIANT(
          mirror->props.latency_ms == adj.props.latency_ms &&
              mirror->props.bandwidth_mbps == adj.props.bandwidth_mbps,
          "mirror entries disagree on edge properties");
    }
  }
  TACC_CHECK_INVARIANT(directed_entries == 2 * edges_,
                       "edge count out of sync with adjacency storage");
}

double Graph::total_latency() const noexcept {
  double total = 0.0;
  for (const auto& list : adjacency_) {
    for (const auto& adj : list) total += adj.props.latency_ms;
  }
  return total / 2.0;  // each undirected edge counted from both endpoints
}

}  // namespace tacc::topo
