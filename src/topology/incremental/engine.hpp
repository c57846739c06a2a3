// IncrementalDelayEngine: keeps one DynamicSsspTree per edge server in sync
// with in-place mutations of a live NetworkTopology.
//
// The engine owns the mutation path: callers fail/restore/reweight links
// through it, and it forwards each change to every server tree (cost
// O(affected region) per tree, not a full recompute). Nodes whose server
// distances changed accumulate in a dirty set for downstream consumers
// (the factored delay store stamps them, see topology/oracle/factored.hpp).
// Distances read from the trees are bit-identical to a from-scratch
// Dijkstra at every epoch (see dynamic_sssp.hpp).
//
// DynamicCluster runs the engine over the backbone only (routers and
// servers): devices are single-link leaves, so their delays factor through
// their access router and never need a tree node of their own.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/incremental/dynamic_sssp.hpp"
#include "topology/network.hpp"

namespace tacc::topo::incr {

/// Cumulative counters; `epoch` bumps on every distance-relevant mutation,
/// so equal epochs imply identical tree state.
struct EngineStats {
  std::uint64_t epoch = 0;
  std::uint64_t link_updates = 0;    ///< fail/restore/set_latency calls
  std::uint64_t nodes_affected = 0;  ///< Σ per-tree affected-region sizes
  std::uint64_t nodes_saved = 0;     ///< full-recompute node visits avoided
  std::uint64_t rebuilds = 0;        ///< rebuild() calls
};

class IncrementalDelayEngine {
 public:
  /// Builds one shortest-path tree per edge server of `net`. The engine
  /// keeps a pointer to `net` — it must outlive the engine and all
  /// mutations must go through the engine or be followed by rebuild().
  explicit IncrementalDelayEngine(NetworkTopology& net);

  [[nodiscard]] const NetworkTopology& network() const noexcept {
    return *net_;
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return trees_.size();
  }
  /// Delay (ms) from edge server `server` (index into net.edge_nodes) to
  /// any graph node; kUnreachable if disconnected.
  [[nodiscard]] double delay_ms(std::size_t server, NodeId node) const {
    return trees_[server].distance_ms(node);
  }
  [[nodiscard]] const DynamicSsspTree& tree(std::size_t server) const {
    return trees_.at(server);
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return stats_.epoch; }

  // ---- Backbone link churn (the LINK_* wire verbs) -------------------------
  // Each delegates to the NetworkTopology mutator, then repairs every server
  // tree incrementally. Throws what the topology mutator throws; on throw
  // nothing has changed.
  EdgeProps fail_link(NodeId u, NodeId v);
  EdgeProps restore_link(NodeId u, NodeId v);
  EdgeProps set_link_latency(NodeId u, NodeId v, double latency_ms);

  // ---- Dirty set -----------------------------------------------------------
  /// Nodes whose distance to some server changed since the last drain.
  [[nodiscard]] std::size_t dirty_count() const noexcept {
    return dirty_.size();
  }
  /// Appends the dirty nodes to `out`, clears the set, returns the count.
  std::size_t drain_dirty(std::vector<NodeId>& out);

  /// Deep validation, reported through the contracts failure handler:
  ///  - one tree per edge server, rooted at that server's node, sized to
  ///    the graph;
  ///  - dirty-set bookkeeping (dirty list and membership bitmap agree);
  ///  - exactness spot-check: up to `spot_check_trees` trees (rotated by
  ///    epoch so successive calls cover different servers) are compared
  ///    bit-for-bit against a from-scratch Dijkstra on the live graph —
  ///    the Ramalingam–Reps-style repair must be indistinguishable from a
  ///    full recompute.
  /// Cold path (each spot check is one Dijkstra); for tests and sampled
  /// bench epochs.
  void check_invariants(std::size_t spot_check_trees = 1) const;

  /// From-scratch reconstruction of every tree (and dirties every node).
  /// Recovery hatch for out-of-band topology edits; also used by tests.
  void rebuild();

  /// Scratch bytes across all trees plus the dirty set — the bench's
  /// flat-memory gate watches this across 100k+ events.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

 private:
  /// Applies one already-performed graph mutation to every tree and folds
  /// the changed nodes into the dirty set. kind: 0 added, 1 removed,
  /// 2 reweighted.
  void apply_to_trees(int kind, NodeId u, NodeId v, double old_ms,
                      double new_ms);

  NetworkTopology* net_;
  std::vector<DynamicSsspTree> trees_;  ///< trees_[j] rooted at edge_nodes[j]
  EngineStats stats_;

  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> in_dirty_;  ///< per node: already in dirty_?
  std::vector<NodeId> changed_scratch_;
};

}  // namespace tacc::topo::incr
