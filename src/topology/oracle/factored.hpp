// FactoredDelayStore: exact device->server delays, factored through each
// device's access router.
//
// Every device is a leaf of the topology: it hangs off one backbone node
// by one access link, and links are only ever mutated between backbone
// nodes. A leaf never lies on a path between two other nodes, so the
// shortest path from server j to device i is the path to i's router r
// followed by the access link, and
//
//   d(i, j) = D[r][j] + access_i
//
// where D[r][j] is server j's shortest-path tree over the backbone. That
// sum is the same IEEE addition Dijkstra's last relaxation performs on the
// full graph, so every served value is bit-identical to a from-scratch
// Dijkstra over routers, servers and devices together.
//
// The store therefore keeps no delay rows: a device is a (router, access
// latency) pair, and its delays are read from the engine's trees on
// demand. Joins, moves and leaves touch no tree; a link update repairs the
// backbone trees and rewrites nothing per device.
//
// It also keeps integer counts n[r][j] of assigned devices per (router,
// server) and the running access-latency sum over assigned devices, so the
// mean served delay costs O(backbone nodes × servers), independent of the
// device count (assigned_delay_sum()).
//
// Thread safety: none. The store is owned by a DynamicCluster and shares
// its external synchronization (in the serving layer, the session's
// cluster mutex; see DESIGN.md, "Locking discipline"). delay_ms() bumps a
// mutable query counter, so even readers must be serialized.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "topology/incremental/engine.hpp"

namespace tacc::topo::oracle {

/// Cumulative query accounting, surfaced by the ORACLE_STATS wire verb.
/// Every entry the store serves is exact, so the three envelope counters
/// kept for report compatibility always read 0.
struct OracleStats {
  std::uint64_t queries = 0;          ///< delay entries served (one per read)
  std::uint64_t bound_hits = 0;       ///< entries served from an envelope
  std::uint64_t exact_fallbacks = 0;  ///< envelopes too loose to serve
  std::uint64_t row_fills = 0;        ///< delay rows (re)computed
  std::uint64_t rebuilds = 0;         ///< full rebuilds of the server trees
};

class FactoredDelayStore {
 public:
  /// `engine` spans backbone_of(full) and must outlive the store. Every
  /// device of `full` is attached, at epoch 0, behind its one link (slot
  /// k == device k); none is counted as assigned yet.
  FactoredDelayStore(incr::IncrementalDelayEngine& engine,
                     const NetworkTopology& full);

  /// Backend name on the wire: every oracle= spec is served exactly.
  [[nodiscard]] static constexpr std::string_view name() noexcept {
    return "exact";
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return engine_->server_count();
  }
  /// Device slots ever attached (active or parked).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return router_.size();
  }

  // ---- Device slots -------------------------------------------------------
  /// Puts `slot` (at most slot_count(), which appends) behind backbone node
  /// `router` on an access link of `access_ms`, and bumps epoch(). The slot
  /// must not be counted as assigned.
  void attach(std::size_t slot, NodeId router, double access_ms);
  /// Parks `slot`; its router reads kInvalidNode until the next attach.
  void detach(std::size_t slot);
  [[nodiscard]] NodeId router(std::size_t slot) const {
    return router_.at(slot);
  }
  [[nodiscard]] double access_ms(std::size_t slot) const {
    return access_.at(slot);
  }

  /// Exact delay (ms) from attached `slot` to `server`; one query.
  [[nodiscard]] double delay_ms(std::size_t slot, std::size_t server) const {
    ++queries_;
    return engine_->delay_ms(server, router_[slot]) + access_[slot];
  }

  // ---- Assigned-device tally ---------------------------------------------
  /// Counts attached `slot` as served by `server`, or stops counting it.
  void count_assigned(std::size_t slot, std::size_t server);
  void uncount_assigned(std::size_t slot, std::size_t server);
  /// Σ delay_ms(i, server of i) over counted devices, computed as
  /// Σ access + Σ_{n[r][j] > 0} n[r][j]·D[r][j] (zero counts are skipped:
  /// 0·inf is NaN). Counts no queries.
  [[nodiscard]] double assigned_delay_sum() const;
  [[nodiscard]] std::uint32_t assigned_count(NodeId router,
                                             std::size_t server) const {
    return counts_.at(server * nodes_ + router);
  }
  [[nodiscard]] double assigned_access_sum() const noexcept {
    return access_sum_;
  }

  // ---- Epochs -------------------------------------------------------------
  /// Stamps the backbone nodes whose server distances moved since the last
  /// call (the engine's dirty set) and bumps epoch(). Call after every
  /// engine link update. Returns the number of nodes that moved.
  std::size_t refresh();
  /// Bumps on every delay-relevant change: attach, detach, refresh().
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  /// Epoch at which `slot`'s delays last changed: its own attach, or a
  /// distance change at its router.
  [[nodiscard]] std::uint64_t row_epoch(std::size_t slot) const;

  // ---- Introspection ------------------------------------------------------
  /// Bytes held beyond the engine's trees: per-slot state, the tally and
  /// the per-node epochs.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;
  [[nodiscard]] OracleStats stats() const noexcept;
  /// Structural validation via the contracts failure handler: parallel
  /// arrays, attached slots on real backbone nodes, epochs not from the
  /// future. (The tally is checked against the assignment by
  /// DynamicCluster::check_invariants.) Cold path.
  void check_invariants() const;

 private:
  friend struct StoreTestPeer;  ///< corruption hook for tests

  incr::IncrementalDelayEngine* engine_;
  std::size_t nodes_;  ///< backbone nodes (the trees' size)

  // Per device slot.
  std::vector<NodeId> router_;  ///< kInvalidNode while parked
  std::vector<double> access_;
  std::vector<std::uint64_t> slot_epoch_;

  // Tally of counted devices: counts_[server * nodes_ + router].
  std::vector<std::uint32_t> counts_;
  std::size_t assigned_ = 0;  ///< Σ counts_
  double access_sum_ = 0.0;

  std::vector<std::uint64_t> node_epoch_;  ///< per backbone node
  std::vector<NodeId> dirty_scratch_;
  std::uint64_t epoch_ = 0;
  mutable std::uint64_t queries_ = 0;
};

}  // namespace tacc::topo::oracle
