// Bounded local-search move proposal against a live DynamicCluster.
//
// propose_plan() is the read-only half of the background re-optimizer: it
// scans a bounded slice of the device population, scores candidate
// device-reassignment and pairwise-swap moves with the cluster's shared
// CostModel (DynamicCluster::placement_cost — the same scoring the greedy
// join/move paths and the portfolio solvers' gap::Instance::cost use), and
// emits a MovePlan for DynamicCluster::apply_move_plan() to validate and
// apply under the cluster lock.
//
// Incrementality: the planner rides the IncrementalDelayEngine. Each device
// carries the delay epoch its delays last changed at
// (DynamicCluster::delay_row_epoch: its own attach, or link churn moving
// its router's distances); devices changed since the planner's last pass
// are scanned first, and the remainder of the scan budget round-robins
// through the rest of the population across passes. Move evaluation itself
// is O(1) per candidate server: one tree read plus the access latency,
// never a Dijkstra.
//
// The planner only READS the cluster. All mutation goes through
// apply_move_plan() (lint rule R6 bans direct mutator calls from this
// directory).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/dynamic.hpp"
#include "core/move_plan.hpp"
#include "util/rng.hpp"

namespace tacc::opt {

/// Per-pass effort bounds. Costs are cost-model units (weight × ms).
struct PlannerOptions {
  std::size_t scan_limit = 256;     ///< devices examined per pass
  std::size_t swap_limit = 32;      ///< swap pairs sampled per pass
  /// Blocked-improvement eviction chains attempted per pass: when a
  /// device's cheaper server lacks headroom, relocate one of its residents
  /// first (two moves, net gain required). The escape hatch for
  /// capacity-tight regimes where no single move or feasible swap exists.
  std::size_t chain_limit = 8;
  std::size_t max_plan_moves = 16;  ///< plan size cap (budget headroom)
  double min_gain = 1e-6;           ///< ignore improvements below this
};

/// Cross-pass planner memory: the round-robin scan cursor, the delay epoch
/// up to which devices have been considered (changed-first scanning), and
/// the deterministic swap-sampling stream.
struct PlannerState {
  explicit PlannerState(std::uint64_t seed = 0x0500B1ull) : rng(seed) {}
  std::size_t cursor = 0;
  std::uint64_t seen_epoch = 0;
  util::Rng rng;
};

/// One bounded proposal pass. Never mutates the cluster; the caller must
/// hold whatever lock makes concurrent cluster mutation impossible for the
/// duration of the call (reads are not internally synchronized).
[[nodiscard]] MovePlan propose_plan(const DynamicCluster& cluster,
                                    const PlannerOptions& options,
                                    PlannerState& state);

}  // namespace tacc::opt
