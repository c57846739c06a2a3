#include "topology/oracle/factored.hpp"

#include <algorithm>
#include <string>

#include "util/contracts.hpp"

namespace tacc::topo::oracle {

FactoredDelayStore::FactoredDelayStore(incr::IncrementalDelayEngine& engine,
                                       const NetworkTopology& full)
    : engine_(&engine),
      nodes_(engine.network().graph.node_count()),
      slot_epoch_(full.iot_count(), 0),
      counts_(engine.server_count() * nodes_, 0),
      node_epoch_(nodes_, 0) {
  router_.reserve(full.iot_count());
  access_.reserve(full.iot_count());
  for (const NodeId device : full.iot_nodes) {
    const Adjacency& link = full.graph.neighbors(device).front();
    router_.push_back(link.to);
    access_.push_back(link.props.latency_ms);
  }
}

void FactoredDelayStore::attach(std::size_t slot, NodeId router,
                                double access_ms) {
  TACC_REQUIRE(slot <= router_.size(), "slots are appended one at a time");
  TACC_REQUIRE(router < nodes_, "devices attach to backbone nodes");
  ++epoch_;
  if (slot == router_.size()) {
    router_.push_back(router);
    access_.push_back(access_ms);
    slot_epoch_.push_back(epoch_);
    return;
  }
  router_[slot] = router;
  access_[slot] = access_ms;
  slot_epoch_[slot] = epoch_;
}

void FactoredDelayStore::detach(std::size_t slot) {
  router_.at(slot) = kInvalidNode;
  ++epoch_;
}

void FactoredDelayStore::count_assigned(std::size_t slot,
                                        std::size_t server) {
  ++counts_[server * nodes_ + router_[slot]];
  ++assigned_;
  access_sum_ += access_[slot];
}

void FactoredDelayStore::uncount_assigned(std::size_t slot,
                                          std::size_t server) {
  std::uint32_t& count = counts_[server * nodes_ + router_[slot]];
  TACC_REQUIRE(count > 0, "uncounting a device that was never counted");
  --count;
  // An emptied tally restarts at exactly 0, so rounding left over from the
  // += / -= history cannot outlive the devices that produced it.
  access_sum_ = --assigned_ == 0 ? 0.0 : access_sum_ - access_[slot];
}

double FactoredDelayStore::assigned_delay_sum() const {
  double sum = access_sum_;
  for (std::size_t j = 0; j < engine_->server_count(); ++j) {
    const std::vector<double>& distance = engine_->tree(j).distances();
    const std::uint32_t* row = counts_.data() + j * nodes_;
    for (std::size_t r = 0; r < nodes_; ++r) {
      if (row[r] != 0) sum += static_cast<double>(row[r]) * distance[r];
    }
  }
  return sum;
}

std::size_t FactoredDelayStore::refresh() {
  dirty_scratch_.clear();
  const std::size_t moved = engine_->drain_dirty(dirty_scratch_);
  ++epoch_;
  for (const NodeId node : dirty_scratch_) node_epoch_[node] = epoch_;
  return moved;
}

std::uint64_t FactoredDelayStore::row_epoch(std::size_t slot) const {
  const NodeId router = router_.at(slot);
  return router == kInvalidNode
             ? slot_epoch_[slot]
             : std::max(slot_epoch_[slot], node_epoch_[router]);
}

std::size_t FactoredDelayStore::resident_bytes() const noexcept {
  return router_.capacity() * sizeof(NodeId) +
         access_.capacity() * sizeof(double) +
         slot_epoch_.capacity() * sizeof(std::uint64_t) +
         counts_.capacity() * sizeof(std::uint32_t) +
         node_epoch_.capacity() * sizeof(std::uint64_t) +
         dirty_scratch_.capacity() * sizeof(NodeId);
}

OracleStats FactoredDelayStore::stats() const noexcept {
  OracleStats stats;
  stats.queries = queries_;
  stats.rebuilds = engine_->stats().rebuilds;
  return stats;
}

void FactoredDelayStore::check_invariants() const {
  TACC_CHECK_INVARIANT(
      access_.size() == router_.size() && slot_epoch_.size() == router_.size(),
      "per-slot arrays must stay parallel");
  TACC_CHECK_INVARIANT(nodes_ == engine_->network().graph.node_count(),
                       "the backbone must keep its node count");
  for (std::size_t slot = 0; slot < router_.size(); ++slot) {
    TACC_CHECK_INVARIANT(slot_epoch_[slot] <= epoch_,
                         "slot stamped with an epoch from the future: " +
                             std::to_string(slot));
    if (router_[slot] == kInvalidNode) continue;
    TACC_CHECK_INVARIANT(router_[slot] < nodes_,
                         "slot attached past the backbone: " +
                             std::to_string(slot));
    TACC_CHECK_INVARIANT(access_[slot] > 0.0,
                         "non-positive access latency on slot " +
                             std::to_string(slot));
  }
  for (const std::uint64_t stamp : node_epoch_) {
    TACC_CHECK_INVARIANT(stamp <= epoch_,
                         "node stamped with an epoch from the future");
  }
}

}  // namespace tacc::topo::oracle
