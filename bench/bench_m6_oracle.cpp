// M6: the factored delay store at scale.
//
// A generated Waxman backbone with --servers edge servers (default 256) and
// --devices IoT devices (default 1M; 100k on 256 routers under --quick).
// Devices attach to their nearest router exactly as DynamicCluster attaches
// them, but only as (router, access latency) slots in a FactoredDelayStore:
// the engine's trees span the 768 backbone nodes, not the million devices.
// Backbone links are then reweighted for a number of rounds. Gates:
//   * rss_within_budget: the OS-measured peak RSS of the whole process
//     (getrusage, taken before the verification graph below is built) is
//     at most 225.5 MB — the resident size the landmark oracle this store
//     replaced reported for itself at the same scale (5.12 GB / 22.7).
//     Reported but not gated under --quick, where sanitizers inflate RSS.
//   * bit_exact_sampled: for sampled devices and sampled servers, every
//     served delay equals a from-scratch Dijkstra over the full graph (the
//     backbone in its final link state plus every device on its own access
//     link, built from regenerated positions).
//   * zero_rebuilds: the churn is absorbed by incremental tree repair.
//
//   ./bench_m6_oracle [--devices=1000000] [--servers=256] [--seed=...]
//                     [--quick]
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "bench/bench_common.hpp"
#include "topology/failures.hpp"
#include "topology/generators.hpp"
#include "topology/network.hpp"
#include "topology/oracle/factored.hpp"
#include "topology/shortest_paths.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace tacc;

/// Resident size the landmark oracle reported for itself on the full-size
/// run (1M devices, 256 servers, 512 routers): 5.12 GB / 22.7.
constexpr double kLandmarkResidentBytes = 5.12e9 / 22.7;

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux: KiB
}

/// Nearest router to `at` and its distance, first minimum on ties — the
/// rule DynamicCluster::attach_device applies.
std::pair<topo::NodeId, double> nearest_router(
    const std::vector<topo::Point2D>& routers, topo::Point2D at) {
  topo::NodeId best = 0;
  double best_km = std::numeric_limits<double>::infinity();
  for (topo::NodeId r = 0; r < routers.size(); ++r) {
    const double km = topo::euclidean_distance(routers[r], at);
    if (km < best_km) {
      best_km = km;
      best = r;
    }
  }
  return {best, best_km};
}

int run(int argc, char** argv) {
  const auto config = bench::BenchConfig::parse(argc, argv);
  const std::size_t devices =
      config.devices > 0 ? config.devices
                         : (config.quick ? 100'000 : 1'000'000);
  const std::size_t servers = config.servers > 0 ? config.servers : 256;
  const std::size_t routers = config.quick ? 256 : 512;
  const std::size_t rounds = config.quick ? 32 : 64;

  bench::BenchReport report(config, "m6_oracle");
  report.set_provider("reweight_rounds");

  util::Rng rng(config.base_seed ^ 0x5CA1Eu);
  const topo::LinkDelayModel delay_model;
  topo::GeneratorParams params;
  params.node_count = routers;
  params.area_km = 50.0;
  const topo::GeoGraph infra =
      topo::generate(topo::TopologyFamily::kWaxman, params, delay_model, rng);
  std::vector<topo::Point2D> edge_positions(servers);
  for (auto& p : edge_positions) {
    p = {rng.uniform(0.0, params.area_km), rng.uniform(0.0, params.area_km)};
  }
  // Device positions come from their own seeded stream so verification can
  // regenerate them instead of holding a million points.
  const std::uint64_t device_seed = config.base_seed ^ 0xDE71CEu;
  const auto device_position = [&params](util::Rng& stream) {
    return topo::Point2D{stream.uniform(0.0, params.area_km),
                         stream.uniform(0.0, params.area_km)};
  };

  // The store starts from a one-device network; the rest attach one by one.
  util::WallTimer timer;
  util::Rng positions(device_seed);
  const std::vector<topo::Point2D> first = {device_position(positions)};
  const topo::NetworkTopology seed_net =
      topo::build_network(infra, first, edge_positions, delay_model);
  topo::NetworkTopology backbone = topo::backbone_of(seed_net);
  topo::incr::IncrementalDelayEngine engine(backbone);
  topo::oracle::FactoredDelayStore store(engine, seed_net);
  for (std::size_t i = 1; i < devices; ++i) {
    const auto [router, km] =
        nearest_router(infra.positions, device_position(positions));
    store.attach(i, router, delay_model.access_link(km).latency_ms);
  }
  const double attach_ms = timer.elapsed_ms();

  const auto links = topo::backbone_links(backbone);
  timer.reset();
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto& [u, v] = links[rng.index(links.size())];
    engine.set_link_latency(u, v, rng.uniform(0.5, 8.0));
    store.refresh();
    for (std::size_t q = 0; q < 4; ++q) {
      (void)store.delay_ms(rng.index(devices), rng.index(servers));
    }
    if (round % (rounds / 4) == 0) {
      store.check_invariants();
    }
  }
  const double churn_ms = timer.elapsed_ms();
  const double rss = peak_rss_bytes();
  const double resident = static_cast<double>(store.resident_bytes());
  const std::uint64_t rebuilds = store.stats().rebuilds;

  // ---- Verification: the full graph, devices included. --------------------
  timer.reset();
  topo::Graph full = backbone.graph;
  util::Rng replay(device_seed);
  for (std::size_t i = 0; i < devices; ++i) {
    const auto [router, km] =
        nearest_router(infra.positions, device_position(replay));
    const topo::NodeId node = full.add_node();
    full.add_edge(node, router, delay_model.access_link(km));
  }
  const auto device_node = [&backbone](std::size_t i) {
    return static_cast<topo::NodeId>(backbone.graph.node_count() + i);
  };
  std::size_t checked = 0;
  bool exact = true;
  util::Rng sample(config.base_seed ^ 0xC4EC5u);
  for (std::size_t s = 0; s < 4 && exact; ++s) {
    const std::size_t j = sample.index(servers);
    const topo::ShortestPathTree tree =
        topo::dijkstra(full, backbone.edge_nodes[j]);
    for (std::size_t k = 0; k < 2'000; ++k) {
      const std::size_t i = sample.index(devices);
      const double want = tree.distance_ms[device_node(i)];
      const double got = store.delay_ms(i, j);
      ++checked;
      if (!(got == want)) {
        std::cerr << "device " << i << " server " << j << ": store " << got
                  << " vs Dijkstra " << want << "\n";
        exact = false;
        break;
      }
    }
  }
  const double verify_ms = timer.elapsed_ms();

  util::ConsoleTable table({"metric", "value"});
  table.add_row({"devices", std::to_string(devices)});
  table.add_row({"servers", std::to_string(servers)});
  table.add_row({"routers", std::to_string(routers)});
  table.add_row({"attach devices (ms)", util::format_double(attach_ms, 1)});
  table.add_row({"churn rounds", std::to_string(rounds)});
  table.add_row({"churn + queries (ms)", util::format_double(churn_ms, 1)});
  table.add_row({"store resident bytes", util::format_double(resident, 0)});
  table.add_row({"peak RSS bytes (getrusage)", util::format_double(rss, 0)});
  table.add_row({"landmark self-report bytes",
                 util::format_double(kLandmarkResidentBytes, 0)});
  table.add_row({"engine rebuilds", std::to_string(rebuilds)});
  table.add_row({"entries checked vs Dijkstra", std::to_string(checked)});
  table.add_row({"verification (ms)", util::format_double(verify_ms, 1)});
  std::cout << table.to_string("M6 — factored delay store at scale:");

  report.metric("devices", static_cast<double>(devices));
  report.metric("servers", static_cast<double>(servers));
  report.metric("routers", static_cast<double>(routers));
  report.metric("resident_bytes", resident);
  report.metric("peak_rss_bytes", rss);
  report.metric("rss_budget_bytes", kLandmarkResidentBytes);
  report.metric("checked_entries", static_cast<double>(checked));
  report.metric("scale_rebuilds", static_cast<double>(rebuilds));

  if (!config.quick) {
    const bool rss_ok = rss <= kLandmarkResidentBytes;
    if (!rss_ok) {
      std::cerr << "peak RSS " << rss << " bytes exceeds the landmark's "
                << kLandmarkResidentBytes << "\n";
    }
    report.gate("rss_within_budget", rss_ok);
  }
  report.gate("bit_exact_sampled", exact && checked > 0);
  if (rebuilds != 0) std::cerr << rebuilds << " engine rebuilds mid-run\n";
  report.gate("zero_rebuilds", rebuilds == 0);

  report.write();
  const bool ok = report.all_gates_passed();
  if (ok) {
    std::cout << "All delay-store gates passed: "
              << (config.quick ? "RSS reported (--quick), "
                               : "peak RSS within the landmark's budget, ")
              << "sampled entries bit-exact vs Dijkstra, zero rebuilds.\n";
  }
  config.check_unused();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
