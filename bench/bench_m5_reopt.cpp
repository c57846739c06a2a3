// M5: background re-optimizer soak — budgeted incremental repair vs
// periodic from-scratch re-solves.
//
// Two phases, two contracts:
//
// Phase 1 (convergence + cost): drives provider-generated device churn
// (diurnal, then hotspot_adversary, both with reopt_pause quiet windows)
// against a DynamicCluster whose assignments start greedy, running one
// synchronous opt::Reoptimizer pass per simulated second. At the end of
// each quiet window — demand frozen, optimizer drained to a fixpoint,
// i.e. the steady state the reopt_pause parameter exists to expose — a
// from-scratch portfolio re-solve (greedy-bestfit + local search over the
// live delay rows) is built and CPU-timed; the answer is measured, never
// adopted. HARD-GATES:
//   1. reopt_gap: steady-state (second half of each segment) mean total
//      cost stays within 5% of the portfolio re-solve.
//   2. reopt_cpu: one optimizer pass costs < 20% of the CPU of one
//      from-scratch re-solve — the equal-cadence comparison against the
//      strategy the subsystem replaces (skipped under --quick: sanitizer
//      timing).
//
// Phase 2 (liveness + safety): an engine-direct soak at >= 2 shards with
// --reopt semantics (auto_reopt, validate=true so every applied plan is
// bracketed by DynamicCluster::check_invariants) under closed-loop MOVE
// churn. HARD-GATES:
//   3. soak_accounting: zero-loss request accounting across the soak.
//   4. reopt_invariants: engine + cluster invariants stay clean with the
//      optimizer racing the serving path (any violation aborts or throws).
// Exit code 1 if a gate fails, so CI can run it as a regression check.
//
//   ./bench_m5_reopt [--events=100000] [--iot=150] [--edge=10]
//                    [--shards=2] [--samples=20] [--seed=...]
//                    [--reopt-moves=128] [--reopt-window-s=0.005]
//   --quick shrinks both phases and drops the CPU-ratio gate.
#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/dynamic.hpp"
#include "gap/instance.hpp"
#include "metrics/stats.hpp"
#include "optimize/reoptimizer.hpp"
#include "service/engine.hpp"
#include "util/contracts.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace tacc;

/// One phase-1 segment: fresh cluster + provider, per-step optimizer
/// passes, sampled re-solves. Accumulates into the caller's ledgers.
struct SegmentResult {
  std::vector<double> gap_pct;         ///< sampled gaps, in time order
  double optimizer_ms = 0.0;           ///< Σ run_pass wall time
  double resolve_ms = 0.0;             ///< Σ portfolio re-solve wall time
  opt::ReoptStats stats;               ///< optimizer ledger at segment end
  std::size_t events = 0;
};

/// From-scratch portfolio re-solve over the live cluster state: the delay
/// rows, demands and rates the optimizer itself sees become a gap::Instance
/// solved by greedy-bestfit + local search; the best complete assignment's
/// cost is the "what a full reconfiguration would buy" baseline.
double portfolio_resolve(const DynamicCluster& cluster,
                         const AlgorithmOptions& options) {
  std::vector<std::size_t> slots;
  slots.reserve(cluster.active_count());
  for (std::size_t i = 0; i < cluster.device_slot_count(); ++i) {
    if (cluster.is_active(i)) slots.push_back(i);
  }
  const std::size_t servers = cluster.server_count();
  topo::DelayMatrix delay(slots.size(), servers);
  std::vector<double> weights(slots.size());
  std::vector<double> demands(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      delay.set(i, j, cluster.delay_ms(slots[i], j));
    }
    weights[i] = cluster.device(slots[i]).request_rate_hz;
    demands[i] = cluster.device(slots[i]).demand;
  }
  const gap::Instance instance(std::move(delay), std::move(weights),
                               std::move(demands), cluster.capacities());
  // Best FEASIBLE portfolio answer; only when no solver finds a feasible
  // assignment (population over capacity) does the cheapest infeasible one
  // stand in — comparing the optimizer's capacity-respecting moves against
  // an infeasible "solution" would manufacture a gap no repair can close.
  double best_feasible = -1.0;
  double best_any = -1.0;
  for (const Algorithm algorithm :
       {Algorithm::kGreedyBestFit, Algorithm::kLocalSearch}) {
    const solvers::SolveResult result =
        make_solver(algorithm, options)->solve(instance);
    if (best_any < 0.0 || result.total_cost < best_any) {
      best_any = result.total_cost;
    }
    if (result.feasible &&
        (best_feasible < 0.0 || result.total_cost < best_feasible)) {
      best_feasible = result.total_cost;
    }
  }
  return best_feasible >= 0.0 ? best_feasible : best_any;
}

SegmentResult run_segment(const std::string& workload_spec, std::size_t iot,
                          std::size_t edge, std::size_t events,
                          std::size_t samples, double active_s,
                          double pause_s, std::uint64_t seed,
                          const opt::ReoptOptions& reopt_options,
                          const AlgorithmOptions& solve_options,
                          util::CsvWriter& csv) {
  const Scenario scenario = Scenario::smart_city(iot, edge, seed);
  AlgorithmOptions options = solve_options;
  options.apply_seed(seed);
  // Greedy start: the segment measures how far budgeted repair closes the
  // gap, so the initial assignment must not already be locally optimal.
  DynamicCluster cluster(scenario,
                         ConfigureRequest(Algorithm::kGreedyBestFit, options));
  tacc::Mutex cluster_mutex;
  opt::Reoptimizer reopt(cluster, cluster_mutex, reopt_options);

  const workload::ProviderContext ctx = workload::make_context(
      scenario.network(), scenario.workload(),
      scenario.params().workload.area_km, seed);
  auto provider = workload::make_provider(workload_spec, ctx);

  // Provider id -> live cluster slot (base ids start at their own index).
  std::vector<std::size_t> slot_of(iot);
  for (std::size_t i = 0; i < iot; ++i) slot_of[i] = i;

  SegmentResult segment;
  const std::size_t sample_every = std::max<std::size_t>(1, events / samples);
  std::size_t next_sample = sample_every;
  const double cycle_s = active_s + pause_s;

  while (segment.events < events) {
    const double step_start_s = provider->now_s();
    for (const workload::Event& event : provider->step(1.0)) {
      if (segment.events >= events) break;
      switch (event.kind) {
        case workload::EventKind::kJoin: {
          workload::IotDevice device;
          device.position = event.position;
          device.request_rate_hz = event.rate_hz;
          device.demand = event.demand;
          slot_of.push_back(cluster.join(device).device_index);
          break;
        }
        case workload::EventKind::kLeave:
          cluster.leave(slot_of[event.device]);
          break;
        case workload::EventKind::kMove:
          (void)cluster.move(slot_of[event.device], event.position);
          break;
        case workload::EventKind::kDemandPulse: {
          // In-place demand change rendered the way the wire replays it:
          // leave + rejoin into the same LIFO-recycled slot.
          const std::size_t slot = slot_of[event.device];
          workload::IotDevice device;
          device.position = event.position;
          device.request_rate_hz = event.rate_hz;
          device.demand = event.demand;
          cluster.leave(slot);
          slot_of[event.device] = cluster.join(device).device_index;
          break;
        }
        default:
          continue;  // diurnal/hotspot emit no link events
      }
      ++segment.events;
    }

    // One synchronous optimizer pass per simulated second — the same
    // proposal -> budget filter -> atomic apply -> ledger path the
    // background thread runs, minus the thread.
    util::WallTimer timer;
    reopt.run_pass();
    segment.optimizer_ms += timer.elapsed_ms();

    // Steady-state sampling point. With reopt_pause quiet windows, that is
    // the end of each cycle's quiet tail (the step just completed was the
    // cycle's last quiet second): demand has been frozen for pause_s, so
    // what remains after the convergence drain below is the optimizer's
    // genuine residual, not churn it has not seen yet. Without quiet
    // windows (custom --workload), fall back to an event-count cadence.
    const bool sample_now =
        (pause_s > 0.0
             ? std::fmod(step_start_s, cycle_s) >= cycle_s - 1.0 - 1e-9
             : segment.events >= next_sample) ||
        segment.events >= events;

    if (sample_now) {
      next_sample += sample_every;
      // Convergence drain: across a real quiet window the background
      // thread would run ~pause_s / interval_ms passes; the simulated
      // clock advances instantly, so emulate them here until a pass
      // applies nothing (or the migration budget runs dry).
      for (int drain = 0; drain < 64; ++drain) {
        timer.reset();
        const std::size_t applied = reopt.run_pass();
        segment.optimizer_ms += timer.elapsed_ms();
        if (applied == 0) break;
      }
      timer.reset();
      const double resolved = portfolio_resolve(cluster, options);
      const double resolve_ms = timer.elapsed_ms();
      segment.resolve_ms += resolve_ms;
      const double live = cluster.total_cost();
      const double gap_pct =
          resolved > 0.0
              ? std::max(0.0, (live - resolved) / resolved * 100.0)
              : 0.0;
      segment.gap_pct.push_back(gap_pct);
      csv.row(workload_spec, segment.events, live, resolved, gap_pct,
              segment.optimizer_ms, segment.resolve_ms);
      // Deep validation at every sample: cluster structure plus the
      // optimizer's own ledger identities. The default abort handler makes
      // any violation a hard bench failure.
      cluster.check_invariants();
      reopt.check_invariants();
    }
  }
  segment.stats = reopt.stats();
  return segment;
}

/// Phase 2: engine-direct soak with auto-attached, validating optimizers
/// racing closed-loop MOVE churn on every session. Returns false on any
/// accounting or invariant failure.
bool engine_soak(std::size_t shards, std::size_t events_total,
                 std::uint64_t seed, const opt::ReoptOptions& reopt_options,
                 double& applied_moves, double& optimizer_passes) {
  service::EngineOptions options;
  options.shards = shards;
  options.threads = shards;
  options.max_queue = 128 * shards;
  options.default_timeout_ms = 120'000.0;
  options.auto_reopt = true;
  options.reopt = reopt_options;
  options.reopt.validate = true;  // bracket every applied plan
  service::Engine engine(options);

  // One session per shard, discovered by probing the stable routing hash.
  std::vector<std::string> names(shards);
  std::size_t covered = 0;
  for (int i = 0; covered < shards; ++i) {
    std::string name = "reopt" + std::to_string(i);
    const std::size_t shard = engine.shard_of(name);
    if (names[shard].empty()) {
      names[shard] = std::move(name);
      ++covered;
    }
  }

  bool ok = true;
  constexpr std::size_t kIot = 60;
  for (const std::string& name : names) {
    const service::ParseResult parsed = service::parse_request(
        "CONFIGURE " + name + " " + std::to_string(kIot) + " 6 seed=" +
        std::to_string(seed) + " timeout_ms=120000");
    std::promise<std::string> configured;
    std::future<std::string> future = configured.get_future();
    engine.submit(*parsed.request, [&configured](std::string response) {
      configured.set_value(std::move(response));
    });
    if (future.get().rfind("OK", 0) != 0) ok = false;
  }
  engine.drain();

  const std::size_t per_driver = std::max<std::size_t>(
      1, events_total / std::max<std::size_t>(1, names.size()));
  std::atomic<std::size_t> responded_ok{0};
  std::atomic<std::size_t> responded_err{0};
  {
    std::vector<std::jthread> drivers;
    drivers.reserve(names.size());
    for (const std::string& name : names) {
      drivers.emplace_back([&, name] {
        constexpr std::size_t kWindow = 16;  // in-flight per driver
        util::Rng rng(seed * 31 + engine.shard_of(name));
        service::Request move = *service::parse_request(
            "MOVE " + name + " 0 1.0 1.0 timeout_ms=120000").request;
        std::atomic<std::size_t> responded{0};
        std::size_t sent = 0;
        while (sent < per_driver) {
          while (sent - responded.load(std::memory_order_acquire) >=
                 kWindow) {
            std::this_thread::yield();
          }
          move.index = rng.index(kIot);
          move.x = rng.uniform(0.0, 5.0);
          move.y = rng.uniform(0.0, 5.0);
          engine.submit(move, [&responded_ok, &responded_err, &responded](
                                  const std::string& response) {
            (response.rfind("OK", 0) == 0 ? responded_ok : responded_err)
                .fetch_add(1);
            responded.fetch_add(1, std::memory_order_release);
          });
          ++sent;
        }
        while (responded.load(std::memory_order_acquire) < sent) {
          std::this_thread::yield();
        }
      });
    }
    // Accounting invariants are checked live while the optimizer threads
    // race the drain tasks, not just after the dust settles.
    for (int i = 0; i < 20; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      engine.check_invariants();
    }
  }
  engine.drain();

  // Pull the optimizer ledgers out through the wire verb the way an
  // operator would (before shutdown — admission closes after it); the
  // counters feed metrics, not gates, since whether the optimizer wins its
  // try_locks depends on scheduling.
  for (const std::string& name : names) {
    const service::ParseResult parsed =
        service::parse_request("REOPT_STATS " + name);
    std::promise<std::string> answered;
    std::future<std::string> future = answered.get_future();
    engine.submit(*parsed.request, [&answered](std::string response) {
      answered.set_value(std::move(response));
    });
    const std::string line = future.get();
    if (line.rfind("OK", 0) != 0) {
      std::cerr << "REOPT_STATS failed: " << line << "\n";
      ok = false;
      continue;
    }
    const auto field = [&line](const std::string& key) {
      const std::size_t pos = line.find(key + "=");
      if (pos == std::string::npos) return 0.0;
      return std::strtod(line.c_str() + pos + key.size() + 1, nullptr);
    };
    applied_moves += field("applied");
    optimizer_passes += field("passes");
  }
  engine.begin_shutdown();
  engine.drain();

  const std::size_t sent = names.size() * per_driver;
  if (responded_ok.load() != sent || responded_err.load() != 0) {
    std::cerr << "soak accounting: ok=" << responded_ok.load() << " err="
              << responded_err.load() << " sent=" << sent << "\n";
    ok = false;
  }
  const service::EngineCounters counters = engine.counters();
  // CONFIGUREs are counted too, hence >=; the identity itself must hold.
  if (counters.accepted != counters.completed ||
      counters.rejected_overload != 0 || counters.rejected_deadline != 0) {
    std::cerr << "soak ledger: " << service::to_string(counters) << "\n";
    ok = false;
  }
  try {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    engine.check_invariants();
  } catch (const std::exception& violation) {
    std::cerr << "soak check_invariants: " << violation.what() << "\n";
    ok = false;
  }

  return ok;
}

int run(int argc, char** argv) {
  const auto config = bench::BenchConfig::parse(argc, argv);
  const auto iot = static_cast<std::size_t>(
      config.flags.get_int("iot", config.quick ? 100 : 150));
  const auto edge = static_cast<std::size_t>(config.flags.get_int("edge", 10));
  const auto events = static_cast<std::size_t>(
      config.flags.get_int("events", config.quick ? 10'000 : 100'000));
  const auto shards = static_cast<std::size_t>(
      config.flags.get_int("shards", 2));
  const auto samples = static_cast<std::size_t>(
      config.flags.get_int("samples", 20));

  // Bench budget: short wall-clock windows so a seconds-scale run spans
  // many of them — the ledger's roll/charge/reject paths all get exercised
  // without starving convergence the way the daemon's 10 s default would.
  opt::ReoptOptions reopt_options;
  reopt_options.budget.max_moves_per_window = static_cast<std::size_t>(
      config.flags.get_int("reopt-moves", 128));
  reopt_options.budget.max_device_moves_per_window = static_cast<std::size_t>(
      config.flags.get_int("reopt-device-moves", 4));
  reopt_options.budget.window_s =
      config.flags.get_double("reopt-window-s", 0.005);
  reopt_options.interval_ms = 1.0;
  reopt_options.seed = config.base_seed;

  bench::BenchReport report(config, "m5_reopt");
  bench::CsvFile csv(config, "m5_reopt");
  csv.writer().header({"provider", "event", "live_cost", "resolve_cost",
                       "gap_pct", "optimizer_ms", "resolve_ms"});

  // ---- Phase 1: convergence vs periodic re-solve ---------------------------
  // reopt_pause carves quiet windows into both streams (5 s active / 2 s
  // quiet at dt=1): convergence is measured against demand the optimizer
  // had a deterministic chance to catch up with.
  constexpr double kActiveS = 5.0;
  constexpr double kPauseS = 2.0;
  const std::string quiet = ",reopt_pause=2,reopt_active_s=5";
  const std::string specs[] = {config.workload_or("diurnal" + quiet),
                               "hotspot_adversary" + quiet};
  const AlgorithmOptions solve_options = bench::experiment_options(config.quick);

  double steady_gap_sum = 0.0;
  std::size_t steady_gap_count = 0;
  double optimizer_ms = 0.0;
  double resolve_ms = 0.0;
  std::size_t resolves = 0;
  opt::ReoptStats totals;
  util::ConsoleTable table({"provider", "events", "steady gap (%)",
                            "proposed", "applied", "rejected",
                            "optimizer (ms)", "resolve (ms)"});
  for (const std::string& spec : specs) {
    // A custom --workload without the quiet suffix falls back to
    // event-count sampling inside run_segment (pause_s = 0).
    const bool has_quiet = spec.find(quiet) != std::string::npos;
    const SegmentResult segment = run_segment(
        spec, iot, edge, events / 2, samples, has_quiet ? kActiveS : 0.0,
        has_quiet ? kPauseS : 0.0, config.base_seed, reopt_options,
        solve_options, csv.writer());
    // Steady state: the second half of the segment's samples — the early
    // samples measure the transient the optimizer is still draining.
    const std::size_t half = segment.gap_pct.size() / 2;
    double segment_gap = 0.0;
    for (std::size_t i = half; i < segment.gap_pct.size(); ++i) {
      segment_gap += segment.gap_pct[i];
      steady_gap_sum += segment.gap_pct[i];
      ++steady_gap_count;
    }
    const std::size_t steady_n = segment.gap_pct.size() - half;
    optimizer_ms += segment.optimizer_ms;
    resolve_ms += segment.resolve_ms;
    resolves += segment.gap_pct.size();
    totals.passes += segment.stats.passes;
    totals.moves_proposed += segment.stats.moves_proposed;
    totals.moves_applied += segment.stats.moves_applied;
    table.add_row({spec.substr(0, spec.find(',')),
                   std::to_string(segment.events),
                   util::format_double(
                       steady_n > 0
                           ? segment_gap / static_cast<double>(steady_n)
                           : 0.0, 2),
                   std::to_string(segment.stats.moves_proposed),
                   std::to_string(segment.stats.moves_applied),
                   std::to_string(segment.stats.rejected()),
                   util::format_double(segment.optimizer_ms, 1),
                   util::format_double(segment.resolve_ms, 1)});
  }

  const double reopt_gap_pct =
      steady_gap_count > 0
          ? steady_gap_sum / static_cast<double>(steady_gap_count)
          : 0.0;
  // Per-activation CPU: what one optimizer pass costs vs what one
  // from-scratch re-solve costs. The alternative to the re-optimizer is
  // re-solving at the same cadence, so equal-cadence CPU is the fair
  // comparison — totals would just compare how often each side happened to
  // run in this bench.
  const double pass_ms =
      totals.passes > 0 ? optimizer_ms / static_cast<double>(totals.passes)
                        : 0.0;
  const double per_resolve_ms =
      resolves > 0 ? resolve_ms / static_cast<double>(resolves) : 0.0;
  const double reopt_cpu_ratio =
      per_resolve_ms > 0.0 ? pass_ms / per_resolve_ms : 0.0;
  std::cout << table.to_string(
      "M5 — budgeted re-optimizer vs from-scratch portfolio re-solve (" +
      std::to_string(iot) + " base devices, " + std::to_string(edge) +
      " servers):");
  std::cout << "\nSteady-state gap " << util::format_double(reopt_gap_pct, 2)
            << "% of re-solve; optimizer pass CPU "
            << util::format_double(reopt_cpu_ratio * 100.0, 1)
            << "% of a re-solve (" << util::format_double(pass_ms * 1e3, 1)
            << " us vs " << util::format_double(per_resolve_ms * 1e3, 1)
            << " us)\n";

  // ---- Gate 1: steady-state cost within 5% of the re-solve. ----------------
  const bool gap_ok = reopt_gap_pct <= 5.0;
  if (!gap_ok) {
    std::cerr << "steady-state gap " << reopt_gap_pct
              << "% exceeds the 5% ceiling\n";
  }
  report.gate("reopt_gap", gap_ok);

  // ---- Gate 2: < 20% of the re-solve CPU (timing gates are meaningless
  // under sanitizers, so --quick only reports the ratio). --------------------
  if (!config.quick) {
    const bool cpu_ok = reopt_cpu_ratio < 0.2;
    if (!cpu_ok) {
      std::cerr << "optimizer CPU ratio " << reopt_cpu_ratio
                << " is above the 0.2 ceiling (" << pass_ms << " ms/pass vs "
                << per_resolve_ms << " ms/re-solve)\n";
    }
    report.gate("reopt_cpu", cpu_ok);
  }

  // ---- Phase 2: concurrent engine soak -------------------------------------
  double soak_applied = 0.0;
  double soak_passes = 0.0;
  const bool soak_ok =
      engine_soak(std::max<std::size_t>(shards, 2), events,
                  config.base_seed, reopt_options, soak_applied,
                  soak_passes);
  std::cout << "\nEngine soak (" << std::max<std::size_t>(shards, 2)
            << " shards, " << events << " events): optimizer passes "
            << util::format_double(soak_passes, 0) << ", applied moves "
            << util::format_double(soak_applied, 0)
            << (soak_ok ? ", clean accounting + invariants\n" : ", FAILED\n");
  report.gate("soak_accounting", soak_ok);
  // validate=true bracketed every applied plan with check_invariants under
  // the default abort handler — reaching this line with soak_ok means zero
  // violations were observed across the soak.
  report.gate("reopt_invariants", soak_ok);

  report.metric("events", static_cast<double>(events));
  report.metric("reopt_gap_pct", reopt_gap_pct);
  report.metric("reopt_cpu_ratio", reopt_cpu_ratio);
  report.metric("optimizer_ms", optimizer_ms);
  report.metric("resolve_ms", resolve_ms);
  report.metric("passes", static_cast<double>(totals.passes));
  report.metric("moves_proposed", static_cast<double>(totals.moves_proposed));
  report.metric("moves_applied", static_cast<double>(totals.moves_applied));
  report.metric("soak_passes", soak_passes);
  report.metric("soak_applied", soak_applied);
  report.metric("shards", static_cast<double>(std::max<std::size_t>(shards, 2)));
  report.write();

  const bool ok = report.all_gates_passed();
  if (ok) {
    std::cout << "All re-optimizer gates passed: steady-state gap "
              << util::format_double(reopt_gap_pct, 2) << "% <= 5%, "
              << (config.quick ? "CPU gate skipped (--quick), "
                               : "optimizer CPU < 20% of re-solve, ")
              << "clean concurrent soak.\n";
  }
  config.check_unused();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
