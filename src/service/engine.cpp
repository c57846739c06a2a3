#include "service/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/configurator.hpp"
#include "core/dynamic.hpp"
#include "core/scenario.hpp"
#include "topology/failures.hpp"
#include "util/contracts.hpp"
#include "util/mutex.hpp"

namespace tacc::service {

namespace {

std::size_t resolve_shards(const EngineOptions& options) {
  const std::size_t requested = options.shards == 0
                                    ? runtime::default_thread_count()
                                    : options.shards;
  return std::clamp<std::size_t>(requested, 1, runtime::kMaxThreads);
}

std::size_t workers_per_shard(const EngineOptions& options,
                              std::size_t shards) {
  const std::size_t budget = options.threads == 0
                                 ? runtime::default_thread_count()
                                 : std::min(options.threads,
                                            runtime::kMaxThreads);
  return std::max<std::size_t>(1, budget / shards);
}

std::size_t admission_quota(const EngineOptions& options, std::size_t shards) {
  return std::max<std::size_t>(1, (options.max_queue + shards - 1) / shards);
}

/// The re-optimizer ledger's wire fields: REOPT_STATS prints them as is,
/// session STATS under the prefix "reopt_".
OkLine& append_reopt(OkLine& line, const opt::ReoptStats& stats) {
  return line.field("passes", stats.passes)
      .field("plans", stats.plans)
      .field("proposed", stats.moves_proposed)
      .field("applied", stats.moves_applied)
      .field("rejected_stale", stats.rejected_stale)
      .field("rejected_target_failed", stats.rejected_target_failed)
      .field("rejected_infeasible", stats.rejected_infeasible)
      .field("rejected_budget", stats.rejected_budget)
      .field("predicted_gain", stats.predicted_gain)
      .field("achieved_gain", stats.achieved_gain);
}

}  // namespace

EngineCounters& EngineCounters::operator+=(
    const EngineCounters& other) noexcept {
  for (const auto& [name, member] : kCounterFields) {
    this->*member += other.*member;
  }
  return *this;
}

OkLine& append_counters(OkLine& line, const EngineCounters& counters) {
  for (const auto& [name, member] : kCounterFields) {
    line.field(name, counters.*member);
  }
  return line;
}

std::string to_string(const EngineCounters& counters) {
  std::string text;
  for (const auto& [name, member] : kCounterFields) {
    if (!text.empty()) text += ' ';
    text += name;
    text += '=';
    text += std::to_string(counters.*member);
  }
  return text;
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  const std::size_t shards = resolve_shards(options_);
  const std::size_t workers = workers_per_shard(options_, shards);
  const std::size_t quota = admission_quota(options_, shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(quota, workers));
  }
}

Engine::~Engine() {
  begin_shutdown();
  drain();
}

void Engine::begin_shutdown() {
  for (const auto& shard : shards_) {
    const MutexLock lock(&shard->mutex);
    shard->shutting_down = true;
  }
}

void Engine::drain() {
  for (const auto& shard : shards_) {
    {
      const MutexLock lock(&shard->mutex);
      while (shard->in_flight != 0) shard->drained_cv.wait(shard->mutex);
    }
    // A batch frees its in-flight slots before its drain task delivers the
    // replies; the task is done once the pool idles.
    shard->pool.wait_idle();
  }
}

std::size_t Engine::queue_depth() const {
  std::size_t depth = 0;
  for (const ShardView& view : shard_views()) depth += view.in_flight;
  return depth;
}

EngineCounters Engine::counters() const {
  EngineCounters total;
  for (const ShardView& view : shard_views()) total += view.counters;
  return total;
}

std::size_t Engine::session_count() const {
  std::size_t count = 0;
  for (const ShardView& view : shard_views()) count += view.sessions;
  return count;
}

std::size_t Engine::shard_of(std::string_view session) const noexcept {
  // FNV-1a 64-bit: stable across builds and restarts (std::hash makes no
  // such promise), so replayed streams route identically run over run.
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : session) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % shards_.size());
}

std::size_t Engine::shard_quota() const noexcept {
  return shards_.front()->quota;
}

std::vector<Engine::ShardView> Engine::shard_views() const {
  std::vector<ShardView> views;
  views.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardView view;
    const MutexLock lock(&shard->mutex);
    view.counters = shard->counters;
    view.in_flight = shard->in_flight;
    view.sessions = shard->sessions.size();
    for (const auto& [name, session] : shard->sessions) {
      // Session fields are guarded by the back-pointer to this very mutex;
      // tell the analysis the alias is held (see Session::shard_mutex).
      session->shard_mutex->assert_held();
      view.pending += session->pending.size();
      if (session->draining) ++view.draining_sessions;
      view.session_sum += session->counters;
    }
    views.push_back(view);
  }
  return views;
}

void Engine::check_invariants() const {
  // Check the views unlocked: the failure handler may throw, and must not
  // do so while holding a lock.
  const std::vector<ShardView> views = shard_views();
  EngineCounters total;
  std::size_t total_in_flight = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const ShardView& view = views[i];
    const EngineCounters& c = view.counters;
    const std::string where = "shard " + std::to_string(i) + ": ";
    // Every admitted request is exactly one of: completed, failed, expired
    // against its deadline, or still in flight. Rejections never enter the
    // identity — they were never admitted.
    TACC_CHECK_INVARIANT(
        c.accepted == c.completed + c.failed + c.rejected_deadline +
                          view.in_flight,
        where + "request accounting broke: accepted " +
            std::to_string(c.accepted) + " != completed " +
            std::to_string(c.completed) + " + failed " +
            std::to_string(c.failed) + " + expired " +
            std::to_string(c.rejected_deadline) + " + in-flight " +
            std::to_string(view.in_flight));
    TACC_CHECK_INVARIANT(view.pending <= view.in_flight,
                         where + "queued events exceed the in-flight count");
    TACC_CHECK_INVARIANT(view.in_flight <= shards_[i]->quota,
                         where + "admission exceeded the shard quota");
    TACC_CHECK_INVARIANT(
        view.pending == 0 || view.draining_sessions > 0,
        where + "events queued with no drainer scheduled");
    // Shard counters are the sum of their sessions' counters for every
    // event that reached a session. (Overload/shutdown/not-found bounces
    // may precede session attribution, so those are >=, not ==.)
    TACC_CHECK_INVARIANT(
        c.accepted == view.session_sum.accepted &&
            c.completed == view.session_sum.completed &&
            c.failed == view.session_sum.failed &&
            c.rejected_deadline == view.session_sum.rejected_deadline,
        where + "shard counters diverge from the sum over its sessions");
    TACC_CHECK_INVARIANT(
        c.rejected_overload >= view.session_sum.rejected_overload,
        where + "session overload rejections exceed the shard's");
    total += c;
    total_in_flight += view.in_flight;
  }
  TACC_CHECK_INVARIANT(
      total.accepted == total.completed + total.failed +
                            total.rejected_deadline + total_in_flight,
      "aggregate request accounting broke across shards");
}

void Engine::submit(const Request& request, Responder respond) {
  switch (request.verb) {
    case Verb::kPing:
    case Verb::kShutdown:
      // Transport-level verbs; the socket server answers them before the
      // engine ever sees them.
      respond(err_line(ErrorCode::kBadRequest,
                       "verb is handled by the transport"));
      return;
    case Verb::kStats:
      respond(stats_line(request));
      return;
    default:
      break;
  }

  const Clock::time_point now = Clock::now();
  const double timeout_ms =
      request.timeout_ms.value_or(options_.default_timeout_ms);
  Event event{request, std::move(respond), now,
              now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(timeout_ms)),
              {}};

  Shard& shard = *shards_[shard_of(request.session)];
  enum class Outcome { kAccepted, kOverloaded, kNotFound, kShuttingDown };
  Outcome outcome = Outcome::kShuttingDown;
  std::shared_ptr<Session> session;
  bool schedule = false;
  {
    const MutexLock lock(&shard.mutex);
    if (shard.shutting_down) {
      ++shard.counters.rejected_shutdown;
      outcome = Outcome::kShuttingDown;
    } else if (shard.in_flight >= shard.quota) {
      ++shard.counters.rejected_overload;
      const auto it = shard.sessions.find(request.session);
      if (it != shard.sessions.end()) {
        it->second->shard_mutex->assert_held();
        ++it->second->counters.rejected_overload;
      }
      outcome = Outcome::kOverloaded;
    } else {
      const auto it = shard.sessions.find(request.session);
      if (it != shard.sessions.end()) {
        session = it->second;
      } else if (request.verb == Verb::kConfigure) {
        session = std::make_shared<Session>(request.session, &shard.mutex);
        shard.sessions.emplace(request.session, session);
      }
      if (session) {
        session->shard_mutex->assert_held();
        ++shard.in_flight;
        ++shard.counters.accepted;
        ++session->counters.accepted;
        session->pending.push_back(std::move(event));
        if (!session->draining) {
          session->draining = true;
          schedule = true;
        }
        outcome = Outcome::kAccepted;
      } else {
        ++shard.counters.rejected_not_found;
        outcome = Outcome::kNotFound;
      }
    }
  }

  // Everything below runs unlocked so responders and the pool can't deadlock
  // back into submit().
  switch (outcome) {
    case Outcome::kAccepted:
      if (schedule) {
        shard.pool.submit([this, &shard, session] {
          drain_session(shard, session);
        });
      }
      return;
    case Outcome::kShuttingDown:
      event.respond(err_line(ErrorCode::kShuttingDown, "daemon is draining"));
      return;
    case Outcome::kNotFound:
      event.respond(err_line(ErrorCode::kNotFound,
                             "unknown session '" + request.session + "'"));
      return;
    case Outcome::kOverloaded:
      event.respond(err_line(ErrorCode::kOverloaded,
                             "admission queue full (shard quota=" +
                                 std::to_string(shard.quota) + ")"));
      return;
  }
}

void Engine::drain_session(Shard& shard,
                           const std::shared_ptr<Session>& session) {
  for (;;) {
    std::vector<Event> batch;
    {
      const MutexLock lock(&shard.mutex);
      session->shard_mutex->assert_held();
      const std::size_t n =
          std::min(session->pending.size(), options_.max_batch);
      if (n == 0) {
        session->draining = false;
        return;
      }
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(session->pending.front()));
        session->pending.pop_front();
      }
    }

    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t expired = 0;
    std::vector<double> latencies;
    latencies.reserve(batch.size());
    SessionSnapshot snapshot;
    // The cluster lock serializes this batch's mutations (and the snapshot
    // read below) against the session's background re-optimizer. The
    // optimizer only try_locks, so holding it for the whole batch never
    // stalls anyone but the optimizer — which simply skips a pass.
    ReleasableMutexLock cluster_lock(&session->cluster_mutex);
    for (Event& event : batch) {
      // Deadline re-check at dequeue time (boundary inclusive: a deadline
      // exactly at dequeue is expired) — the event leaves the queue for
      // execution here, possibly long after batch formation.
      if (deadline_expired(event.deadline, Clock::now())) {
        ++expired;
        event.reply =
            err_line(ErrorCode::kDeadlineExceeded, "expired after queueing");
        continue;
      }
      // Past this point the request runs to completion and its result is
      // answered even if the deadline passes meanwhile: the mutation
      // stands, so an error would invite a retry that repeats it.
      event.reply = apply(*session, event.request);
      const Clock::time_point finished = Clock::now();
      (event.reply.starts_with("OK") ? completed : failed) += 1;
      latencies.push_back(
          std::chrono::duration<double, std::micro>(finished - event.enqueued)
              .count());
    }

    // One metrics flush per batch (micro-batching's second dividend). Still
    // under the cluster lock: the snapshot must not race optimizer moves.
    if (session->cluster) {
      const DynamicCluster& cluster = *session->cluster;
      snapshot.configured = true;
      snapshot.devices = cluster.active_count();
      snapshot.servers = cluster.server_count();
      snapshot.healthy_servers = cluster.healthy_server_count();
      snapshot.avg_delay_ms = cluster.avg_delay_ms();
      snapshot.max_utilization = cluster.max_utilization();
      snapshot.feasible = cluster.feasible();
      snapshot.delay_epoch = cluster.delay_epoch();
      snapshot.links = cluster.link_stats();
    }
    if (session->reoptimizer) {
      snapshot.reopt_running = session->reoptimizer->running();
      snapshot.reopt = session->reoptimizer->stats();
    }
    cluster_lock.release();
    {
      // One lock, one coherent flush: queue ledger, per-session counters,
      // and the snapshot move together, so no STATS reply can catch the
      // identity mid-update.
      const MutexLock lock(&shard.mutex);
      session->shard_mutex->assert_held();
      session->counters.completed += completed;
      session->counters.failed += failed;
      session->counters.rejected_deadline += expired;
      ++session->batches;
      for (const double us : latencies) session->latency_us.add(us);
      session->snapshot = snapshot;
      shard.counters.completed += completed;
      shard.counters.failed += failed;
      shard.counters.rejected_deadline += expired;
      shard.in_flight -= batch.size();
      if (shard.in_flight == 0) shard.drained_cv.notify_all();
    }
    // Answer only now, with both locks dropped: a client holding a reply
    // finds its request in every STATS counter and the snapshot, and its
    // admission slot already free.
    for (Event& event : batch) event.respond(std::move(event.reply));
  }
}

std::string Engine::apply(Session& session, const Request& request) {
  try {
    if (request.verb == Verb::kConfigure) {
      Scenario scenario = [&] {
        switch (request.preset) {
          case ScenarioPreset::kFactory:
            return Scenario::factory(request.iot, request.edge, request.seed);
          case ScenarioPreset::kCampus:
            return Scenario::campus(request.iot, request.edge, request.seed);
          case ScenarioPreset::kSmartCity:
          default:
            return Scenario::smart_city(request.iot, request.edge,
                                        request.seed);
        }
      }();
      AlgorithmOptions algorithm_options;
      algorithm_options.apply_seed(request.seed);
      // request.oracle was validated at parse time; every valid spec is
      // served by the exact delay store, so the default config stands.
      const ConfigureRequest configure(request.algorithm, algorithm_options);
      // The optimizer (if any) references the old cluster: stop and detach
      // it before the swap, then re-attach onto the replacement with the
      // same tuning (or the engine default under auto_reopt).
      const bool reattach =
          session.reoptimizer != nullptr || options_.auto_reopt;
      session.reoptimizer.reset();
      session.cluster = std::make_unique<DynamicCluster>(scenario, configure);
      if (reattach) {
        const opt::ReoptOptions reopt =
            session.reopt_options.value_or(options_.reopt);
        session.reoptimizer = std::make_unique<opt::Reoptimizer>(
            *session.cluster, session.cluster_mutex, reopt);
        session.reoptimizer->start();
      }
      return OkLine()
          .field("session", session.name)
          .field("preset", to_string(request.preset))
          .field("devices", session.cluster->active_count())
          .field("servers", session.cluster->server_count())
          .field("algo", tacc::to_string(request.algorithm))
          .field("oracle", session.cluster->delay_oracle().name())
          .field("avg_delay_ms", session.cluster->avg_delay_ms())
          .field("feasible", session.cluster->feasible())
          .str();
    }
    if (request.verb == Verb::kSleep) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(request.sleep_ms));
      return OkLine().field("slept_ms", request.sleep_ms).str();
    }
    if (!session.cluster) {
      return err_line(ErrorCode::kNotFound,
                      "session '" + session.name + "' is not configured");
    }
    DynamicCluster& cluster = *session.cluster;
    switch (request.verb) {
      case Verb::kJoin: {
        workload::IotDevice device;
        device.position = {request.x, request.y};
        device.request_rate_hz = request.rate_hz;
        device.demand = request.demand;
        const JoinResult joined = cluster.join(device);
        return OkLine()
            .field("device", joined.device_index)
            .field("server", joined.server)
            .field("feasible", joined.feasible)
            .field("overload", joined.overload_fallback)
            .str();
      }
      case Verb::kMove: {
        const topo::Point2D position{request.x, request.y};
        const JoinResult moved = request.pinned
                                     ? cluster.move_pinned(request.index,
                                                           position)
                                     : cluster.move(request.index, position);
        return OkLine()
            .field("device", moved.device_index)
            .field("server", moved.server)
            .field("feasible", moved.feasible)
            .field("overload", moved.overload_fallback)
            .str();
      }
      case Verb::kLeave:
        cluster.leave(request.index);
        return OkLine().field("device", request.index).str();
      case Verb::kFail: {
        const EvacuationReport report =
            cluster.fail_server(request.index, request.evacuate);
        return OkLine()
            .field("server", request.index)
            .field("evacuated", report.evacuated)
            .field("overloaded", report.overloaded)
            .str();
      }
      case Verb::kRecover:
        cluster.recover_server(request.index);
        return OkLine().field("server", request.index).str();
      case Verb::kEvacuate: {
        const EvacuationReport report = cluster.evacuate_server(request.index);
        return OkLine()
            .field("server", request.index)
            .field("evacuated", report.evacuated)
            .field("overloaded", report.overloaded)
            .str();
      }
      case Verb::kLinkFail:
      case Verb::kLinkRestore:
      case Verb::kLinkSet: {
        const auto u = static_cast<topo::NodeId>(request.link_u);
        const auto v = static_cast<topo::NodeId>(request.link_v);
        const LinkUpdateReport report =
            request.verb == Verb::kLinkFail ? cluster.fail_link(u, v)
            : request.verb == Verb::kLinkRestore
                ? cluster.restore_link(u, v)
                : cluster.set_link_latency(u, v, request.latency_ms);
        return OkLine()
            .field("u", request.link_u)
            .field("v", request.link_v)
            .field("epoch", report.epoch)
            .field("affected", report.nodes_affected)
            .field("saved", report.nodes_saved)
            .field("rows_refreshed", report.rows_refreshed)
            // For LINK_SET this is the latency the link had before.
            .field("latency_ms", report.latency_ms)
            .field("avg_delay_ms", cluster.avg_delay_ms())
            .str();
      }
      case Verb::kReoptStart: {
        opt::ReoptOptions reopt = options_.reopt;
        if (request.reopt_moves > 0) {
          reopt.budget.max_moves_per_window = request.reopt_moves;
        }
        if (request.reopt_device_moves > 0) {
          reopt.budget.max_device_moves_per_window =
              request.reopt_device_moves;
        }
        if (request.reopt_window_s > 0.0) {
          reopt.budget.window_s = request.reopt_window_s;
        }
        if (request.reopt_interval_ms > 0.0) {
          reopt.interval_ms = request.reopt_interval_ms;
        }
        // Replacing an attached optimizer stops the old one first; its
        // thread never blocks on cluster_mutex (try_lock only), so joining
        // it while we hold the lock cannot deadlock.
        session.reoptimizer.reset();
        session.reoptimizer = std::make_unique<opt::Reoptimizer>(
            cluster, session.cluster_mutex, reopt);
        session.reoptimizer->start();
        session.reopt_options = reopt;
        return OkLine()
            .field("session", session.name)
            .field("running", true)
            .field("moves_per_window", reopt.budget.max_moves_per_window)
            .field("device_moves_per_window",
                   reopt.budget.max_device_moves_per_window)
            .field("window_s", reopt.budget.window_s)
            .field("interval_ms", reopt.interval_ms)
            .str();
      }
      case Verb::kReoptStop: {
        std::uint64_t applied = 0;
        if (session.reoptimizer) {
          applied = session.reoptimizer->stats().moves_applied;
          session.reoptimizer.reset();  // stops + joins
        }
        session.reopt_options.reset();
        return OkLine()
            .field("session", session.name)
            .field("running", false)
            .field("moves_applied", applied)
            .str();
      }
      case Verb::kReoptStats: {
        OkLine line;
        line.field("session", session.name)
            .field("running", session.reoptimizer != nullptr &&
                                  session.reoptimizer->running());
        return append_reopt(line, session.reoptimizer
                                      ? session.reoptimizer->stats()
                                      : opt::ReoptStats{})
            .str();
      }
      case Verb::kOracleStats: {
        const topo::oracle::FactoredDelayStore& store = cluster.delay_oracle();
        const topo::oracle::OracleStats stats = store.stats();
        return OkLine()
            .field("session", session.name)
            .field("backend", store.name())
            .field("rows", store.slot_count())
            .field("epoch", store.epoch())
            .field("queries", stats.queries)
            .field("bound_hits", stats.bound_hits)
            .field("exact_fallbacks", stats.exact_fallbacks)
            .field("row_fills", stats.row_fills)
            .field("rebuilds", stats.rebuilds)
            .field("resident_bytes", store.resident_bytes())
            .str();
      }
      case Verb::kLinks: {
        const auto links = topo::backbone_links(cluster.network());
        std::string list;
        const std::size_t shown = std::min(request.limit, links.size());
        for (std::size_t i = 0; i < shown; ++i) {
          if (i > 0) list += ',';
          list += std::to_string(links[i].first);
          list += '-';
          list += std::to_string(links[i].second);
        }
        return OkLine()
            .field("count", links.size())
            .field("failed", cluster.network().failed_links.size())
            .field("links", list)
            .str();
      }
      default:
        return err_line(ErrorCode::kInternal, "unroutable verb");
    }
  } catch (const std::logic_error& error) {
    // DynamicCluster signals precondition violations (inactive device, bad
    // server, last healthy server) via logic_error/invalid_argument.
    return err_line(ErrorCode::kBadRequest, error.what());
  } catch (const std::exception& error) {
    return err_line(ErrorCode::kInternal, error.what());
  }
}

std::string Engine::stats_line(const Request& request) const {
  if (request.session.empty()) {
    // Global STATS: one coherent view per shard (each under its own lock),
    // summed after the locks drop. The accounting identity holds exactly
    // within every per-shard block and in the aggregate.
    const std::vector<ShardView> views = shard_views();
    EngineCounters total;
    std::size_t depth = 0;
    std::size_t sessions = 0;
    for (const ShardView& view : views) {
      total += view.counters;
      depth += view.in_flight;
      sessions += view.sessions;
    }
    OkLine line;
    line.field("sessions", sessions)
        .field("shards", shards_.size())
        .field("shard_quota", shard_quota())
        .field("queue_depth", depth)
        .field("max_queue", options_.max_queue);
    append_counters(line, total);
    if (request.per_shard) {
      // STATS shards=1: per-shard ledger blocks. Each block is a coherent
      // cut, so s<k>_accepted == s<k>_completed + s<k>_failed +
      // s<k>_rejected_deadline + s<k>_depth holds in every reply.
      for (std::size_t i = 0; i < views.size(); ++i) {
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "s%zu_", i);
        line.prefix(prefix)
            .field("depth", views[i].in_flight)
            .field("sessions", views[i].sessions);
        append_counters(line, views[i].counters);
      }
    }
    return line.prefix({}).str();
  }

  const std::size_t shard_index = shard_of(request.session);
  const Shard& shard = *shards_[shard_index];
  // Everything — counters, histogram, snapshot — reads under the one shard
  // lock, so the reply is a coherent cut of the session's ledger.
  const MutexLock lock(&shard.mutex);
  const auto it = shard.sessions.find(request.session);
  if (it == shard.sessions.end()) {
    return err_line(ErrorCode::kNotFound,
                    "unknown session '" + request.session + "'");
  }
  const Session& session = *it->second;
  session.shard_mutex->assert_held();
  const EngineCounters& c = session.counters;
  const metrics::Histogram& h = session.latency_us;
  const SessionSnapshot& s = session.snapshot;
  // Derived under the same lock, so it can never go negative.
  const std::uint64_t in_flight =
      c.accepted - c.completed - c.failed - c.rejected_deadline;
  OkLine line;
  line.field("session", session.name)
      .field("shard", shard_index)
      .field("configured", s.configured)
      .field("devices", s.devices)
      .field("servers", s.servers)
      .field("healthy_servers", s.healthy_servers)
      .field("avg_delay_ms", s.avg_delay_ms)
      .field("max_utilization", s.max_utilization)
      .field("feasible", s.feasible)
      .field("delay_epoch", s.delay_epoch)
      .field("link_updates", s.links.link_updates)
      .field("link_nodes_affected", s.links.nodes_affected)
      .field("link_nodes_saved", s.links.nodes_saved)
      .field("reopt_running", s.reopt_running)
      .prefix("reopt_");
  append_reopt(line, s.reopt).prefix({});
  append_counters(line, c);
  return line.field("in_flight", in_flight)
      .field("pending", session.pending.size())
      .field("batches", session.batches)
      .field("latency_count", h.total())
      .field("p50_us", h.quantile(0.50))
      .field("p99_us", h.quantile(0.99))
      .field("p999_us", h.quantile(0.999))
      .str();
}

}  // namespace tacc::service
