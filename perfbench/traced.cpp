// The traced run: per-layer figures. Three phases replay the same stream
// prefix:
//   A. socket   — taccd over its Unix socket, as in the end-to-end run, plus
//                 a PING round trip (transport and sequencer only);
//   B. engine   — service::Engine in-process: parse_request, Engine::submit
//                 and the responder, each inside a span;
//   C. cluster  — Scenario and DynamicCluster driven directly: configure,
//                 join/leave/move, link updates and the per-batch snapshot
//                 calls, each inside a span, checked against the model.
// Spans are recorded from this file around the calls into each layer, kept
// in memory and written to one Chrome trace-event file per workload.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/configurator.hpp"
#include "core/dynamic.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "topology/failures.hpp"
#include "topology/oracle/config.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using tacc::service::Engine;
using tacc::service::Request;

/// One closed span. `parent` names the span of the same `id` that caused
/// it (empty for roots).
struct Span {
  const char* name = "";
  const char* parent = "";
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int phase = 0;
};

/// In-memory span sink, bounded so a long run cannot exhaust memory; spans
/// past the bound are counted, not kept.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200'000;

  void add(const char* name, const char* parent, std::uint64_t id,
           std::int64_t start_ns, std::int64_t end_ns, int phase) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, parent, id, start_ns, end_ns, phase});
  }

  void write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) throw std::runtime_error("cannot write " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(file, "{\"displayTimeUnit\": \"ns\", \"droppedSpans\": %zu, "
                       "\"traceEvents\": [\n", dropped_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": \"%s\"}}",
                   i == 0 ? "" : ",\n", s.name, s.phase,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id), s.parent);
    }
    std::fprintf(file, "\n]}\n");
    std::fclose(file);
  }

  [[nodiscard]] std::size_t kept() const noexcept { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Accumulated durations of one kind of call.
struct Timing {
  double total_ns = 0.0;
  std::uint64_t calls = 0;

  void add(std::int64_t start_ns, std::int64_t end_ns) {
    total_ns += static_cast<double>(end_ns - start_ns);
    ++calls;
  }
  [[nodiscard]] double mean_us() const {
    return calls == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(calls);
  }
};

Request parse_or_throw(std::string_view line) {
  tacc::service::ParseResult parsed = tacc::service::parse_request(line);
  if (!parsed.ok()) {
    throw std::runtime_error("benchmark line does not parse: " +
                             std::string(line) + " (" + parsed.error + ")");
  }
  return *parsed.request;
}

// ---- Phase A: socket --------------------------------------------------------

struct SocketPhase {
  double ping_rtt_us = 0.0;
  double latency_p50_us = 0.0;
  std::size_t rounds = 0;
};

SocketPhase socket_phase(const RunConfig& config, RunResult& result) {
  SocketPhase phase;
  std::vector<SessionStream> streams = make_streams(*config.spec, config.seed);
  std::vector<std::unique_ptr<Model>> models = make_models(streams);
  LiveDaemon live = start_daemon(config, streams, result, 0);
  probe_initial(live, streams, models, result);

  LineBuffer pings;
  for (int i = 0; i < 2000; ++i) pings.add("PING");
  std::vector<Conn> ping(1);
  ping[0].fd = live.fds[0];
  ping[0].lines = &pings;
  replay(ping);
  std::vector<double> rtts;
  for (std::size_t i = 0; i < ping[0].received; ++i) {
    rtts.push_back(static_cast<double>(ping[0].recv_ns[i] - ping[0].send_ns[i]) /
                   1e3);
  }
  phase.ping_rtt_us = median(rtts);

  phase.rounds = rounds_for(*config.spec, config.seconds / 2.0);
  const ReplayStats stats =
      replay_rounds(*live.daemon, live.fds, streams, models, *config.spec,
                    phase.rounds, result);
  const FinalStats final = fetch_final(live, streams);
  stop_daemon(live, result);
  check_final(final, streams, models, result);
  phase.latency_p50_us = quantile(stats.round_p50_us, 0.25);
  result.attempted += stats.sent;
  return phase;
}

// ---- Phase B: engine-direct -------------------------------------------------

struct EnginePhase {
  Timing parse;
  Timing submit;
  std::vector<double> turnaround_us;
  double requests_per_batch = 0.0;
  double on_ns = 0.0;  ///< wall time of blocks with spans on
  double off_ns = 0.0;
  std::uint64_t on_requests = 0;
  std::uint64_t off_requests = 0;
};

/// Per-request record written by the submitting thread and the responder.
struct Record {
  std::int64_t parse_start = 0;
  std::int64_t parse_end = 0;
  std::int64_t submit_end = 0;
  std::int64_t respond_start = 0;
  std::int64_t respond_end = 0;
  bool traced = false;
  bool ok = false;
};

/// Synchronous request through the engine (STATS answers inline).
std::string engine_call(Engine& engine, std::string_view line) {
  std::atomic<bool> done{false};
  std::string response;
  engine.submit(parse_or_throw(line), [&](std::string reply) {
    response = std::move(reply);
    done.store(true, std::memory_order_release);
    done.notify_one();
  });
  done.wait(false, std::memory_order_acquire);
  return response;
}

/// Sums completed and batches over the sessions once nothing is in flight.
std::pair<double, double> engine_batches(
    Engine& engine, const std::vector<SessionStream>& streams) {
  double completed = 0.0;
  double batches = 0.0;
  for (const SessionStream& stream : streams) {
    std::map<std::string, std::string, std::less<>> fields;
    for (int attempt = 0; attempt < 10'000; ++attempt) {
      fields = parse_fields(engine_call(engine, "STATS " + stream.spec->name));
      if (fields.contains("in_flight") && fields.at("in_flight") == "0") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    completed += std::stod(fields.at("completed"));
    batches += std::stod(fields.at("batches"));
  }
  return {completed, batches};
}

EnginePhase engine_phase(const RunConfig& config, std::size_t rounds,
                         SpanLog& spans, RunResult& result) {
  const WorkloadSpec& spec = *config.spec;
  EnginePhase phase;
  std::vector<SessionStream> streams = make_streams(spec, config.seed);
  tacc::service::EngineOptions options;
  options.threads = spec.threads;
  options.shards = spec.shards;
  options.max_queue = 4096;
  options.default_timeout_ms = 600'000.0;
  Engine engine(options);

  const std::size_t sessions = streams.size();
  std::vector<std::atomic<std::uint64_t>> done(sessions);
  std::atomic<std::uint64_t> completions{0};
  std::atomic<std::uint64_t> failures{0};

  // Replays every line of each session's buffer with the workload's window.
  // `records` (optional) receives per-request timestamps; requests in odd
  // blocks of 1024 run with spans off.
  const auto run = [&](const std::vector<const LineBuffer*>& buffers,
                       std::vector<Record>* records) {
    std::vector<std::size_t> totals;
    for (const LineBuffer* buffer : buffers) totals.push_back(buffer->size());
    std::vector<std::uint64_t> base(sessions);
    std::vector<std::size_t> sent(sessions, 0);
    std::vector<std::size_t> offset(sessions, 0);
    std::size_t all = 0;
    for (std::size_t k = 0; k < sessions; ++k) {
      base[k] = done[k].load();
      offset[k] = all;
      all += totals[k];
    }
    if (records != nullptr) records->assign(all, Record{});
    std::uint64_t issued = 0;
    std::int64_t block_start = now_ns();
    bool block_on = true;
    const auto close_block = [&](std::int64_t at) {
      const double length = static_cast<double>(at - block_start);
      (block_on ? phase.on_ns : phase.off_ns) += length;
      block_start = at;
    };
    for (;;) {
      const std::uint64_t seen = completions.load(std::memory_order_acquire);
      bool progress = false;
      bool finished = true;
      for (std::size_t k = 0; k < sessions; ++k) {
        const std::uint64_t answered = done[k].load(std::memory_order_acquire) -
                                       base[k];
        if (answered < totals[k]) finished = false;
        while (sent[k] < totals[k] && sent[k] - answered < spec.window) {
          Record* record =
              records == nullptr ? nullptr : &(*records)[offset[k] + sent[k]];
          const bool traced = record != nullptr && (issued / 1024) % 2 == 0;
          if (record != nullptr && issued % 1024 == 0 && issued > 0) {
            close_block(now_ns());
            block_on = traced;
          }
          std::atomic<std::uint64_t>* counter = &done[k];
          const std::int64_t parse_start = traced ? now_ns() : 0;
          const Request request = parse_or_throw(buffers[k]->line(sent[k]));
          const std::int64_t parse_end = traced ? now_ns() : 0;
          engine.submit(request, [record, traced, counter, &completions,
                                  &failures](std::string line) {
            const std::int64_t respond_start = traced ? now_ns() : 0;
            const bool ok = line.starts_with("OK");
            if (!ok) failures.fetch_add(1);
            if (record != nullptr) {
              record->ok = ok;
              record->respond_start = respond_start;
              record->respond_end = traced ? now_ns() : 0;
            }
            counter->fetch_add(1, std::memory_order_release);
            completions.fetch_add(1, std::memory_order_release);
            completions.notify_one();
          });
          if (record != nullptr) {
            record->traced = traced;
            record->parse_start = parse_start;
            record->parse_end = parse_end;
            record->submit_end = traced ? now_ns() : 0;
            (traced ? phase.on_requests : phase.off_requests) += 1;
          }
          ++sent[k];
          ++issued;
          progress = true;
        }
      }
      if (finished) break;
      if (!progress) completions.wait(seen, std::memory_order_acquire);
    }
    if (records != nullptr) close_block(now_ns());
  };

  // Untimed: configure every session, then the initial-assignment probes.
  for (const SessionStream& stream : streams) {
    const std::string reply = engine_call(engine, stream.configure);
    if (!reply.starts_with("OK")) result.fail("engine CONFIGURE: " + reply);
  }
  {
    std::vector<const LineBuffer*> probes;
    for (const SessionStream& stream : streams) probes.push_back(&stream.probe);
    run(probes, nullptr);
  }
  const auto [completed_before, batches_before] = engine_batches(engine, streams);

  // The socket phase's rounds, each timed alone.
  std::uint64_t request_id = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<const LineBuffer*> buffers;
    for (SessionStream& stream : streams) {
      stream.next_round(spec.steps_per_round);
      buffers.push_back(&stream.round);
    }
    std::vector<Record> records;
    run(buffers, &records);
    for (const Record& record : records) {
      const std::uint64_t id = request_id++;
      result.attempted += 1;
      if (!record.ok) ++result.failed;
      if (!record.traced) continue;
      phase.parse.add(record.parse_start, record.parse_end);
      phase.submit.add(record.parse_end, record.submit_end);
      phase.turnaround_us.push_back(
          static_cast<double>(record.respond_start - record.parse_end) / 1e3);
      spans.add("request", "", id, record.parse_start, record.respond_end, 1);
      spans.add("parse", "request", id, record.parse_start, record.parse_end,
                1);
      spans.add("submit", "request", id, record.parse_end, record.submit_end,
                1);
      spans.add("respond", "request", id, record.respond_start,
                record.respond_end, 1);
    }
  }
  const auto [completed_after, batches_after] = engine_batches(engine, streams);
  phase.requests_per_batch = (completed_after - completed_before) /
                             std::max(1.0, batches_after - batches_before);
  if (failures.load() != 0) {
    result.fail("engine phase: " + std::to_string(failures.load()) +
                " requests answered ERR");
  }
  return phase;
}

// ---- Phase C: cluster-direct ------------------------------------------------

struct ClusterPhase {
  double scenario_s = 0.0;
  double solve_s = 0.0;
  Timing join;
  Timing leave;
  Timing move;
  Timing snapshot;
  Timing link;
  double nodes_affected = 0.0;
  double rows_refreshed = 0.0;
  double row_fills = 0.0;
  double exact_fallbacks = 0.0;
  double bound_hits = 0.0;
  double resident_bytes = 0.0;
  std::uint64_t requests = 0;
};

std::string placement_reply(const tacc::JoinResult& placed) {
  return "OK device=" + std::to_string(placed.device_index) +
         " server=" + std::to_string(placed.server) +
         " feasible=" + (placed.feasible ? "1" : "0") +
         " overload=" + (placed.overload_fallback ? "1" : "0");
}

std::string link_reply(const tacc::LinkUpdateReport& report, double avg) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "OK latency_ms=%.17g avg_delay_ms=%.17g",
                report.latency_ms, avg);
  return buffer;
}

/// Op kinds the stream issues fewer times than this are timed on a probe
/// of this many calls after the stream instead.
constexpr std::size_t kProbeOps = 64;

void cluster_session(SessionStream& stream, std::size_t rounds,
                     std::size_t steps_per_round, double requests_per_batch,
                     ClusterPhase& phase, SpanLog& spans,
                     std::uint64_t& request_id, RunResult& result) {
  const SessionSpec& session = *stream.spec;
  std::int64_t t0 = now_ns();
  const tacc::Scenario scenario = tacc::Scenario::smart_city(
      session.iot, session.edge, session.scenario_seed);
  std::int64_t t1 = now_ns();
  phase.scenario_s += static_cast<double>(t1 - t0) / 1e9;
  spans.add("configure.scenario", "", request_id, t0, t1, 2);

  // The same configuration the engine builds from the CONFIGURE line.
  const Request configure = parse_or_throw(stream.configure);
  tacc::AlgorithmOptions algorithm_options;
  algorithm_options.apply_seed(configure.seed);
  const tacc::ConfigureRequest request(
      configure.algorithm, algorithm_options,
      tacc::CostModel::kTopologyAware, 10.0,
      tacc::topo::oracle::parse_oracle_spec(configure.oracle));
  t0 = now_ns();
  tacc::DynamicCluster cluster(scenario, request);
  t1 = now_ns();
  phase.solve_s += static_cast<double>(t1 - t0) / 1e9;
  spans.add("configure.solve", "", request_id, t0, t1, 2);

  Model model(scenario, session.eps);
  for (std::size_t i = 0; i < scenario.workload().iot.size(); ++i) {
    model.set_initial_server(i, cluster.server_of(i));
  }
  model.finish_initial();

  const auto batch = static_cast<std::uint64_t>(
      std::max(1.0, std::round(requests_per_batch)));
  Timing join;
  Timing leave;
  Timing move;
  Timing link;
  double affected = 0.0;
  double refreshed = 0.0;
  std::uint64_t since_snapshot = 0;
  const auto snapshot = [&] {
    const std::int64_t start = now_ns();
    (void)cluster.avg_delay_ms();
    (void)cluster.max_utilization();
    (void)cluster.feasible();
    (void)cluster.healthy_server_count();
    const std::int64_t end = now_ns();
    phase.snapshot.add(start, end);
    spans.add("cluster.snapshot", "", request_id, start, end, 2);
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    stream.next_round(steps_per_round);
    for (std::size_t i = 0; i < stream.round.size(); ++i) {
      const std::string_view line = stream.round.line(i);
      const Request r = parse_or_throw(line);
      const std::uint64_t id = request_id++;
      std::string reply;
      const std::int64_t start = now_ns();
      const char* name = "";
      Timing* timing = nullptr;
      switch (r.verb) {
        case tacc::service::Verb::kJoin: {
          tacc::workload::IotDevice device;
          device.position = {r.x, r.y};
          device.request_rate_hz = r.rate_hz;
          device.demand = r.demand;
          const tacc::JoinResult placed = cluster.join(device);
          reply = placement_reply(placed);
          name = "cluster.join";
          timing = &join;
          break;
        }
        case tacc::service::Verb::kMove: {
          const tacc::JoinResult placed = cluster.move(r.index, {r.x, r.y});
          reply = placement_reply(placed);
          name = "cluster.move";
          timing = &move;
          break;
        }
        case tacc::service::Verb::kLeave:
          cluster.leave(r.index);
          reply = "OK device=" + std::to_string(r.index);
          name = "cluster.leave";
          timing = &leave;
          break;
        case tacc::service::Verb::kLinkFail:
        case tacc::service::Verb::kLinkRestore:
        case tacc::service::Verb::kLinkSet: {
          const auto u = static_cast<tacc::topo::NodeId>(r.link_u);
          const auto v = static_cast<tacc::topo::NodeId>(r.link_v);
          const tacc::LinkUpdateReport report =
              r.verb == tacc::service::Verb::kLinkFail
                  ? cluster.fail_link(u, v)
              : r.verb == tacc::service::Verb::kLinkRestore
                  ? cluster.restore_link(u, v)
                  : cluster.set_link_latency(u, v, r.latency_ms);
          const std::int64_t end = now_ns();
          affected += static_cast<double>(report.nodes_affected);
          refreshed += static_cast<double>(report.rows_refreshed);
          link.add(start, end);
          spans.add("delay.link_update", "", id, start, end, 2);
          // The mean is read outside the span, and only for the replies
          // the model checks it on.
          const bool checked =
              (model.link_events + 1) % Model::kLinkMeanEvery == 0;
          reply = link_reply(report, checked ? cluster.avg_delay_ms() : 0.0);
          break;
        }
        default:
          throw std::runtime_error("unexpected verb in stream: " +
                                   std::string(line));
      }
      if (timing != nullptr) {
        const std::int64_t end = now_ns();
        timing->add(start, end);
        spans.add(name, "", id, start, end, 2);
      }
      const std::string error = model.apply(line, reply);
      if (!error.empty()) result.fail("cluster phase: " + error);
      ++phase.requests;
      if (++since_snapshot == batch) {
        snapshot();
        since_snapshot = 0;
      }
    }
  }
  if (since_snapshot > 0) snapshot();

  // The in-process mean, unrounded, against the model.
  const double served = cluster.avg_delay_ms();
  const double mean = model.mean_delay_ms();
  const bool ok = session.eps == 0.0
                      ? std::fabs(served - mean) <= 1e-9 * std::fabs(mean)
                      : served >= mean * (1.0 - 1e-9) &&
                            served <= model.mean_delay_upper_ms() * (1.0 + 1e-9);
  if (!ok) {
    result.fail("cluster phase: avg_delay_ms " + std::to_string(served) +
                " vs model mean " + std::to_string(mean));
  }
  const tacc::topo::oracle::OracleStats& stats =
      cluster.delay_oracle().stats();
  phase.row_fills += static_cast<double>(stats.row_fills);
  phase.exact_fallbacks += static_cast<double>(stats.exact_fallbacks);
  phase.bound_hits += static_cast<double>(stats.bound_hits);
  phase.resident_bytes +=
      static_cast<double>(cluster.delay_oracle().resident_bytes());

  // Probe the op kinds the stream (nearly) lacks, after every check: joins
  // near existing devices, moves of the joiners, their leaves, and link
  // reweights that are undone right away.
  tacc::util::Rng rng(0x5eed + rounds);
  const auto& base = scenario.workload().iot;
  std::vector<std::size_t> joined;
  if (join.calls < kProbeOps || move.calls < kProbeOps ||
      leave.calls < kProbeOps) {
    Timing probe_join;
    Timing probe_move;
    Timing probe_leave;
    for (std::size_t i = 0; i < kProbeOps; ++i) {
      tacc::workload::IotDevice device = base[rng.index(base.size())];
      const std::int64_t start = now_ns();
      joined.push_back(cluster.join(device).device_index);
      probe_join.add(start, now_ns());
    }
    for (const std::size_t index : joined) {
      const tacc::topo::Point2D to = base[rng.index(base.size())].position;
      const std::int64_t start = now_ns();
      (void)cluster.move(index, to);
      probe_move.add(start, now_ns());
    }
    for (const std::size_t index : joined) {
      const std::int64_t start = now_ns();
      cluster.leave(index);
      probe_leave.add(start, now_ns());
    }
    if (join.calls < kProbeOps) join = probe_join;
    if (move.calls < kProbeOps) move = probe_move;
    if (leave.calls < kProbeOps) leave = probe_leave;
  }
  if (link.calls < kProbeOps) {
    const auto links = tacc::topo::backbone_links(cluster.network());
    Timing probe_link;
    affected = 0.0;
    refreshed = 0.0;
    for (std::size_t i = 0; i < kProbeOps / 2 && !links.empty(); ++i) {
      const auto [u, v] = links[rng.index(links.size())];
      const double latency =
          cluster.network().graph.edge_props(u, v)->latency_ms;
      for (const double to : {latency * 1.5, latency}) {
        const std::int64_t start = now_ns();
        const tacc::LinkUpdateReport report =
            cluster.set_link_latency(u, v, to);
        probe_link.add(start, now_ns());
        affected += static_cast<double>(report.nodes_affected);
        refreshed += static_cast<double>(report.rows_refreshed);
      }
    }
    link = probe_link;
  }
  phase.nodes_affected += affected;
  phase.rows_refreshed += refreshed;
  const auto merge = [](Timing& into, const Timing& from) {
    into.total_ns += from.total_ns;
    into.calls += from.calls;
  };
  merge(phase.join, join);
  merge(phase.leave, leave);
  merge(phase.move, move);
  merge(phase.link, link);
}

}  // namespace

void run_traced(const RunConfig& config, RunResult& result) {
  SpanLog spans;
  const SocketPhase socket = socket_phase(config, result);
  const EnginePhase engine = engine_phase(config, socket.rounds, spans, result);

  ClusterPhase cluster;
  std::vector<SessionStream> streams = make_streams(*config.spec, config.seed);
  std::uint64_t request_id = 1'000'000'000;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    cluster_session(streams[k], socket.rounds, config.spec->steps_per_round,
                    engine.requests_per_batch, cluster, spans, request_id,
                    result);
  }
  result.attempted += cluster.requests;

  const std::string path =
      config.out_dir + "/trace_" + config.spec->name + ".json";
  spans.write(path);
  const double rps_on =
      static_cast<double>(engine.on_requests) / (engine.on_ns / 1e9);
  const double rps_off =
      static_cast<double>(engine.off_requests) / (engine.off_ns / 1e9);
  std::printf("# spans: %zu kept in %s\n", spans.kept(), path.c_str());
  std::printf("# tracing overhead: engine replay %.0f req/s with spans on, "
              "%.0f req/s off (%+.1f%%)\n",
              rps_on, rps_off, (rps_off / rps_on - 1.0) * 100.0);

  const double turnaround_p50 = quantile(engine.turnaround_us, 0.5);
  const double requests = static_cast<double>(std::max<std::uint64_t>(
      1, cluster.requests));
  const double link_calls =
      static_cast<double>(std::max<std::uint64_t>(1, cluster.link.calls));
  const double certified_base = cluster.bound_hits + cluster.exact_fallbacks;

  result.metric("server.ping_rtt_us", socket.ping_rtt_us, "us");
  result.metric("server.overhead_us", socket.latency_p50_us - turnaround_p50,
                "us");
  result.metric("protocol.parse_ns", engine.parse.mean_us() * 1e3, "ns");
  result.metric("engine.submit_us", engine.submit.mean_us(), "us");
  result.metric("engine.turnaround_us", turnaround_p50, "us");
  result.metric("engine.requests_per_batch", engine.requests_per_batch,
                "count");
  result.metric("configure.scenario_s", cluster.scenario_s, "s");
  result.metric("configure.solve_s", cluster.solve_s, "s");
  result.metric("cluster.join_us", cluster.join.mean_us(), "us");
  result.metric("cluster.leave_us", cluster.leave.mean_us(), "us");
  result.metric("cluster.move_us", cluster.move.mean_us(), "us");
  result.metric("cluster.snapshot_us", cluster.snapshot.mean_us(), "us");
  result.metric("delay.link_update_us", cluster.link.mean_us(), "us");
  result.metric("delay.nodes_affected_per_update",
                cluster.nodes_affected / link_calls, "count");
  result.metric("delay.rows_refreshed_per_update",
                cluster.rows_refreshed / link_calls, "count");
  result.metric("oracle.row_fills_per_req", cluster.row_fills / requests,
                "count");
  result.metric("oracle.exact_fallbacks_per_req",
                cluster.exact_fallbacks / requests, "count");
  result.metric("oracle.certified_ratio",
                certified_base == 0.0 ? 0.0
                                      : cluster.bound_hits / certified_base,
                "ratio");
  result.metric("oracle.resident_mb", cluster.resident_bytes / 1048576.0,
                "MB");
  result.metric("trace.spans_on_rps", rps_on, "req/s");
  result.metric("trace.spans_off_rps", rps_off, "req/s");
}

}  // namespace perfbench
