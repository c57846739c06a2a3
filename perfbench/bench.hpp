// Shared declarations of the taccd benchmark: workload table, generated
// wire streams, the independent reference model, the socket client and the
// in-process traced replay. See README.md for what is measured and why.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Workloads ------------------------------------------------------------

/// One taccd session of a workload: the deployment it is configured with
/// and the provider stream replayed into it.
struct SessionSpec {
  std::string name;            ///< wire session name (also picks the shard)
  std::size_t iot = 0;         ///< CONFIGURE device count
  std::size_t edge = 0;        ///< CONFIGURE server count
  std::uint64_t scenario_seed = 0;  ///< fixed deployment (not --seed)
  std::string provider;        ///< WorkloadProvider spec
  double step_s = 1.0;         ///< provider step (simulated seconds)
  std::string oracle;          ///< CONFIGURE oracle= spec; empty: exact
  double eps = 0.0;            ///< certified relative error of the oracle
};

struct WorkloadSpec {
  std::string name;
  std::vector<SessionSpec> sessions;  ///< one connection each
  std::size_t shards = 1;             ///< taccd --shards
  std::size_t threads = 1;            ///< taccd --threads
  std::size_t window = 64;            ///< in-flight requests per connection
  /// Provider steps per round; every round covers the same simulated time,
  /// so a run ends at the same point of every provider's cycle.
  std::size_t steps_per_round = 1;
  /// Wall time one round takes on the reference host; a run replays
  /// seconds / round_s rounds.
  double round_s = 0.5;
};

/// Rounds a run of `seconds` replays (at least 3, so a median exists).
[[nodiscard]] std::size_t rounds_for(const WorkloadSpec& spec, double seconds);

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

// ---- Streams --------------------------------------------------------------

/// Wire lines stored back to back, each ending in '\n', so a run of
/// consecutive lines goes out in one send().
class LineBuffer {
 public:
  void add(std::string_view line);
  [[nodiscard]] std::size_t size() const noexcept { return starts_.size(); }
  /// Line `i` without its newline.
  [[nodiscard]] std::string_view line(std::size_t i) const;
  /// Lines [first, last) including their newlines.
  [[nodiscard]] std::string_view lines(std::size_t first,
                                       std::size_t last) const;
  /// Drops the first `count` lines.
  void drop_front(std::size_t count);
  void clear();

 private:
  std::string text_;
  std::vector<std::size_t> starts_;
};

/// Everything one session replays. The provider stream is a pure function
/// of the workload seed; it is rendered one round at a time between timed
/// rounds, so generation never runs while a round is timed and memory stays
/// bounded by one round.
struct SessionStream {
  SessionStream();
  ~SessionStream();
  SessionStream(SessionStream&&) noexcept;
  SessionStream& operator=(SessionStream&&) noexcept;

  const SessionSpec* spec = nullptr;
  /// The deployment taccd builds from the CONFIGURE line; the model reads
  /// the backbone and the initial devices from it.
  std::unique_ptr<tacc::Scenario> scenario;
  std::string configure;  ///< CONFIGURE line
  /// One pinned MOVE per initial device to its own position: leaves the
  /// assignment and the delays unchanged and reports the device's server,
  /// so the model learns the initial solve's assignment.
  LineBuffer probe;
  /// The current round's stream lines.
  LineBuffer round;

  /// Replaces `round` with the wire lines of the next `steps` provider
  /// steps.
  void next_round(std::size_t steps);

 private:
  struct Source;
  std::unique_ptr<Source> source_;
  friend std::vector<SessionStream> make_streams(const WorkloadSpec&,
                                                 std::uint64_t);
};

[[nodiscard]] std::vector<SessionStream> make_streams(const WorkloadSpec& spec,
                                                      std::uint64_t seed);

// ---- Independent reference model ------------------------------------------

/// Parses "OK key=value ..." into a map (the leading "OK" is dropped).
[[nodiscard]] std::map<std::string, std::string, std::less<>> parse_fields(
    std::string_view response);

/// Tracks one session from the wire: device positions and demands from the
/// requests, servers and indices from the responses, link state from the
/// requests. Delays come from its own Dijkstra over the scenario's backbone
/// plus the LinkDelayModel access link to the nearest router; nothing here
/// calls the topology, incremental-engine or oracle code under test.
class Model {
 public:
  Model(const tacc::Scenario& scenario, double eps);
  ~Model();
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Records base device `device`'s server from its probe response; call
  /// finish_initial() once every base device has one.
  void set_initial_server(std::size_t device, std::size_t server);
  void finish_initial();

  /// Applies one replayed request and checks its response. Returns an
  /// empty string, or what was wrong.
  [[nodiscard]] std::string apply(std::string_view request,
                                  std::string_view response);

  /// Mean exact delay over active devices (ms).
  [[nodiscard]] double mean_delay_ms() const;
  /// Largest served mean a certified oracle may report for this state.
  [[nodiscard]] double mean_delay_upper_ms() const;
  [[nodiscard]] double max_utilization() const;
  [[nodiscard]] bool feasible() const;
  [[nodiscard]] std::size_t active() const noexcept;
  [[nodiscard]] double eps() const noexcept;

  /// Every this many link events, apply() also checks the reply's
  /// avg_delay_ms against a full recomputation (exact oracle only).
  static constexpr std::uint64_t kLinkMeanEvery = 64;

  std::uint64_t placements_checked = 0;
  std::uint64_t overloads_seen = 0;
  std::uint64_t link_events = 0;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// True if `reported` (printed with %.6g) matches `expected` within the
/// printing precision plus `rel` relative error.
[[nodiscard]] bool matches_printed(double reported, double expected,
                                   double rel);
/// Half a unit in the sixth significant digit of `value` (%.6g rounding).
[[nodiscard]] double print_tolerance(double value);

// ---- Daemon and socket client ---------------------------------------------


/// A taccd child process. The destructor kills and reaps it if it is still
/// running.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::int64_t exec_ns() const noexcept { return exec_ns_; }
  /// Peak resident set so far (VmHWM), in MB.
  [[nodiscard]] double vm_hwm_mb() const;
  /// CPU time of all the daemon's threads so far, in ns
  /// (/proc/<pid>/task/*/schedstat).
  [[nodiscard]] double cpu_ns() const;
  /// Waits for the process to exit (after SHUTDOWN); kills it after
  /// `timeout_s`. Returns true on a clean exit 0.
  bool wait(double timeout_s);

 private:
  pid_t pid_ = -1;
  std::int64_t exec_ns_ = 0;
};

/// Connects to a Unix socket, retrying until `timeout_s` passes.
[[nodiscard]] int connect_unix(const std::string& path, double timeout_s);

/// One connection's replay: every line of `lines`, closed loop with a fixed
/// in-flight window.
struct Conn {
  int fd = -1;
  const LineBuffer* lines = nullptr;
  std::size_t window = 1;

  // Results.
  std::size_t sent = 0;
  std::size_t received = 0;
  std::vector<std::int64_t> send_ns;
  std::vector<std::int64_t> recv_ns;
  LineBuffer responses;
  std::string pending;  ///< partial response line
};

/// Replays every connection until each has sent its lines and received
/// every response. Returns the wall time of the last response.
std::int64_t replay(std::vector<Conn>& conns);

/// Sends one line and waits for its response on a fresh closed loop.
[[nodiscard]] std::string request(int fd, std::string_view line);

// ---- Measurement helpers --------------------------------------------------

[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Result of one benchmark run, printed as the last stdout line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;  ///< model-check failures (first few)

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& what);
};

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string taccd;    ///< daemon binary
  std::string out_dir;  ///< socket, daemon logs, span files
};

/// The end-to-end run: taccd over its socket, tracing off.
void run_socket(const RunConfig& config, RunResult& result);
/// The traced run: per-layer figures from an in-process replay.
void run_traced(const RunConfig& config, RunResult& result);

/// Shared by both runs: starts taccd, configures every session and returns
/// the connected sockets plus setup time.
struct LiveDaemon {
  std::unique_ptr<Daemon> daemon;
  std::vector<int> fds;
  double setup_s = 0.0;
};
[[nodiscard]] LiveDaemon start_daemon(const RunConfig& config,
                                      const std::vector<SessionStream>& streams,
                                      RunResult& result, int attempt);
/// SHUTDOWN, close the sockets and reap the daemon.
void stop_daemon(LiveDaemon& live, RunResult& result);
/// Replays the probes and feeds each session's initial assignment to its
/// model.
void probe_initial(LiveDaemon& live, const std::vector<SessionStream>& streams,
                   std::vector<std::unique_ptr<Model>>& models,
                   RunResult& result);
/// Feeds the replayed requests and their responses through the models.
void check_replay(const std::vector<Conn>& conns,
                  const std::vector<SessionStream>& streams,
                  std::vector<std::unique_ptr<Model>>& models,
                  RunResult& result);
/// The daemon's final per-session and global STATS lines, fetched before
/// shutdown and checked once the models have replayed the stream.
struct FinalStats {
  std::vector<std::string> sessions;
  std::string global;
  std::size_t ledger_polls = 0;  ///< STATS retries until in-flight hit 0
};
[[nodiscard]] FinalStats fetch_final(LiveDaemon& live,
                                     const std::vector<SessionStream>& streams);
/// Final per-session STATS against the model, and the global ledger.
void check_final(const FinalStats& final,
                 const std::vector<SessionStream>& streams,
                 const std::vector<std::unique_ptr<Model>>& models,
                 RunResult& result);

/// Per-round figures of a replay. The end-to-end timing metrics are the
/// better quartile over rounds (the 75th percentile of throughput, the
/// 25th of latency and CPU per request): on a shared host other tenants
/// only ever slow a round down, in bursts of a few seconds, so the better
/// rounds are the ones closest to the program's own speed.
struct ReplayStats {
  std::vector<double> round_rps;
  std::vector<double> round_p50_us;
  std::vector<double> round_p99_us;
  std::vector<double> round_ok;
  std::vector<double> round_cpu_ns;  ///< daemon CPU time in the round
  /// Host CPU time stolen by other tenants per second of the round
  /// (/proc/stat steal, in ticks); printed, not used.
  std::vector<double> round_steal;
  std::uint64_t sent = 0;
  double timed_s = 0.0;
};
/// Replays `rounds` rounds of the sessions' streams. Each round is timed
/// alone; between rounds the clock is stopped, the round is checked against
/// the models and the next round rendered.
[[nodiscard]] ReplayStats replay_rounds(
    const Daemon& daemon, const std::vector<int>& fds,
    std::vector<SessionStream>& streams,
    std::vector<std::unique_ptr<Model>>& models, const WorkloadSpec& spec,
    std::size_t rounds, RunResult& result);
[[nodiscard]] std::vector<std::unique_ptr<Model>> make_models(
    const std::vector<SessionStream>& streams);
/// Mean model delay over every active device of every session.
[[nodiscard]] double mean_over_devices(
    const std::vector<std::unique_ptr<Model>>& models);

}  // namespace perfbench
