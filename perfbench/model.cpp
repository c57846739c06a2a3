// Independent reference model of one taccd session. It shares no code with
// the delay path under test: its own Dijkstra over the backbone read from
// the scenario, its own nearest-router attachment, its own load ledger.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <queue>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// The daemon's capacity test is load + demand <= capacity + 1e-9.
constexpr double kCapacityEps = 1e-9;
/// Relative tolerance on exact delays and costs.
constexpr double kExactRel = 1e-9;
/// Quantized cold rows decode to at most value + max(row) / 65534.
constexpr double kQuantSteps = 65534.0;

std::vector<std::string_view> split(std::string_view text) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t next = text.find(' ', pos);
    const std::size_t end = next == std::string_view::npos ? text.size() : next;
    if (end > pos) tokens.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return tokens;
}

double to_double(std::string_view text) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0') {
    throw std::invalid_argument("not a number: '" + copy + "'");
  }
  return value;
}

std::size_t to_index(std::string_view text) {
  const double value = to_double(text);
  if (value < 0.0 || value != std::floor(value)) {
    throw std::invalid_argument("not an index: '" + std::string(text) + "'");
  }
  return static_cast<std::size_t>(value);
}

/// Value of `key=` among request option tokens, or `fallback`.
double option(const std::vector<std::string_view>& tokens, std::string_view key,
              double fallback) {
  for (const std::string_view token : tokens) {
    if (token.size() > key.size() && token.starts_with(key) &&
        token[key.size()] == '=') {
      return to_double(token.substr(key.size() + 1));
    }
  }
  return fallback;
}

}  // namespace

std::map<std::string, std::string, std::less<>> parse_fields(
    std::string_view response) {
  std::map<std::string, std::string, std::less<>> fields;
  for (const std::string_view token : split(response)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) continue;
    fields.emplace(std::string(token.substr(0, eq)),
                   std::string(token.substr(eq + 1)));
  }
  return fields;
}

double print_tolerance(double value) {
  const double magnitude = std::fabs(value);
  if (magnitude == 0.0 || !std::isfinite(magnitude)) return 0.0;
  return 0.5 * std::pow(10.0, std::floor(std::log10(magnitude)) - 5.0) *
         (1.0 + 1e-6);
}

bool matches_printed(double reported, double expected, double rel) {
  if (std::isinf(expected) || std::isinf(reported)) return reported == expected;
  if (std::isnan(expected) || std::isnan(reported)) return false;
  const double magnitude = std::max(std::fabs(expected), std::fabs(reported));
  return std::fabs(reported - expected) <=
         print_tolerance(magnitude) + rel * magnitude;
}

struct Model::State {
  struct Edge {
    std::size_t a = 0;  ///< router index
    std::size_t b = 0;
    double latency_ms = 0.0;
    bool live = true;
  };
  struct Device {
    bool active = false;
    double x = 0.0;
    double y = 0.0;
    double demand = 1.0;
    double rate_hz = 5.0;
    std::size_t router = 0;  ///< router index of the access link
    double access_ms = 0.0;
    std::size_t server = 0;
  };

  double eps = 0.0;
  tacc::topo::LinkDelayModel delay_model;
  std::vector<double> router_x;
  std::vector<double> router_y;
  std::vector<long> router_index;  ///< graph node id -> router index or -1
  std::vector<Edge> edges;
  /// Per server: (router index, wired link latency).
  std::vector<std::vector<std::pair<std::size_t, double>>> server_links;
  std::vector<double> capacity;
  std::vector<double> load;

  bool dirty = true;
  std::vector<std::vector<double>> dist;  ///< [server][router]
  std::vector<std::vector<std::pair<std::size_t, double>>> adjacency;

  std::vector<Device> devices;
  std::vector<std::size_t> free_slots;  ///< LIFO, like the cluster's
  std::size_t active = 0;
  std::vector<long> initial_server;

  void attach(Device& device) const {
    double best = kInf;
    for (std::size_t r = 0; r < router_x.size(); ++r) {
      const double dx = router_x[r] - device.x;
      const double dy = router_y[r] - device.y;
      const double d = std::sqrt(dx * dx + dy * dy);
      if (d < best) {
        best = d;
        device.router = r;
      }
    }
    device.access_ms = delay_model.access_link(best).latency_ms;
  }

  void solve() {
    if (!dirty) return;
    const std::size_t routers = router_x.size();
    adjacency.assign(routers, {});
    for (const Edge& edge : edges) {
      if (!edge.live) continue;
      adjacency[edge.a].push_back({edge.b, edge.latency_ms});
      adjacency[edge.b].push_back({edge.a, edge.latency_ms});
    }
    using Item = std::pair<double, std::size_t>;
    dist.assign(server_links.size(), std::vector<double>(routers, kInf));
    for (std::size_t s = 0; s < server_links.size(); ++s) {
      std::vector<double>& d = dist[s];
      std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
      for (const auto& [router, latency] : server_links[s]) {
        if (latency < d[router]) {
          d[router] = latency;
          heap.push({latency, router});
        }
      }
      while (!heap.empty()) {
        const auto [du, u] = heap.top();
        heap.pop();
        if (du > d[u]) continue;
        for (const auto& [v, w] : adjacency[u]) {
          const double candidate = du + w;
          if (candidate < d[v]) {
            d[v] = candidate;
            heap.push({candidate, v});
          }
        }
      }
    }
    dirty = false;
  }

  double delay(const Device& device, std::size_t server) const {
    return dist[server][device.router] + device.access_ms;
  }

  /// Served-value slack of a certified row: the envelope's absolute slack
  /// plus one quantization step of the row.
  double row_slack(const Device& device) const {
    double row_max = 0.0;
    for (std::size_t s = 0; s < capacity.size(); ++s) {
      const double d = delay(device, s);
      if (std::isfinite(d)) row_max = std::max(row_max, d);
    }
    return 1e-9 + ((1.0 + eps) * row_max + 1e-9) / kQuantSteps;
  }

  Edge* find_edge(std::size_t u, std::size_t v, bool live) {
    if (u >= router_index.size() || v >= router_index.size() ||
        router_index[u] < 0 || router_index[v] < 0) {
      return nullptr;
    }
    const auto a = static_cast<std::size_t>(router_index[u]);
    const auto b = static_cast<std::size_t>(router_index[v]);
    for (Edge& edge : edges) {
      if (edge.live == live &&
          ((edge.a == a && edge.b == b) || (edge.a == b && edge.b == a))) {
        return &edge;
      }
    }
    return nullptr;
  }

  std::string place(std::size_t slot,
                    const std::map<std::string, std::string, std::less<>>&
                        fields,
                    std::uint64_t& overloads) {
    Device& device = devices[slot];
    const std::size_t chosen = to_index(fields.at("server"));
    const bool feasible = fields.at("feasible") == "1";
    const bool overload = fields.at("overload") == "1";
    if (chosen >= capacity.size()) return "server index out of range";
    if (feasible == overload) return "placement must be feasible xor overload";
    solve();

    // Loads replay the daemon's own arithmetic in the same order, so they
    // agree bit for bit; the band only guards the boundary itself.
    const auto room = [&](std::size_t s) {
      const double slack = kCapacityEps + 1e-9 * capacity[s];
      return load[s] + device.demand <= capacity[s] + kCapacityEps - slack;
    };
    const auto full = [&](std::size_t s) {
      const double slack = kCapacityEps + 1e-9 * capacity[s];
      return load[s] + device.demand > capacity[s] + kCapacityEps + slack;
    };
    if (feasible) {
      if (full(chosen)) {
        return "feasible=1 pushes server " + std::to_string(chosen) +
               " over capacity";
      }
      double best = kInf;
      for (std::size_t s = 0; s < capacity.size(); ++s) {
        if (room(s)) best = std::min(best, delay(device, s));
      }
      const double picked = delay(device, chosen);
      const double allowed =
          eps > 0.0 ? (1.0 + eps) * best + row_slack(device)
                    : best * (1.0 + kExactRel) + 1e-12;
      if (std::isfinite(best) && !(picked <= allowed)) {
        return "server " + std::to_string(chosen) + " costs " +
               std::to_string(picked) + " ms, a feasible server costs " +
               std::to_string(best) + " ms";
      }
    } else {
      ++overloads;
      for (std::size_t s = 0; s < capacity.size(); ++s) {
        if (room(s)) {
          return "overload=1 while server " + std::to_string(s) +
                 " had room";
        }
      }
    }
    device.server = chosen;
    load[chosen] += device.demand;
    return {};
  }
};

Model::Model(const tacc::Scenario& scenario, double eps)
    : state_(std::make_unique<State>()) {
  State& m = *state_;
  m.eps = eps;
  m.delay_model = scenario.params().delay_model;
  const tacc::topo::NetworkTopology& net = scenario.network();
  m.router_index.assign(net.graph.node_count(), -1);
  for (tacc::topo::NodeId node = 0; node < net.graph.node_count(); ++node) {
    if (net.kinds[node] != tacc::topo::NodeKind::kRouter) continue;
    m.router_index[node] = static_cast<long>(m.router_x.size());
    m.router_x.push_back(net.positions[node].x);
    m.router_y.push_back(net.positions[node].y);
  }
  for (tacc::topo::NodeId node = 0; node < net.graph.node_count(); ++node) {
    if (m.router_index[node] < 0) continue;
    for (const tacc::topo::Adjacency& adj : net.graph.neighbors(node)) {
      if (adj.to <= node || m.router_index[adj.to] < 0) continue;
      m.edges.push_back({static_cast<std::size_t>(m.router_index[node]),
                         static_cast<std::size_t>(m.router_index[adj.to]),
                         adj.props.latency_ms, true});
    }
  }
  for (const tacc::topo::NodeId node : net.edge_nodes) {
    std::vector<std::pair<std::size_t, double>> links;
    for (const tacc::topo::Adjacency& adj : net.graph.neighbors(node)) {
      if (m.router_index[adj.to] < 0) continue;
      links.push_back(
          {static_cast<std::size_t>(m.router_index[adj.to]),
           adj.props.latency_ms});
    }
    m.server_links.push_back(std::move(links));
  }
  for (const auto& server : scenario.workload().edges) {
    m.capacity.push_back(server.capacity);
  }
  m.load.assign(m.capacity.size(), 0.0);
  for (const auto& iot : scenario.workload().iot) {
    State::Device device;
    device.active = true;
    device.x = iot.position.x;
    device.y = iot.position.y;
    device.demand = iot.demand;
    device.rate_hz = iot.request_rate_hz;
    m.attach(device);
    m.devices.push_back(device);
  }
  m.active = m.devices.size();
  m.initial_server.assign(m.devices.size(), -1);
}

Model::~Model() = default;

void Model::set_initial_server(std::size_t device, std::size_t server) {
  state_->initial_server.at(device) = static_cast<long>(server);
}

void Model::finish_initial() {
  State& m = *state_;
  for (std::size_t i = 0; i < m.devices.size(); ++i) {
    if (m.initial_server[i] < 0 ||
        static_cast<std::size_t>(m.initial_server[i]) >= m.capacity.size()) {
      throw std::runtime_error("no initial server for device " +
                               std::to_string(i));
    }
    m.devices[i].server = static_cast<std::size_t>(m.initial_server[i]);
    // Same order as the cluster's constructor: device index order.
    m.load[m.devices[i].server] += m.devices[i].demand;
  }
}

std::string Model::apply(std::string_view request, std::string_view response) {
  State& m = *state_;
  if (!response.starts_with("OK")) {
    return "request '" + std::string(request) + "' answered '" +
           std::string(response) + "'";
  }
  try {
    const std::vector<std::string_view> tokens = split(request);
    const std::string_view verb = tokens.at(0);
    const auto fields = parse_fields(response);
    if (verb == "JOIN") {
      std::size_t slot = m.devices.size();
      if (!m.free_slots.empty()) slot = m.free_slots.back();
      if (to_index(fields.at("device")) != slot) {
        return "JOIN got device " + fields.at("device") + ", expected slot " +
               std::to_string(slot);
      }
      if (!m.free_slots.empty()) {
        m.free_slots.pop_back();
      } else {
        m.devices.emplace_back();
      }
      State::Device& device = m.devices[slot];
      device.active = true;
      device.x = to_double(tokens.at(2));
      device.y = to_double(tokens.at(3));
      device.demand = option(tokens, "demand", 1.0);
      device.rate_hz = option(tokens, "rate", 5.0);
      m.attach(device);
      ++m.active;
      ++placements_checked;
      return m.place(slot, fields, overloads_seen);
    }
    if (verb == "MOVE") {
      const std::size_t slot = to_index(tokens.at(2));
      if (slot >= m.devices.size() || !m.devices[slot].active) {
        return "MOVE of inactive device " + std::to_string(slot);
      }
      if (to_index(fields.at("device")) != slot) return "MOVE device mismatch";
      State::Device& device = m.devices[slot];
      m.load[device.server] -= device.demand;
      device.x = to_double(tokens.at(3));
      device.y = to_double(tokens.at(4));
      m.attach(device);
      ++placements_checked;
      return m.place(slot, fields, overloads_seen);
    }
    if (verb == "LEAVE") {
      const std::size_t slot = to_index(tokens.at(2));
      if (slot >= m.devices.size() || !m.devices[slot].active) {
        return "LEAVE of inactive device " + std::to_string(slot);
      }
      State::Device& device = m.devices[slot];
      m.load[device.server] -= device.demand;
      device.active = false;
      m.free_slots.push_back(slot);
      --m.active;
      return {};
    }
    if (verb == "LINK_FAIL" || verb == "LINK_RESTORE" || verb == "LINK_SET") {
      const std::size_t u = to_index(tokens.at(2));
      const std::size_t v = to_index(tokens.at(3));
      State::Edge* edge = m.find_edge(u, v, verb != "LINK_RESTORE");
      if (edge == nullptr) return "no such link for '" + std::string(request) + "'";
      if (!matches_printed(to_double(fields.at("latency_ms")),
                           edge->latency_ms, kExactRel)) {
        return "link latency_ms=" + fields.at("latency_ms") + ", model has " +
               std::to_string(edge->latency_ms);
      }
      if (verb == "LINK_FAIL") edge->live = false;
      if (verb == "LINK_RESTORE") edge->live = true;
      if (verb == "LINK_SET") edge->latency_ms = to_double(tokens.at(4));
      m.dirty = true;
      if (++link_events % kLinkMeanEvery == 0 && m.eps == 0.0) {
        const double reported = to_double(fields.at("avg_delay_ms"));
        const double expected = mean_delay_ms();
        if (!matches_printed(reported, expected, kExactRel)) {
          return "after '" + std::string(request) + "' avg_delay_ms=" +
                 fields.at("avg_delay_ms") + ", model mean " +
                 std::to_string(expected);
        }
      }
      return {};
    }
    return "unexpected verb in replay: '" + std::string(verb) + "'";
  } catch (const std::exception& error) {
    return "cannot check '" + std::string(request) + "' -> '" +
           std::string(response) + "': " + error.what();
  }
}

double Model::mean_delay_ms() const {
  State& m = *state_;
  m.solve();
  if (m.active == 0) return 0.0;
  double sum = 0.0;
  for (const State::Device& device : m.devices) {
    if (device.active) sum += m.delay(device, device.server);
  }
  return sum / static_cast<double>(m.active);
}

double Model::mean_delay_upper_ms() const {
  State& m = *state_;
  m.solve();
  if (m.active == 0) return 0.0;
  double sum = 0.0;
  for (const State::Device& device : m.devices) {
    if (!device.active) continue;
    sum += (1.0 + m.eps) * m.delay(device, device.server) + m.row_slack(device);
  }
  return sum / static_cast<double>(m.active);
}

double Model::max_utilization() const {
  const State& m = *state_;
  double peak = 0.0;
  for (std::size_t s = 0; s < m.capacity.size(); ++s) {
    peak = std::max(peak, m.load[s] / m.capacity[s]);
  }
  return peak;
}

bool Model::feasible() const {
  const State& m = *state_;
  for (std::size_t s = 0; s < m.capacity.size(); ++s) {
    if (m.load[s] > m.capacity[s] + kCapacityEps) return false;
  }
  return true;
}

std::size_t Model::active() const noexcept { return state_->active; }
double Model::eps() const noexcept { return state_->eps; }

}  // namespace perfbench
