// The four workloads and their seed-deterministic wire streams.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "workload/provider.hpp"
#include "workload/wire.hpp"

namespace perfbench {

namespace {

std::vector<WorkloadSpec> make_table() {
  std::vector<WorkloadSpec> table;

  // Four small edge sites, one per connection and provider; session names
  // are chosen so FNV-1a routing puts two sessions on each of the 2 shards.
  WorkloadSpec sites;
  sites.name = "edge_sites_socket";
  const char* names[] = {"steady", "diurnal", "flash", "hotspot"};
  const char* providers[] = {"steady", "diurnal", "flash_crowd",
                             "hotspot_adversary"};
  for (std::size_t k = 0; k < 4; ++k) {
    SessionSpec session;
    session.name = names[k];
    session.iot = 500;
    session.edge = 16;
    session.scenario_seed = 101 + k;
    session.provider = providers[k];
    sites.sessions.push_back(session);
  }
  sites.shards = 2;
  sites.threads = 2;
  sites.window = 8;
  sites.steps_per_round = 1000;
  sites.round_s = 0.22;
  table.push_back(sites);

  WorkloadSpec city;
  city.name = "city20k_moves";
  SessionSpec city_session;
  city_session.name = "city";
  city_session.iot = 20'000;
  city_session.edge = 32;
  city_session.scenario_seed = 7;
  city_session.provider = "mobility_trace";
  city.sessions.push_back(city_session);
  city.window = 64;
  city.steps_per_round = 1;
  city.round_s = 0.3;
  table.push_back(city);

  // Frequent small regional outages (every 2 simulated seconds, restored
  // 1 s later) keep tree repair busy; reweights are rare so latencies do
  // not drift far from the deployment's over a run. An even number of 1 s
  // steps per round ends every round with all links restored.
  WorkloadSpec churn;
  churn.name = "backbone_churn";
  SessionSpec churn_session;
  churn_session.name = "churn";
  churn_session.iot = 2'000;
  churn_session.edge = 32;
  churn_session.scenario_seed = 7;
  churn_session.provider =
      "regional_link_failure,outage_every_s=2,outage_s=1,radius_km=1,"
      "reweight_rate=0.05";
  churn.sessions.push_back(churn_session);
  churn.window = 64;
  churn.steps_per_round = 250;
  churn.round_s = 0.25;
  table.push_back(churn);

  WorkloadSpec landmark;
  landmark.name = "landmark_city";
  SessionSpec landmark_session;
  landmark_session.name = "lmk";
  landmark_session.iot = 5'000;
  landmark_session.edge = 32;
  landmark_session.scenario_seed = 7;
  // 1,500 of the 5,000 devices move, so a round (one step) stays short.
  landmark_session.provider = "mobility_trace,mobile_fraction=0.3";
  landmark_session.oracle = "landmark,k=8,eps=0.1,compress=1";
  landmark_session.eps = 0.1;
  landmark.sessions.push_back(landmark_session);
  landmark.window = 64;
  landmark.steps_per_round = 1;
  landmark.round_s = 0.7;
  table.push_back(landmark);
  return table;
}

const std::vector<WorkloadSpec>& table() {
  static const std::vector<WorkloadSpec> workloads = make_table();
  return workloads;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : table()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::size_t rounds_for(const WorkloadSpec& spec, double seconds) {
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(std::lround(seconds / spec.round_s)));
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : table()) names.push_back(spec.name);
  return names;
}

void LineBuffer::add(std::string_view line) {
  starts_.push_back(text_.size());
  text_.append(line);
  text_.push_back('\n');
}

std::string_view LineBuffer::line(std::size_t i) const {
  const std::size_t begin = starts_.at(i);
  const std::size_t end =
      i + 1 < starts_.size() ? starts_[i + 1] : text_.size();
  return std::string_view(text_).substr(begin, end - begin - 1);
}

std::string_view LineBuffer::lines(std::size_t first, std::size_t last) const {
  if (first >= last) return {};
  const std::size_t begin = starts_.at(first);
  const std::size_t end = last < starts_.size() ? starts_[last] : text_.size();
  return std::string_view(text_).substr(begin, end - begin);
}

void LineBuffer::drop_front(std::size_t count) {
  if (count >= starts_.size()) {
    clear();
    return;
  }
  const std::size_t offset = starts_[count];
  text_.erase(0, offset);
  starts_.erase(starts_.begin(),
                starts_.begin() + static_cast<std::ptrdiff_t>(count));
  for (std::size_t& start : starts_) start -= offset;
}

void LineBuffer::clear() {
  text_.clear();
  starts_.clear();
}

struct SessionStream::Source {
  Source(const tacc::Scenario& scenario, const std::string& provider_spec,
         const std::string& session, std::uint64_t seed)
      : context(tacc::workload::make_context(
            scenario.network(), scenario.workload(),
            scenario.params().workload.area_km, seed)),
        provider(tacc::workload::make_provider(provider_spec, context)),
        adapter(context, session) {}

  tacc::workload::ProviderContext context;
  std::unique_ptr<tacc::workload::WorkloadProvider> provider;
  tacc::workload::WireAdapter adapter;
};

SessionStream::SessionStream() = default;
SessionStream::~SessionStream() = default;
SessionStream::SessionStream(SessionStream&&) noexcept = default;
SessionStream& SessionStream::operator=(SessionStream&&) noexcept = default;

void SessionStream::next_round(std::size_t steps) {
  round.clear();
  for (std::size_t step = 0; step < steps; ++step) {
    for (const std::string& line :
         source_->adapter.render(source_->provider->step(spec->step_s))) {
      round.add(line);
    }
  }
}

std::vector<SessionStream> make_streams(const WorkloadSpec& spec,
                                        std::uint64_t seed) {
  std::vector<SessionStream> streams;
  for (std::size_t k = 0; k < spec.sessions.size(); ++k) {
    const SessionSpec& session = spec.sessions[k];
    SessionStream stream;
    stream.spec = &session;
    stream.scenario = std::make_unique<tacc::Scenario>(tacc::Scenario::smart_city(
        session.iot, session.edge, session.scenario_seed));
    const tacc::Scenario& scenario = *stream.scenario;

    stream.configure = "CONFIGURE " + session.name + " " +
                       std::to_string(session.iot) + " " +
                       std::to_string(session.edge) +
                       " seed=" + std::to_string(session.scenario_seed) +
                       " algo=q-learning";
    if (!session.oracle.empty()) stream.configure += " oracle=" + session.oracle;

    const auto& devices = scenario.workload().iot;
    for (std::size_t i = 0; i < devices.size(); ++i) {
      stream.probe.add("MOVE " + session.name + " " + std::to_string(i) + " " +
                       tacc::workload::wire_double(devices[i].position.x) +
                       " " +
                       tacc::workload::wire_double(devices[i].position.y) +
                       " pinned=1");
    }
    // The traffic is the seeded part: the deployment stays fixed so every
    // seed configures the same clusters.
    stream.source_ = std::make_unique<SessionStream::Source>(
        scenario, session.provider, session.name, seed * 16 + k + 1);
    streams.push_back(std::move(stream));
  }
  return streams;
}

}  // namespace perfbench
