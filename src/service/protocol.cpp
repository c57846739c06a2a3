#include "service/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "topology/oracle/config.hpp"

namespace tacc::service {

namespace {

/// Splits on runs of spaces/tabs; no empty tokens.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

bool valid_session_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) ||
                    c == '_' || c == '-' || c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

ParseResult fail(std::string message) {
  return ParseResult{std::nullopt, std::move(message)};
}

// ---- Decoders: one per RequestMember type ----------------------------------

/// A count or a number: the whole token must parse.
template <typename T>
  requires std::is_same_v<T, std::size_t> || std::is_same_v<T, double>
bool decode(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool decode(std::string_view token, std::optional<double>& out) {
  double value = 0.0;
  if (!decode(token, value)) return false;
  out = value;
  return true;
}

bool decode(std::string_view token, bool& out) {
  if (token == "1" || token == "true") {
    out = true;
  } else if (token == "0" || token == "false") {
    out = false;
  } else {
    return false;
  }
  return true;
}

bool decode(std::string_view token, Algorithm& out) {
  try {
    out = algorithm_from_string(token);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

bool decode(std::string_view token, ScenarioPreset& out) {
  for (const ScenarioPreset preset :
       {ScenarioPreset::kSmartCity, ScenarioPreset::kFactory,
        ScenarioPreset::kCampus}) {
    if (token == to_string(preset)) {
      out = preset;
      return true;
    }
  }
  return false;
}

/// The oracle= spec, validated eagerly so a typo'd spec is a parse error
/// rather than a session failure later. parse_oracle_spec throws
/// std::invalid_argument listing the spec grammar; the error line keeps it.
bool decode(std::string_view token, std::string& oracle) {
  (void)topo::oracle::parse_oracle_spec(token);
  oracle = std::string(token);
  return true;
}

bool admits(const Bound& bound, double value) {
  return bound.positive ? value > 0.0
                        : value >= bound.lo && value <= bound.hi;
}

enum class Decoded { kOk, kMalformed, kOutOfBounds };

/// Decodes `token` into the member `field` names, then checks its bound.
Decoded assign(Request& request, const GrammarField& field,
               std::string_view token) {
  return std::visit(
      [&](auto member) {
        if constexpr (std::is_same_v<decltype(member), std::monostate>) {
          return Decoded::kMalformed;
        } else {
          auto& out = request.*member;
          if (!decode(token, out)) return Decoded::kMalformed;
          using T = std::remove_reference_t<decltype(out)>;
          if constexpr (std::is_same_v<T, std::size_t> ||
                        std::is_same_v<T, double>) {
            if (!admits(field.bound, static_cast<double>(out))) {
              return Decoded::kOutOfBounds;
            }
          } else if constexpr (std::is_same_v<T, std::optional<double>>) {
            if (!admits(field.bound, *out)) return Decoded::kOutOfBounds;
          }
          return Decoded::kOk;
        }
      },
      field.member);
}

// ---- The grammar -----------------------------------------------------------

constexpr Bound kPositive{.positive = true};

constexpr GrammarField kOptions[] = {
    {"timeout_ms", &Request::timeout_ms, kPositive},
    {"seed", &Request::seed},
    {"algo", &Request::algorithm},
    {"preset", &Request::preset},
    {"oracle", &Request::oracle},
    {"demand", &Request::demand, kPositive},
    {"rate", &Request::rate_hz, kPositive},
    {"pinned", &Request::pinned},
    {"evacuate", &Request::evacuate},
    {"limit", &Request::limit, kPositive},
    {"shards", &Request::per_shard},
    {"moves", &Request::reopt_moves, kPositive},
    {"device_moves", &Request::reopt_device_moves, kPositive},
    {"window_s", &Request::reopt_window_s, kPositive},
    {"interval_ms", &Request::reopt_interval_ms, kPositive},
};
static_assert(std::size(kOptions) <= 32, "VerbSpec::options has 32 bits");

/// The option mask of a space-separated key list. consteval, so a key with
/// no row in kOptions fails the build.
consteval std::uint32_t allow(std::string_view keys) {
  std::uint32_t mask = 0;
  while (!keys.empty()) {
    const std::string_view key = keys.substr(0, keys.find(' '));
    std::size_t row = 0;
    while (row < std::size(kOptions) && kOptions[row].name != key) ++row;
    if (row == std::size(kOptions)) throw "option key missing from kOptions";
    mask |= std::uint32_t{1} << row;
    keys.remove_prefix(std::min(key.size() + 1, keys.size()));
  }
  return mask;
}

constexpr GrammarField kDevice{"device index", &Request::index};
constexpr GrammarField kServer{"server index", &Request::index};
constexpr GrammarField kX{"x coordinate", &Request::x};
constexpr GrammarField kY{"y coordinate", &Request::y};
constexpr GrammarField kLinkU{"link endpoint u", &Request::link_u};
constexpr GrammarField kLinkV{"link endpoint v", &Request::link_v};

constexpr VerbSpec kVerbs[] = {
    {"CONFIGURE", Verb::kConfigure, SessionArg::kRequired,
     {{"iot count", &Request::iot, kPositive},
      {"edge count", &Request::edge, kPositive}},
     allow("seed algo preset oracle timeout_ms")},
    {"JOIN", Verb::kJoin, SessionArg::kRequired, {kX, kY},
     allow("demand rate timeout_ms")},
    {"MOVE", Verb::kMove, SessionArg::kRequired, {kDevice, kX, kY},
     allow("pinned timeout_ms")},
    {"LEAVE", Verb::kLeave, SessionArg::kRequired, {kDevice},
     allow("timeout_ms")},
    {"FAIL", Verb::kFail, SessionArg::kRequired, {kServer},
     allow("evacuate timeout_ms")},
    {"RECOVER", Verb::kRecover, SessionArg::kRequired, {kServer},
     allow("timeout_ms")},
    {"EVACUATE", Verb::kEvacuate, SessionArg::kRequired, {kServer},
     allow("timeout_ms")},
    {"LINK_FAIL", Verb::kLinkFail, SessionArg::kRequired, {kLinkU, kLinkV},
     allow("timeout_ms")},
    {"LINK_RESTORE", Verb::kLinkRestore, SessionArg::kRequired,
     {kLinkU, kLinkV}, allow("timeout_ms")},
    {"LINK_SET", Verb::kLinkSet, SessionArg::kRequired,
     {kLinkU, kLinkV, {"latency ms", &Request::latency_ms, kPositive}},
     allow("timeout_ms")},
    {"LINKS", Verb::kLinks, SessionArg::kRequired, {},
     allow("limit timeout_ms")},
    {"REOPT_START", Verb::kReoptStart, SessionArg::kRequired, {},
     allow("moves device_moves window_s interval_ms timeout_ms")},
    {"REOPT_STOP", Verb::kReoptStop, SessionArg::kRequired, {},
     allow("timeout_ms")},
    {"REOPT_STATS", Verb::kReoptStats, SessionArg::kRequired, {},
     allow("timeout_ms")},
    {"ORACLE_STATS", Verb::kOracleStats, SessionArg::kRequired, {},
     allow("timeout_ms")},
    {"SLEEP", Verb::kSleep, SessionArg::kRequired,
     {{"sleep ms", &Request::sleep_ms, {.lo = 0.0, .hi = 10'000.0}}},
     allow("timeout_ms")},
    {"STATS", Verb::kStats, SessionArg::kOptional, {}, allow("shards")},
    {"PING", Verb::kPing, SessionArg::kNone},
    {"SHUTDOWN", Verb::kShutdown, SessionArg::kNone},
};
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kVerbs); ++i) {
        if (kVerbs[i].verb != static_cast<Verb>(i)) return false;
      }
      return std::size(kVerbs) ==
             static_cast<std::size_t>(Verb::kShutdown) + 1;
    }(),
    "kVerbs holds one row per Verb, in enum order");

std::string out_of_bounds(const GrammarField& arg) {
  std::string message(arg.name);
  if (arg.bound.positive) return message + " must be positive";
  char range[64];
  std::snprintf(range, sizeof range, " out of range [%g, %g]", arg.bound.lo,
                arg.bound.hi);
  return message + range;
}

/// Applies one key=value option token. Keys outside `allowed` are rejected
/// so typos surface immediately.
bool apply_option(Request& request, std::string_view token,
                  std::uint32_t allowed, std::string& error) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    error = "expected key=value option, got '" + std::string(token) + "'";
    return false;
  }
  const std::string_view key = token.substr(0, eq);
  std::size_t row = 0;
  while (row < std::size(kOptions) && kOptions[row].name != key) ++row;
  if (row == std::size(kOptions) ||
      (allowed & (std::uint32_t{1} << row)) == 0) {
    error = "unknown option '" + std::string(key) + "' for this verb";
    return false;
  }
  try {
    if (assign(request, kOptions[row], token.substr(eq + 1)) ==
        Decoded::kOk) {
      return true;
    }
    error = "bad value for option '" + std::string(key) + "'";
  } catch (const std::invalid_argument& e) {
    error = "bad value for option '" + std::string(key) + "': " + e.what();
  }
  return false;
}

}  // namespace

std::span<const VerbSpec> verb_table() noexcept { return kVerbs; }

std::string_view to_string(Verb verb) noexcept {
  const auto row = static_cast<std::size_t>(verb);
  return row < std::size(kVerbs) ? kVerbs[row].name : "?";
}

std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "BAD_REQUEST";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kOverloaded: return "OVERLOADED";
    case ErrorCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "?";
}

std::string_view to_string(ScenarioPreset preset) noexcept {
  switch (preset) {
    case ScenarioPreset::kSmartCity: return "smart_city";
    case ScenarioPreset::kFactory: return "factory";
    case ScenarioPreset::kCampus: return "campus";
  }
  return "?";
}

ParseResult parse_request(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = tokenize(line);
  if (tokens.empty()) return fail("empty request");

  const auto* spec =
      std::find_if(std::begin(kVerbs), std::end(kVerbs),
                   [&](const VerbSpec& row) { return row.name == tokens[0]; });
  if (spec == std::end(kVerbs)) {
    return fail("unknown verb '" + std::string(tokens[0]) + "'");
  }

  Request request;
  request.verb = spec->verb;
  std::size_t next = 1;
  switch (spec->session) {
    case SessionArg::kNone:
      if (tokens.size() > 1) {
        return fail(std::string(spec->name) + " takes no arguments");
      }
      break;
    case SessionArg::kOptional:
      // Session names cannot contain '=', so the first token either names
      // a session or starts the key=value options.
      if (tokens.size() == 1 ||
          tokens[1].find('=') != std::string_view::npos) {
        break;
      }
      [[fallthrough]];
    case SessionArg::kRequired:
      if (tokens.size() == 1) return fail("missing session name");
      if (!valid_session_name(tokens[1])) {
        return fail("bad session name '" + std::string(tokens[1]) +
                    "' (1-64 chars of [A-Za-z0-9_.:-])");
      }
      request.session = std::string(tokens[1]);
      next = 2;
      break;
  }

  for (const GrammarField& arg : spec->args) {
    if (arg.name.empty()) break;
    if (next == tokens.size()) return fail("missing " + std::string(arg.name));
    switch (assign(request, arg, tokens[next])) {
      case Decoded::kOk:
        break;
      case Decoded::kMalformed:
        return fail("bad " + std::string(arg.name) + " '" +
                    std::string(tokens[next]) + "'");
      case Decoded::kOutOfBounds:
        return fail(out_of_bounds(arg));
    }
    ++next;
  }

  std::string error;
  for (; next < tokens.size(); ++next) {
    if (!apply_option(request, tokens[next], spec->options, error)) {
      return fail(std::move(error));
    }
  }
  return ParseResult{std::move(request), {}};
}

std::string err_line(ErrorCode code, std::string_view message) {
  std::string line = "ERR ";
  line += to_string(code);
  if (!message.empty()) {
    line += ' ';
    line += message;
  }
  return line;
}

OkLine& OkLine::field(std::string_view key, std::string_view value) {
  line_ += ' ';
  line_ += prefix_;
  line_ += key;
  line_ += '=';
  line_ += value;
  return *this;
}

OkLine& OkLine::field(std::string_view key, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return field(key, std::string_view(buffer));
}

OkLine& OkLine::field(std::string_view key, bool value) {
  return field(key, std::string_view(value ? "1" : "0"));
}

}  // namespace tacc::service
