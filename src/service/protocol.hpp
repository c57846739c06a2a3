// Wire protocol for taccd: line-delimited, space-separated text requests.
//
// One request per line, one response line per request:
//
//   CONFIGURE <session> <iot> <edge> [seed=N] [algo=NAME] [preset=NAME]
//             [oracle=SPEC]            (e.g. "exact" or
//                                       "landmark,k=8,eps=0.1"; validated,
//                                       then every spec is served exactly —
//                                       see topology/oracle/config.hpp)
//   JOIN      <session> <x> <y> [demand=D] [rate=HZ]
//   MOVE      <session> <device> <x> <y> [pinned=0|1]
//   LEAVE     <session> <device>
//   FAIL      <session> <server> [evacuate=0|1]
//   RECOVER   <session> <server>
//   EVACUATE  <session> <server>
//   LINK_FAIL    <session> <u> <v>         (backbone link churn; u, v are
//   LINK_RESTORE <session> <u> <v>          router node ids — see LINKS)
//   LINK_SET     <session> <u> <v> <latency_ms>
//   LINKS     <session> [limit=K]          (list live backbone links)
//   REOPT_START <session> [moves=N] [device_moves=N] [window_s=S]
//               [interval_ms=T]          (attach + start the background
//                                         re-optimizer; omitted knobs use
//                                         the daemon's --reopt-* defaults)
//   REOPT_STOP  <session>                (stop + detach; idempotent)
//   REOPT_STATS <session>                (live optimizer ledger)
//   ORACLE_STATS <session>               (delay-store counters: queries —
//                                         one per delay read —, bytes
//                                         resident; envelope counters read 0)
//   SLEEP     <session> <ms>               (diagnostic: occupies the session)
//   STATS     [<session>] [shards=0|1]   (shards=1: per-shard s<k>_* ledgers
//                                         on the global reply)
//   PING
//   SHUTDOWN
//
// Every session verb additionally accepts timeout_ms=T, overriding the
// server's default admission deadline for that request. kVerbs and
// kOptions in protocol.cpp are this grammar as data: parse_request is one
// loop over a verb's row. Responses are either "OK key=value ..." or
// "ERR <CODE> <message>"; see DESIGN.md for the full grammar and semantics.
//
// This header is pure parsing/formatting — no sockets, no sessions — so the
// protocol is unit-testable in isolation.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "core/algorithms.hpp"

namespace tacc::service {

/// Request verbs, in the order of the grammar table (see verb_table()).
enum class Verb {
  kConfigure,
  kJoin,
  kMove,
  kLeave,
  kFail,
  kRecover,
  kEvacuate,
  kLinkFail,
  kLinkRestore,
  kLinkSet,
  kLinks,
  kReoptStart,
  kReoptStop,
  kReoptStats,
  kOracleStats,
  kSleep,
  kStats,
  kPing,
  kShutdown,
};
[[nodiscard]] std::string_view to_string(Verb verb) noexcept;

/// Error codes a response line can carry. OVERLOADED and DEADLINE_EXCEEDED
/// are the two admission-control rejections the paper-level deadlines call
/// for; the rest are protocol/session errors.
enum class ErrorCode {
  kBadRequest,        ///< unparseable or precondition-violating request
  kNotFound,          ///< unknown session
  kOverloaded,        ///< admission queue full — retry later
  kDeadlineExceeded,  ///< request expired before a worker reached it
  kShuttingDown,      ///< daemon is draining; no new work admitted
  kInternal,          ///< unexpected server-side failure
};
[[nodiscard]] std::string_view to_string(ErrorCode code) noexcept;

enum class ScenarioPreset { kSmartCity, kFactory, kCampus };
[[nodiscard]] std::string_view to_string(ScenarioPreset preset) noexcept;

/// One parsed request. Only the fields relevant to `verb` are meaningful;
/// the rest keep their defaults.
struct Request {
  Verb verb = Verb::kPing;
  std::string session;  ///< empty only for PING/SHUTDOWN/global STATS

  // CONFIGURE
  std::size_t iot = 0;
  std::size_t edge = 0;
  std::size_t seed = 1;
  Algorithm algorithm = Algorithm::kGreedyBestFit;
  ScenarioPreset preset = ScenarioPreset::kSmartCity;
  /// Delay-oracle spec (oracle=SPEC), validated at parse time. Every valid
  /// spec is served by the exact delay store, so the engine never reads it.
  std::string oracle;

  // JOIN / MOVE coordinates and device load
  double x = 0.0;
  double y = 0.0;
  double demand = 1.0;
  double rate_hz = 5.0;
  bool pinned = false;

  // MOVE/LEAVE device index; FAIL/RECOVER/EVACUATE server index
  std::size_t index = 0;
  bool evacuate = true;

  // LINK_FAIL / LINK_RESTORE / LINK_SET endpoints (router node ids, as
  // reported by LINKS) and the new latency for LINK_SET.
  std::size_t link_u = 0;
  std::size_t link_v = 0;
  double latency_ms = 0.0;
  // LINKS: max links listed per response line.
  std::size_t limit = 16;

  // REOPT_START migration-budget overrides; 0 keeps the engine default.
  std::size_t reopt_moves = 0;         ///< moves=N (max moves per window)
  std::size_t reopt_device_moves = 0;  ///< device_moves=N (per-device cap)
  double reopt_window_s = 0.0;         ///< window_s=S (budget window)
  double reopt_interval_ms = 0.0;      ///< interval_ms=T (pass cadence)

  // SLEEP
  double sleep_ms = 0.0;

  // STATS: shards=1 appends the per-shard ledger blocks (s<k>_depth,
  // s<k>_sessions and every counter as s<k>_<name>) to the global reply.
  bool per_shard = false;

  /// Per-request admission deadline override (timeout_ms=T).
  std::optional<double> timeout_ms;
};

// ---- The request grammar as data -------------------------------------------

/// The Request member a positional argument or option decodes into; the
/// member's type picks the decoder: a count, a number, a 0|1 flag, a
/// deadline, an algorithm name, a preset name or an oracle spec.
using RequestMember =
    std::variant<std::monostate, std::size_t Request::*, double Request::*,
                 bool Request::*, std::optional<double> Request::*,
                 Algorithm Request::*, ScenarioPreset Request::*,
                 std::string Request::*>;

/// Range a decoded number must fall in: > 0 when `positive`, else
/// [lo, hi].
struct Bound {
  bool positive = false;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// One positional argument (named by its error-message label, e.g.
/// "iot count") or one key=value option (named by its key).
struct GrammarField {
  std::string_view name;
  RequestMember member;
  Bound bound{};
};

/// Where a verb's session name sits: always second, optionally second
/// (STATS: a token without '=' names the session), or nowhere.
enum class SessionArg { kRequired, kOptional, kNone };

/// One verb's row of the request grammar.
struct VerbSpec {
  std::string_view name;  ///< wire spelling
  Verb verb;
  SessionArg session = SessionArg::kRequired;
  /// Positional arguments after the session, in order; unused slots have
  /// an empty name.
  GrammarField args[3] = {};
  /// Allowed option keys: bit i admits row i of the option table.
  std::uint32_t options = 0;
};

/// The grammar: one row per Verb, in enum order. parse_request and
/// to_string(Verb) read nothing else.
[[nodiscard]] std::span<const VerbSpec> verb_table() noexcept;

/// Outcome of parse_request: either a request or a human-readable error.
struct ParseResult {
  std::optional<Request> request;
  std::string error;
  [[nodiscard]] bool ok() const noexcept { return request.has_value(); }
};

/// Parses one wire line (without the trailing newline; a trailing '\r' is
/// tolerated). Never throws.
[[nodiscard]] ParseResult parse_request(std::string_view line);

/// Formats "ERR <CODE> <message>".
[[nodiscard]] std::string err_line(ErrorCode code, std::string_view message);

/// Assembles "OK key=value ..." response lines with consistent numeric
/// formatting (doubles use %.6g so lines stay short).
class OkLine {
 public:
  OkLine& field(std::string_view key, std::string_view value);
  OkLine& field(std::string_view key, const std::string& value) {
    return field(key, std::string_view(value));
  }
  OkLine& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  /// Any unsigned count (std::size_t, std::uint64_t, ...).
  template <std::unsigned_integral T>
  OkLine& field(std::string_view key, T value) {
    return field(key, std::to_string(value));
  }
  OkLine& field(std::string_view key, double value);
  OkLine& field(std::string_view key, bool value);
  /// Prepends `prefix` to every key added from now on (e.g. "s0_" for a
  /// per-shard block); an empty prefix ends the block.
  OkLine& prefix(std::string_view prefix) {
    prefix_ = prefix;
    return *this;
  }

  [[nodiscard]] std::string str() const { return line_; }

 private:
  std::string line_ = "OK";
  std::string prefix_;
};

}  // namespace tacc::service
