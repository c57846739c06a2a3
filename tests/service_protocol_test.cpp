// Wire-protocol unit tests: parse_request over every verb, the malformed
// lines a hostile or buggy client can send, and the response formatters.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

namespace tacc::service {
namespace {

Request parse_ok(const std::string& line) {
  const ParseResult result = parse_request(line);
  EXPECT_TRUE(result.ok()) << "'" << line << "': " << result.error;
  return result.request.value_or(Request{});
}

std::string parse_error(const std::string& line) {
  const ParseResult result = parse_request(line);
  EXPECT_FALSE(result.ok()) << "'" << line << "' parsed unexpectedly";
  EXPECT_FALSE(result.error.empty());
  return result.error;
}

// ---- Happy paths -----------------------------------------------------------

TEST(Protocol, ConfigureDefaults) {
  const Request r = parse_ok("CONFIGURE city 200 10");
  EXPECT_EQ(r.verb, Verb::kConfigure);
  EXPECT_EQ(r.session, "city");
  EXPECT_EQ(r.iot, 200u);
  EXPECT_EQ(r.edge, 10u);
  EXPECT_EQ(r.seed, 1u);
  EXPECT_EQ(r.algorithm, Algorithm::kGreedyBestFit);
  EXPECT_EQ(r.preset, ScenarioPreset::kSmartCity);
  EXPECT_FALSE(r.timeout_ms.has_value());
}

TEST(Protocol, ConfigureWithAllOptions) {
  const Request r = parse_ok(
      "CONFIGURE f1 50 5 seed=42 algo=local-search preset=factory "
      "timeout_ms=250");
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.algorithm, Algorithm::kLocalSearch);
  EXPECT_EQ(r.preset, ScenarioPreset::kFactory);
  ASSERT_TRUE(r.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*r.timeout_ms, 250.0);
}

TEST(Protocol, JoinParsesCoordinatesAndLoad) {
  const Request r = parse_ok("JOIN city 1.5 -2.25 demand=2.5 rate=10");
  EXPECT_EQ(r.verb, Verb::kJoin);
  EXPECT_DOUBLE_EQ(r.x, 1.5);
  EXPECT_DOUBLE_EQ(r.y, -2.25);
  EXPECT_DOUBLE_EQ(r.demand, 2.5);
  EXPECT_DOUBLE_EQ(r.rate_hz, 10.0);
}

TEST(Protocol, MoveParsesDeviceAndPinned) {
  const Request r = parse_ok("MOVE city 17 3.0 4.0 pinned=1");
  EXPECT_EQ(r.verb, Verb::kMove);
  EXPECT_EQ(r.index, 17u);
  EXPECT_TRUE(r.pinned);
  EXPECT_FALSE(parse_ok("MOVE city 17 3.0 4.0").pinned);
}

TEST(Protocol, ServerVerbsParseIndex) {
  EXPECT_EQ(parse_ok("LEAVE s 3").verb, Verb::kLeave);
  EXPECT_EQ(parse_ok("FAIL s 2").verb, Verb::kFail);
  EXPECT_TRUE(parse_ok("FAIL s 2").evacuate);  // evacuation is the default
  EXPECT_FALSE(parse_ok("FAIL s 2 evacuate=0").evacuate);
  EXPECT_EQ(parse_ok("RECOVER s 2").verb, Verb::kRecover);
  EXPECT_EQ(parse_ok("EVACUATE s 2").verb, Verb::kEvacuate);
  EXPECT_EQ(parse_ok("EVACUATE s 2").index, 2u);
}

TEST(Protocol, LinkVerbsParseEndpoints) {
  const Request failed = parse_ok("LINK_FAIL s 12 34");
  EXPECT_EQ(failed.verb, Verb::kLinkFail);
  EXPECT_EQ(failed.link_u, 12u);
  EXPECT_EQ(failed.link_v, 34u);
  EXPECT_EQ(parse_ok("LINK_RESTORE s 12 34").verb, Verb::kLinkRestore);

  const Request set = parse_ok("LINK_SET s 12 34 7.5 timeout_ms=100");
  EXPECT_EQ(set.verb, Verb::kLinkSet);
  EXPECT_DOUBLE_EQ(set.latency_ms, 7.5);
  ASSERT_TRUE(set.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*set.timeout_ms, 100.0);

  EXPECT_EQ(parse_ok("LINKS s").verb, Verb::kLinks);
  EXPECT_EQ(parse_ok("LINKS s").limit, 16u);  // default
  EXPECT_EQ(parse_ok("LINKS s limit=3").limit, 3u);
}

TEST(Protocol, LinkVerbsRejectMalformedArguments) {
  parse_error("LINK_FAIL s 12");          // missing endpoint
  parse_error("LINK_FAIL s a b");         // non-numeric endpoints
  parse_error("LINK_RESTORE s -1 2");     // negative endpoint
  parse_error("LINK_SET s 1 2");          // missing latency
  parse_error("LINK_SET s 1 2 0");        // latency must be positive
  parse_error("LINK_SET s 1 2 -3.5");
  parse_error("LINK_FAIL s 1 2 limit=4");  // limit is LINKS-only
  parse_error("LINKS s limit=0");
  parse_error("LINKS s 5");  // bare token, not key=value
}

TEST(Protocol, SleepStatsPingShutdown) {
  const Request sleep = parse_ok("SLEEP s 250");
  EXPECT_EQ(sleep.verb, Verb::kSleep);
  EXPECT_DOUBLE_EQ(sleep.sleep_ms, 250.0);

  EXPECT_EQ(parse_ok("STATS").session, "");
  EXPECT_EQ(parse_ok("STATS city").session, "city");
  EXPECT_EQ(parse_ok("PING").verb, Verb::kPing);
  EXPECT_EQ(parse_ok("SHUTDOWN").verb, Verb::kShutdown);
}

TEST(Protocol, StatsPerShardOption) {
  EXPECT_FALSE(parse_ok("STATS").per_shard);
  EXPECT_FALSE(parse_ok("STATS city").per_shard);
  EXPECT_FALSE(parse_ok("STATS shards=0").per_shard);

  const Request global = parse_ok("STATS shards=1");
  EXPECT_TRUE(global.per_shard);
  EXPECT_EQ(global.session, "");

  const Request scoped = parse_ok("STATS city shards=1");
  EXPECT_TRUE(scoped.per_shard);
  EXPECT_EQ(scoped.session, "city");

  parse_error("STATS shards=maybe");
  parse_error("STATS city limit=4");  // limit is LINKS-only
  parse_error("STATS shards=1 city");  // session must precede options
}

TEST(Protocol, ToleratesWhitespaceAndCarriageReturn) {
  const Request r = parse_ok("  JOIN \t city   1.0  2.0 \r");
  EXPECT_EQ(r.verb, Verb::kJoin);
  EXPECT_EQ(r.session, "city");
}

TEST(Protocol, SessionNameAcceptsFullAlphabet) {
  EXPECT_EQ(parse_ok("STATS a-b_c.d:e9").session, "a-b_c.d:e9");
  EXPECT_EQ(parse_ok("STATS " + std::string(64, 'x')).session,
            std::string(64, 'x'));
}

// ---- Malformed requests ----------------------------------------------------

TEST(Protocol, RejectsEmptyAndUnknown) {
  parse_error("");
  parse_error("   ");
  EXPECT_NE(parse_error("FROBNICATE x").find("unknown verb"),
            std::string::npos);
  parse_error("configure city 10 2");  // verbs are case-sensitive
}

TEST(Protocol, RejectsMissingAndNonNumericArguments) {
  parse_error("CONFIGURE");
  parse_error("CONFIGURE city");
  parse_error("CONFIGURE city 10");
  parse_error("CONFIGURE city ten 2");
  parse_error("CONFIGURE city 0 5");  // zero-sized scenario
  parse_error("CONFIGURE city 5 0");
  parse_error("JOIN city 1.0");
  parse_error("JOIN city abc 2.0");
  parse_error("MOVE city 1 2.0");
  parse_error("MOVE city -1 2.0 3.0");  // negative index
  parse_error("LEAVE city");
  parse_error("FAIL city x");
}

TEST(Protocol, RejectsBadSessionNames) {
  parse_error("STATS bad/name");
  parse_error("STATS " + std::string(65, 'x'));
  parse_error("JOIN 'quoted' 1 2");
}

TEST(Protocol, RejectsBadOptions) {
  // Unknown key, valid key on the wrong verb, malformed value, bare token.
  EXPECT_NE(parse_error("JOIN city 1 2 bogus=1").find("unknown option"),
            std::string::npos);
  parse_error("JOIN city 1 2 seed=7");  // seed is CONFIGURE-only
  parse_error("CONFIGURE city 10 2 algo=does-not-exist");
  parse_error("CONFIGURE city 10 2 preset=moonbase");
  parse_error("CONFIGURE city 10 2 seed=abc");
  parse_error("JOIN city 1 2 demand=-1");
  parse_error("JOIN city 1 2 rate=0");
  parse_error("MOVE city 1 2 3 pinned=maybe");
  parse_error("JOIN city 1 2 =5");
  parse_error("JOIN city 1 2 trailing");
  parse_error("JOIN city 1 2 timeout_ms=0");  // deadline must be positive
  parse_error("JOIN city 1 2 timeout_ms=-5");
}

TEST(Protocol, RejectsArgumentsOnArgumentlessVerbs) {
  parse_error("PING now");
  parse_error("SHUTDOWN please");
  parse_error("STATS one two");
  parse_error("SLEEP s 250 extra");
}

TEST(Protocol, SleepRangeIsBounded) {
  parse_error("SLEEP s -1");
  parse_error("SLEEP s 10001");
  EXPECT_DOUBLE_EQ(parse_ok("SLEEP s 10000").sleep_ms, 10'000.0);
  EXPECT_DOUBLE_EQ(parse_ok("SLEEP s 0").sleep_ms, 0.0);
}

// ---- Response formatting ---------------------------------------------------

TEST(Protocol, ErrLineFormat) {
  EXPECT_EQ(err_line(ErrorCode::kOverloaded, "queue full"),
            "ERR OVERLOADED queue full");
  EXPECT_EQ(err_line(ErrorCode::kBadRequest, ""), "ERR BAD_REQUEST");
  EXPECT_EQ(err_line(ErrorCode::kDeadlineExceeded, "expired"),
            "ERR DEADLINE_EXCEEDED expired");
}

TEST(Protocol, OkLineFormatsEveryFieldType) {
  const std::string line = OkLine()
                               .field("name", "city")
                               .field("count", std::size_t{42})
                               .field("delay", 5.25)
                               .field("feasible", true)
                               .field("pinned", false)
                               .str();
  EXPECT_EQ(line, "OK name=city count=42 delay=5.25 feasible=1 pinned=0");
}

TEST(Protocol, OkLineDoublesUseCompactPrecision) {
  // %.6g keeps lines short and round-trippable to ~6 significant digits.
  EXPECT_EQ(OkLine().field("v", 0.000125).str(), "OK v=0.000125");
  EXPECT_EQ(OkLine().field("v", 1234567.0).str(), "OK v=1.23457e+06");
}

TEST(ReoptProtocol, StartParsesBudgetOverrides) {
  const Request r = parse_ok(
      "REOPT_START city moves=8 device_moves=2 window_s=0.5 interval_ms=10 "
      "timeout_ms=250");
  EXPECT_EQ(r.verb, Verb::kReoptStart);
  EXPECT_EQ(r.session, "city");
  EXPECT_EQ(r.reopt_moves, 8u);
  EXPECT_EQ(r.reopt_device_moves, 2u);
  EXPECT_DOUBLE_EQ(r.reopt_window_s, 0.5);
  EXPECT_DOUBLE_EQ(r.reopt_interval_ms, 10.0);
  ASSERT_TRUE(r.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*r.timeout_ms, 250.0);
}

TEST(ReoptProtocol, StartDefaultsKeepEngineTuning) {
  const Request r = parse_ok("REOPT_START city");
  // Zero means "keep the engine default" for every budget knob.
  EXPECT_EQ(r.reopt_moves, 0u);
  EXPECT_EQ(r.reopt_device_moves, 0u);
  EXPECT_DOUBLE_EQ(r.reopt_window_s, 0.0);
  EXPECT_DOUBLE_EQ(r.reopt_interval_ms, 0.0);
}

TEST(ReoptProtocol, StopAndStatsParse) {
  EXPECT_EQ(parse_ok("REOPT_STOP city").verb, Verb::kReoptStop);
  EXPECT_EQ(parse_ok("REOPT_STATS city timeout_ms=50").verb,
            Verb::kReoptStats);
}

TEST(ReoptProtocol, RejectsMalformedRequests) {
  parse_error("REOPT_START");                    // missing session
  parse_error("REOPT_START city moves=abc");     // non-numeric option
  parse_error("REOPT_START city budget=5");      // unknown option
  parse_error("REOPT_STOP city moves=5");        // option not valid here
  parse_error("REOPT_STATS");                    // missing session
}

TEST(ReoptProtocol, VerbNamesRoundTrip) {
  EXPECT_EQ(to_string(Verb::kReoptStart), "REOPT_START");
  EXPECT_EQ(to_string(Verb::kReoptStop), "REOPT_STOP");
  EXPECT_EQ(to_string(Verb::kReoptStats), "REOPT_STATS");
}

TEST(OracleProtocol, ConfigureStoresValidatedSpec) {
  const Request r =
      parse_ok("CONFIGURE city 50 5 oracle=landmark,k=4,eps=0.2");
  EXPECT_EQ(r.oracle, "landmark,k=4,eps=0.2");
  // Absent option leaves the spec empty (engine applies its default).
  EXPECT_TRUE(parse_ok("CONFIGURE city 50 5").oracle.empty());
  EXPECT_EQ(parse_ok("CONFIGURE city 50 5 oracle=exact,compress=1").oracle,
            "exact,compress=1");
}

TEST(OracleProtocol, RejectsMalformedSpecsEagerly) {
  // A typo'd spec must fail at parse time, not at CONFIGURE apply time.
  EXPECT_NE(parse_error("CONFIGURE city 50 5 oracle=alt")
                .find("bad value for option 'oracle'"),
            std::string::npos);
  parse_error("CONFIGURE city 50 5 oracle=landmark,k=0");
  parse_error("CONFIGURE city 50 5 oracle=exact,k=4");  // k is landmark-only
  parse_error("CONFIGURE city 50 5 oracle=landmark,eps=-1");
  parse_error("JOIN city 1 2 oracle=exact");  // CONFIGURE-only option
}

TEST(OracleProtocol, StatsParsesAndRoundTrips) {
  const Request r = parse_ok("ORACLE_STATS city timeout_ms=50");
  EXPECT_EQ(r.verb, Verb::kOracleStats);
  EXPECT_EQ(r.session, "city");
  ASSERT_TRUE(r.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*r.timeout_ms, 50.0);
  parse_error("ORACLE_STATS");             // missing session
  parse_error("ORACLE_STATS city k=4");    // unknown option
  EXPECT_EQ(to_string(Verb::kOracleStats), "ORACLE_STATS");
}

TEST(Protocol, GrammarTableHasOneRowPerVerbAndRoundTrips) {
  const auto table = verb_table();
  const auto verbs = static_cast<std::size_t>(Verb::kShutdown) + 1;
  ASSERT_EQ(table.size(), verbs);
  for (std::size_t v = 0; v < verbs; ++v) {
    const auto verb = static_cast<Verb>(v);
    std::size_t rows = 0;
    for (const VerbSpec& spec : table) rows += spec.verb == verb ? 1 : 0;
    EXPECT_EQ(rows, 1u) << to_string(verb);

    // The smallest valid line for the verb: its name, a session where one
    // is required, and "1" (inside every bound) per positional argument.
    const VerbSpec& spec = table[v];
    std::string line(to_string(verb));
    if (spec.session == SessionArg::kRequired) line += " s";
    for (const GrammarField& arg : spec.args) {
      if (!arg.name.empty()) line += " 1";
    }
    EXPECT_EQ(parse_ok(line).verb, verb) << line;
  }
}

TEST(Protocol, EnumNamesRoundTrip) {
  EXPECT_EQ(to_string(Verb::kConfigure), "CONFIGURE");
  EXPECT_EQ(to_string(Verb::kShutdown), "SHUTDOWN");
  EXPECT_EQ(to_string(ErrorCode::kShuttingDown), "SHUTTING_DOWN");
  EXPECT_EQ(to_string(ScenarioPreset::kCampus), "campus");
}

}  // namespace
}  // namespace tacc::service
