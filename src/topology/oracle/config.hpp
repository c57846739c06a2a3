// The oracle= spec: "exact" or "landmark,k=8,eps=0.2", as accepted by
// `taccd --oracle=` and the CONFIGURE wire option.
//
// The grammar and its range checks are kept so existing clients and
// scripts keep working, but every valid spec is served by the one exact
// FactoredDelayStore (factored.hpp): an exact value lies inside every
// envelope a landmark spec asks for. The parsed fields serve only
// validation and the canonical round trip.
//
// Deliberately a light header — core/configurator.hpp embeds an OracleConfig
// in every ConfigureRequest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tacc::topo::oracle {

enum class OracleBackend : std::uint8_t {
  kExact,     ///< exact delays
  kLandmark,  ///< delays within a certified (1+eps) envelope
};

[[nodiscard]] std::string_view to_string(OracleBackend backend) noexcept;

/// A parsed oracle= spec. Defaults are the plain "exact" spec.
struct OracleConfig {
  OracleBackend backend = OracleBackend::kExact;
  /// Landmark count k (positive integer).
  std::size_t landmarks = 8;
  /// Largest relative error eps the client accepts, in [0, 10].
  double max_rel_error = 0.1;
  /// Row compression requested (0 or 1).
  bool compress = false;
  /// Hot-row budget (>= 1).
  std::size_t hot_rows = 64;
  /// Landmark selection seed.
  std::uint64_t seed = 1;

  friend bool operator==(const OracleConfig&, const OracleConfig&) = default;
};

/// Parses "exact[,compress=0|1][,hot=N]" or
/// "landmark[,k=N][,eps=X][,compress=0|1][,hot=N][,seed=N]" — the same spec
/// accepted by `taccd --oracle=` and the CONFIGURE wire option. Throws
/// std::invalid_argument (listing the valid keys) on an unknown backend,
/// unknown key, or out-of-range value. An empty spec means the default
/// exact backend.
[[nodiscard]] OracleConfig parse_oracle_spec(std::string_view spec);

/// Canonical spec round-trip: parse_oracle_spec(to_string(c)) == c.
[[nodiscard]] std::string to_string(const OracleConfig& config);

}  // namespace tacc::topo::oracle
