// Exact per-request assignment against a fixed facility set.
//
// Given open facilities, the cheapest way to serve one request is a
// weighted set-cover over its demand set: facility (m, σ) covers
// σ ∩ s_r at price d(m, r), charged once per facility (the paper's
// shared-path connection model). Demand sets are small (|s_r| ≤ ~16), so
// an exact DP over the 2^{|s_r|} submasks is cheap; every offline solver
// uses it, which makes offline costs exact *given* the facility set.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "instance/instance.hpp"

namespace omflp {

struct PlacedFacility {
  PointId point = 0;
  CommoditySet config;
};

/// dp[mask] = cheapest cost to cover the submask `mask` of the request's
/// demand set (bit b of mask = b-th smallest commodity in s_r).
/// Returns the full DP table; dp.back() is the request's optimal
/// connection cost (infinity if the facilities cannot cover s_r).
/// Requires |s_r| <= 20.
std::vector<double> assignment_dp(const MetricSpace& metric,
                                  std::span<const PlacedFacility> facilities,
                                  const Request& request);

/// A facility that covers part of a request's demand: the mask of the
/// demand it covers (bit b = b-th smallest commodity in s_r) and its
/// distance to the request.
struct UsableFacility {
  std::uint32_t cover = 0;
  double distance = 0.0;
};

/// The DP itself, over the usable facilities in the order given: fills
/// dp[0 .. 2^k) for a demand set of k <= 20 commodities. The overload
/// above runs it over the facilities in facility order, so a caller that
/// lists them in that order gets the same table bit for bit.
void assignment_dp(std::span<const UsableFacility> usable, std::size_t k,
                   std::span<double> dp);

/// Convenience: just the optimal connection cost for the request.
double optimal_assignment_cost(const MetricSpace& metric,
                               std::span<const PlacedFacility> facilities,
                               const Request& request);

/// Total connection cost over all requests of the instance (infinity if
/// any request cannot be covered).
double total_assignment_cost(const Instance& instance,
                             std::span<const PlacedFacility> facilities);

}  // namespace omflp
