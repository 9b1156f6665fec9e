#include "offline/assignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/assert.hpp"

namespace omflp {

namespace {

/// The DP over a request's submasks; distance_to(f) supplies
/// d(request.location, facilities[f].point) and is called only for the
/// facilities that cover part of the demand.
template <class DistanceTo>
std::vector<double> assignment_dp_impl(
    std::span<const PlacedFacility> facilities, const Request& request,
    DistanceTo&& distance_to) {
  const std::vector<CommodityId> members = request.commodities.to_vector();
  const std::size_t k = members.size();
  OMFLP_REQUIRE(k <= 20, "assignment_dp: demand set too large");
  const std::size_t full = (std::size_t{1} << k) - 1;

  // Local coverage mask and distance of each usable facility.
  std::vector<std::pair<std::size_t, double>> usable;
  usable.reserve(facilities.size());
  for (std::size_t fi = 0; fi < facilities.size(); ++fi) {
    std::size_t cov = 0;
    for (std::size_t b = 0; b < k; ++b)
      if (facilities[fi].config.contains(members[b]))
        cov |= (std::size_t{1} << b);
    if (cov != 0) usable.emplace_back(cov, distance_to(fi));
  }

  std::vector<double> dp(full + 1, std::numeric_limits<double>::infinity());
  dp[0] = 0.0;
  for (std::size_t mask = 1; mask <= full; ++mask) {
    for (const auto& [cov, d] : usable) {
      if ((cov & mask) == 0) continue;
      const double candidate = dp[mask & ~cov] + d;
      if (candidate < dp[mask]) dp[mask] = candidate;
    }
  }
  return dp;
}

}  // namespace

std::vector<double> assignment_dp(const MetricSpace& metric,
                                  std::span<const PlacedFacility> facilities,
                                  const Request& request) {
  return assignment_dp_impl(facilities, request, [&](std::size_t fi) {
    return metric.distance(request.location, facilities[fi].point);
  });
}

std::vector<double> assignment_dp(std::span<const PlacedFacility> facilities,
                                  std::span<const double> distances,
                                  const Request& request) {
  OMFLP_REQUIRE(distances.size() == facilities.size(),
                "assignment_dp: one distance per facility required");
  return assignment_dp_impl(facilities, request,
                            [&](std::size_t fi) { return distances[fi]; });
}

double optimal_assignment_cost(const MetricSpace& metric,
                               std::span<const PlacedFacility> facilities,
                               const Request& request) {
  return assignment_dp(metric, facilities, request).back();
}

double total_assignment_cost(const Instance& instance,
                             std::span<const PlacedFacility> facilities) {
  double total = 0.0;
  for (const Request& r : instance.requests()) {
    const double c = optimal_assignment_cost(instance.metric(), facilities, r);
    if (!std::isfinite(c)) return kInfiniteDistance;
    total += c;
  }
  return total;
}

}  // namespace omflp
