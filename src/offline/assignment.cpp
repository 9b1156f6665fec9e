#include "offline/assignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/assert.hpp"

namespace omflp {

void assignment_dp(std::span<const UsableFacility> usable, std::size_t k,
                   std::span<double> dp) {
  OMFLP_REQUIRE(k <= 20, "assignment_dp: demand set too large");
  const std::size_t full = (std::size_t{1} << k) - 1;
  OMFLP_REQUIRE(dp.size() == full + 1, "assignment_dp: table size mismatch");
  std::fill(dp.begin(), dp.end(), std::numeric_limits<double>::infinity());
  dp[0] = 0.0;
  for (std::size_t mask = 1; mask <= full; ++mask) {
    for (const UsableFacility& f : usable) {
      if ((f.cover & mask) == 0) continue;
      const double candidate = dp[mask & ~std::size_t{f.cover}] + f.distance;
      if (candidate < dp[mask]) dp[mask] = candidate;
    }
  }
}

std::vector<double> assignment_dp(const MetricSpace& metric,
                                  std::span<const PlacedFacility> facilities,
                                  const Request& request) {
  const std::vector<CommodityId> members = request.commodities.to_vector();
  const std::size_t k = members.size();
  OMFLP_REQUIRE(k <= 20, "assignment_dp: demand set too large");
  // The distance is read only for facilities that cover part of the demand.
  std::vector<UsableFacility> usable;
  usable.reserve(facilities.size());
  for (const PlacedFacility& f : facilities) {
    std::uint32_t cov = 0;
    for (std::size_t b = 0; b < k; ++b)
      if (f.config.contains(members[b])) cov |= std::uint32_t{1} << b;
    if (cov != 0)
      usable.push_back(
          UsableFacility{cov, metric.distance(request.location, f.point)});
  }
  std::vector<double> dp(std::size_t{1} << k);
  assignment_dp(usable, k, dp);
  return dp;
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
