#include "offline/exact_small.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/assert.hpp"

namespace omflp {

bool ExactSolverLimits::admits(const Instance& instance) const {
  return instance.metric().num_points() <= max_points &&
         instance.demanded_union().count() <= max_union &&
         instance.num_requests() <= max_requests;
}

OfflineSolution solve_exact_small(const Instance& instance,
                                  const ExactSolverLimits& limits) {
  OMFLP_REQUIRE(limits.admits(instance),
                "solve_exact_small: instance exceeds the solver limits");
  const std::size_t points = instance.metric().num_points();
  const CommoditySet demanded = instance.demanded_union();

  const FacilityCostModel& cost = instance.cost();
  const CommodityId s = cost.num_commodities();
  const std::vector<CommodityId> members = demanded.to_vector();
  const std::size_t u = members.size();

  // Per-point configuration menu: none, every non-empty subset of U, and
  // (if distinct from U) the full S.
  std::vector<CommoditySet> menu;
  menu.emplace_back(s);  // "closed" sentinel: empty config
  for (std::size_t mask = 1; mask < (std::size_t{1} << u); ++mask) {
    CommoditySet sigma(s);
    for (std::size_t b = 0; b < u; ++b)
      if ((mask >> b) & 1U) sigma.add(members[b]);
    menu.push_back(std::move(sigma));
  }
  if (!CommoditySet::full_set(s).is_subset_of(demanded))
    menu.push_back(CommoditySet::full_set(s));

  OfflineSolution best;
  best.cost = std::numeric_limits<double>::infinity();

  // Depth-first cartesian product over per-point choices with opening-cost
  // pruning against the incumbent.
  std::vector<std::size_t> choice(points, 0);
  std::vector<PlacedFacility> open;

  auto evaluate_leaf = [&](double opening) {
    const double connect =
        total_assignment_cost(instance, std::span(open));
    if (!std::isfinite(connect)) return;
    const double total = opening + connect;
    if (total < best.cost) {
      best.cost = total;
      best.opening_cost = opening;
      best.connection_cost = connect;
      best.facilities = open;
    }
  };

  auto recurse = [&](auto&& self, std::size_t point,
                     double opening) -> void {
    if (opening >= best.cost) return;
    if (point == points) {
      evaluate_leaf(opening);
      return;
    }
    for (std::size_t c = 0; c < menu.size(); ++c) {
      if (menu[c].empty()) {
        self(self, point + 1, opening);
        continue;
      }
      const double f =
          cost.open_cost(static_cast<PointId>(point), menu[c]);
      if (opening + f >= best.cost) continue;
      open.push_back(PlacedFacility{static_cast<PointId>(point), menu[c]});
      self(self, point + 1, opening + f);
      open.pop_back();
    }
  };
  recurse(recurse, 0, 0.0);

  OMFLP_CHECK(std::isfinite(best.cost),
              "solve_exact_small: no feasible solution found (should be "
              "impossible: opening U everywhere is feasible)");
  best.exact = true;
  best.method = "exhaustive(one-config-per-point)";
  return best;
}

}  // namespace omflp
