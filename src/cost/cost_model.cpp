#include "cost/cost_model.hpp"

#include "support/assert.hpp"

namespace omflp {

void FacilityCostModel::open_cost_row(const CommoditySet& config,
                                      std::span<double> out) const {
  check_config(config);
  for (std::size_t m = 0; m < out.size(); ++m)
    out[m] = open_cost(static_cast<PointId>(m), config);
}

double FacilityCostModel::singleton_cost(PointId m, CommodityId e) const {
  return open_cost(m, CommoditySet::singleton(num_commodities(), e));
}

double FacilityCostModel::full_cost(PointId m) const {
  return open_cost(m, CommoditySet::full_set(num_commodities()));
}

CommodityId FacilityCostModel::check_config(const CommoditySet& config) const {
  OMFLP_REQUIRE(config.universe_size() == num_commodities(),
                "FacilityCostModel: configuration universe mismatch");
  return config.count();
}

}  // namespace omflp
