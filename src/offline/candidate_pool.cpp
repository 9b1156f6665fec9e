#include "offline/candidate_pool.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace omflp {

namespace {

/// The point pool is every point of spaces with at most this many points.
constexpr std::size_t kAllPointsLimit = 96;

/// By size, then by the sorted member lists compared lexicographically.
/// Two distinct sets of one size first differ at the smallest element of
/// their symmetric difference, so the set holding it sorts first.
bool config_less(const CommoditySet& a, const CommoditySet& b) {
  if (a.count() != b.count()) return a.count() < b.count();
  const CommoditySet only_a = a - b;
  if (only_a.empty()) return false;  // equal sets
  return only_a.first() < (b - a).first();
}

}  // namespace

CandidatePool::CandidatePool(const Instance& instance)
    : instance_(&instance) {
  OMFLP_REQUIRE(instance.num_requests() > 0, "CandidatePool: empty instance");
  const std::size_t n = instance.num_requests();
  const std::size_t m = instance.metric().num_points();
  if (m <= kAllPointsLimit) {
    points_.resize(m);
    for (PointId p = 0; p < m; ++p) points_[p] = p;
  } else {
    for (const Request& r : instance.requests()) points_.push_back(r.location);
    std::sort(points_.begin(), points_.end());
    points_.erase(std::unique(points_.begin(), points_.end()), points_.end());
  }

  const CommodityId s = instance.num_commodities();
  const CommoditySet demanded = instance.demanded_union();
  demanded.for_each([&](CommodityId e) {
    configs_.push_back(CommoditySet::singleton(s, e));
  });
  for (const Request& r : instance.requests())
    configs_.push_back(r.commodities);
  configs_.push_back(demanded);
  configs_.push_back(CommoditySet::full_set(s));
  std::sort(configs_.begin(), configs_.end(), config_less);
  configs_.erase(std::unique(configs_.begin(), configs_.end()),
                 configs_.end());

  for (const Request& r : instance.requests())
    OMFLP_REQUIRE(r.commodities.count() <= 20,
                  "CandidatePool: demand set too large (more than 20)");

  rows_.reserve(points_.size() * n);
  for (PointId p : points_)
    for (const Request& r : instance.requests())
      rows_.push_back(instance.metric().distance(r.location, p));
  open_costs_.reserve(points_.size() * configs_.size());
  for (PointId p : points_)
    for (const CommoditySet& config : configs_)
      open_costs_.push_back(instance.cost().open_cost(p, config));

  cover_begin_.reserve(configs_.size() + 1);
  cover_begin_.push_back(0);
  for (const CommoditySet& config : configs_) {
    for (std::size_t i = 0; i < n; ++i)
      if (const std::uint32_t mask = local_mask(i, config))
        covers_.push_back(Cover{static_cast<std::uint32_t>(i), mask});
    cover_begin_.push_back(covers_.size());
  }
}

const double* CandidatePool::row_of(PointId p) const {
  const auto it = std::lower_bound(points_.begin(), points_.end(), p);
  OMFLP_CHECK(it != points_.end() && *it == p,
              "CandidatePool: facility outside the candidate pool");
  return row(static_cast<std::size_t>(it - points_.begin()));
}

std::uint32_t CandidatePool::local_mask(std::size_t i,
                                        const CommoditySet& config) const {
  std::uint32_t mask = 0;
  std::uint32_t bit = 1;
  instance_->requests()[i].commodities.for_each([&](CommodityId e) {
    if (config.contains(e)) mask |= bit;
    bit <<= 1;
  });
  return mask;
}

}  // namespace omflp
