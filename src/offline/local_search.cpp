#include "offline/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "support/assert.hpp"

namespace omflp {

LocalSearchState::LocalSearchState(const CandidatePool& pool)
    : pool_(pool) {
  table_begin_.reserve(pool.instance().num_requests() + 1);
  table_begin_.push_back(0);
  for (std::size_t i = 0; i < pool.instance().num_requests(); ++i)
    table_begin_.push_back(table_begin_.back() +
                           (std::size_t{1} << pool.demand_size(i)));
  tables_.resize(table_begin_.back());
}

void LocalSearchState::set_facilities(
    std::vector<PlacedFacility> facilities) {
  facilities_ = std::move(facilities);
  rebuild();
}

double LocalSearchState::add_delta(std::size_t k, std::size_t j) const {
  double delta = pool_.open_cost(k, j);
  const double* distance = pool_.row(k);
  for (const CandidatePool::Cover& c : pool_.covers(j)) {
    const std::span<const double> dp = table_of(c.request);
    const std::size_t full = dp.size() - 1;
    // Optimal cover using the new facility at most once.
    const double with_f =
        dp[full & ~std::size_t{c.mask}] + distance[c.request];
    if (with_f < dp[full]) delta += with_f - dp[full];
  }
  return delta;
}

double LocalSearchState::drop_delta(std::size_t fi) {
  double connect = 0.0;
  for (std::size_t i = 0; i < pool_.instance().num_requests(); ++i) {
    const std::span<const double> table = table_of(i);
    double c = table.back();
    const std::size_t first = usable_begin_[i];
    const std::size_t last = usable_begin_[i + 1];
    std::size_t at = first;
    while (at < last && usable_facility_[at] != fi) ++at;
    if (at < last) {
      reduced_.assign(usable_.begin() + static_cast<std::ptrdiff_t>(first),
                      usable_.begin() + static_cast<std::ptrdiff_t>(last));
      reduced_.erase(reduced_.begin() +
                     static_cast<std::ptrdiff_t>(at - first));
      scratch_.resize(table.size());
      assignment_dp(reduced_, pool_.demand_size(i), scratch_);
      c = scratch_.back();
    }
    if (!std::isfinite(c)) return kInfiniteDistance;
    connect += c;
  }
  if (!std::isfinite(connect)) return kInfiniteDistance;
  const PlacedFacility& f = facilities_[fi];
  const double opening =
      opening_ - pool_.instance().cost().open_cost(f.point, f.config);
  return opening + connect - total_cost();
}

std::span<const double> LocalSearchState::table_of(std::size_t i) const {
  return {tables_.data() + table_begin_[i],
          tables_.data() + table_begin_[i + 1]};
}

void LocalSearchState::rebuild() {
  opening_ = 0.0;
  std::vector<const double*> rows;
  rows.reserve(facilities_.size());
  for (const PlacedFacility& f : facilities_) {
    opening_ += pool_.instance().cost().open_cost(f.point, f.config);
    rows.push_back(pool_.row_of(f.point));
  }
  connection_ = 0.0;
  usable_.clear();
  usable_facility_.clear();
  usable_begin_.assign(1, 0);
  for (std::size_t i = 0; i < pool_.instance().num_requests(); ++i) {
    const std::size_t first = usable_.size();
    for (std::size_t g = 0; g < facilities_.size(); ++g) {
      if (const std::uint32_t mask =
              pool_.local_mask(i, facilities_[g].config)) {
        usable_.push_back(UsableFacility{mask, rows[g][i]});
        usable_facility_.push_back(g);
      }
    }
    usable_begin_.push_back(usable_.size());
    const std::span<double> table(tables_.data() + table_begin_[i],
                                  tables_.data() + table_begin_[i + 1]);
    assignment_dp(std::span(usable_).subspan(first), pool_.demand_size(i),
                  table);
    connection_ += table.back();
  }
}

namespace {

/// Cap on improving moves: each round applies the single best add or drop.
constexpr std::size_t kLocalSearchRounds = 50;

std::vector<PlacedFacility> initial_solution(const Instance& instance) {
  // One facility per distinct request location holding the union of
  // demands seen there — feasible and a natural starting point. A
  // std::map keeps the accumulation pass itself in sorted point order
  // (the facility list seeds the deterministic search).
  std::map<PointId, CommoditySet> unions;
  for (const Request& r : instance.requests()) {
    auto [it, inserted] = unions.emplace(r.location, r.commodities);
    if (!inserted) it->second |= r.commodities;
  }
  std::vector<PlacedFacility> facilities;
  facilities.reserve(unions.size());
  for (const auto& [point, config] : unions)
    facilities.push_back(PlacedFacility{point, config});
  return facilities;
}

}  // namespace

OfflineSolution solve_local_search(const CandidatePool& pool) {
  LocalSearchState state(pool);
  state.set_facilities(initial_solution(pool.instance()));

  for (std::size_t round = 0; round < kLocalSearchRounds; ++round) {
    double best_delta = -1e-9;  // strict improvement only
    enum class Kind { kNone, kAdd, kDrop } kind = Kind::kNone;
    PlacedFacility best_add;
    std::size_t best_drop = 0;

    for (std::size_t k = 0; k < pool.points().size(); ++k) {
      for (std::size_t j = 0; j < pool.configs().size(); ++j) {
        const double delta = state.add_delta(k, j);
        if (delta < best_delta) {
          best_delta = delta;
          kind = Kind::kAdd;
          best_add = PlacedFacility{pool.points()[k], pool.configs()[j]};
        }
      }
    }
    for (std::size_t fi = 0; fi < state.facilities().size(); ++fi) {
      const double delta = state.drop_delta(fi);
      if (delta < best_delta) {
        best_delta = delta;
        kind = Kind::kDrop;
        best_drop = fi;
      }
    }

    if (kind == Kind::kNone) break;
    std::vector<PlacedFacility> next = state.facilities();
    if (kind == Kind::kAdd) {
      next.push_back(best_add);
      // Merge with an existing facility at the same point (subadditivity
      // makes the union at most as expensive; assignments only improve).
      for (std::size_t i = 0; i + 1 < next.size(); ++i) {
        if (next[i].point == best_add.point) {
          next[i].config |= best_add.config;
          next.pop_back();
          break;
        }
      }
    } else {
      next.erase(next.begin() + static_cast<std::ptrdiff_t>(best_drop));
    }
    state.set_facilities(std::move(next));
  }

  OfflineSolution solution;
  solution.cost = state.total_cost();
  solution.opening_cost = state.opening_cost();
  solution.connection_cost = state.connection_cost();
  solution.facilities = state.facilities();
  solution.exact = false;
  solution.method = "local-search";
  return solution;
}

OfflineSolution solve_local_search(const Instance& instance) {
  OMFLP_REQUIRE(instance.num_requests() > 0,
                "solve_local_search: empty instance");
  return solve_local_search(CandidatePool(instance));
}

}  // namespace omflp
