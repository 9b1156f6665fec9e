#include "core/nearest_facility_index.hpp"

#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

void NearestFacilityIndex::reset(std::size_t num_groups,
                                 const DistanceOracle* dist) {
  OMFLP_REQUIRE(dist != nullptr, "NearestFacilityIndex: null oracle");
  dist_ = dist;
  num_points_ = dist->num_points();
  groups_.clear();
  groups_.resize(num_groups);
}

void NearestFacilityIndex::add(std::size_t group, PointId point,
                               FacilityId id) {
  Group& g = groups_[group];
  OMFLP_CHECK(g.list.size() < kNone, "NearestFacilityIndex: group overflow");
  const auto position = static_cast<std::uint32_t>(g.list.size());
  g.list.push_back(Entry{point, id});
  if (g.table.empty()) return;  // stale: rebuilt on the next query
  std::uint64_t reads = num_points_;
  for (PointId m = 0; m < num_points_; ++m) {
    const double d_new = dist_->at(m, point);
    const std::uint32_t current = g.table[m];
    if (current == kNone) {
      if (d_new < kInfiniteDistance) g.table[m] = position;
      continue;
    }
    ++reads;
    if (d_new < dist_->at(m, g.list[current].point)) g.table[m] = position;
  }
  OMFLP_PERF_ADD(distance_lookups, reads);
}

void NearestFacilityIndex::rebuild(const Group& g) const {
  g.table.assign(num_points_, kNone);
  for (PointId m = 0; m < num_points_; ++m) {
    double best = kInfiniteDistance;
    for (std::size_t k = 0; k < g.list.size(); ++k) {
      const double d = dist_->at(m, g.list[k].point);
      if (d < best) {
        best = d;
        g.table[m] = static_cast<std::uint32_t>(k);
      }
    }
  }
  OMFLP_PERF_ADD(distance_lookups, num_points_ * g.list.size());
}

NearestFacilityIndex::Nearest NearestFacilityIndex::nearest(
    std::size_t group, PointId p) const {
  const Group& g = groups_[group];
  if (g.list.empty()) return {};
  if (g.table.empty()) rebuild(g);
  const std::uint32_t position = g.table[p];
  if (position == kNone) return {};
  OMFLP_PERF_COUNT(facilities_probed);
  OMFLP_PERF_COUNT(distance_lookups);
  const Entry& f = g.list[position];
  return Nearest{dist_->at(p, f.point), f.id, position};
}

}  // namespace omflp
