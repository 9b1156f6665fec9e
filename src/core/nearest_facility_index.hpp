// NearestFacilityIndex — "nearest open facility in a group", per point.
//
// The online algorithms ask on every arrival for d(F(e), r), the distance
// from the request's point to the nearest open facility offering
// commodity e (PD-OMFLP constraint (1), RAND-OMFLP's X(r, e)), and for
// d(F̂, r), the nearest large facility. Facilities are irrevocable, so on
// streams with deletions the facility lists grow with the stream's
// history while the live request set stays bounded: a linear scan per
// query makes the per-arrival cost grow with history.
//
// The index keeps one append-only facility list per group (a commodity,
// or a caller-defined set of large facilities) and, per group, a lazily
// materialized |M|-length table of uint32 positions into that list:
// table[p] is the first-listed facility at minimal distance from p. It is
// exactly the answer of the linear scan
//
//   best = +inf; for f in list: if d(p, f.point) < best: best = d, arg = f
//
// A facility at +inf distance is never recorded and a NaN distance never
// wins, as in the scan. Opening a facility updates a materialized table
// with a strict < against the current entry, so ties keep the
// first-opened facility. Every distance is read as DistanceOracle::at(p,
// point), bitwise what the scan reads as row(p)[point], and no row
// pointer is held: the uncached oracle's row() buffer is single-slot.
//
// Tables are derived state. A group's table materializes on the group's
// first query with a non-empty list (|M|·|list| distance reads) and is
// maintained by add() from then on (at most 2·|M| reads per facility).
// reset() leaves every table unmaterialized, so an algorithm restored
// from a checkpoint re-adds its facility lists and each table is rebuilt
// on its first query. Groups that are never queried never pay for one.
//
// Work counters (perf/perf_counters.hpp), ticked here in bulk:
//   distance_lookups  — every distance actually read: one per answered
//                       query, plus table rebuilds and maintenance;
//   facilities_probed — facility records a query examines: one per
//                       answered query (a query on an empty group or at a
//                       point no facility reaches examines none).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "metric/distance_oracle.hpp"
#include "support/types.hpp"

namespace omflp {

class NearestFacilityIndex {
 public:
  struct Entry {
    PointId point = 0;
    FacilityId id = kInvalidFacility;
  };
  /// Position value meaning "no facility reaches this point".
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Nearest {
    double distance = kInfiniteDistance;
    FacilityId id = kInvalidFacility;
    /// Index of the facility in facilities(group); kNone when none.
    std::uint32_t position = kNone;
  };

  /// Empties every group and drops every table. `dist` must outlive the
  /// index (or the next reset()).
  void reset(std::size_t num_groups, const DistanceOracle* dist);

  /// Appends facility (point, id) to `group`'s list and, when the group's
  /// table is materialized, moves every point it is strictly closer to.
  void add(std::size_t group, PointId point, FacilityId id);

  /// The first-listed facility at minimal distance from p, as the linear
  /// scan over facilities(group) would return it. Materializes the
  /// group's table on first use (tables are derived state, hence const).
  Nearest nearest(std::size_t group, PointId p) const;

  /// The group's facilities in the order they were added.
  std::span<const Entry> facilities(std::size_t group) const {
    return groups_[group].list;
  }

 private:
  struct Group {
    std::vector<Entry> list;
    /// |M| positions into `list` once materialized; empty while stale.
    mutable std::vector<std::uint32_t> table;
  };

  void rebuild(const Group& group) const;

  const DistanceOracle* dist_ = nullptr;
  std::size_t num_points_ = 0;
  std::vector<Group> groups_;
};

}  // namespace omflp
