// Local-search offline solver — the workhorse OPT upper bound for
// benchmark-scale instances (computing true OPT is NP-hard via weighted
// set cover, Ravi–Sinha 2004).
//
// Solution representation: a set of placed facilities; assignments are
// always *exactly* optimal for the current facility set (set-cover DP per
// request, offline/assignment.hpp), so the search only has to explore
// facility sets.
//
// Candidate pool: the (point, configuration) pairs of
// offline/candidate_pool.hpp, shared with the greedy-star solver.
//
// Moves, best-improvement per round until a fixpoint or the round limit:
//   * add a candidate facility (delta-evaluated in O(1) per request the
//     configuration covers, from the cached per-request DP tables and the
//     pool's local cover masks);
//   * drop an open facility (the DP re-run, over the request's cached
//     usable facilities minus the dropped one, only for the requests the
//     facility can serve);
//   * merge all facilities at one point into their union (free
//     improvement under subadditivity).
// The result is an upper bound on OPT; tests check it against the exact
// solver on tiny instances and generators' certificates.
#pragma once

#include <span>
#include <vector>

#include "instance/instance.hpp"
#include "offline/assignment.hpp"
#include "offline/candidate_pool.hpp"
#include "offline/exact_small.hpp"

namespace omflp {

/// solve_local_search's state: a facility set, each request's DP table
/// and usable facilities against it, and the move deltas; public for its
/// tests. Every facility must stand at a pool point.
class LocalSearchState {
 public:
  explicit LocalSearchState(const CandidatePool& pool);

  void set_facilities(std::vector<PlacedFacility> facilities);
  const std::vector<PlacedFacility>& facilities() const noexcept {
    return facilities_;
  }
  double opening_cost() const noexcept { return opening_; }
  double connection_cost() const noexcept { return connection_; }
  double total_cost() const noexcept { return opening_ + connection_; }

  /// Cost delta of adding (points()[k], configs()[j]) (negative =
  /// improvement) from the cached DP tables, visiting only the requests
  /// the configuration covers — the others gain nothing from it — in
  /// request order.
  double add_delta(std::size_t k, std::size_t j) const;
  /// Cost delta of dropping facility index fi (infinity if infeasible).
  /// A request that cannot use the facility keeps its DP table, so its
  /// cached cost is reused; the others re-run the DP over their usable
  /// facilities minus fi, in facility order as assignment_dp lists them.
  /// The sum runs in request order like total_assignment_cost, infinity
  /// included.
  double drop_delta(std::size_t fi);

 private:
  std::span<const double> table_of(std::size_t i) const;
  void rebuild();

  const CandidatePool& pool_;
  std::vector<PlacedFacility> facilities_;
  /// Request i's DP table at tables_[table_begin_[i] .. table_begin_[i+1]).
  std::vector<std::size_t> table_begin_;
  std::vector<double> tables_;
  /// Request i's usable facilities, in facility order, at
  /// [usable_begin_[i], usable_begin_[i + 1]) of usable_ (cover mask and
  /// distance) and usable_facility_ (the facility's index).
  std::vector<std::size_t> usable_begin_;
  std::vector<UsableFacility> usable_;
  std::vector<std::size_t> usable_facility_;
  std::vector<UsableFacility> reduced_;  // drop_delta scratch
  std::vector<double> scratch_;          // drop_delta scratch
  double opening_ = 0.0;
  double connection_ = 0.0;
};

/// Best-improvement add/drop moves over `pool`, at most 50 of them.
OfflineSolution solve_local_search(const CandidatePool& pool);

/// Builds the default candidate pool and searches over it.
OfflineSolution solve_local_search(const Instance& instance);

}  // namespace omflp
