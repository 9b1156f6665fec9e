// Greedy star solver — the offline MFLP approximation in the spirit of
// Ravi–Sinha (SODA 2004), who obtained an O(log |S|) approximation via
// greedy set-cover over "stars".
//
// A star is a facility (m, σ) together with a set of requests it serves;
// its cost is f^σ_m plus the connection distances, its value the number
// of (request, commodity) pairs it newly covers. The greedy repeatedly
// opens the star with the best cost-per-covered-pair ratio until every
// pair is covered, then recomputes the final assignment exactly (the
// greedy's serving sets are only used for selection).
//
// Lazy evaluation (CELF, Leskovec et al., KDD 2007). A candidate (m, σ)'s
// value is its best star ratio, min over request subsets T of
// (f^σ_m + Σ_{r∈T} d(m,r)) / Σ_{r∈T} |uncovered_r ∩ σ|; the optimal T is a
// prefix of the requests in increasing distance per newly covered
// commodity, so one sort and one prefix scan evaluate it. Covering pairs
// only shrinks every |uncovered_r ∩ σ|, so a value can only rise: a key
// computed in an earlier round is a lower bound. The solver keeps a
// min-heap on (key, candidate index), re-evaluates a popped stale key and
// pushes it back, and commits a popped key that is fresh (evaluated since
// the last commit). The heap's (key, index) minimum is the eager scan's
// pick, the first candidate with the strictly smallest ratio. A stale key
// and its fresh value are summed in different orders, so rounding could
// flip a near-tie; before a commit every stale key within 1e-9 relative of
// the pick is re-evaluated, which keeps the picks, and so the result,
// bitwise those of the eager scan.
//
// Restriction (documented deviation): Ravi–Sinha search over all σ ⊆ S
// via a subroutine; we restrict candidate configurations to the
// structures an optimum plausibly uses — singletons of the demanded
// union, the distinct request demand sets, the union itself and the full
// S — the same pool as the local-search solver. The result is an OPT
// upper bound used for cross-checking local search and for benches; the
// exact solvers remain the ground truth on tiny instances.
#pragma once

#include "instance/instance.hpp"
#include "offline/exact_small.hpp"

namespace omflp {

struct GreedyStarOptions {
  /// Point pool switches from "all points" to "request locations" above
  /// this |M| (same convention as local search).
  std::size_t all_points_limit = 96;
};

OfflineSolution solve_greedy_star(const Instance& instance,
                                  const GreedyStarOptions& options = {});

}  // namespace omflp
