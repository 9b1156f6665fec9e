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
// commodity, so one ordered walk and one prefix scan evaluate it. Covering
// pairs only shrinks every |uncovered_r ∩ σ|, so a value can only rise: a
// key computed in an earlier round is a lower bound. The solver keeps a
// min-heap on (key, candidate index), re-evaluates a popped stale key and
// pushes it back, and commits a popped key that is fresh (evaluated since
// the last commit). The heap's (key, index) minimum is the eager scan's
// pick, the first candidate with the strictly smallest ratio. A stale key
// and its fresh value are summed in different orders, so rounding could
// flip a near-tie; before a commit every stale key within 1e-9 relative of
// the pick is re-evaluated, which keeps the picks, and so the result,
// bitwise those of the eager scan.
//
// Early-stopped stars. A star's walk pops its requests from a heap in
// (unit cost, request) order instead of sorting all of them, and stops
// once the next unit cost exceeds the best prefix ratio so far by a guard
// that covers the summation's rounding; no later prefix could then have a
// strictly smaller computed ratio, so the walk returns the full sort's
// ratio and prefix bit for bit (the proof is at StarWalk in the source).
//
// Restriction (documented deviation): Ravi–Sinha search over all σ ⊆ S
// via a subroutine; we restrict candidate configurations to the
// structures an optimum plausibly uses — singletons of the demanded
// union, the distinct request demand sets, the union itself and the full
// S — the candidate pool it shares with the local-search solver
// (offline/candidate_pool.hpp). The result is an OPT
// upper bound used for cross-checking local search and for benches; the
// exact solvers remain the ground truth on tiny instances.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "instance/instance.hpp"
#include "offline/candidate_pool.hpp"
#include "offline/exact_small.hpp"

namespace omflp {

/// solve_greedy_star's star evaluation over a candidate pool, against the
/// (request, commodity) pairs still uncovered; public for its tests.
class StarWalk {
 public:
  /// A request the star newly covers.
  struct Gain {
    double unit_cost;  // distance / covered
    double distance;
    std::uint32_t covered;
    std::uint32_t request;
  };
  struct Star {
    /// min over prefixes of (f + Σ distance) / Σ covered, gains in (unit
    /// cost, request) order; +inf when no prefix has a finite ratio or
    /// nothing is newly covered.
    double ratio = std::numeric_limits<double>::infinity();
    /// Length of the first prefix attaining `ratio`.
    std::size_t prefix = 0;
    /// Whether the star newly covers any pair.
    bool covers = false;
  };

  /// Every pair starts uncovered.
  explicit StarWalk(const CandidatePool& pool);

  std::size_t open_pairs() const noexcept { return open_pairs_; }
  const CommoditySet& uncovered(std::size_t i) const {
    return uncovered_[i];
  }

  /// The best star of (points()[k], configs()[j]). It walks the gains
  /// only as far as a later prefix could still improve the ratio; the
  /// result is bitwise that of sorting every gain and scanning every
  /// prefix.
  Star evaluate(std::size_t k, std::size_t j);
  /// The last evaluation's walked gains, in (unit cost, request) order; a
  /// prefix of the full sort that holds at least the chosen prefix.
  std::span<const Gain> walked() const noexcept { return walked_; }
  /// Covers the pairs of the first `prefix` walked gains of the last
  /// evaluation, which was of a star with configuration configs()[j].
  void cover(std::size_t j, std::size_t prefix);

 private:
  const CandidatePool& pool_;
  const std::size_t n_;
  std::vector<CommoditySet> uncovered_;
  std::size_t open_pairs_ = 0;
  /// The walk's relative stopping guard (see the proof in the source).
  double guard_ = 0.0;
  /// order_[k·n + t]: the t-th nearest request to points()[k], ties by
  /// request index.
  std::vector<std::uint32_t> order_;
  /// Per configuration, the most pairs it covers at any one request.
  std::vector<double> most_covered_;
  std::vector<Gain> heap_;
  std::vector<Gain> walked_;
};

OfflineSolution solve_greedy_star(const CandidatePool& pool);

/// Builds the default candidate pool and solves over it.
OfflineSolution solve_greedy_star(const Instance& instance);

}  // namespace omflp
