// Candidate pool shared by the greedy-star and local-search solvers.
//
// Both solvers price facilities (m, σ) from the same pool: σ ranges over
// the configurations an optimum plausibly uses — singletons of the
// demanded union, the distinct request demand sets, the demanded union
// itself and the full S — and m over all points of spaces with at most
// 96 points, or the distinct request locations of larger ones (where
// every point would make the pool, not the search, the cost). The pool
// derives them once
// and keeps what both solvers read in their inner loops:
//   * one row of d(location of request i, m) per point, read from the
//     metric in that argument order, so every distance is bitwise the
//     metric's;
//   * f^σ_m for every (point, configuration) pair;
//   * per configuration, the requests it covers (s_r ∩ σ ≠ ∅) in request
//     order, each with the local mask of σ over s_r: bit b set iff the
//     b-th smallest commodity of s_r is in σ — the encoding of the
//     assignment DP (offline/assignment.hpp).
// The pool's lists are O(|configs|·n); the rows O(|points|·n).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "instance/instance.hpp"

namespace omflp {

class CandidatePool {
 public:
  /// A request that a configuration covers, with the configuration's
  /// local mask over the request's demand set.
  struct Cover {
    std::uint32_t request = 0;
    std::uint32_t mask = 0;
  };

  /// Requires a non-empty instance whose demand sets have at most 20
  /// commodities (the assignment DP's limit). The pool refers to
  /// `instance`, which must outlive it, as the pool must outlive any
  /// StarWalk or LocalSearchState built on it.
  explicit CandidatePool(const Instance& instance);

  const Instance& instance() const noexcept { return *instance_; }
  /// Ascending.
  const std::vector<PointId>& points() const noexcept { return points_; }
  /// By size, then lexicographically by sorted members.
  const std::vector<CommoditySet>& configs() const noexcept {
    return configs_;
  }
  /// d(location of request i, points()[k]) at index i.
  const double* row(std::size_t k) const noexcept {
    return rows_.data() + k * instance_->num_requests();
  }
  /// The row of point p; p must be in points().
  const double* row_of(PointId p) const;
  /// f^σ_m for m = points()[k], σ = configs()[j].
  double open_cost(std::size_t k, std::size_t j) const noexcept {
    return open_costs_[k * configs_.size() + j];
  }
  /// The requests configs()[j] covers, in request order.
  std::span<const Cover> covers(std::size_t j) const noexcept {
    return {covers_.data() + cover_begin_[j],
            covers_.data() + cover_begin_[j + 1]};
  }
  /// Local mask of an arbitrary configuration over request i's demand.
  std::uint32_t local_mask(std::size_t i, const CommoditySet& config) const;
  /// |s_r| of request i.
  std::size_t demand_size(std::size_t i) const noexcept {
    return instance_->requests()[i].commodities.count();
  }

 private:
  const Instance* instance_;
  std::vector<PointId> points_;
  std::vector<CommoditySet> configs_;
  std::vector<double> rows_;
  std::vector<double> open_costs_;
  std::vector<std::size_t> cover_begin_;
  std::vector<Cover> covers_;
};

}  // namespace omflp
