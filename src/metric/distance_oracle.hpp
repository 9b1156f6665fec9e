// DistanceOracle — memoized distance lookups for algorithm hot loops.
//
// PD-OMFLP evaluates d(m, r) for every point m of the space at every event;
// going through the MetricSpace virtual call each time dominates runtime
// for matrix-free metrics (Euclidean). The oracle precomputes the dense
// |M|×|M| matrix when it fits under a size limit and falls back to direct
// calls beyond it.
#pragma once

#include <vector>

#include "metric/metric_space.hpp"
#include "perf/perf_counters.hpp"

namespace omflp {

class DistanceOracle {
 public:
  /// cache_limit: maximum |M| for which the dense matrix is materialized
  /// (default 4096 points = 128 MiB of doubles).
  explicit DistanceOracle(MetricPtr metric, std::size_t cache_limit = 4096);

  std::size_t num_points() const noexcept { return n_; }

  double operator()(PointId a, PointId b) const {
    OMFLP_PERF_COUNT(distance_lookups);
    return at(a, b);
  }

  /// d(a, b), bitwise equal to row(a)[b] on both paths, without a
  /// counter tick and without touching the fallback row buffer — for
  /// loops that read scattered entries and tick one bulk
  /// OMFLP_PERF_ADD themselves.
  double at(PointId a, PointId b) const {
    if (!matrix_.empty()) return matrix_[static_cast<std::size_t>(a) * n_ + b];
    return metric_->distance(a, b);
  }

  /// Contiguous distance row d(p, ·) for branch-free kernel loops (by
  /// metric symmetry also usable as d(·, p)). On the cached path this is
  /// a pointer into the dense matrix, valid for the oracle's lifetime; on
  /// the fallback path the row is materialized into a single reusable
  /// buffer, so the pointer is only valid until the next row() call for a
  /// different point (and the oracle is not usable from several threads
  /// at once — one oracle per algorithm instance, as everywhere in this
  /// repo). Repeated row(p) calls for the same p reuse the buffer.
  ///
  /// Deliberately counter-free: hot loops tick
  /// OMFLP_PERF_ADD(distance_lookups, n) once per row sweep, keeping
  /// BENCH counter totals identical to the historical per-element
  /// operator() ticks (see src/kernel/kernels.hpp).
  const double* row(PointId p) const {
    if (!matrix_.empty()) return matrix_.data() + static_cast<std::size_t>(p) * n_;
    return fallback_row(p);
  }

  bool cached() const noexcept { return !matrix_.empty(); }
  const MetricSpace& metric() const noexcept { return *metric_; }

 private:
  const double* fallback_row(PointId p) const;

  MetricPtr metric_;
  std::size_t n_;
  std::vector<double> matrix_;
  /// Single-slot materialized-row cache for the uncached path.
  mutable std::vector<double> fallback_row_;
  mutable PointId fallback_point_ = kInvalidPoint;
};

}  // namespace omflp
