// Exhaustive exact offline solver for tiny instances.
//
// Key structural fact (subadditive costs, the paper's §1.1 WLOG): an
// optimal solution never opens two facilities at the same point — merging
// them into their union costs no more to open (subadditivity) and no more
// to connect (a request connected to both paid the distance twice). So
// OPT is described by *one configuration per point* (possibly none), and
// the solver enumerates the cartesian product of per-point configuration
// choices, pricing assignments exactly with the set-cover DP.
//
// Candidate configurations per point: every non-empty subset of the
// demanded union U, plus the full S (which covers non-monotone costs
// where offering more is cheaper). Exact for subadditive cost models —
// which is every model in this library, and WLOG for the problem itself.
//
// Complexity: (2^|U| + 2)^|M| assignment evaluations in the worst case;
// the limits keep that around a few million.
#pragma once

#include <string>
#include <vector>

#include "instance/instance.hpp"
#include "offline/assignment.hpp"

namespace omflp {

struct OfflineSolution {
  double cost = 0.0;
  double opening_cost = 0.0;
  double connection_cost = 0.0;
  std::vector<PlacedFacility> facilities;
  bool exact = false;
  std::string method;
};

struct ExactSolverLimits {
  std::size_t max_points = 4;
  CommodityId max_union = 5;    // |U|
  std::size_t max_requests = 24;

  /// True when `instance` fits every limit.
  bool admits(const Instance& instance) const;
};

/// Throws if the instance exceeds the limits.
OfflineSolution solve_exact_small(const Instance& instance,
                                  const ExactSolverLimits& limits = {});

}  // namespace omflp
