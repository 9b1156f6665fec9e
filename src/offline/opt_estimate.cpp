#include "offline/opt_estimate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "bound/dual_ascent.hpp"
#include "bound/window.hpp"
#include "offline/greedy_star.hpp"
#include "offline/single_point.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

bool all_requests_at_one_point(const Instance& instance) {
  if (instance.num_requests() == 0) return false;
  const PointId loc = instance.request(0).location;
  for (const Request& r : instance.requests())
    if (r.location != loc) return false;
  return true;
}

// Attaches the certified lower bound (OptEstimate::lower). On exact
// estimates the lower bound IS the exact value — and the dual-ascent
// certificate, when the bounder supports the instance, is cross-checked
// against it: weak duality guarantees LB ≤ OPT, so a violation is a
// soundness bug in the bounder or the exact solver and throws rather
// than silently reporting an invalid bracket.
void attach_lower(const Instance& instance, const OptEstimateOptions& options,
                  OptEstimate& est) {
  if (est.exact) {
    est.lower = est.cost;
    est.lower_certified = true;
    est.lower_method = est.method;
    if (!options.compute_lower) return;
    try {
      const DualAscentResult res = dual_ascent_lower_bound(instance);
      if (const auto violation = verify_certificate(instance, res.certificate))
        throw std::logic_error(
            "estimate_opt: dual certificate failed verification: " +
            *violation);
      const double tol = 1e-9 * std::max(1.0, std::abs(est.cost));
      if (res.lower_bound > est.cost + tol) {
        std::ostringstream os;
        os << "estimate_opt: dual lower bound " << res.lower_bound
           << " exceeds exact OPT " << est.cost
           << " — weak duality violated (bounder or exact solver bug)";
        throw std::logic_error(os.str());
      }
    } catch (const BoundUnsupportedError&) {
      // Cost structure outside the bounder's scope; the exact value still
      // certifies itself.
    }
    return;
  }
  if (!options.compute_lower) return;
  try {
    const ChunkedBound chunked = bound_instance_chunked(instance);
    est.lower = chunked.lower;
    est.lower_certified = true;
    est.lower_method =
        chunked.chunks == 1 ? "dual-ascent"
                            : "dual-ascent/chunked(" +
                                  std::to_string(chunked.chunks) + ")";
  } catch (const BoundUnsupportedError&) {
    est.lower = 0.0;
    est.lower_certified = false;
    est.lower_method = "unsupported";
  }
  if (est.lower > est.cost) {
    std::ostringstream os;
    os << "estimate_opt: certified lower bound " << est.lower
       << " exceeds the upper estimate " << est.cost << " (" << est.method
       << ") — the upper-bound solver produced an infeasible cost";
    throw std::logic_error(os.str());
  }
}

}  // namespace

std::optional<OptEstimate> exact_opt(const Instance& instance) {
  const auto& cert = instance.opt_certificate();
  if (cert && cert->exact)
    return OptEstimate{cert->upper_bound, true, "certificate(exact)"};

  if (all_requests_at_one_point(instance)) {
    const bool size_only =
        instance.cost().cost_by_size(instance.request(0).location, 1)
            .has_value();
    if (size_only || instance.demanded_union().count() <= 20)
      return OptEstimate{solve_single_point_instance(instance), true,
                         "single-point-dp"};
  }

  if (ExactSolverLimits{}.admits(instance)) {
    const OfflineSolution sol = solve_exact_small(instance);
    return OptEstimate{sol.cost, sol.exact, sol.method};
  }
  return std::nullopt;
}

OptEstimate estimate_opt(const Instance& instance,
                         const OptEstimateOptions& options) {
  OMFLP_REQUIRE(instance.num_requests() > 0, "estimate_opt: empty instance");

  if (std::optional<OptEstimate> est = exact_opt(instance)) {
    attach_lower(instance, options, *est);
    return *est;
  }

  const auto& cert = instance.opt_certificate();
  OMFLP_REQUIRE(options.allow_local_search || cert.has_value(),
                "estimate_opt: no applicable bound (local search disabled "
                "and no certificate)");

  OptEstimate best;
  best.cost = kInfiniteDistance;
  if (options.allow_local_search) {
    const CandidatePool pool(instance);
    const OfflineSolution sol = solve_local_search(pool);
    best = OptEstimate{sol.cost, sol.exact, sol.method};
    const OfflineSolution greedy = solve_greedy_star(pool);
    if (greedy.cost < best.cost)
      best = OptEstimate{greedy.cost, greedy.exact, greedy.method};
  }
  if (cert && cert->upper_bound < best.cost)
    best = OptEstimate{cert->upper_bound, false, "certificate(upper-bound)"};
  attach_lower(instance, options, best);
  return best;
}

}  // namespace omflp
