#include "bound/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "bound/window.hpp"
#include "offline/opt_estimate.hpp"

namespace omflp {

namespace {

BoundOutcome run_dual_ascent(const Instance& instance,
                             const DualAscentOptions& options) {
  const DualAscentResult res = dual_ascent_lower_bound(instance, options);
  if (const auto violation = verify_certificate(instance, res.certificate))
    throw std::logic_error(
        "bound method dual-ascent: certificate failed verification: " +
        *violation);
  BoundOutcome out;
  out.lower = res.lower_bound;
  out.exact = false;
  out.method = res.certificate.method;
  out.certificate = res.certificate;
  return out;
}

BoundOutcome run_exact_small(const Instance& instance,
                             const DualAscentOptions& /*options*/) {
  if (!ExactSolverLimits{}.admits(instance))
    throw BoundUnsupportedError(
        "bound method exact-small: instance exceeds ExactSolverLimits");
  const OfflineSolution sol = solve_exact_small(instance);
  BoundOutcome out;
  out.lower = sol.cost;
  out.exact = sol.exact;
  out.method = sol.method;
  return out;
}

BoundOutcome run_certificate(const Instance& instance,
                             const DualAscentOptions& /*options*/) {
  const auto& cert = instance.opt_certificate();
  if (!cert || !cert->exact)
    throw BoundUnsupportedError(
        "bound method certificate: instance carries no exact generator "
        "certificate");
  BoundOutcome out;
  out.lower = cert->upper_bound;
  out.exact = true;
  out.method = "certificate(exact)";
  return out;
}

BoundOutcome run_chunked(const Instance& instance,
                         const DualAscentOptions& options) {
  WindowBoundOptions wopt;
  wopt.ascent = options;
  const ChunkedBound chunked = bound_instance_chunked(instance, wopt);
  BoundOutcome out;
  out.lower = chunked.lower;
  out.exact = false;
  std::ostringstream os;
  os << "chunked(" << chunked.chunks << ")";
  out.method = os.str();
  return out;
}

BoundOutcome run_auto(const Instance& instance,
                      const DualAscentOptions& options) {
  if (const std::optional<OptEstimate> exact = exact_opt(instance)) {
    BoundOutcome out;
    out.lower = exact->cost;
    out.exact = exact->exact;
    out.method = exact->method;
    return out;
  }
  try {
    return run_dual_ascent(instance, options);
  } catch (const BoundUnsupportedError&) {
  }
  return run_chunked(instance, options);
}

}  // namespace

BoundOutcome certificate_outcome(const Instance& instance,
                                 const BoundOutcome& outcome) {
  if (outcome.certificate) return outcome;
  if (!outcome.exact)
    throw std::invalid_argument("bound: method '" + outcome.method +
                                "' produced no certificate to save");
  return run_dual_ascent(instance, DualAscentOptions{});
}

const BoundRegistry& default_bound_registry() {
  static const BoundRegistry registry = [] {
    BoundRegistry r;
    r.add({"dual-ascent",
           "native dual-ascent LP bound with a verified certificate",
           run_dual_ascent});
    r.add({"exact-small",
           "exhaustive exact solver (tiny instances only)",
           run_exact_small});
    r.add({"certificate",
           "exact OPT recorded by an adversarial generator",
           run_certificate});
    r.add({"chunked",
           "max over contiguous-chunk dual-ascent bounds (any size)",
           run_chunked});
    r.add({"auto",
           "strongest applicable: certificate, single-point DP, "
           "exact-small, dual-ascent, chunked",
           run_auto});
    return r;
  }();
  return registry;
}

}  // namespace omflp
