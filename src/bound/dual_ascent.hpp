// Dual-ascent OPT lower bounder.
//
// Produces a feasible point of the LP dual described in
// bound/certificate.hpp — and therefore a certified lower bound on OPT —
// by raising duals synchronously, Jain–Vazirani style, adapted to the
// multi-commodity configuration LP:
//
//   * Split weights. Each request splits its connection radius equally
//     over its demand set, u_{r,e} = 1/|s_r|. Since
//     Σ_{e∈σ∩s_r} d(m,r)/|s_r| ≤ d(m,r), the dual constraint (D) follows
//     from the per-commodity conditions
//         P_m(e) = Σ_{r: e∈s_r} (a_{r,e} − d(m,r)/|s_r|)₊ ≤ w_e(m)
//     for any per-commodity budgets with Σ_{e∈σ} w_e(m) ≤ f^σ_m for all σ.
//
//   * Budgets. Additive models report exact weights
//     (FacilityCostModel::additive_weights); size-only models use
//     w_e(m) = min_k g_m(k)/k (each commodity of a size-k configuration
//     can be charged f/k); any other model with |S| small enough is
//     handled by exhaustive enumeration w_e(m) = min_{σ∋e} f^σ_m/|σ|.
//     Unsupported structures throw BoundUnsupportedError — a smaller
//     feasible region is never silently invented.
//
//   * Ascent. Per commodity e, all active duals a_{r,e} rise at unit
//     speed; facility m accrues load Σ (t − d̃(m,r))₊ over the requests
//     that reached it (d̃ = d/|s_r|). When the load of some facility hits
//     its budget w_e(m), every active request that reached it freezes
//     (and requests reaching an exhausted facility later freeze on
//     contact), exactly the classic ascent specialized to budgeted
//     facilities. Event-driven: a priority queue over facilities with
//     (time, point id) ordering and lazy invalidation; freezes propagate
//     eagerly. The per-commodity run is strictly sequential, so results
//     are bitwise deterministic; commodities are processed via
//     parallel_for into pre-sized slots merged in commodity order, so the
//     certificate is identical for every OMFLP_THREADS value.
//
// The emitted DualCertificate is self-contained; callers are expected to
// run verify_certificate before trusting the bound (the `omflp bound`
// verb and estimate_opt both do).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "bound/certificate.hpp"
#include "instance/instance.hpp"

namespace omflp {

/// Thrown when no sound per-commodity budget can be derived for the
/// instance's cost model (not additive, not size-only, and the universe
/// is too large to enumerate configurations).
class BoundUnsupportedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct DualAscentOptions {
  /// |S| cap for the exhaustive budget derivation on unstructured models
  /// (2^|S| configuration enumerations per distinct point).
  CommodityId max_exhaustive_commodities = 16;
  /// Worker threads for the across-commodity fan-out (0 = default count).
  std::size_t threads = 0;
};

struct DualAscentResult {
  DualCertificate certificate;
  /// == certificate.objective; the certified lower bound on OPT.
  double lower_bound = 0.0;
  /// Dual variables raised to their freeze value (Σ_e |{r : e ∈ s_r}|);
  /// also ticked into the duals_raised PerfCounter.
  std::uint64_t duals_raised = 0;
  /// (commodity, point) pairs whose budget was driven tight.
  std::size_t tight_facilities = 0;
  /// Point with the smallest audited slack (first index on ties) — the
  /// binding facility of the certificate.
  PointId min_slack_point = 0;
};

/// Runs the ascent and assembles the certificate (including the audit
/// slack vector). Throws BoundUnsupportedError for unsupported cost
/// structures and std::invalid_argument on an empty instance.
DualAscentResult dual_ascent_lower_bound(const Instance& instance,
                                         const DualAscentOptions& options = {});

/// The per-commodity budgets w_e(m) used by the ascent at point m
/// (exposed for tests; same derivation rules as the bounder).
std::vector<double> commodity_budgets(const FacilityCostModel& cost,
                                      PointId m,
                                      const DualAscentOptions& options = {});

}  // namespace omflp
