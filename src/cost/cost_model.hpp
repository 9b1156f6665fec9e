// FacilityCostModel — the construction cost function f^σ_m of the paper.
//
// A facility opened at point m with configuration σ ⊆ S costs
// open_cost(m, σ). The paper's analysis assumes
//   * subadditivity:  f^{a∪b}_m ≤ f^a_m + f^b_m   (always WLOG, §1.1), and
//   * Condition 1:    f^σ_m / |σ| ≥ f^S_m / |S|   (per-commodity cost is
//     minimal for the full configuration).
// Models declare whether they satisfy these structurally; cost/checks.hpp
// verifies the claims empirically on concrete universes.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/commodity_set.hpp"
#include "support/types.hpp"

namespace omflp {

class FacilityCostModel {
 public:
  virtual ~FacilityCostModel() = default;

  /// |S|: configurations passed to open_cost must use this universe size.
  virtual CommodityId num_commodities() const noexcept = 0;

  /// f^σ_m — cost of opening a facility with configuration σ at point m.
  /// Must be non-negative; empty σ must cost 0. Throws on universe
  /// mismatch.
  virtual double open_cost(PointId m, const CommoditySet& config) const = 0;

  /// One configuration at every point: out[m] = open_cost(m, config),
  /// bitwise, for m < out.size(). Throws as open_cost would (universe
  /// mismatch, point out of range). The default loops over open_cost;
  /// models that price a configuration once per row override it. The
  /// exhaustive certificate checker asks for one row per configuration.
  virtual void open_cost_row(const CommoditySet& config,
                             std::span<double> out) const;

  /// True if open_cost is independent of the point m (uniform costs). Lets
  /// algorithms collapse per-point bookkeeping (e.g. RAND-OMFLP's cost
  /// classes degenerate to a single class).
  virtual bool location_invariant() const noexcept { return false; }

  /// If the cost depends only on |σ| at point m, returns g(k); otherwise
  /// std::nullopt. Offline solvers use this for exact O(k²) set-cover
  /// dynamic programs instead of the O(3^|S|) general subset DP.
  virtual std::optional<double> cost_by_size(PointId m, CommodityId k) const {
    (void)m;
    (void)k;
    return std::nullopt;
  }

  /// If the cost is additive at point m — f^σ_m = Σ_{e∈σ} w_e(m) exactly —
  /// returns the per-commodity weights (size |S|); otherwise std::nullopt.
  /// The dual-ascent lower bounder (src/bound/) uses these as exact
  /// per-commodity facility budgets; the certificate checker spot-checks
  /// the claim against open_cost before relying on it.
  virtual std::optional<std::vector<double>> additive_weights(
      PointId m) const {
    (void)m;
    return std::nullopt;
  }

  virtual std::string description() const = 0;

  /// Cost of a small facility {e} at m; convenience used pervasively by
  /// the algorithms (Algorithm 1's Constraint (3)).
  double singleton_cost(PointId m, CommodityId e) const;

  /// Cost of a large facility (all of S) at m (Constraint (4)).
  double full_cost(PointId m) const;

 protected:
  /// Helper for implementations: validates σ's universe and non-emptiness
  /// conventions. Returns |σ|.
  CommodityId check_config(const CommoditySet& config) const;
};

using CostModelPtr = std::shared_ptr<const FacilityCostModel>;

}  // namespace omflp
