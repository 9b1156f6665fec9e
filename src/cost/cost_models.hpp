// Concrete construction-cost models.
//
//   SizeOnlyCostModel    — f^σ_m = g(|σ|) for an arbitrary user function g
//                          (the paper's "cost depends only on the number of
//                          offered commodities" setting).
//   PolynomialCostModel  — the paper's class C (§3.3):
//                          g_x(|σ|) = scale·|σ|^{x/2}, x ∈ [0, 2].
//                          x = 2 is linear, x = 0 constant, x = 1 sqrt.
//   CeilRatioCostModel   — Theorem 2's adversarial cost
//                          g(|σ|) = ⌈|σ| / √|S|⌉.
//   LinearCostModel      — f^σ_m = Σ_{e∈σ} w_e (per-commodity weights;
//                          [Shmoys et al. 2004]'s restricted setting).
//   PointScaledCostModel — wraps a base model with per-point multipliers,
//                          giving non-uniform (location-dependent) costs.
//                          Multipliers preserve subadditivity and
//                          Condition 1 because both are per-point.
#pragma once

#include <functional>
#include <vector>

#include "cost/cost_model.hpp"

namespace omflp {

class SizeOnlyCostModel final : public FacilityCostModel {
 public:
  using SizeCostFn = std::function<double(CommodityId)>;

  /// g must be defined on [0, |S|] with g(0) == 0 and non-negative values.
  SizeOnlyCostModel(CommodityId num_commodities, SizeCostFn g,
                    std::string name = "size-only");

  CommodityId num_commodities() const noexcept override { return s_; }
  double open_cost(PointId m, const CommoditySet& config) const override;
  void open_cost_row(const CommoditySet& config,
                     std::span<double> out) const override;
  bool location_invariant() const noexcept override { return true; }
  std::optional<double> cost_by_size(PointId m, CommodityId k) const override {
    (void)m;
    return cost_of_size(k);
  }
  std::string description() const override { return name_; }

  /// Direct size-indexed access, bypassing set construction.
  double cost_of_size(CommodityId k) const;

 private:
  CommodityId s_;
  std::vector<double> by_size_;  // precomputed g(0..|S|)
  std::string name_;
};

/// The paper's cost class C = { g_x(k) = k^{x/2} : x ∈ [0,2] } (§3.3),
/// with an overall scale factor. g_x(0) = 0 by convention. g is
/// precomputed for every size 0..|S| at construction, so open_cost and
/// cost_of_size are table lookups.
class PolynomialCostModel final : public FacilityCostModel {
 public:
  PolynomialCostModel(CommodityId num_commodities, double exponent_x,
                      double scale = 1.0);

  CommodityId num_commodities() const noexcept override { return s_; }
  double open_cost(PointId m, const CommoditySet& config) const override;
  void open_cost_row(const CommoditySet& config,
                     std::span<double> out) const override;
  bool location_invariant() const noexcept override { return true; }
  std::optional<double> cost_by_size(PointId m, CommodityId k) const override {
    (void)m;
    return cost_of_size(k);
  }
  std::string description() const override;

  double exponent_x() const noexcept { return x_; }
  double scale() const noexcept { return scale_; }
  double cost_of_size(CommodityId k) const;

 private:
  CommodityId s_;
  double x_;
  double scale_;
  std::vector<double> by_size_;  // precomputed g_x(0..|S|)
};

/// Theorem 2's g(|σ|) = ⌈|σ| / √|S|⌉ (so a single commodity costs 1 and
/// the full universe costs √|S|·... precisely ⌈√|S|⌉).
class CeilRatioCostModel final : public FacilityCostModel {
 public:
  explicit CeilRatioCostModel(CommodityId num_commodities, double scale = 1.0);

  CommodityId num_commodities() const noexcept override { return s_; }
  double open_cost(PointId m, const CommoditySet& config) const override;
  void open_cost_row(const CommoditySet& config,
                     std::span<double> out) const override;
  bool location_invariant() const noexcept override { return true; }
  std::optional<double> cost_by_size(PointId m, CommodityId k) const override {
    (void)m;
    return cost_of_size(k);
  }
  std::string description() const override;

  double cost_of_size(CommodityId k) const;

 private:
  CommodityId s_;
  double sqrt_s_;
  double scale_;
};

/// f^σ_m = Σ_{e∈σ} w_e. Linear costs make commodity bundling worthless
/// (f^{a∪b} = f^a + f^b for disjoint a,b) — the regime where per-commodity
/// decomposition is optimal and prediction useless (x = 2 in class C).
class LinearCostModel final : public FacilityCostModel {
 public:
  /// Uniform weight w for every commodity.
  LinearCostModel(CommodityId num_commodities, double weight);
  /// Individual per-commodity weights.
  explicit LinearCostModel(std::vector<double> weights);

  CommodityId num_commodities() const noexcept override {
    return static_cast<CommodityId>(weights_.size());
  }
  double open_cost(PointId m, const CommoditySet& config) const override;
  bool location_invariant() const noexcept override { return true; }
  std::optional<std::vector<double>> additive_weights(
      PointId m) const override {
    (void)m;
    return weights_;
  }
  std::string description() const override;

 private:
  std::vector<double> weights_;
};

/// f^σ_m = multiplier[m] · base(σ). Models the paper's non-uniform setting
/// (opening costs differ between locations). Both subadditivity and
/// Condition 1 are preserved from the base model since the multiplier is
/// constant per point.
class PointScaledCostModel final : public FacilityCostModel {
 public:
  PointScaledCostModel(CostModelPtr base, std::vector<double> multipliers);

  CommodityId num_commodities() const noexcept override {
    return base_->num_commodities();
  }
  double open_cost(PointId m, const CommoditySet& config) const override;
  void open_cost_row(const CommoditySet& config,
                     std::span<double> out) const override;
  std::optional<double> cost_by_size(PointId m, CommodityId k) const override;
  std::optional<std::vector<double>> additive_weights(
      PointId m) const override;
  bool location_invariant() const noexcept override;
  std::string description() const override;

  std::size_t num_points() const noexcept { return multipliers_.size(); }

 private:
  CostModelPtr base_;
  std::vector<double> multipliers_;
};

}  // namespace omflp
