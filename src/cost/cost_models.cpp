#include "cost/cost_models.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/assert.hpp"

namespace omflp {

SizeOnlyCostModel::SizeOnlyCostModel(CommodityId num_commodities, SizeCostFn g,
                                     std::string name)
    : s_(num_commodities), name_(std::move(name)) {
  OMFLP_REQUIRE(s_ > 0, "SizeOnlyCostModel: |S| must be positive");
  OMFLP_REQUIRE(g != nullptr, "SizeOnlyCostModel: null cost function");
  by_size_.resize(s_ + 1);
  for (CommodityId k = 0; k <= s_; ++k) {
    by_size_[k] = g(k);
    OMFLP_REQUIRE(std::isfinite(by_size_[k]) && by_size_[k] >= 0.0,
                  "SizeOnlyCostModel: g must be finite and non-negative");
  }
  OMFLP_REQUIRE(by_size_[0] == 0.0, "SizeOnlyCostModel: g(0) must be 0");
}

double SizeOnlyCostModel::open_cost(PointId /*m*/,
                                    const CommoditySet& config) const {
  return by_size_[check_config(config)];
}

void SizeOnlyCostModel::open_cost_row(const CommoditySet& config,
                                      std::span<double> out) const {
  std::fill(out.begin(), out.end(), by_size_[check_config(config)]);
}

double SizeOnlyCostModel::cost_of_size(CommodityId k) const {
  OMFLP_REQUIRE(k <= s_, "cost_of_size: size exceeds |S|");
  return by_size_[k];
}

PolynomialCostModel::PolynomialCostModel(CommodityId num_commodities,
                                         double exponent_x, double scale)
    : s_(num_commodities), x_(exponent_x), scale_(scale) {
  OMFLP_REQUIRE(s_ > 0, "PolynomialCostModel: |S| must be positive");
  OMFLP_REQUIRE(x_ >= 0.0 && x_ <= 2.0,
                "PolynomialCostModel: x must lie in [0, 2] (class C)");
  OMFLP_REQUIRE(scale_ > 0.0, "PolynomialCostModel: scale must be positive");
  by_size_.resize(std::size_t{s_} + 1);
  for (std::size_t k = 1; k < by_size_.size(); ++k)
    by_size_[k] = scale_ * std::pow(static_cast<double>(k), x_ / 2.0);
}

double PolynomialCostModel::open_cost(PointId /*m*/,
                                      const CommoditySet& config) const {
  return by_size_[check_config(config)];
}

void PolynomialCostModel::open_cost_row(const CommoditySet& config,
                                        std::span<double> out) const {
  std::fill(out.begin(), out.end(), by_size_[check_config(config)]);
}

double PolynomialCostModel::cost_of_size(CommodityId k) const {
  OMFLP_REQUIRE(k <= s_, "cost_of_size: size exceeds |S|");
  return by_size_[k];
}

std::string PolynomialCostModel::description() const {
  std::ostringstream os;
  os << "g_x(|sigma|)=" << scale_ << "*|sigma|^" << (x_ / 2.0);
  return os.str();
}

CeilRatioCostModel::CeilRatioCostModel(CommodityId num_commodities,
                                       double scale)
    : s_(num_commodities),
      sqrt_s_(std::sqrt(static_cast<double>(num_commodities))),
      scale_(scale) {
  OMFLP_REQUIRE(s_ > 0, "CeilRatioCostModel: |S| must be positive");
  OMFLP_REQUIRE(scale_ > 0.0, "CeilRatioCostModel: scale must be positive");
}

double CeilRatioCostModel::open_cost(PointId /*m*/,
                                     const CommoditySet& config) const {
  return cost_of_size(check_config(config));
}

void CeilRatioCostModel::open_cost_row(const CommoditySet& config,
                                       std::span<double> out) const {
  std::fill(out.begin(), out.end(), cost_of_size(check_config(config)));
}

double CeilRatioCostModel::cost_of_size(CommodityId k) const {
  OMFLP_REQUIRE(k <= s_, "cost_of_size: size exceeds |S|");
  if (k == 0) return 0.0;
  return scale_ * std::ceil(static_cast<double>(k) / sqrt_s_);
}

std::string CeilRatioCostModel::description() const {
  std::ostringstream os;
  os << "ceil(|sigma|/sqrt(" << s_ << "))*" << scale_;
  return os.str();
}

LinearCostModel::LinearCostModel(CommodityId num_commodities, double weight)
    : weights_(num_commodities, weight) {
  OMFLP_REQUIRE(num_commodities > 0, "LinearCostModel: |S| must be positive");
  OMFLP_REQUIRE(std::isfinite(weight) && weight >= 0.0,
                "LinearCostModel: weight must be finite and non-negative");
}

LinearCostModel::LinearCostModel(std::vector<double> weights)
    : weights_(std::move(weights)) {
  OMFLP_REQUIRE(!weights_.empty(), "LinearCostModel: |S| must be positive");
  for (double w : weights_)
    OMFLP_REQUIRE(std::isfinite(w) && w >= 0.0,
                  "LinearCostModel: weights must be finite and non-negative");
}

double LinearCostModel::open_cost(PointId /*m*/,
                                  const CommoditySet& config) const {
  check_config(config);
  double acc = 0.0;
  config.for_each([&](CommodityId e) { acc += weights_[e]; });
  return acc;
}

std::string LinearCostModel::description() const {
  std::ostringstream os;
  os << "linear(|S|=" << weights_.size() << ")";
  return os.str();
}

PointScaledCostModel::PointScaledCostModel(CostModelPtr base,
                                           std::vector<double> multipliers)
    : base_(std::move(base)), multipliers_(std::move(multipliers)) {
  OMFLP_REQUIRE(base_ != nullptr, "PointScaledCostModel: null base model");
  OMFLP_REQUIRE(!multipliers_.empty(),
                "PointScaledCostModel: need at least one point");
  for (double f : multipliers_)
    OMFLP_REQUIRE(std::isfinite(f) && f > 0.0,
                  "PointScaledCostModel: multipliers must be positive");
}

double PointScaledCostModel::open_cost(PointId m,
                                       const CommoditySet& config) const {
  OMFLP_REQUIRE(m < multipliers_.size(),
                "PointScaledCostModel: point out of range");
  return multipliers_[m] * base_->open_cost(m, config);
}

void PointScaledCostModel::open_cost_row(const CommoditySet& config,
                                         std::span<double> out) const {
  OMFLP_REQUIRE(out.size() <= multipliers_.size(),
                "PointScaledCostModel: point out of range");
  base_->open_cost_row(config, out);
  for (std::size_t m = 0; m < out.size(); ++m) out[m] *= multipliers_[m];
}

std::optional<double> PointScaledCostModel::cost_by_size(PointId m,
                                                         CommodityId k) const {
  OMFLP_REQUIRE(m < multipliers_.size(),
                "PointScaledCostModel: point out of range");
  const auto base = base_->cost_by_size(m, k);
  if (!base) return std::nullopt;
  return multipliers_[m] * *base;
}

std::optional<std::vector<double>> PointScaledCostModel::additive_weights(
    PointId m) const {
  OMFLP_REQUIRE(m < multipliers_.size(),
                "PointScaledCostModel: point out of range");
  auto base = base_->additive_weights(m);
  if (!base) return std::nullopt;
  for (double& w : *base) w *= multipliers_[m];
  return base;
}

bool PointScaledCostModel::location_invariant() const noexcept {
  if (!base_->location_invariant()) return false;
  return std::all_of(multipliers_.begin(), multipliers_.end(),
                     [&](double f) { return f == multipliers_.front(); });
}

std::string PointScaledCostModel::description() const {
  std::ostringstream os;
  os << "point-scaled(" << base_->description() << ", "
     << multipliers_.size() << " points)";
  return os.str();
}

}  // namespace omflp
