// Tests for the cost substrate: the concrete models, the paper's
// Condition 1 / subadditivity checkers (positively and negatively), the
// power-of-two rounding, and the cost-class index used by RAND-OMFLP.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/per_commodity.hpp"
#include "cost/checks.hpp"
#include "cost/cost_classes.hpp"
#include "cost/cost_models.hpp"
#include "cost/heavy.hpp"
#include "instance/transforms.hpp"
#include "metric/line_metric.hpp"
#include "metric/metric_space.hpp"
#include "scenario/scenario_registry.hpp"
#include "support/rng.hpp"

namespace omflp {
namespace {

TEST(SizeOnlyCostModel, TableAndSetAgree) {
  SizeOnlyCostModel m(8, [](CommodityId k) { return 2.0 * k; });
  EXPECT_DOUBLE_EQ(m.cost_of_size(3), 6.0);
  EXPECT_DOUBLE_EQ(m.open_cost(0, CommoditySet(8, {1, 4, 6})), 6.0);
  EXPECT_DOUBLE_EQ(m.open_cost(5, CommoditySet(8, {1})), 2.0);
  EXPECT_TRUE(m.location_invariant());
  ASSERT_TRUE(m.cost_by_size(0, 2).has_value());
  EXPECT_DOUBLE_EQ(*m.cost_by_size(0, 2), 4.0);
}

TEST(SizeOnlyCostModel, RejectsBadFunctions) {
  EXPECT_THROW(
      SizeOnlyCostModel(4, [](CommodityId k) { return k == 0 ? 1.0 : 1.0; }),
      std::invalid_argument);  // g(0) != 0
  EXPECT_THROW(SizeOnlyCostModel(4, [](CommodityId) { return -1.0; }),
               std::invalid_argument);
  EXPECT_THROW(SizeOnlyCostModel(4, nullptr), std::invalid_argument);
}

TEST(PolynomialCostModel, ClassCEndpoints) {
  // x = 0: constant 1 for any non-empty config.
  PolynomialCostModel constant(16, 0.0);
  EXPECT_DOUBLE_EQ(constant.cost_of_size(1), 1.0);
  EXPECT_DOUBLE_EQ(constant.cost_of_size(16), 1.0);
  // x = 1: sqrt.
  PolynomialCostModel root(16, 1.0);
  EXPECT_DOUBLE_EQ(root.cost_of_size(4), 2.0);
  EXPECT_DOUBLE_EQ(root.cost_of_size(16), 4.0);
  // x = 2: linear.
  PolynomialCostModel linear(16, 2.0);
  EXPECT_DOUBLE_EQ(linear.cost_of_size(5), 5.0);
  EXPECT_DOUBLE_EQ(linear.cost_of_size(0), 0.0);
}

// g is a table built at construction; every entry must be bitwise the
// closed form the model used to evaluate per call, and open_cost must
// read the same entry. Scale and x pass through volatiles so the
// reference pow runs in libm, as the model's does, not in the compiler.
TEST(PolynomialCostModel, TableIsBitwiseTheClosedForm) {
  constexpr CommodityId kS = 24;
  Rng rng(2024);
  for (const double x_value : {0.0, 0.5, 1.0, 1.7, 2.0}) {
    for (const double scale_value : {1.0, 2.0, 0.37}) {
      const volatile double x = x_value;
      const volatile double scale = scale_value;
      const PolynomialCostModel model(kS, x, scale);
      EXPECT_EQ(model.cost_of_size(0), 0.0);
      for (CommodityId k = 1; k <= kS; ++k)
        EXPECT_EQ(model.cost_of_size(k),
                  scale * std::pow(static_cast<double>(k), x / 2.0))
            << "x=" << x_value << " scale=" << scale_value << " k=" << k;
      for (int trial = 0; trial < 64; ++trial) {
        CommoditySet config(kS);
        const CommodityId size =
            static_cast<CommodityId>(1 + rng.uniform_index(kS));
        for (std::size_t e : rng.sample_without_replacement(kS, size))
          config.add(static_cast<CommodityId>(e));
        const PointId m = static_cast<PointId>(rng.uniform_index(8));
        EXPECT_EQ(model.open_cost(m, config), model.cost_of_size(size));
        EXPECT_EQ(*model.cost_by_size(m, size), model.cost_of_size(size));
      }
      EXPECT_THROW((void)model.cost_of_size(kS + 1), std::invalid_argument);
    }
  }
}

TEST(PolynomialCostModel, RejectsOutOfClassExponent) {
  EXPECT_THROW(PolynomialCostModel(4, -0.1), std::invalid_argument);
  EXPECT_THROW(PolynomialCostModel(4, 2.1), std::invalid_argument);
}

TEST(CeilRatioCostModel, Theorem2Cost) {
  // |S| = 64: g(k) = ceil(k/8).
  CeilRatioCostModel m(64);
  EXPECT_DOUBLE_EQ(m.cost_of_size(1), 1.0);
  EXPECT_DOUBLE_EQ(m.cost_of_size(8), 1.0);
  EXPECT_DOUBLE_EQ(m.cost_of_size(9), 2.0);
  EXPECT_DOUBLE_EQ(m.cost_of_size(64), 8.0);
}

TEST(LinearCostModel, PerCommodityWeights) {
  LinearCostModel m({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(m.open_cost(0, CommoditySet(3, {0, 2})), 5.0);
  EXPECT_DOUBLE_EQ(m.open_cost(0, CommoditySet::full_set(3)), 7.0);
  LinearCostModel uniform(4, 3.0);
  EXPECT_DOUBLE_EQ(uniform.open_cost(0, CommoditySet::full_set(4)), 12.0);
}

TEST(PointScaledCostModel, ScalesPerPoint) {
  auto base = std::make_shared<PolynomialCostModel>(8, 1.0);
  PointScaledCostModel scaled(base, {1.0, 2.0, 0.5});
  const CommoditySet sigma(8, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(scaled.open_cost(0, sigma), 2.0);
  EXPECT_DOUBLE_EQ(scaled.open_cost(1, sigma), 4.0);
  EXPECT_DOUBLE_EQ(scaled.open_cost(2, sigma), 1.0);
  EXPECT_FALSE(scaled.location_invariant());
  EXPECT_THROW((void)scaled.open_cost(3, sigma), std::invalid_argument);
  ASSERT_TRUE(scaled.cost_by_size(1, 4).has_value());
  EXPECT_DOUBLE_EQ(*scaled.cost_by_size(1, 4), 4.0);

  PointScaledCostModel uniform(base, {2.0, 2.0});
  EXPECT_TRUE(uniform.location_invariant());
}

// ---------------------------------------------------- paper conditions ---

class ClassCCondition1 : public ::testing::TestWithParam<double> {};

TEST_P(ClassCCondition1, HoldsForAllExponents) {
  const double x = GetParam();
  PolynomialCostModel m(10, x);
  EXPECT_FALSE(check_condition1_exhaustive(m, 1).has_value()) << "x=" << x;
  EXPECT_FALSE(check_subadditivity_exhaustive(m, 1).has_value())
      << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(CostClassSweep, ClassCCondition1,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0, 1.25,
                                           1.5, 1.75, 2.0));

TEST(CostChecks, Theorem2CostSatisfiesCondition1) {
  CeilRatioCostModel small(9);  // g(k) = ceil(k/3)
  EXPECT_FALSE(check_condition1_exhaustive(small, 1).has_value());
  EXPECT_FALSE(check_subadditivity_exhaustive(small, 1).has_value());
  CeilRatioCostModel big(16);  // subadditivity checker capped at |S| <= 12
  EXPECT_FALSE(check_condition1_exhaustive(big, 1).has_value());
  Rng rng(7);
  EXPECT_FALSE(check_subadditivity_sampled(big, 1, 500, rng).has_value());
}

TEST(CostChecks, UniformLinearSatisfiesBothButSkewedLinearViolatesCond1) {
  // With equal weights Condition 1 holds with equality everywhere.
  LinearCostModel uniform(4, 2.0);
  EXPECT_FALSE(check_condition1_exhaustive(uniform, 1).has_value());
  EXPECT_FALSE(check_subadditivity_exhaustive(uniform, 1).has_value());
  // Heterogeneous weights break Condition 1: the cheap commodity's
  // per-commodity cost (0.5) undercuts the full-set average (6.5/4).
  // Subadditivity (which holds with equality for linear costs) survives.
  LinearCostModel skewed({1.0, 2.0, 3.0, 0.5});
  EXPECT_TRUE(check_condition1_exhaustive(skewed, 1).has_value());
  EXPECT_FALSE(check_subadditivity_exhaustive(skewed, 1).has_value());
}

TEST(CostChecks, DetectsCondition1Violation) {
  // g(1) = 0.1 but g(2)/2 = 0.5: singletons are cheaper per commodity
  // than the full set — Condition 1 fails.
  SizeOnlyCostModel m(2, [](CommodityId k) {
    return k == 0 ? 0.0 : (k == 1 ? 0.1 : 1.0);
  });
  EXPECT_TRUE(check_condition1_exhaustive(m, 1).has_value());
  Rng rng(1);
  EXPECT_TRUE(check_condition1_sampled(m, 1, 500, rng).has_value());
}

TEST(CostChecks, DetectsSubadditivityViolation) {
  // g(2) = 5 > g(1) + g(1) = 2.
  SizeOnlyCostModel m(2, [](CommodityId k) {
    return k == 0 ? 0.0 : (k == 1 ? 1.0 : 5.0);
  });
  EXPECT_TRUE(check_subadditivity_exhaustive(m, 1).has_value());
  Rng rng(1);
  EXPECT_TRUE(check_subadditivity_sampled(m, 1, 2000, rng).has_value());
}

TEST(CostChecks, SampledPassesOnValidModels) {
  PolynomialCostModel m(64, 1.0);
  Rng rng(2);
  EXPECT_FALSE(check_condition1_sampled(m, 4, 300, rng).has_value());
  EXPECT_FALSE(check_subadditivity_sampled(m, 4, 300, rng).has_value());
}

// ----------------------------------------------------------- rounding ----

TEST(RoundDownPow2, ExactAndInexact) {
  EXPECT_DOUBLE_EQ(round_down_pow2(0.0), 0.0);
  EXPECT_DOUBLE_EQ(round_down_pow2(1.0), 1.0);
  EXPECT_DOUBLE_EQ(round_down_pow2(2.0), 2.0);
  EXPECT_DOUBLE_EQ(round_down_pow2(3.0), 2.0);
  EXPECT_DOUBLE_EQ(round_down_pow2(4.0), 4.0);
  EXPECT_DOUBLE_EQ(round_down_pow2(7.9), 4.0);
  EXPECT_DOUBLE_EQ(round_down_pow2(0.75), 0.5);
  EXPECT_DOUBLE_EQ(round_down_pow2(0.5), 0.5);
  EXPECT_THROW(round_down_pow2(-1.0), std::invalid_argument);
}

TEST(RoundDownPow2, WithinFactorTwoProperty) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = std::exp(rng.uniform(-10.0, 10.0));
    const double r = round_down_pow2(x);
    EXPECT_LE(r, x);
    EXPECT_GT(2.0 * r, x);
  }
}

// ------------------------------------------------------- cost classes ----

TEST(CostClassIndex, UniformCostSingleClass) {
  auto metric = LineMetric::uniform_grid(8, 10.0);
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0);
  CostClassIndex idx(metric, cost, CommoditySet::full_set(4));
  EXPECT_EQ(idx.num_classes(), 1u);
  EXPECT_DOUBLE_EQ(idx.class_cost(0), 2.0);  // sqrt(4) = 2 is a power of 2
  const auto [d, p] = idx.prefix_nearest(0, 3);
  EXPECT_DOUBLE_EQ(d, 0.0);
  EXPECT_EQ(p, 3u);
}

TEST(CostClassIndex, NonUniformClassesAndPrefixMonotonicity) {
  auto metric = LineMetric::uniform_grid(4, 30.0);  // points at 0,10,20,30
  auto base = std::make_shared<PolynomialCostModel>(2, 2.0);
  // Multipliers chosen so rounded costs are 2,2,8,16 for |σ|=2.
  auto cost = std::make_shared<PointScaledCostModel>(
      base, std::vector<double>{1.0, 1.2, 4.0, 8.0});
  CostClassIndex idx(metric, cost, CommoditySet::full_set(2));
  ASSERT_EQ(idx.num_classes(), 3u);
  EXPECT_DOUBLE_EQ(idx.class_cost(0), 2.0);
  EXPECT_DOUBLE_EQ(idx.class_cost(1), 8.0);
  EXPECT_DOUBLE_EQ(idx.class_cost(2), 16.0);
  EXPECT_EQ(idx.class_of_point(0), 0u);
  EXPECT_EQ(idx.class_of_point(1), 0u);
  EXPECT_EQ(idx.class_of_point(2), 1u);
  EXPECT_EQ(idx.class_of_point(3), 2u);
  EXPECT_DOUBLE_EQ(idx.true_cost(3), 16.0);

  // From point 3 the prefix distances must be non-increasing in i.
  double prev = kInfiniteDistance;
  for (std::size_t i = 0; i < idx.num_classes(); ++i) {
    const auto [d, p] = idx.prefix_nearest(i, 3);
    EXPECT_LE(d, prev);
    prev = d;
  }
  // Prefix 0 from point 3: nearest cheap point is 1 (distance 20).
  const auto [d0, p0] = idx.prefix_nearest(0, 3);
  EXPECT_DOUBLE_EQ(d0, 20.0);
  EXPECT_EQ(p0, 1u);
}

TEST(CostClassIndex, BestOpenOptionTradesCostAgainstDistance) {
  auto metric = LineMetric::uniform_grid(2, 100.0);  // points at 0 and 100
  auto base = std::make_shared<PolynomialCostModel>(1, 2.0);
  // Point 0 expensive (64), point 1 cheap (1).
  auto cost = std::make_shared<PointScaledCostModel>(
      base, std::vector<double>{64.0, 1.0});
  CostClassIndex idx(metric, cost, CommoditySet::full_set(1));
  // From point 0: open locally for 64, or remotely for 1 + 100.
  const auto best0 = idx.best_open_option(0);
  EXPECT_DOUBLE_EQ(best0.cost, 64.0);
  EXPECT_EQ(best0.point, 0u);
  // From point 1: local cheap facility wins outright.
  const auto best1 = idx.best_open_option(1);
  EXPECT_DOUBLE_EQ(best1.cost, 1.0);
  EXPECT_EQ(best1.point, 1u);
}

TEST(CostClassIndex, RejectsEmptyConfig) {
  auto metric = LineMetric::uniform_grid(2, 1.0);
  auto cost = std::make_shared<PolynomialCostModel>(2, 1.0);
  EXPECT_THROW(CostClassIndex(metric, cost, CommoditySet(2)),
               std::invalid_argument);
}

// ------------------------------------------------------------ cost rows ---

/// open_cost_row must equal open_cost bit for bit at every point, for
/// every configuration of a small universe, and reject a foreign
/// universe just as open_cost does.
void expect_rows_match(const FacilityCostModel& model, std::size_t points,
                       const std::string& label) {
  const CommodityId s = model.num_commodities();
  ASSERT_LE(s, 6u) << label;
  std::vector<double> row(points);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << s); ++mask) {
    CommoditySet config(s);
    for (CommodityId e = 0; e < s; ++e)
      if ((mask >> e) & 1) config.add(e);
    std::fill(row.begin(), row.end(), -1.0);
    model.open_cost_row(config, row);
    for (PointId m = 0; m < points; ++m)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row[m]),
                std::bit_cast<std::uint64_t>(model.open_cost(m, config)))
          << label << " config " << config.to_string() << " point " << m;
  }
  EXPECT_THROW(model.open_cost_row(CommoditySet(s + 1), row),
               std::invalid_argument)
      << label;
}

TEST(OpenCostRow, EqualsOpenCostBitwiseForEveryModel) {
  constexpr std::size_t kPoints = 7;
  const auto poly = std::make_shared<PolynomialCostModel>(5, 1.3, 2.5);
  const std::vector<double> multipliers = {1.0, 0.3, 7.25, 1.0 / 3.0,
                                           2.0, 1e-3, 11.0};
  const std::vector<std::pair<std::string, CostModelPtr>> models = {
      {"size-only", std::make_shared<SizeOnlyCostModel>(
                        6, [](CommodityId k) { return std::sqrt(k) / 3.0; })},
      {"polynomial", poly},
      {"ceil-ratio", std::make_shared<CeilRatioCostModel>(6, 0.7)},
      {"linear", std::make_shared<LinearCostModel>(
                     std::vector<double>{0.1, 0.2, 0.3, 1.0 / 7.0})},
      {"heavy-tail",
       std::make_shared<HeavyTailCostModel>(
           6, [](CommodityId k) { return std::sqrt(k); },
           CommoditySet(6, {1, 4}),
           std::vector<double>{0, 5.5, 0, 0, 1.0 / 3.0, 0})},
      {"point-scaled",
       std::make_shared<PointScaledCostModel>(poly, multipliers)},
      {"point-scaled(ceil)",
       std::make_shared<PointScaledCostModel>(
           std::make_shared<CeilRatioCostModel>(4), multipliers)},
      {"scaled", std::make_shared<ScaledCostModel>(poly, 1.0 / 3.0)},
      {"restricted", std::make_shared<RestrictedCostModel>(poly, 3)}};
  for (const auto& [label, model] : models)
    expect_rows_match(*model, kPoints, label);

  // figure3's engineered model is reachable only through its scenario.
  const Instance fig3 = default_scenario_registry().make("figure3", 1);
  expect_rows_match(fig3.cost(), fig3.metric().num_points(), "figure3");
}

TEST(OpenCostRow, PointScaledRejectsRowsBeyondItsPoints) {
  const PointScaledCostModel model(
      std::make_shared<PolynomialCostModel>(3, 1.0), {1.0, 2.0});
  std::vector<double> row(3);
  EXPECT_THROW(model.open_cost_row(CommoditySet(3, {0}), row),
               std::invalid_argument);
}

}  // namespace
}  // namespace omflp
