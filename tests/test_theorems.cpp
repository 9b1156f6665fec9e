// Theorem-level integration tests: these check the paper's actual claims
// against the implementation — the Theorem 4 explicit bound against exact
// optima, Corollary 17's dual feasibility, the Theorem 2 sandwich on the
// adversarial distribution, and the √|S| separation from the trivial
// per-commodity baseline that motivates the whole paper.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/competitive.hpp"
#include "baseline/per_commodity.hpp"
#include "bound/certificate.hpp"
#include "bound/dual_ascent.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "metric/line_metric.hpp"
#include "offline/exact_small.hpp"
#include "support/harmonic.hpp"
#include "support/stats.hpp"

namespace omflp {
namespace {

Instance tiny_random_instance(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> positions;
  for (int i = 0; i < 3; ++i) positions.push_back(rng.uniform(0.0, 20.0));
  auto metric = std::make_shared<LineMetric>(std::move(positions));
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0, 2.3);
  std::vector<Request> reqs;
  const std::size_t n = 4 + rng.uniform_index(8);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(3));
    r.commodities = sample_demand_set(
        4, static_cast<CommodityId>(1 + rng.uniform_index(3)), 0.0, rng);
    reqs.push_back(std::move(r));
  }
  return Instance(std::move(metric), std::move(cost), std::move(reqs),
                  "tiny-random");
}

// ------------------------------------------------------------ Theorem 4 --

class Theorem4 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem4, PdCostWithinExplicitBoundOfExactOpt) {
  const Instance inst = tiny_random_instance(GetParam());
  const OfflineSolution opt = solve_exact_small(inst);
  ASSERT_TRUE(opt.exact);
  ASSERT_GT(opt.cost, 0.0);

  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, inst);
  const double bound =
      theorem4_bound(inst.num_commodities(), inst.num_requests());
  EXPECT_LE(ledger.total_cost(), bound * opt.cost + 1e-7)
      << "PD cost " << ledger.total_cost() << " vs 15·√S·H_n·OPT = "
      << bound * opt.cost;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem4,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

// -------------------------------------------------------- Corollary 17 ---

// Corollary 17 as a certificate: PD's duals, scaled by γ, sealed into a
// DualCertificate that the one (D) checker, verify_certificate, must
// accept. It runs its exhaustive path on both families (2^|S|·n·|M| is
// far inside its work budget), so every configuration at every point is
// checked.
std::optional<std::string> verify_scaled_pd_duals(const Instance& inst,
                                                  const PdOmflp& pd,
                                                  double gamma) {
  std::vector<std::vector<double>> duals(inst.num_requests());
  for (const PdDualRecord& rec : pd.dual_records())
    for (const double a : rec.duals) duals.at(rec.id).push_back(gamma * a);
  const DualCertificate cert = seal_certificate(
      inst, RequestDistanceRows(inst), std::move(duals), "pd-scaled");
  return verify_certificate(inst, cert);
}

class DualFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DualFeasibility, ScaledDualsAreFeasibleExhaustively) {
  // |S| = 4: all 15 configurations at every point.
  const Instance inst = tiny_random_instance(GetParam() * 31 + 7);
  PdOmflp pd;
  (void)run_online(pd, inst);
  const double gamma =
      pd_scaling_factor(inst.num_commodities(), inst.num_requests());
  EXPECT_EQ(verify_scaled_pd_duals(inst, pd, gamma), std::nullopt);
}

TEST_P(DualFeasibility, ScaledDualsFeasibleOnLargerInstances) {
  // |S| = 10: all 1,023 configurations at each of the 14 points.
  Rng rng(GetParam() * 17 + 3);
  UniformLineConfig cfg;
  cfg.num_points = 14;
  cfg.num_requests = 60;
  cfg.num_commodities = 10;
  cfg.max_demand = 5;
  auto cost = std::make_shared<PolynomialCostModel>(10, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  PdOmflp pd;
  (void)run_online(pd, inst);
  const double gamma = pd_scaling_factor(10, cfg.num_requests);
  EXPECT_EQ(verify_scaled_pd_duals(inst, pd, gamma), std::nullopt);
}

TEST_P(DualFeasibility, UnscaledDualsViolateSomewhere) {
  // Sanity check that the checker has teeth: with γ = 1 (no scaling) the
  // duals of a non-trivial run should violate some constraint — if they
  // never did, PD would be 3-competitive and the paper unnecessary.
  const Instance inst = tiny_random_instance(GetParam() * 13 + 5);
  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, inst);
  const OfflineSolution opt = solve_exact_small(inst);
  double dual_sum = 0.0;
  for (const PdDualRecord& rec : pd.dual_records())
    for (const double a : rec.duals) dual_sum += a;
  // A violation is expected when the run paid more than 3·OPT (otherwise
  // the duals can genuinely be feasible unscaled), and certain when the
  // duals sum to more than OPT: by weak duality feasible duals cannot. On
  // these seeds PD pays at most 1.4·OPT, so the second case carries it.
  if (ledger.total_cost() > 3.0 * opt.cost ||
      dual_sum > opt.cost * (1.0 + 1e-9)) {
    EXPECT_NE(verify_scaled_pd_duals(inst, pd, 1.0), std::nullopt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualFeasibility,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------------ Theorem 2 --

TEST(Theorem2, PdRatioSandwichedBetweenBounds) {
  for (CommodityId s : {16u, 64u, 256u, 1024u}) {
    Rng rng(s);
    Theorem2Config cfg;
    cfg.num_commodities = s;
    const Instance inst = make_theorem2_instance(cfg, rng);
    PdOmflp pd;
    RatioResult r = measure_ratio(pd, inst);
    ASSERT_TRUE(r.opt_exact);
    // Lower bound (no algorithm can beat √S/16 in expectation over the
    // distribution; PD is deterministic and the instance symmetric, so
    // its ratio must respect it up to the proof's constants)...
    EXPECT_GE(r.ratio, theorem2_bound(s)) << "S=" << s;
    // ...and the Theorem 4 upper bound.
    EXPECT_LE(r.ratio, theorem4_bound(s, inst.num_requests()) + 1e-9)
        << "S=" << s;
    // The proof-sketch behaviour: PD pays Θ(√S) here (2√S − 1 exactly).
    const double sqrt_s = std::sqrt(static_cast<double>(s));
    EXPECT_NEAR(r.ratio, 2.0 * sqrt_s - 1.0, 1e-6) << "S=" << s;
  }
}

TEST(Theorem2, NoPredictionPaysSqrtSAndFullPredictionWinsAsSGrows) {
  // §2's discussion: an algorithm that never predicts builds √S singleton
  // facilities (ratio √S); prediction caps the damage at ~2√S here but
  // pays off hugely on workloads with repeated demand (see the baseline
  // separation test below).
  for (CommodityId s : {64u, 256u}) {
    Rng rng(s + 1);
    Theorem2Config cfg;
    cfg.num_commodities = s;
    const Instance inst = make_theorem2_instance(cfg, rng);
    PdOmflp no_pred{PdOptions{.prediction = PdOptions::Prediction::kOff}};
    const RatioResult r = measure_ratio(no_pred, inst);
    EXPECT_NEAR(r.ratio, std::sqrt(static_cast<double>(s)), 1e-6);
  }
}

// ------------------------------------------- §1.3 baseline separation ----

TEST(BaselineSeparation, PerCommodityPaysSqrtSMoreOnSharedDemands) {
  // n requests all demanding the full S at one point, g = sqrt:
  //   OPT = √S (one large facility);
  //   PD opens exactly that large facility on the first request (ratio 1);
  //   the per-commodity baseline opens |S| singletons (ratio √S).
  for (CommodityId s : {16u, 64u, 144u}) {
    auto metric = std::make_shared<SinglePointMetric>();
    auto cost = std::make_shared<PolynomialCostModel>(s, 1.0);
    std::vector<Request> reqs(6, Request{0, CommoditySet::full_set(s)});
    Instance inst(metric, cost, std::move(reqs), "shared-demand");

    const double sqrt_s = std::sqrt(static_cast<double>(s));
    PdOmflp pd;
    const RatioResult pd_result = measure_ratio(pd, inst);
    EXPECT_TRUE(pd_result.opt_exact);
    EXPECT_NEAR(pd_result.opt_cost, sqrt_s, 1e-9);
    EXPECT_NEAR(pd_result.ratio, 1.0, 1e-9) << "S=" << s;

    auto baseline = PerCommodityAdapter::fotakis();
    const RatioResult base_result = measure_ratio(*baseline, inst);
    EXPECT_NEAR(base_result.ratio, sqrt_s, 1e-9) << "S=" << s;
  }
}

// ----------------------------------------------------------- Theorem 19 --

TEST(Theorem19, RandStaysWithinDeterministicBudgetOnAverage) {
  // RAND's guarantee is asymptotically better than PD's; on moderate
  // workloads its mean cost should not exceed a small multiple of PD's.
  Rng rng(5);
  ClusteredConfig cfg;
  cfg.num_clusters = 4;
  cfg.requests_per_cluster = 16;
  cfg.num_commodities = 12;
  cfg.commodities_per_cluster = 4;
  auto cost = std::make_shared<PolynomialCostModel>(12, 1.0);
  const Instance inst = make_clustered_line(cfg, cost, rng);

  PdOmflp pd;
  const double pd_cost = run_online(pd, inst).total_cost();
  RunningStats rand_costs;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    RandOmflp rand{RandOptions{.seed = seed}};
    rand_costs.add(run_online(rand, inst).total_cost());
  }
  EXPECT_LE(rand_costs.mean(), 3.0 * pd_cost);
  // And both respect the certificate-based Theorem 4 budget.
  ASSERT_TRUE(inst.opt_certificate().has_value());
  const double budget =
      theorem4_bound(12, inst.num_requests()) *
      inst.opt_certificate()->upper_bound;
  EXPECT_LE(pd_cost, budget);
  EXPECT_LE(rand_costs.mean(), budget);
}

// ----------------------------------------------------------- Theorem 18 --

TEST(Theorem18, MeasuredRatioPeaksInTheMiddleOfClassC) {
  // On the adversarial distribution with cost g_x, the PD ratio should
  // peak around x = 1 and drop to Θ(1)-ish at the endpoints — Figure 2's
  // shape, measured.
  const CommodityId s = 256;
  auto ratio_at = [&](double x) {
    RunningStats stats;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      Theorem18Config cfg;
      cfg.num_commodities = s;
      cfg.exponent_x = x;
      const Instance inst = make_theorem18_instance(cfg, rng);
      PdOmflp pd;
      stats.add(measure_ratio(pd, inst).ratio);
    }
    return stats.mean();
  };
  const double at_zero = ratio_at(0.0);
  const double at_one = ratio_at(1.0);
  const double at_two = ratio_at(2.0);
  EXPECT_GT(at_one, at_zero);
  EXPECT_GT(at_one, at_two);
  // Endpoints: prediction-free regimes; the ratio should stay O(1)-ish.
  EXPECT_LE(at_zero, 4.0);
  EXPECT_LE(at_two, 4.0);
}

}  // namespace
}  // namespace omflp
