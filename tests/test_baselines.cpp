// Baseline algorithm tests: single-commodity Fotakis/Meyerson behaviour,
// the per-commodity product adapter (facility mirroring, restricted cost
// model), and the greedy strawmen.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "baseline/meyerson_ofl.hpp"
#include "baseline/per_commodity.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "metric/line_metric.hpp"
#include "solution/verifier.hpp"
#include "support/stats.hpp"

namespace omflp {
namespace {

Instance single_commodity_line(std::vector<double> positions,
                               std::vector<PointId> request_points,
                               double facility_cost) {
  auto metric = std::make_shared<LineMetric>(std::move(positions));
  auto cost = std::make_shared<SizeOnlyCostModel>(
      1, [facility_cost](CommodityId k) { return k ? facility_cost : 0.0; });
  std::vector<Request> reqs;
  for (PointId p : request_points)
    reqs.push_back(Request{p, CommoditySet::full_set(1)});
  return Instance(std::move(metric), std::move(cost), std::move(reqs));
}

TEST(FotakisOfl, OpensThenReuses) {
  // Facility cost 1; request at 0 opens, request at 0.25 connects.
  const Instance inst =
      single_commodity_line({0.0, 0.25}, {0, 1}, 1.0);
  FotakisOfl alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 1u);
  EXPECT_NEAR(ledger.total_cost(), 1.25, 1e-9);
  const std::vector<double> duals = alg.duals();
  ASSERT_EQ(duals.size(), 2u);
  EXPECT_NEAR(duals[0], 1.0, 1e-9);
  EXPECT_NEAR(duals[1], 0.25, 1e-9);
}

TEST(FotakisOfl, RepeatedRequestsAmortizeIntoNearbyFacility) {
  // Two clusters far apart: requests alternate; each cluster eventually
  // gets its own facility and the total stays near 2 openings + local
  // distances.
  const Instance inst = single_commodity_line(
      {0.0, 100.0}, {0, 1, 0, 1, 0, 1, 0, 1}, 5.0);
  FotakisOfl alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 2u);
  EXPECT_NEAR(ledger.total_cost(), 10.0, 1e-9);
}

TEST(FotakisOfl, RejectsMultiCommodityContext) {
  auto metric = std::make_shared<SinglePointMetric>();
  auto cost = std::make_shared<PolynomialCostModel>(2, 1.0);
  FotakisOfl alg;
  EXPECT_THROW(alg.reset(ProblemContext{metric, cost}),
               std::invalid_argument);
}

TEST(MeyersonOfl, ValidAndBoundedOnZooming) {
  Rng rng(1);
  ZoomingConfig cfg;
  cfg.num_requests = 64;
  cfg.num_commodities = 1;
  cfg.demand_size = 1;
  auto cost = std::make_shared<SizeOnlyCostModel>(
      1, [](CommodityId k) { return k ? 4.0 : 0.0; });
  const Instance inst = make_zooming_line(cfg, cost, rng);
  RunningStats stats;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    MeyersonOfl alg(seed);
    const SolutionLedger ledger = run_online(alg, inst);
    EXPECT_FALSE(verify_solution(inst, ledger).has_value());
    stats.add(ledger.total_cost());
  }
  ASSERT_TRUE(inst.opt_certificate().has_value());
  const double opt_ub = inst.opt_certificate()->upper_bound;
  // Expected O(log n / log log n) ratio; generous sanity ceiling.
  EXPECT_LE(stats.mean(), 20.0 * opt_ub);
}

TEST(PerCommodityAdapter, MirrorsFacilitiesAsSingletons) {
  Rng rng(2);
  UniformLineConfig cfg;
  cfg.num_points = 8;
  cfg.num_requests = 30;
  cfg.num_commodities = 5;
  cfg.max_demand = 3;
  auto cost = std::make_shared<PolynomialCostModel>(5, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);

  auto adapter = PerCommodityAdapter::fotakis();
  const SolutionLedger ledger = run_online(*adapter, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  for (const auto& f : ledger.facilities())
    EXPECT_EQ(f.config.count(), 1u)
        << "per-commodity baseline must open singletons only";
}

TEST(PerCommodityAdapter, PaysPerCommodityOnTheorem2) {
  // The adapter cannot bundle: on the Theorem 2 game it opens one
  // singleton per distinct commodity, total √|S| · OPT.
  Rng rng(3);
  Theorem2Config cfg;
  cfg.num_commodities = 144;  // 12 requests
  const Instance inst = make_theorem2_instance(cfg, rng);
  auto adapter = PerCommodityAdapter::fotakis();
  const SolutionLedger ledger = run_online(*adapter, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 12u);
  EXPECT_NEAR(ledger.total_cost(), 12.0, 1e-9);
}

TEST(PerCommodityAdapter, MeyersonVariantValid) {
  Rng rng(4);
  UniformLineConfig cfg;
  cfg.num_points = 8;
  cfg.num_requests = 25;
  cfg.num_commodities = 4;
  cfg.max_demand = 3;
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  auto adapter = PerCommodityAdapter::meyerson(99);
  const SolutionLedger ledger = run_online(*adapter, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
}

TEST(RestrictedCostModel, ProjectsSingletonCosts) {
  auto base = std::make_shared<LinearCostModel>(
      std::vector<double>{1.0, 2.0, 4.0});
  RestrictedCostModel restricted(base, 2);
  EXPECT_EQ(restricted.num_commodities(), 1u);
  EXPECT_DOUBLE_EQ(restricted.open_cost(0, CommoditySet::full_set(1)), 4.0);
  EXPECT_THROW(RestrictedCostModel(base, 3), std::invalid_argument);
}

// --------------------------------------------------------------- greedy --

TEST(AlwaysOpen, OpensEveryTime) {
  Rng rng(5);
  SinglePointMixedConfig cfg;
  cfg.num_requests = 10;
  cfg.num_commodities = 6;
  auto cost = std::make_shared<PolynomialCostModel>(6, 1.0);
  const Instance inst = make_single_point_mixed(cfg, cost, rng);
  AlwaysOpen alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 10u);
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 0.0);
}

TEST(NearestOrOpen, ConnectsWhenCheaper) {
  const Instance inst = single_commodity_line({0.0, 0.5}, {0, 1}, 2.0);
  NearestOrOpen alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 1u);
  EXPECT_NEAR(ledger.total_cost(), 2.5, 1e-9);
}

Instance commuter_instance() {
  // One facility-seeding request at 0, then 20 requests at distance 4
  // from it with opening cost 5: "connect if closer than opening" rents
  // forever (pays 4 per request); amortizing algorithms buy a second
  // facility after about one rent cycle.
  std::vector<PointId> points(21, 1);
  points[0] = 0;
  return Instance(
      std::make_shared<LineMetric>(std::vector<double>{0.0, 4.0}),
      std::make_shared<SizeOnlyCostModel>(
          1, [](CommodityId k) { return k ? 5.0 : 0.0; }),
      [&] {
        std::vector<Request> reqs;
        for (PointId p : points)
          reqs.push_back(Request{p, CommoditySet::full_set(1)});
        return reqs;
      }(),
      "commuter");
}

TEST(NearestOrOpen, RentsForeverOnCommuterWorkload) {
  // The classic failure mode of non-amortizing greedy: it keeps paying
  // the distance 4 "rent" for every request (total ≈ 85) while the
  // primal-dual algorithm buys a local facility after the bids at the
  // commuter point reach the opening cost (total ≈ 14).
  const Instance inst = commuter_instance();
  NearestOrOpen greedy;
  FotakisOfl fotakis;
  const double greedy_cost = run_online(greedy, inst).total_cost();
  const double fotakis_cost = run_online(fotakis, inst).total_cost();
  EXPECT_NEAR(greedy_cost, 5.0 + 20.0 * 4.0, 1e-9);
  EXPECT_NEAR(fotakis_cost, 5.0 + 4.0 + 5.0, 1e-9);
  EXPECT_GT(greedy_cost, 2.0 * fotakis_cost);
}

TEST(RentOrBuy, ValidOnMixedWorkload) {
  Rng rng(7);
  UniformLineConfig cfg;
  cfg.num_points = 12;
  cfg.num_requests = 40;
  cfg.num_commodities = 6;
  cfg.max_demand = 3;
  auto cost = std::make_shared<PolynomialCostModel>(6, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  RentOrBuy alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
}

TEST(RentOrBuy, AmortizesOnCommuterWorkload) {
  // Rent 4, rent would reach 8 > 5 → buy locally, then ride free:
  // 5 (seed) + 4 (one rent) + 5 (buy) = 14 ≪ 85 for NearestOrOpen.
  const Instance inst = commuter_instance();
  RentOrBuy rent;
  NearestOrOpen naive;
  const double rent_cost = run_online(rent, inst).total_cost();
  EXPECT_NEAR(rent_cost, 14.0, 1e-9);
  EXPECT_LT(rent_cost, run_online(naive, inst).total_cost() / 2.0);
}

}  // namespace
}  // namespace omflp
