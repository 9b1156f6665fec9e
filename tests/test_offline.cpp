// Offline solver tests: the assignment DP, the exact single-point
// set-cover solvers (size-only vs general agreement), the exhaustive tiny
// solver, local search quality, greedy star against its golden table, and
// the OPT estimation front-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "metric/line_metric.hpp"
#include "offline/assignment.hpp"
#include "offline/candidate_pool.hpp"
#include "offline/exact_small.hpp"
#include "offline/greedy_star.hpp"
#include "offline/local_search.hpp"
#include "offline/opt_estimate.hpp"
#include "offline/single_point.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/stream_registry.hpp"

namespace omflp {
namespace {

TEST(AssignmentDp, PicksSharedFacilityOverTwoSingles) {
  // Facilities: {0,1} at distance 3; {0} and {1} at distance 2 each.
  // Shared path: 3 < 2 + 2.
  auto metric =
      std::make_shared<LineMetric>(std::vector<double>{0.0, 3.0, -2.0, 2.0});
  std::vector<PlacedFacility> facilities = {
      {1, CommoditySet(2, {0, 1})},
      {2, CommoditySet(2, {0})},
      {3, CommoditySet(2, {1})},
  };
  const Request r{0, CommoditySet::full_set(2)};
  EXPECT_DOUBLE_EQ(optimal_assignment_cost(*metric, facilities, r), 3.0);
}

TEST(AssignmentDp, CombinesWhenSharedIsFar) {
  auto metric =
      std::make_shared<LineMetric>(std::vector<double>{0.0, 9.0, -2.0, 2.0});
  std::vector<PlacedFacility> facilities = {
      {1, CommoditySet(2, {0, 1})},
      {2, CommoditySet(2, {0})},
      {3, CommoditySet(2, {1})},
  };
  const Request r{0, CommoditySet::full_set(2)};
  EXPECT_DOUBLE_EQ(optimal_assignment_cost(*metric, facilities, r), 4.0);
}

TEST(AssignmentDp, InfeasibleIsInfinite) {
  auto metric = std::make_shared<SinglePointMetric>();
  std::vector<PlacedFacility> facilities = {{0, CommoditySet(2, {0})}};
  const Request r{0, CommoditySet::full_set(2)};
  EXPECT_TRUE(std::isinf(optimal_assignment_cost(*metric, facilities, r)));
}

// -------------------------------------------------------- single point ---

TEST(SinglePoint, SizeOnlySqrtPrefersOneBigFacility) {
  // g(k) = sqrt(k): covering 4 commodities with one facility costs 2,
  // any split costs more (sqrt is strictly subadditive).
  PolynomialCostModel cost(8, 1.0);
  EXPECT_DOUBLE_EQ(
      single_point_cover_cost(cost, 0, CommoditySet(8, {0, 2, 4, 6})), 2.0);
}

TEST(SinglePoint, LinearCostIndifferentToSplit) {
  PolynomialCostModel cost(8, 2.0);
  EXPECT_DOUBLE_EQ(
      single_point_cover_cost(cost, 0, CommoditySet(8, {0, 1, 2})), 3.0);
}

TEST(SinglePoint, CeilRatioMatchesTheorem2) {
  CeilRatioCostModel cost(64);  // g(k) = ceil(k/8)
  EXPECT_DOUBLE_EQ(
      single_point_cover_cost(cost, 0, CommoditySet(64, {0, 1, 2, 3})), 1.0);
  CommoditySet twelve(64);
  for (CommodityId e = 0; e < 12; ++e) twelve.add(e);
  // 12 commodities: one facility costs ceil(12/8) = 2; two facilities of
  // ≤ 8 commodities cost 1 + 1 = 2 as well.
  EXPECT_DOUBLE_EQ(single_point_cover_cost(cost, 0, twelve), 2.0);
}

TEST(SinglePoint, GeneralDpAgreesWithSizeOnlyDp) {
  // Wrap a size-only function in a general (non-size-only) model and
  // check both code paths agree.
  for (double x : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    PolynomialCostModel size_only(6, x);
    // A LinearCostModel with equal weights is mathematically size-only
    // but reports cost_by_size only through the general path... use a
    // custom wrapper instead:
    struct GeneralWrapper final : FacilityCostModel {
      explicit GeneralWrapper(const PolynomialCostModel& m) : inner(m) {}
      const PolynomialCostModel& inner;
      CommodityId num_commodities() const noexcept override {
        return inner.num_commodities();
      }
      double open_cost(PointId m, const CommoditySet& c) const override {
        return inner.open_cost(m, c);
      }
      std::string description() const override { return "wrapped"; }
    } general(size_only);

    const CommoditySet target(6, {0, 1, 3, 5});
    EXPECT_NEAR(single_point_cover_cost(size_only, 0, target),
                single_point_cover_cost(general, 0, target), 1e-9)
        << "x=" << x;
  }
}

TEST(SinglePoint, GeneralDpHandlesAsymmetricWeights) {
  // Linear weights {10, 0.1, 0.1}: best cover of all three is any
  // partition (linear) = 10.2.
  LinearCostModel cost({10.0, 0.1, 0.1});
  EXPECT_NEAR(
      single_point_cover_cost(cost, 0, CommoditySet::full_set(3)), 10.2,
      1e-9);
}

TEST(SinglePoint, InstanceSolverRejectsMultiplePoints) {
  auto metric = std::make_shared<LineMetric>(std::vector<double>{0.0, 1.0});
  auto cost = std::make_shared<PolynomialCostModel>(2, 1.0);
  Instance inst(metric, cost,
                {Request{0, CommoditySet(2, {0})},
                 Request{1, CommoditySet(2, {1})}});
  EXPECT_THROW((void)solve_single_point_instance(inst),
               std::invalid_argument);
}

// ---------------------------------------------------------- exact tiny ---

Instance tiny_two_cluster_instance() {
  // Points 0 and 1 far apart; each sees requests for its own commodity
  // pair; sqrt costs make one facility per point optimal.
  auto metric =
      std::make_shared<LineMetric>(std::vector<double>{0.0, 100.0});
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0);
  std::vector<Request> reqs = {
      Request{0, CommoditySet(4, {0, 1})}, Request{0, CommoditySet(4, {0})},
      Request{1, CommoditySet(4, {2, 3})}, Request{1, CommoditySet(4, {3})},
  };
  return Instance(metric, cost, std::move(reqs), "tiny-two-cluster");
}

TEST(ExactSmall, SolvesTwoClusterInstance) {
  const OfflineSolution sol = solve_exact_small(tiny_two_cluster_instance());
  EXPECT_TRUE(sol.exact);
  // One sqrt(2)-facility per point, zero connection.
  EXPECT_NEAR(sol.cost, 2.0 * std::sqrt(2.0), 1e-9);
  EXPECT_EQ(sol.facilities.size(), 2u);
  EXPECT_DOUBLE_EQ(sol.connection_cost, 0.0);
}

TEST(ExactSmall, MatchesSinglePointSolver) {
  Rng rng(5);
  SinglePointMixedConfig cfg;
  cfg.num_requests = 10;
  cfg.num_commodities = 5;
  cfg.max_demand = 4;
  auto cost = std::make_shared<PolynomialCostModel>(5, 1.0);
  Instance inst = make_single_point_mixed(cfg, cost, rng);
  ExactSolverLimits limits;
  limits.max_points = 1;
  limits.max_union = 5;
  limits.max_requests = 10;
  const OfflineSolution sol = solve_exact_small(inst, limits);
  EXPECT_NEAR(sol.cost, solve_single_point_instance(inst), 1e-9);
}

TEST(ExactSmall, EnforcesLimits) {
  Rng rng(1);
  UniformLineConfig cfg;
  cfg.num_points = 40;
  cfg.num_requests = 10;
  cfg.num_commodities = 4;
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  EXPECT_THROW((void)solve_exact_small(inst), std::invalid_argument);
}

// --------------------------------------------------------- local search --

TEST(LocalSearch, FindsTheTwoClusterOptimum) {
  const Instance inst = tiny_two_cluster_instance();
  const OfflineSolution ls = solve_local_search(inst);
  const OfflineSolution exact = solve_exact_small(inst);
  EXPECT_NEAR(ls.cost, exact.cost, 1e-9);
}

class LocalSearchVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalSearchVsExact, NeverBeatsExactAndStaysClose) {
  Rng rng(GetParam());
  // Tiny random instances within the exact solver's limits.
  auto metric = std::make_shared<LineMetric>(std::vector<double>{
      rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
      rng.uniform(0.0, 10.0)});
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0, 1.5);
  std::vector<Request> reqs;
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(3));
    r.commodities = sample_demand_set(
        4, static_cast<CommodityId>(1 + rng.uniform_index(3)), 0.0, rng);
    reqs.push_back(std::move(r));
  }
  Instance inst(metric, cost, std::move(reqs), "tiny-random");

  const OfflineSolution exact = solve_exact_small(inst);
  const OfflineSolution ls = solve_local_search(inst);
  EXPECT_GE(ls.cost, exact.cost - 1e-9);
  // Local search with add/drop is a good heuristic on these sizes; allow
  // 30% slack to stay robust.
  EXPECT_LE(ls.cost, 1.3 * exact.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchVsExact,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(LocalSearch, BeatsCertificateOrMatchesOnClusters) {
  Rng rng(3);
  ClusteredConfig cfg;
  cfg.num_clusters = 3;
  cfg.requests_per_cluster = 6;
  cfg.num_commodities = 8;
  cfg.commodities_per_cluster = 3;
  auto cost = std::make_shared<PolynomialCostModel>(8, 1.0);
  const Instance inst = make_clustered_line(cfg, cost, rng);
  const OfflineSolution ls = solve_local_search(inst);
  ASSERT_TRUE(inst.opt_certificate().has_value());
  // The certificate is a feasible solution, so a sane local search should
  // do at least roughly as well (small tolerance for heuristic gaps).
  EXPECT_LE(ls.cost, 1.2 * inst.opt_certificate()->upper_bound + 1e-9);
}

// ---------------------------------------------------------- greedy star --

TEST(GreedyStar, SolvesTheTwoClusterInstanceOptimally) {
  const Instance inst = tiny_two_cluster_instance();
  const OfflineSolution greedy = solve_greedy_star(inst);
  const OfflineSolution exact = solve_exact_small(inst);
  EXPECT_GE(greedy.cost, exact.cost - 1e-9);
  EXPECT_NEAR(greedy.cost, exact.cost, 1e-9);
  EXPECT_EQ(greedy.method, "greedy-star");
}

class GreedyStarVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyStarVsExact, FeasibleAndNeverBelowExact) {
  Rng rng(GetParam() * 37 + 11);
  auto metric = std::make_shared<LineMetric>(std::vector<double>{
      rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
      rng.uniform(0.0, 10.0)});
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0, 1.5);
  std::vector<Request> reqs;
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(3));
    r.commodities = sample_demand_set(
        4, static_cast<CommodityId>(1 + rng.uniform_index(3)), 0.0, rng);
    reqs.push_back(std::move(r));
  }
  Instance inst(metric, cost, std::move(reqs), "tiny-random");
  const OfflineSolution exact = solve_exact_small(inst);
  const OfflineSolution greedy = solve_greedy_star(inst);
  EXPECT_GE(greedy.cost, exact.cost - 1e-9);
  // Greedy set-cover style: the guarantee is logarithmic, not constant;
  // a 3x envelope on these tiny instances is the meaningful sanity band
  // (observed worst case across seeds: ~2.3x).
  EXPECT_LE(greedy.cost, 3.0 * exact.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyStarVsExact,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GreedyStar, HandlesLargerWorkloads) {
  Rng rng(9);
  UniformLineConfig cfg;
  cfg.num_points = 16;
  cfg.num_requests = 80;
  cfg.num_commodities = 8;
  cfg.max_demand = 4;
  auto cost = std::make_shared<PolynomialCostModel>(8, 1.0, 2.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  const OfflineSolution greedy = solve_greedy_star(inst);
  EXPECT_TRUE(std::isfinite(greedy.cost));
  EXPECT_GT(greedy.cost, 0.0);
  // Sanity: not worse than the no-sharing trivial solution (a facility
  // with the request's demand at every distinct request location).
  const OfflineSolution ls = solve_local_search(inst);
  EXPECT_LE(greedy.cost, 3.0 * ls.cost);
}

// ------------------------------------------------- greedy-star golden ---

// solve_greedy_star's cost (%.17g) and facilities (opening order), and
// estimate_opt's method and cost, as the eager greedy scan produced them:
// every registered static scenario at seeds 1-3, and the four hotspot-grid
// lease survivor sets the stream-ratio benchmark bounds first at seed 1
// (events 512, mean lease 48). The lazy greedy must match bit for bit.
struct GreedyGolden {
  const char* scenario;
  std::uint64_t seed;
  const char* cost;
  const char* facilities;
  const char* opt_method;
  const char* opt_cost;
};

constexpr GreedyGolden kStaticGolden[] = {
    {"clustered", 1, "79.092940365764264",
     "51:{1,2,3,10}/12 35:{0,6,8,11}/12 63:{3,6,7,9}/12 "
     "72:{2,8,10}/12 87:{0,5,8}/12 17:{1,2,11}/12 62:{3,6,7,9}/12 "
     "16:{1,2,8}/12 37:{0,6,8,11}/12 52:{1,2,3,10}/12 98:{9}/12 "
     "71:{2,8,10}/12 9:{8}/12 31:{11}/12 85:{11}/12 43:{1}/12 "
     "94:{8,9}/12 91:{0,5}/12 7:{11}/12 81:{8}/12",
     "certificate(upper-bound)", "72.246645807503626"},
    {"clustered", 2, "79.085069559890442",
     "38:{1,4,9,10}/12 54:{4,5,7,11}/12 27:{0,3,4,8}/12 "
     "91:{2,5,8}/12 8:{0,7,8,11}/12 7:{0,7,8,11}/12 71:{0,10,11}/12 "
     "72:{0,6,10}/12 98:{1}/12 34:{0,3,8}/12 52:{1,4,9,10}/12 "
     "57:{4,5,7,11}/12 100:{2,5,8}/12 26:{3}/12 55:{7}/12 86:{1}/12 "
     "6:{0,11}/12 77:{6}/12",
     "certificate(upper-bound)", "70.142322518834618"},
    {"clustered", 3, "84.030889373624859",
     "68:{6,7,8,11}/12 36:{1,2,5,10}/12 73:{4,5,8,10}/12 "
     "15:{4,5,7}/12 89:{0,5,9,11}/12 40:{1,4,5}/12 12:{4,5,7,8}/12 "
     "72:{4,5,8,10}/12 88:{0,11}/12 39:{5,7}/12 10:{8}/12 "
     "60:{6,7,8,11}/12 24:{2,5,10}/12 44:{4}/12 93:{5,9,11}/12 "
     "41:{1,7}/12 55:{6,7,11}/12 21:{4}/12 23:{10}/12",
     "certificate(upper-bound)", "68.684574921385376"},
    {"figure3", 1, "2000002.0004",
     "1:{0,2}/3 2:{1}/3 4:{0,1,2}/3",
     "local-search", "2.0005999999999999"},
    {"figure3", 2, "2000002.0004",
     "1:{0,2}/3 2:{1}/3 4:{0,1,2}/3",
     "local-search", "2.0005999999999999"},
    {"figure3", 3, "2000002.0004",
     "1:{0,2}/3 2:{1}/3 4:{0,1,2}/3",
     "local-search", "2.0005999999999999"},
    {"heavy-tail", 1, "6.9282032302755088",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11}/13",
     "certificate(exact)", "6.9282032302755088"},
    {"heavy-tail", 2, "6.9282032302755088",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11}/13",
     "certificate(exact)", "6.9282032302755088"},
    {"heavy-tail", 3, "6.9282032302755088",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11}/13",
     "certificate(exact)", "6.9282032302755088"},
    {"service-network", 1, "141.52921517489236",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11}/12 2:{0,1,2,3,4,5,6,7,10}/12 "
     "1:{0,1,2,3,5,6,7,8,9}/12 30:{0,1,2,3,4,6,7,8,10}/12 "
     "7:{0,1,2,3,4,5,8,9}/12 10:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "12:{0,2,3,4,5,8}/12 6:{0,2,3,4,6,7,8}/12 "
     "29:{0,1,2,3,4,5,6,7,8,9,10,11}/12 31:{0,1,3,7,9,11}/12 "
     "3:{0,1,3,5,6,8,10}/12 17:{0,1,2,4,5,10}/12 "
     "20:{0,1,2,3,5,6,9}/12 26:{0,1,4,5,6}/12 22:{0,1,3,5,7}/12 "
     "21:{0,7,11}/12 4:{0,1,3,7,9,11}/12 11:{0,1,4,6,7}/12 "
     "13:{0,2,3,4}/12 24:{0,1,2,3}/12 27:{0,1,2,10}/12 23:{0,1,4}/12 "
     "8:{0,1}/12 9:{1,10}/12 25:{1,2,3,4,5}/12 28:{0,6}/12 5:{3}/12 "
     "14:{3}/12 15:{2}/12 16:{6}/12 18:{0}/12",
     "local-search", "137.70222067461609"},
    {"service-network", 2, "130.95866401452309",
     "0:{0,1,2,3,4,5,6,7,8,9,11}/12 2:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "3:{0,1,2,3,4,5,6,8,9}/12 7:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "4:{0,1,2,3,4,6,7,9,10,11}/12 1:{0,1,2,3,4,5,7,8,10}/12 "
     "24:{0,1,2,4,5,8,10}/12 18:{0,1,2,3,5,6,7,9,11}/12 "
     "13:{0,1,2,3,4,5,6,7,8,9,10,11}/12 27:{0,1,3,4,5,6,8}/12 "
     "5:{0,1,2,3,4,5,7,9}/12 6:{0,2,3,7,8,9,11}/12 19:{0,1,5,7}/12 "
     "23:{0,1,4,5,7,9}/12 30:{0,1,3,6,7,9,11}/12 11:{0,1,2,4}/12 "
     "28:{0,1,2,4}/12 25:{0,1,2,3,4,5}/12 26:{0,2,3,5,6,9}/12 "
     "29:{0,1,2,3,7}/12 17:{0,3,5}/12 12:{0,4}/12 22:{0,5}/12 "
     "8:{0}/12 9:{0}/12 10:{5}/12 20:{1}/12",
     "local-search", "130.41233006754277"},
    {"service-network", 3, "136.01656760853169",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11}/12 7:{0,1,2,3,4,5,6,7,8}/12 "
     "5:{0,1,2,4,5,6,7,8,10,11}/12 2:{0,1,2,3,5,6,8,10,11}/12 "
     "4:{0,1,2,3,4,6,7,8,9,10,11}/12 14:{0,1,2,3,4,5,6,7,9,10}/12 "
     "6:{0,1,2,4,7,8,9,11}/12 10:{0,1,2,3,5,8,9,11}/12 "
     "1:{0,1,2,3,4,6,7,8}/12 15:{0,1,2,3,4,7,8,11}/12 "
     "12:{0,1,2,4,6,11}/12 19:{0,1,2,4,5,9}/12 26:{0,1,2,3,5,7}/12 "
     "8:{0,2,4,7}/12 31:{0,1,2,3,4,7,9}/12 3:{0,1,2,3,4,6}/12 "
     "21:{1,2,3,5,10}/12 22:{0,2,6,7,9}/12 24:{0,1,3,9,11}/12 "
     "13:{0,1,3}/12 23:{0,6,9,11}/12 30:{0,1,2,8}/12 9:{0,1,6}/12 "
     "16:{0,1,9}/12 25:{0,5,8}/12 20:{4,5,7}/12 29:{4}/12",
     "local-search", "135.49968662124928"},
    {"shared-demand", 1, "4",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}/16",
     "single-point-dp", "4"},
    {"shared-demand", 2, "4",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}/16",
     "single-point-dp", "4"},
    {"shared-demand", 3, "4",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}/16",
     "single-point-dp", "4"},
    {"single-point-mixed", 1, "3.4641016151377544",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11}/12",
     "single-point-dp", "3.4641016151377544"},
    {"single-point-mixed", 2, "3.4641016151377544",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11}/12",
     "single-point-dp", "3.4641016151377544"},
    {"single-point-mixed", 3, "3.4641016151377544",
     "0:{0,1,2,3,4,5,6,7,8,9,10,11}/12",
     "single-point-dp", "3.4641016151377544"},
    {"theorem18", 1, "2.8284271247461903",
     "0:{5,10,15,22,39,54,56,61}/64",
     "certificate(exact)", "2.8284271247461903"},
    {"theorem18", 2, "2.8284271247461903",
     "0:{0,23,38,43,50,52,56,60}/64",
     "certificate(exact)", "2.8284271247461903"},
    {"theorem18", 3, "2.8284271247461903",
     "0:{0,4,15,17,20,30,46,54}/64",
     "certificate(exact)", "2.8284271247461903"},
    {"theorem2", 1, "1",
     "0:{5,10,15,22,39,54,56,61}/64",
     "certificate(exact)", "1"},
    {"theorem2", 2, "1",
     "0:{0,23,38,43,50,52,56,60}/64",
     "certificate(exact)", "1"},
    {"theorem2", 3, "1",
     "0:{0,4,15,17,20,30,46,54}/64",
     "certificate(exact)", "1"},
    {"uniform-line", 1, "142.18753498149326",
     "10:{0,1,2,3,4,5,7,9}/12 23:{0,1,2,3,9,10}/12 "
     "5:{0,1,2,3,4,5,7,8,11}/12 2:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "11:{0,1,2,3,4,5,6,7,8,9,10,11}/12 22:{0,1,2,3,4,5,6,10}/12 "
     "29:{0,1,2,4,5,11}/12 21:{0,1,2,5,7,10,11}/12 "
     "7:{0,1,2,3,4,5}/12 13:{0,1,2,3,4,6,7}/12 "
     "17:{0,1,2,3,4,7,9,10,11}/12 16:{0,1,2,3,5,6,10,11}/12 "
     "25:{0,1,2,3,4,11}/12 28:{0,1,3,4,5,6,10}/12 "
     "12:{0,1,4,5,7,8}/12 26:{0,1,2,3}/12 0:{0,1,3,6}/12 "
     "18:{0,1,2,3,4,9}/12 20:{0,1,2,4,6,8,10}/12 31:{0,1,2,7,10}/12 "
     "24:{0,6,9,11}/12 30:{0,2,6,11}/12 1:{2,4,9,10}/12 "
     "4:{0,3,7,10}/12 14:{7}/12 6:{1,4,5,6,9}/12 8:{1,2,3}/12 "
     "19:{0,9,10}/12 9:{0,1,8}/12 3:{5,7,8}/12",
     "local-search", "139.91772225970806"},
    {"uniform-line", 2, "140.4452639487854",
     "2:{0,1,2,4,5,6,8,9,10,11}/12 17:{0,3,4,5,6,11}/12 "
     "22:{0,1,2,3,4,5,6,7,8,9,10,11}/12 23:{0,2,3,5,6,8,10,11}/12 "
     "13:{0,1,2,3,4,6,7}/12 24:{0,1,2,3,4,7,10}/12 "
     "11:{0,1,3,4,5,11}/12 31:{0,1,2,4,6,9,10}/12 16:{0,1,5,6,8}/12 "
     "1:{0,1,2,3,4,5,7,8}/12 15:{0,1,4,6,8,9,10}/12 8:{0,6}/12 "
     "12:{0,1,3,4,5,6,7}/12 25:{0,2,3,6,8,9,11}/12 10:{0,1,2,3}/12 "
     "6:{0,2,4,5,6,7,8}/12 7:{0,2,5,9,10}/12 20:{0,1,2,3,5,6,7}/12 "
     "18:{0,2,5,7}/12 28:{0,1,4,5,9,10}/12 9:{0,5,10}/12 "
     "26:{0,1,2,3,4,5,6,7,8,9,10,11}/12 29:{0,1,6,11}/12 "
     "30:{0,2,7,8}/12 0:{1,2,6,11}/12 3:{0,3,5}/12 4:{0,4,7}/12 "
     "27:{0,2,5}/12 5:{3,8}/12 14:{0,1,2}/12",
     "local-search", "135.79450065275469"},
    {"uniform-line", 3, "146.07135075179005",
     "26:{0,1,2,3,4,5,8,9,11}/12 5:{0,1,2,4,5,11}/12 "
     "7:{0,1,2,3,4,5,6,7,8,9,10,11}/12 29:{0,1,2,3,4}/12 "
     "3:{0,1,2,3,4,5,10}/12 6:{0,1,2,3,4,5,7,10,11}/12 "
     "25:{0,1,2,4,5,6,7,8}/12 10:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "12:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "16:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "31:{0,1,2,3,4,5,6,7,8,9,10,11}/12 0:{0,1,2,3,9}/12 "
     "1:{0,1,2,5,6,7,8}/12 11:{1,2,6,7,8}/12 24:{0,1,4,10,11}/12 "
     "30:{0,1,2,3,4,5,7,8}/12 8:{0,1,3,4,6,10}/12 "
     "2:{0,2,3,8,9,10}/12 27:{0,1,2}/12 21:{1,2,3,4,7,8}/12 "
     "22:{0,1,2,6}/12 23:{1,2,7,11}/12 28:{2,3,5,10}/12 4:{0,3,6}/12 "
     "9:{1,3,8,10}/12 14:{0,1,2,8}/12 20:{0,2,9}/12 13:{0,6}/12 "
     "18:{1,6}/12 15:{2}/12 17:{7}/12",
     "local-search", "141.97715703085598"},
    {"zooming", 1, "18.906250000000004",
     "61:{0,1,2,3}/8 12:{0,1,2,3}/8 1:{0,1,2,3}/8 2:{0,1,2,3}/8 "
     "3:{0,1,2,3}/8 4:{0,1,2,3}/8 5:{0,1,2,3}/8 6:{0,1,2,3}/8 "
     "7:{0,1,2,3}/8",
     "greedy-star", "18.906250000000004"},
    {"zooming", 2, "18.906250000000004",
     "61:{0,1,2,3}/8 12:{0,1,2,3}/8 1:{0,1,2,3}/8 2:{0,1,2,3}/8 "
     "3:{0,1,2,3}/8 4:{0,1,2,3}/8 5:{0,1,2,3}/8 6:{0,1,2,3}/8 "
     "7:{0,1,2,3}/8",
     "greedy-star", "18.906250000000004"},
    {"zooming", 3, "18.906250000000004",
     "61:{0,1,2,3}/8 12:{0,1,2,3}/8 1:{0,1,2,3}/8 2:{0,1,2,3}/8 "
     "3:{0,1,2,3}/8 4:{0,1,2,3}/8 5:{0,1,2,3}/8 6:{0,1,2,3}/8 "
     "7:{0,1,2,3}/8",
     "greedy-star", "18.906250000000004"},
};

constexpr GreedyGolden kSurvivorGolden[] = {
    {"hotspot-grid", 5370104451937005156ULL, "85.807254794693947",
     "83:{0,1,2,3,4,5,6,7,8,9,10,11}/12 95:{0,3,6,8}/12 "
     "74:{0,2,4,5,8}/12 82:{0,2,3,4,8}/12 "
     "100:{0,1,2,3,4,5,6,7,8,9,10,11}/12 61:{0,1,2,9}/12 "
     "107:{0,1}/12 39:{0,4,6,7}/12 60:{1,4,6,10}/12 72:{0,1,3,7}/12 "
     "105:{0,5,6,9,11}/12 89:{0,8,11}/12 94:{2,4,6,10}/12 "
     "119:{0,1,10}/12 135:{1,2,10}/12 34:{0,4}/12 40:{1,7}/12 "
     "68:{1,3}/12 78:{2,8}/12 62:{0}/12 77:{0}/12 92:{7}/12 "
     "99:{4}/12 101:{7}/12",
     "local-search", "82.899205205764503"},
    {"hotspot-grid", 4402736476727238823ULL, "93.983938749324921",
     "10:{0,1,3,8}/12 9:{0,1,2,4}/12 53:{0,2,4,5,9}/12 11:{1,2,8}/12 "
     "23:{2,3,4,6}/12 28:{0,4,7,8}/12 33:{0,2,8,11}/12 "
     "41:{0,2,4,5}/12 105:{1,2,7,9}/12 140:{0,1,2,11}/12 "
     "20:{0,1,10}/12 22:{0,1,4}/12 48:{0,4,5}/12 51:{2,8,11}/12 "
     "91:{0,5,8}/12 94:{1,2,7}/12 143:{1,4,5}/12 39:{0,1}/12 "
     "55:{0,2}/12 63:{0,5}/12 65:{4,7}/12 104:{5,6}/12 139:{1,3}/12 "
     "142:{1,2}/12 17:{4}/12 49:{2}/12 56:{4}/12 76:{0}/12 87:{2}/12",
     "greedy-star", "93.983938749324921"},
    {"hotspot-grid", 5205749391261136391ULL, "81.074858258304872",
     "92:{0,1,2,3,4,8,11}/12 27:{0,3,4}/12 54:{0,2,4,6,7,9}/12 "
     "69:{0,1,2,10}/12 55:{1,4,7,11}/12 44:{0,1,3,4,10,11}/12 "
     "52:{5,8,10,11}/12 57:{0,1,3,4}/12 58:{0,2,3,11}/12 "
     "63:{0,1,6,8}/12 66:{0,2,6,8}/12 80:{2,3,7,8}/12 56:{0,1,2}/12 "
     "67:{0,1,11}/12 116:{1,3,5}/12 118:{0,1,3,8,10}/12 53:{0,7}/12 "
     "82:{0,1}/12 26:{1}/12 65:{9}/12 90:{8}/12 101:{1}/12 "
     "126:{0}/12",
     "greedy-star", "81.074858258304872"},
    {"hotspot-grid", 1918039438700685066ULL, "82.840549070943155",
     "122:{0,1,2,3,4,10}/12 20:{0,3,8,9}/12 54:{0,1,3,4,9}/12 "
     "8:{0,3,4,8}/12 46:{0,3,6,9}/12 53:{4}/12 76:{5,7,8,10}/12 "
     "85:{0,1,2,3}/12 43:{0,1,4,9}/12 49:{0,1,2}/12 65:{2,5,9}/12 "
     "88:{0,1,3}/12 98:{0,1,3}/12 120:{1,9,11}/12 135:{0,1,2}/12 "
     "30:{0,1,2,3,6,9}/12 68:{0,1,2,3}/12 108:{0,2,4,10,11}/12 "
     "4:{1,4}/12 44:{0,3}/12 124:{3,6}/12 132:{0,2}/12 42:{0}/12",
     "local-search", "81.405671200514561"},
};

std::string exact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void expect_greedy_golden(const Instance& instance, const GreedyGolden& g) {
  const OfflineSolution greedy = solve_greedy_star(instance);
  std::string facilities;
  for (const PlacedFacility& f : greedy.facilities) {
    if (!facilities.empty()) facilities += ' ';
    facilities += std::to_string(f.point) + ':' + f.config.to_string();
  }
  EXPECT_EQ(exact(greedy.cost), g.cost) << g.scenario << " seed " << g.seed;
  EXPECT_EQ(facilities, g.facilities) << g.scenario << " seed " << g.seed;
}

void expect_opt_golden(const OptEstimate& est, const GreedyGolden& g) {
  EXPECT_EQ(est.method, g.opt_method) << g.scenario << " seed " << g.seed;
  EXPECT_EQ(exact(est.cost), g.opt_cost) << g.scenario << " seed " << g.seed;
}

bool same_input(const Instance& a, const Instance& b) {
  const std::size_t points = a.metric().num_points();
  if (a.num_requests() != b.num_requests() ||
      points != b.metric().num_points() ||
      a.cost().description() != b.cost().description())
    return false;
  for (RequestId r = 0; r < a.num_requests(); ++r)
    if (a.request(r).location != b.request(r).location ||
        !(a.request(r).commodities == b.request(r).commodities))
      return false;
  for (PointId p = 0; p < points; ++p)
    for (PointId q = 0; q < points; ++q)
      if (a.metric().distance(p, q) != b.metric().distance(p, q))
        return false;
  return true;
}

TEST(GreedyStarGolden, StaticScenariosMatchTheEagerScan) {
  const ScenarioRegistry& registry = default_scenario_registry();
  std::vector<std::string> covered;
  // estimate_opt is deterministic, so on seed-independent constructions
  // (zooming's local search alone takes seconds) it runs once per input.
  std::vector<std::pair<Instance, OptEstimate>> estimated;
  for (const GreedyGolden& g : kStaticGolden) {
    const Instance instance = registry.make(g.scenario, g.seed);
    expect_greedy_golden(instance, g);
    auto known = std::find_if(
        estimated.begin(), estimated.end(),
        [&](const auto& e) { return same_input(e.first, instance); });
    if (known == estimated.end())
      known = estimated.emplace(known, instance, estimate_opt(instance));
    expect_opt_golden(known->second, g);
    if (covered.empty() || covered.back() != g.scenario)
      covered.emplace_back(g.scenario);
  }
  EXPECT_EQ(covered, registry.names());
}

TEST(GreedyStarGolden, StreamRatioSurvivorSetsMatchTheEagerScan) {
  for (const GreedyGolden& g : kSurvivorGolden) {
    const Instance survivors =
        default_stream_scenario_registry()
            .make(g.scenario, g.seed, {{"events", 512}, {"mean_lease", 48}})
            .surviving_instance();
    expect_greedy_golden(survivors, g);
    expect_opt_golden(estimate_opt(survivors), g);
  }
}

// The default `omflp stream --scenario hotspot-grid` run's 1,980 survivors
// (seed 1, default parameters), as the eager scan produced them; the
// stream command prints the same estimate as `opt(surv)`.
constexpr GreedyGolden kDefaultStreamGolden = {
    "hotspot-grid", 1, "410.81675151487332",
     "132:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "133:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "140:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "141:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "120:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "143:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "134:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "121:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "108:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "109:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "122:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "142:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "110:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "131:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "119:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "139:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "97:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "135:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "96:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "107:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "98:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "123:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "138:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "111:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "130:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "128:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "127:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "99:{0,1,2,3,4,6,7,8,9,10,11}/12 116:{0,1,2,3,4,5,6,7,9,10,11}/12 "
     "129:{0,1,2,3,4,5,6,8,9,10,11}/12 "
     "124:{0,1,3,4,5,6,7,8,9,10,11}/12 "
     "118:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "136:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "117:{0,1,2,3,4,5,6,7,8,9,10,11}/12 137:{0,1,2,3,4,5,6,7,9,10}/12 "
     "112:{0,1,2,3,4,5,6,7,8,9,10,11}/12 106:{0,1,2,3,5,7,8,11}/12 "
     "84:{0,1,2,3,4,5,7,9,10,11}/12 113:{0,1,2,3,4,5,6,8,9,10}/12 "
     "125:{0,1,2,3,4,5,6,7,8,10,11}/12 100:{0,1,2,5,7,8,9}/12 "
     "126:{0,1,2,3,4,5,6,7,9,11}/12 85:{0,1,2,4,5,6,7,8,9,11}/12 "
     "87:{0,1,2,3,4,5,6,7,8,9,10,11}/12 86:{0,1,2,3,5,6,7,8,9,11}/12 "
     "115:{0,1,2,3,4,5,6,7,8,9,10,11}/12 72:{0,1,2,3,5,6,7,9,10,11}/12 "
     "95:{0,1,2,3,4,6,7,11}/12 103:{0,1,2,3,6,9}/12 "
     "83:{0,1,2,4,6,7,9,10}/12 105:{0,1,2,3,4,5,6,7,8,9,10,11}/12 "
     "102:{0,1,2,4,6,7,10}/12 75:{0,1,2,3,4,8,10,11}/12 "
     "114:{0,1,2,3,4,7}/12 94:{0,1,2,5,11}/12 104:{0,1,2,5,7,11}/12 "
     "74:{0,2,3,4,5,10}/12 88:{0,1,2,8}/12 60:{0,1,11}/12 65:{1}/12 "
     "73:{0,2,4,7,10}/12 101:{0,1,2,3,8,11}/12 77:{0,5,11}/12 "
     "89:{2,6,10}/12 93:{0,5,7}/12 62:{0,7}/12 63:{1,10}/12 "
     "76:{0,1}/12 92:{0,1}/12",
    "local-search", "408.98994672509446"};

TEST(GreedyStarGolden, DefaultStreamSurvivorsMatchTheEagerScan) {
  const Instance survivors = default_stream_scenario_registry()
                                 .make("hotspot-grid", 1)
                                 .surviving_instance();
  ASSERT_EQ(survivors.num_requests(), 1980u);
  expect_greedy_golden(survivors, kDefaultStreamGolden);
  expect_opt_golden(estimate_opt(survivors), kDefaultStreamGolden);
}

// ------------------------------------------- star walk and move deltas --

/// Integer positions on a line times `unit`, so distances repeat and
/// near-tie (0.1 + 0.2 != 0.3); points at or above `split` form a second
/// component at +inf distance.
class ScaledLineMetric final : public MetricSpace {
 public:
  ScaledLineMetric(std::vector<int> positions, std::size_t split, double unit)
      : positions_(std::move(positions)), split_(split), unit_(unit) {}
  std::size_t num_points() const noexcept override {
    return positions_.size();
  }
  double distance(PointId a, PointId b) const override {
    if ((a < split_) != (b < split_)) return kInfiniteDistance;
    return std::abs(positions_[a] - positions_[b]) * unit_;
  }
  std::string description() const override { return "scaled-line"; }

 private:
  std::vector<int> positions_;
  std::size_t split_;
  double unit_;
};

/// f^σ_m = base + step·|σ| everywhere.
class AffineCostModel final : public FacilityCostModel {
 public:
  AffineCostModel(CommodityId s, double base, double step)
      : s_(s), base_(base), step_(step) {}
  CommodityId num_commodities() const noexcept override { return s_; }
  double open_cost(PointId, const CommoditySet& config) const override {
    return config.empty() ? 0.0
                          : base_ + step_ * static_cast<double>(config.count());
  }
  std::string description() const override { return "affine"; }

 private:
  CommodityId s_;
  double base_;
  double step_;
};

struct TieCase {
  std::size_t n;
  double unit;
  double base;
  double step;
  bool infinite;
};

/// `points` points at integer positions in [0, 6), requests at random
/// points with 1-3 of |S| = 5 commodities.
Instance tie_instance(const TieCase& c, std::size_t points, Rng& rng) {
  std::vector<int> positions;
  for (std::size_t i = 0; i < points; ++i)
    positions.push_back(static_cast<int>(rng.uniform_index(6)));
  const auto metric = std::make_shared<ScaledLineMetric>(
      std::move(positions), c.infinite ? points / 2 : points, c.unit);
  const CommodityId s = 5;
  std::vector<Request> requests;
  for (std::size_t i = 0; i < c.n; ++i)
    requests.push_back(Request{
        static_cast<PointId>(rng.uniform_index(points)),
        sample_demand_set(s, static_cast<CommodityId>(1 + rng.uniform_index(3)),
                          0.0, rng)});
  return Instance(metric, std::make_shared<AffineCostModel>(s, c.base, c.step),
                  std::move(requests), "ties");
}

/// The eager star evaluation: every gain sorted by (unit cost, request),
/// every prefix scanned.
struct EagerStar {
  double ratio = std::numeric_limits<double>::infinity();
  std::size_t prefix = 0;
  std::vector<std::uint32_t> order;
};

EagerStar eager_star(const CandidatePool& pool, const StarWalk& walk,
                     std::size_t k, std::size_t j) {
  struct Gain {
    double unit_cost;
    double distance;
    std::size_t covered;
    std::uint32_t request;
  };
  std::vector<Gain> gains;
  const CommoditySet& config = pool.configs()[j];
  for (std::uint32_t i = 0; i < pool.instance().num_requests(); ++i) {
    const std::size_t covered = (walk.uncovered(i) & config).count();
    if (covered == 0) continue;
    const double d = pool.row(k)[i];
    gains.push_back(Gain{d / static_cast<double>(covered), d, covered, i});
  }
  std::sort(gains.begin(), gains.end(), [](const Gain& a, const Gain& b) {
    if (a.unit_cost != b.unit_cost) return a.unit_cost < b.unit_cost;
    return a.request < b.request;
  });
  EagerStar star;
  double cost_acc = pool.open_cost(k, j);
  std::size_t covered_acc = 0;
  for (std::size_t p = 0; p < gains.size(); ++p) {
    star.order.push_back(gains[p].request);
    cost_acc += gains[p].distance;
    covered_acc += gains[p].covered;
    const double ratio = cost_acc / static_cast<double>(covered_acc);
    if (ratio < star.ratio) {
      star.ratio = ratio;
      star.prefix = p + 1;
    }
  }
  return star;
}

TEST(StarWalk, MatchesTheEagerSortAcrossSizesTiesAndInfiniteDistances) {
  const std::vector<TieCase> cases = {
      {1, 0.1, 0.3, 0.1, false},   {2, 0.1, 0.0, 0.0, false},
      {3, 1.0 / 3.0, 0.1, 0.2, true}, {8, 0.1, 0.3, 0.1, true},
      {40, 0.1, 0.0, 0.1, false},  {200, 0.1, 0.3, 0.1, false},
      {200, 1.0 / 3.0, 0.7, 0.1, true}, {1000, 0.1, 0.0, 0.0, true},
      {1000, 0.1, 2.0, 0.5, false}, {5000, 0.1, 0.3, 0.1, false},
      {5000, 1.0 / 3.0, 25.0, 1.0, true}};
  Rng rng(2024);
  std::size_t compared = 0, stopped_early = 0, finite = 0;
  for (const TieCase& c : cases) {
    const Instance instance = tie_instance(c, 12, rng);
    const CandidatePool pool(instance);
    StarWalk walk(pool);
    const std::size_t configs = pool.configs().size();
    const std::size_t candidates = pool.points().size() * configs;
    // Evaluate a sample each round, then cover one star's prefix, so
    // later rounds see partly covered demand.
    for (std::size_t round = 0; round < 6 && walk.open_pairs() > 0; ++round) {
      std::size_t cover = candidates;
      for (std::size_t t = 0; t < std::min<std::size_t>(candidates, 60); ++t) {
        const std::size_t cand =
            candidates <= 60 ? t : rng.uniform_index(candidates);
        const std::size_t k = cand / configs, j = cand % configs;
        const EagerStar eager = eager_star(pool, walk, k, j);
        const StarWalk::Star star = walk.evaluate(k, j);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(star.ratio),
                  std::bit_cast<std::uint64_t>(eager.ratio))
            << "n=" << c.n << " candidate " << cand;
        ASSERT_EQ(star.prefix, eager.prefix) << "n=" << c.n;
        ASSERT_EQ(star.covers, !eager.order.empty()) << "n=" << c.n;
        ASSERT_GE(walk.walked().size(), star.prefix);
        ASSERT_LE(walk.walked().size(), eager.order.size());
        for (std::size_t p = 0; p < walk.walked().size(); ++p)
          ASSERT_EQ(walk.walked()[p].request, eager.order[p]) << "n=" << c.n;
        ++compared;
        if (walk.walked().size() < eager.order.size()) ++stopped_early;
        if (std::isfinite(star.ratio)) ++finite;
        if (star.prefix > 0) cover = cand;
      }
      if (cover == candidates) break;
      walk.evaluate(cover / configs, cover % configs);
      const std::size_t before = walk.open_pairs();
      walk.cover(cover % configs,
                 eager_star(pool, walk, cover / configs, cover % configs)
                     .prefix);
      EXPECT_LT(walk.open_pairs(), before);
    }
  }
  EXPECT_GT(compared, 500u);
  EXPECT_GT(stopped_early, compared / 4) << "premise: walks stop early";
  EXPECT_GT(finite, compared / 2);
}

TEST(LocalSearchState, DeltasMatchCostsRecomputedFromScratch) {
  Rng rng(77);
  for (const TieCase& c :
       {TieCase{30, 0.1, 0.3, 0.1, false},
        TieCase{60, 1.0 / 3.0, 0.7, 0.2, true},
        TieCase{150, 0.1, 0.0, 0.1, true}}) {
    const Instance instance = tie_instance(c, 10, rng);
    const CandidatePool pool(instance);
    const std::size_t configs = pool.configs().size();
    const CommoditySet full = CommoditySet::full_set(5);
    const auto opening = [&](const std::vector<PlacedFacility>& facilities) {
      double total = 0.0;
      for (const PlacedFacility& f : facilities)
        total += instance.cost().open_cost(f.point, f.config);
      return total;
    };
    for (int trial = 0; trial < 8; ++trial) {
      // A full-S facility in each component keeps the set feasible; the
      // rest are random pool candidates, several per point.
      std::vector<PlacedFacility> facilities = {
          {pool.points().front(), full}, {pool.points().back(), full}};
      for (int extra = 0; extra < 1 + trial; ++extra)
        facilities.push_back(
            {pool.points()[rng.uniform_index(pool.points().size())],
             pool.configs()[rng.uniform_index(configs)]});
      LocalSearchState state(pool);
      state.set_facilities(facilities);
      const double connection =
          total_assignment_cost(instance, std::span(facilities));
      ASSERT_EQ(state.connection_cost(), connection);
      ASSERT_EQ(state.opening_cost(), opening(facilities));
      const double total = state.total_cost();
      const double tolerance = 1e-9 * (1.0 + total);

      for (int t = 0; t < 40; ++t) {
        const std::size_t k = rng.uniform_index(pool.points().size());
        const std::size_t j = rng.uniform_index(configs);
        std::vector<PlacedFacility> added = facilities;
        added.push_back({pool.points()[k], pool.configs()[j]});
        const double expect =
            opening(added) +
            total_assignment_cost(instance, std::span(added)) - total;
        EXPECT_NEAR(state.add_delta(k, j), expect, tolerance);
      }
      for (std::size_t fi = 0; fi < facilities.size(); ++fi) {
        std::vector<PlacedFacility> dropped = facilities;
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(fi));
        const double rest = total_assignment_cost(instance, std::span(dropped));
        if (!std::isfinite(rest)) {
          EXPECT_EQ(state.drop_delta(fi), kInfiniteDistance) << fi;
          continue;
        }
        EXPECT_NEAR(state.drop_delta(fi), opening(dropped) + rest - total,
                    tolerance)
            << fi;
      }
    }
  }
}

// --------------------------------------------------------- opt estimate --

TEST(OptEstimate, UsesExactCertificate) {
  Rng rng(2);
  Theorem2Config cfg;
  cfg.num_commodities = 36;
  const Instance inst = make_theorem2_instance(cfg, rng);
  const OptEstimate est = estimate_opt(inst);
  EXPECT_TRUE(est.exact);
  EXPECT_DOUBLE_EQ(est.cost, 1.0);
  EXPECT_NE(est.method.find("certificate"), std::string::npos);
}

TEST(OptEstimate, SinglePointPathForMixedWorkload) {
  Rng rng(3);
  SinglePointMixedConfig cfg;
  cfg.num_requests = 30;
  cfg.num_commodities = 10;
  auto cost = std::make_shared<PolynomialCostModel>(10, 1.0);
  const Instance inst = make_single_point_mixed(cfg, cost, rng);
  const OptEstimate est = estimate_opt(inst);
  EXPECT_TRUE(est.exact);
  EXPECT_NE(est.method.find("single-point"), std::string::npos);
}

TEST(OptEstimate, FallsBackToLocalSearch) {
  Rng rng(4);
  UniformLineConfig cfg;
  cfg.num_points = 12;
  cfg.num_requests = 30;
  cfg.num_commodities = 6;
  cfg.max_demand = 3;
  auto cost = std::make_shared<PolynomialCostModel>(6, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  const OptEstimate est = estimate_opt(inst);
  EXPECT_FALSE(est.exact);
  EXPECT_TRUE(est.method == "local-search" || est.method == "greedy-star")
      << est.method;
  EXPECT_GT(est.cost, 0.0);
}

TEST(OptEstimate, ThrowsWhenNothingApplies) {
  Rng rng(5);
  UniformLineConfig cfg;
  cfg.num_points = 12;
  cfg.num_requests = 30;
  cfg.num_commodities = 6;
  auto cost = std::make_shared<PolynomialCostModel>(6, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  OptEstimateOptions options;
  options.allow_local_search = false;
  EXPECT_THROW((void)estimate_opt(inst, options), std::invalid_argument);
}

}  // namespace
}  // namespace omflp
