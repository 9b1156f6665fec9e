// Bound-layer tests: the dual-ascent bounder against hand-computed LP
// values and the exact solver (weak duality: LB ≤ OPT on every exactly
// solvable instance, across all four metric families and both cost
// families), the independent certificate checker as a tamper detector
// and its sparse exhaustive sweep against a dense reference,
// certificate serialization round-trips, the window decomposer and the
// chunked composition, bitwise determinism across thread counts, the
// bound registry roster, and the certified sweep columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bound/certificate.hpp"
#include "bound/dual_ascent.hpp"
#include "bound/registry.hpp"
#include "bound/window.hpp"
#include "cost/cost_models.hpp"
#include "cost/heavy.hpp"
#include "instance/event_stream.hpp"
#include "instance/generators.hpp"
#include "metric/euclidean_metric.hpp"
#include "metric/line_metric.hpp"
#include "metamorphic_common.hpp"
#include "offline/opt_estimate.hpp"
#include "perf/perf_counters.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/sweep.hpp"
#include "support/rng.hpp"

namespace omflp {
namespace {

Request make_request(PointId location, CommodityId universe,
                     std::initializer_list<CommodityId> demanded) {
  Request r;
  r.location = location;
  r.commodities = CommoditySet(universe);
  for (const CommodityId e : demanded) r.commodities.add(e);
  return r;
}

// ------------------------------------------------------------ hand-checks ---

// Two requests at opposite ends of a length-L line, one commodity of
// weight w < L: each request's dual rises until its own location's
// facility budget w is exhausted, so LB = 2w — which IS the optimum
// (opening at both ends costs 2w; sharing one facility costs w + L > 2w).
TEST(DualAscent, TwoSeparatedRequestsReachTheExactOptimum) {
  const double w = 3.0, L = 10.0;
  const MetricPtr metric = LineMetric::uniform_grid(2, L);
  const CostModelPtr cost = std::make_shared<LinearCostModel>(1, w);
  Instance instance(metric, cost,
                    {make_request(0, 1, {0}), make_request(1, 1, {0})},
                    "two-ends");

  const DualAscentResult res = dual_ascent_lower_bound(instance);
  EXPECT_NEAR(res.lower_bound, 2.0 * w, 1e-12);
  EXPECT_EQ(verify_certificate(instance, res.certificate), std::nullopt);

  const OptEstimate opt = estimate_opt(instance);
  ASSERT_TRUE(opt.exact);
  EXPECT_NEAR(opt.cost, 2.0 * w, 1e-12);
}

// Two colocated requests sharing one commodity of weight w: their duals
// rise together and the facility is paid off at t = w/2 each, LB = w.
TEST(DualAscent, ColocatedRequestsSplitTheOpeningCost) {
  const double w = 4.0;
  const MetricPtr metric = LineMetric::uniform_grid(3, 10.0);
  const CostModelPtr cost = std::make_shared<LinearCostModel>(1, w);
  Instance instance(metric, cost,
                    {make_request(1, 1, {0}), make_request(1, 1, {0})},
                    "colocated");

  const DualAscentResult res = dual_ascent_lower_bound(instance);
  EXPECT_NEAR(res.lower_bound, w, 1e-12);
  EXPECT_EQ(res.certificate.duals.size(), 2u);
  EXPECT_NEAR(res.certificate.duals[0][0], w / 2.0, 1e-12);
  EXPECT_NEAR(res.certificate.duals[1][0], w / 2.0, 1e-12);
  EXPECT_EQ(verify_certificate(instance, res.certificate), std::nullopt);
}

// ------------------------------------------------- weak duality, randomized ---

// Every exactly solvable instance must satisfy LB ≤ OPT (weak duality)
// with a certificate the independent checker accepts — swept over all
// four metric families × both cost families. Sizes are chosen to fit
// ExactSolverLimits so the comparison is against the true optimum.
TEST(DualAscent, LowerBoundNeverExceedsExactOptAcrossFamilies) {
  using metamorphic::CostFamily;
  using metamorphic::MetricFamily;
  const MetricFamily metrics[] = {MetricFamily::kLine,
                                  MetricFamily::kEuclidean,
                                  MetricFamily::kGraph,
                                  MetricFamily::kMatrix};
  const CostFamily costs[] = {CostFamily::kLinear, CostFamily::kPolynomial};

  metamorphic::GeneratorOptions gen;
  gen.min_points = 3;
  gen.max_points = 4;
  gen.min_commodities = 3;
  gen.max_commodities = 4;
  gen.min_requests = 6;
  gen.max_requests = 12;

  std::uint64_t seed = 1;
  for (const MetricFamily metric_family : metrics) {
    for (const CostFamily cost_family : costs) {
      gen.metric_family = metric_family;
      gen.cost_family = cost_family;
      for (int trial = 0; trial < 8; ++trial) {
        const Instance instance =
            metamorphic::random_instance(seed++, gen).instance;
        const DualAscentResult res = dual_ascent_lower_bound(instance);
        const auto violation = verify_certificate(instance, res.certificate);
        ASSERT_EQ(violation, std::nullopt)
            << "seed " << seed - 1 << ": " << *violation;

        const OptEstimate opt = estimate_opt(instance);
        ASSERT_TRUE(opt.exact) << "generator produced a non-exact size";
        const double tol = 1e-9 * std::max(1.0, std::abs(opt.cost));
        EXPECT_LE(res.lower_bound, opt.cost + tol)
            << "weak duality violated at seed " << seed - 1;
      }
    }
  }
}

// estimate_opt's own cross-check path: on exact instances the certified
// lower equals the exact value and the internal dual-certificate
// comparison passes without throwing.
TEST(OptEstimate, ExactInstancesCarryCertifiedLowerEqualToOpt) {
  metamorphic::GeneratorOptions gen;
  gen.min_points = 3;
  gen.max_points = 4;
  gen.min_commodities = 3;
  gen.max_commodities = 4;
  gen.min_requests = 6;
  gen.max_requests = 10;
  OptEstimateOptions options;
  options.compute_lower = true;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const Instance instance =
        metamorphic::random_instance(seed, gen).instance;
    const OptEstimate est = estimate_opt(instance, options);
    ASSERT_TRUE(est.exact);
    EXPECT_TRUE(est.lower_certified);
    EXPECT_EQ(est.lower, est.cost);
    EXPECT_EQ(est.lower_method, est.method);
  }
}

// On instances beyond the exact limits the lower field is a genuine dual
// bound below the heuristic upper estimate.
TEST(OptEstimate, HeuristicEstimatesGetADualLowerBound) {
  metamorphic::GeneratorOptions gen;  // defaults exceed ExactSolverLimits
  OptEstimateOptions options;
  options.compute_lower = true;
  const Instance instance =
      metamorphic::random_instance(42, gen).instance;
  const OptEstimate est = estimate_opt(instance, options);
  ASSERT_FALSE(est.exact);
  ASSERT_TRUE(est.lower_certified);
  EXPECT_GT(est.lower, 0.0);
  EXPECT_LE(est.lower, est.cost);
}

// ------------------------------------------------------- tamper rejection ---

class CertificateTamper : public ::testing::Test {
 protected:
  void SetUp() override {
    metamorphic::GeneratorOptions gen;
    gen.min_points = 3;
    gen.max_points = 4;
    gen.min_commodities = 3;
    gen.max_commodities = 4;
    gen.min_requests = 8;
    gen.max_requests = 12;
    instance_ = std::make_unique<Instance>(
        metamorphic::random_instance(7, gen).instance);
    result_ = dual_ascent_lower_bound(*instance_);
    ASSERT_EQ(verify_certificate(*instance_, result_.certificate),
              std::nullopt);
  }

  std::unique_ptr<Instance> instance_;
  DualAscentResult result_;
};

TEST_F(CertificateTamper, PerturbedDualIsRejected) {
  DualCertificate cert = result_.certificate;
  ASSERT_FALSE(cert.duals.empty());
  ASSERT_FALSE(cert.duals[0].empty());
  // Raise one dual (and keep the objective consistent so the objective
  // recomputation cannot be what catches it): feasibility or the slack
  // audit must reject the inflated bound.
  cert.duals[0][0] += 10.0;
  cert.objective += 10.0;
  EXPECT_NE(verify_certificate(*instance_, cert), std::nullopt);
}

TEST_F(CertificateTamper, InflatedObjectiveIsRejected) {
  DualCertificate cert = result_.certificate;
  cert.objective += 1.0;
  EXPECT_NE(verify_certificate(*instance_, cert), std::nullopt);
}

TEST_F(CertificateTamper, WrongFacilitySlackIsRejected) {
  DualCertificate cert = result_.certificate;
  ASSERT_FALSE(cert.facility_slack.empty());
  cert.facility_slack[0] += 1.0;
  EXPECT_NE(verify_certificate(*instance_, cert), std::nullopt);
}

TEST_F(CertificateTamper, NegativeDualIsRejected) {
  DualCertificate cert = result_.certificate;
  cert.duals[0][0] = -1.0;
  EXPECT_NE(verify_certificate(*instance_, cert), std::nullopt);
}

// A violation only a multi-commodity configuration exposes: one request at
// the single point demands {3, 7} with duals 0.9 each under g(k) = √k.
// Every singleton (0.9 ≤ 1) and the full set (1.8 ≤ √12) hold, so the
// canonical slack audit accepts the certificate; the pair {3, 7} fails
// (1.8 > √2). |S| = 12 puts it on the exhaustive path, which must reject
// it and report {3, 7} — the smallest violating mask — at point 0.
TEST(CertificateExhaustive, CatchesAPairViolationTheAuditCannot) {
  constexpr CommodityId kS = 12;
  const Instance instance(std::make_shared<SinglePointMetric>(),
                          std::make_shared<PolynomialCostModel>(kS, 1.0),
                          {make_request(0, kS, {3, 7})}, "pair-violation");
  DualCertificate cert;
  cert.num_requests = 1;
  cert.num_commodities = kS;
  cert.num_points = 1;
  cert.duals = {{0.9, 0.9}};
  cert.objective = 1.8;
  // The audit's canonical value: the binding singleton, 1 − 0.9.
  cert.facility_slack = {1.0 - 0.9};

  const std::optional<std::string> violation =
      verify_certificate(instance, cert);
  ASSERT_NE(violation, std::nullopt);
  EXPECT_NE(violation->find("config {3,7}/12"), std::string::npos)
      << *violation;
  EXPECT_NE(violation->find("at point 0"), std::string::npos) << *violation;
}

// ------------------------------------------ sparse exhaustive differential ---

/// The dense exhaustive sweep the checker ran before its distance-ordered
/// prefix cut, kept as a reference: every (σ, r, m) clipped term summed
/// branch-free, one open_cost per (m, σ) in mask-major order. Returns the
/// first violation with verify_certificate's exact wording; `checks`
/// counts the constraints compared.
std::optional<std::string> dense_exhaustive_reference(
    const Instance& instance, const DualCertificate& cert, double tol,
    std::uint64_t& checks) {
  const std::size_t n = instance.num_requests();
  const std::size_t points = instance.metric().num_points();
  const CommodityId s = instance.num_commodities();
  std::vector<std::uint64_t> masks(n, 0);
  std::vector<double> dist(n * points);
  for (std::size_t r = 0; r < n; ++r) {
    const Request& request = instance.request(static_cast<RequestId>(r));
    request.commodities.for_each(
        [&](CommodityId e) { masks[r] |= std::uint64_t{1} << e; });
    for (PointId m = 0; m < points; ++m)
      dist[r * points + m] = instance.metric().distance(request.location, m);
  }
  checks = 0;
  std::vector<double> lhs(points);
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << s); ++mask) {
    CommoditySet config(s);
    for (CommodityId e = 0; e < s; ++e)
      if (mask >> e & 1) config.add(e);
    std::fill(lhs.begin(), lhs.end(), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      std::uint64_t inter = mask & masks[r];
      if (!inter) continue;
      double sum = 0.0;
      while (inter) {
        const int bit = __builtin_ctzll(inter);
        const std::uint64_t below =
            masks[r] & ((std::uint64_t{1} << bit) - 1);
        sum += cert.duals[r][static_cast<std::size_t>(
            __builtin_popcountll(below))];
        inter &= inter - 1;
      }
      const double* d = dist.data() + r * points;
      for (PointId m = 0; m < points; ++m) {
        const double clipped = sum - d[m];
        lhs[m] += clipped > 0.0 ? clipped : 0.0;
      }
    }
    for (PointId m = 0; m < points; ++m) {
      const double rhs = instance.cost().open_cost(m, config);
      ++checks;
      if (!(lhs[m] <= rhs + tol * std::max(1.0, std::abs(rhs)))) {
        std::ostringstream os;
        os.precision(17);
        os << "dual constraint violated for config " << config.to_string()
           << " at point " << m << ": lhs " << lhs[m] << " > rhs " << rhs;
        return os.str();
      }
    }
  }
  return std::nullopt;
}

/// A random multi-point instance with |S| ≤ 8 under a point-scaled class-C
/// cost (rhs varies by point): a line with repeated positions or a plane
/// with integer coordinates, so distance ties are common.
Instance random_differential_instance(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t points = 2 + rng.uniform_index(9);
  const CommodityId s = static_cast<CommodityId>(1 + rng.uniform_index(8));
  MetricPtr metric;
  if (seed % 2 == 0) {
    std::vector<double> positions(points);
    for (double& p : positions)
      p = static_cast<double>(rng.uniform_index(6)) * 1.5;
    metric = std::make_shared<LineMetric>(std::move(positions));
  } else {
    std::vector<double> coords(points * 2);
    for (double& c : coords) c = static_cast<double>(rng.uniform_index(5));
    metric = std::make_shared<EuclideanMetric>(2, std::move(coords));
  }
  std::vector<double> multipliers(points);
  for (double& f : multipliers) f = rng.uniform(0.5, 2.0);
  const CostModelPtr cost = std::make_shared<PointScaledCostModel>(
      std::make_shared<PolynomialCostModel>(s, rng.uniform(0.0, 2.0),
                                            rng.uniform(1.0, 6.0)),
      std::move(multipliers));
  std::vector<Request> requests(1 + rng.uniform_index(12));
  for (Request& r : requests) {
    r.location = static_cast<PointId>(rng.uniform_index(points));
    r.commodities = sample_demand_set(
        s, static_cast<CommodityId>(1 + rng.uniform_index(std::min(s, 3u))),
        0.0, rng);
  }
  return Instance(std::move(metric), cost, std::move(requests),
                  "differential");
}

/// verifier_checks of a certificate that passes: every constraint the
/// dense sweep compared, (2^|S| − 1)·|M|, plus one audit check per point.
std::uint64_t passing_checks(const Instance& instance,
                             std::uint64_t exhaustive_checks) {
  const std::size_t points = instance.metric().num_points();
  EXPECT_EQ(exhaustive_checks,
            ((std::uint64_t{1} << instance.num_commodities()) - 1) * points);
  return exhaustive_checks + points;
}

/// Re-sums the objective so only dual feasibility (or the slack audit)
/// can reject a tampered certificate.
void refresh_objective(DualCertificate& cert) {
  cert.objective = 0.0;
  for (const std::vector<double>& row : cert.duals)
    for (double a : row) cert.objective += a;
}

// The checker's sparse sweep against the dense reference on dual-ascent
// certificates and on tampered copies: duals scaled up so clipped terms
// reach far points, duals set exactly to a distance (clipped term exactly
// 0), and tiny negative duals inside the dual floor. Whenever the dense
// sweep reports a violation, verify_certificate must report the same text
// (lhs printed to 17 digits) after the same number of constraint checks;
// when it finds none, neither may the checker's exhaustive path.
TEST(CertificateExhaustive, SparseSweepMatchesTheDenseReference) {
  constexpr double kTol = VerifyCertificateOptions{}.tolerance;
  std::size_t violations = 0, passes = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    const Instance instance = random_differential_instance(seed);
    const DualCertificate base = dual_ascent_lower_bound(instance).certificate;
    std::vector<DualCertificate> certs = {base};
    Rng rng(seed * 7919);
    for (const double factor : {3.0, 12.0, 50.0}) {
      DualCertificate scaled = base;
      for (std::vector<double>& row : scaled.duals)
        for (double& a : row) a *= factor;
      refresh_objective(scaled);
      certs.push_back(std::move(scaled));
    }
    DualCertificate at_distance = base;
    for (std::size_t r = 0; r < at_distance.duals.size(); ++r) {
      std::vector<double>& row = at_distance.duals[r];
      std::fill(row.begin(), row.end(), 0.0);
      const PointId m = static_cast<PointId>(
          rng.uniform_index(instance.metric().num_points()));
      row[rng.uniform_index(row.size())] = instance.metric().distance(
          instance.request(static_cast<RequestId>(r)).location, m);
    }
    refresh_objective(at_distance);
    certs.push_back(std::move(at_distance));
    DualCertificate tiny_negative = base;
    for (std::vector<double>& row : tiny_negative.duals)
      for (double& a : row)
        if (rng.bernoulli(0.5)) a = -1e-12;
    refresh_objective(tiny_negative);
    certs.push_back(std::move(tiny_negative));

    for (const DualCertificate& cert : certs) {
      std::uint64_t reference_checks = 0;
      const std::optional<std::string> reference =
          dense_exhaustive_reference(instance, cert, kTol, reference_checks);
      PerfCounters counters;
      std::optional<std::string> verdict;
      {
        PerfScope scope(counters);
        verdict = verify_certificate(instance, cert);
      }
      if (reference) {
        ++violations;
        EXPECT_EQ(verdict, reference) << "seed " << seed;
        EXPECT_EQ(counters.verifier_checks, reference_checks)
            << "seed " << seed;
        EXPECT_EQ(counters.distance_lookups,
                  instance.num_requests() * instance.metric().num_points())
            << "seed " << seed;
      } else {
        ++passes;
        if (verdict) {
          EXPECT_EQ(verdict->find("dual constraint violated"),
                    std::string::npos)
              << "seed " << seed << ": " << *verdict;
        } else {
          EXPECT_EQ(counters.verifier_checks,
                    passing_checks(instance, reference_checks))
              << "seed " << seed;
        }
      }
    }
  }
  // Both outcomes must be well represented, or the comparison is vacuous.
  EXPECT_GT(violations, 100u);
  EXPECT_GT(passes, 100u);
}

/// A cost model equal to `base` except at a few (point, configuration)
/// pairs, where it returns the spike's value: a negative, an infinite or
/// a NaN opening cost, which the checker must hand to its exact scan.
/// open_cost_row is the base class's loop over open_cost.
class SpikedCostModel final : public FacilityCostModel {
 public:
  struct Spike {
    PointId point;
    std::uint64_t mask;
    double value;
  };

  SpikedCostModel(CostModelPtr base, std::vector<Spike> spikes)
      : base_(std::move(base)), spikes_(std::move(spikes)) {}

  CommodityId num_commodities() const noexcept override {
    return base_->num_commodities();
  }
  double open_cost(PointId m, const CommoditySet& config) const override {
    std::uint64_t mask = 0;
    config.for_each([&](CommodityId e) { mask |= std::uint64_t{1} << e; });
    for (const Spike& spike : spikes_)
      if (spike.point == m && spike.mask == mask) return spike.value;
    return base_->open_cost(m, config);
  }
  std::string description() const override { return "spiked"; }

 private:
  CostModelPtr base_;
  std::vector<Spike> spikes_;
};

// The sparse sweep against the dense reference at universes of 9–16
// commodities (a configuration's low and high bytes index the checker's
// tables separately), with demand sets up to all of S (too large for a
// subset-sum table, so those requests take the dense-row loop) and half
// the requests at one hotspot point. Each certificate is also checked
// against two spiked copies of the cost model: one with a negative, an
// infinite and a NaN opening cost at random (point, configuration) pairs
// of size 2 to |S| − 1, which must be reported exactly where the dense
// sweep reports them, and one with +inf spikes only, which both must
// pass. A passing certificate costs (2^|S| − 1)·|M| constraint checks
// plus the audit's |M|.
TEST(CertificateExhaustive, WideUniversesMatchTheDenseReference) {
  constexpr double kTol = VerifyCertificateOptions{}.tolerance;
  const double kInf = std::numeric_limits<double>::infinity();
  std::size_t violations = 0, passes = 0, spiked_violations = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed * 104729);
    const CommodityId s = static_cast<CommodityId>(9 + rng.uniform_index(8));
    const std::size_t points = 2 + rng.uniform_index(5);
    std::vector<double> coords(points * 2);
    for (double& c : coords) c = static_cast<double>(rng.uniform_index(4));
    const MetricPtr metric =
        std::make_shared<EuclideanMetric>(2, std::move(coords));
    std::vector<double> multipliers(points);
    for (double& f : multipliers) f = rng.uniform(0.5, 2.0);
    const CostModelPtr cost = std::make_shared<PointScaledCostModel>(
        std::make_shared<PolynomialCostModel>(s, rng.uniform(0.5, 2.0),
                                              rng.uniform(2.0, 6.0)),
        std::move(multipliers));
    const PointId hotspot = static_cast<PointId>(rng.uniform_index(points));
    std::vector<Request> requests(4 + rng.uniform_index(7));
    for (std::size_t r = 0; r < requests.size(); ++r) {
      requests[r].location =
          r % 2 == 0 ? hotspot
                     : static_cast<PointId>(rng.uniform_index(points));
      const CommodityId size =
          r % 3 == 0 ? s
                     : static_cast<CommodityId>(1 + rng.uniform_index(s));
      requests[r].commodities = sample_demand_set(s, size, 0.0, rng);
    }
    const Instance instance(metric, cost, requests, "wide");

    std::vector<SpikedCostModel::Spike> spikes;
    for (const double value : {-1.0, kInf, std::nan("")}) {
      std::uint64_t mask = 0;
      while (std::popcount(mask) < 2 || std::popcount(mask) >= int(s))
        mask = rng.next_u64() & ((std::uint64_t{1} << s) - 1);
      spikes.push_back({static_cast<PointId>(rng.uniform_index(points)),
                        mask, value});
    }
    const Instance spiked(
        metric, std::make_shared<SpikedCostModel>(cost, spikes), requests,
        "spiked");
    const Instance infinite(
        metric,
        std::make_shared<SpikedCostModel>(
            cost, std::vector<SpikedCostModel::Spike>{spikes[1]}),
        requests, "infinite");

    const DualCertificate base = dual_ascent_lower_bound(instance).certificate;
    std::vector<DualCertificate> certs = {base};
    for (const double factor : {3.0, 12.0}) {
      DualCertificate scaled = base;
      for (std::vector<double>& row : scaled.duals)
        for (double& a : row) a *= factor;
      refresh_objective(scaled);
      certs.push_back(std::move(scaled));
    }
    DualCertificate at_distance = base;
    for (std::size_t r = 0; r < at_distance.duals.size(); ++r) {
      std::vector<double>& row = at_distance.duals[r];
      std::fill(row.begin(), row.end(), 0.0);
      row[rng.uniform_index(row.size())] = instance.metric().distance(
          requests[r].location,
          static_cast<PointId>(rng.uniform_index(points)));
    }
    refresh_objective(at_distance);
    certs.push_back(std::move(at_distance));

    for (const DualCertificate& cert : certs) {
      for (const Instance* checked : {&instance, &spiked, &infinite}) {
        std::uint64_t reference_checks = 0;
        const std::optional<std::string> reference =
            dense_exhaustive_reference(*checked, cert, kTol,
                                       reference_checks);
        PerfCounters counters;
        std::optional<std::string> verdict;
        {
          PerfScope scope(counters);
          verdict = verify_certificate(*checked, cert);
        }
        if (reference) {
          ++violations;
          if (checked == &spiked) ++spiked_violations;
          EXPECT_EQ(verdict, reference) << "seed " << seed;
          EXPECT_EQ(counters.verifier_checks, reference_checks)
              << "seed " << seed;
          EXPECT_EQ(counters.distance_lookups, requests.size() * points)
              << "seed " << seed;
          continue;
        }
        ++passes;
        if (verdict) {
          EXPECT_EQ(verdict->find("dual constraint violated"),
                    std::string::npos)
              << "seed " << seed << ": " << *verdict;
        } else {
          EXPECT_EQ(counters.verifier_checks,
                    passing_checks(*checked, reference_checks))
              << "seed " << seed;
        }
      }
    }
    // The base certificate is feasible and its audit holds: it passes
    // outright, +inf spikes included.
    EXPECT_EQ(verify_certificate(instance, base), std::nullopt);
    EXPECT_EQ(verify_certificate(infinite, base), std::nullopt);
  }
  EXPECT_GT(violations, 20u);
  EXPECT_GT(passes, 20u);
  EXPECT_GT(spiked_violations, 10u);
}

// A negative dual must not shrink a request's reach: with duals
// (1000 + 5e-8, −1e-7) — the negative one inside the dual floor of 1e-6 —
// the configuration {0} sums to 1000 + 5e-8 and reaches the point 1000
// away, where opening {0} is free, by 5e-8 > the tolerance. The sum of
// all duals falls short of that distance; only the sum of the positive
// ones bounds every configuration's sum.
TEST(CertificateExhaustive, NegativeDualsDoNotShrinkTheReach) {
  const Instance instance(
      std::make_shared<LineMetric>(std::vector<double>{0.0, 1000.0}),
      std::make_shared<SpikedCostModel>(
          std::make_shared<PolynomialCostModel>(2, 1.0, 2000.0),
          std::vector<SpikedCostModel::Spike>{{1, 0b01, 0.0}}),
      {make_request(0, 2, {0, 1})}, "negative-dual");
  DualCertificate cert;
  cert.num_requests = 1;
  cert.num_commodities = 2;
  cert.num_points = 2;
  cert.duals = {{1000.0 + 5e-8, -1e-7}};
  refresh_objective(cert);
  cert.facility_slack = {0.0, 0.0};
  std::uint64_t checks = 0;
  const std::optional<std::string> reference = dense_exhaustive_reference(
      instance, cert, VerifyCertificateOptions{}.tolerance, checks);
  ASSERT_NE(reference, std::nullopt);
  EXPECT_NE(reference->find("config {0}/2 at point 1"), std::string::npos)
      << *reference;
  EXPECT_EQ(verify_certificate(instance, cert), reference);
}

// Two requests at the near end of a six-point line (positions 0..5) with
// duals 6: every point is reached, the farthest (point 5) by the smallest
// clipped terms, (6 − 5) + (6 − 4) = 3. Only there is the opening cost
// cut below the lhs, so the only violation is at the point farthest from
// every request — a prefix cut that stops one point short would miss it.
TEST(CertificateExhaustive, ReportsAViolationOnlyAtTheFarthestPoint) {
  const Instance instance(
      LineMetric::uniform_grid(6, 5.0),
      std::make_shared<PointScaledCostModel>(
          std::make_shared<PolynomialCostModel>(1, 1.0, 100.0),
          std::vector<double>{1.0, 1.0, 1.0, 1.0, 1.0, 0.02}),
      {make_request(0, 1, {0}), make_request(1, 1, {0})}, "far-point");
  DualCertificate cert;
  cert.num_requests = 2;
  cert.num_commodities = 1;
  cert.num_points = 6;
  cert.duals = {{6.0}, {6.0}};
  cert.objective = 12.0;
  cert.facility_slack = std::vector<double>(6, 0.0);
  EXPECT_EQ(verify_certificate(instance, cert),
            "dual constraint violated for config {0}/1 at point 5: lhs 3 > "
            "rhs 2");
}

// ----------------------------------------------------------- serialization ---

TEST(Certificate, RoundTripPreservesEveryField) {
  metamorphic::GeneratorOptions gen;
  gen.min_points = 3;
  gen.max_points = 4;
  gen.min_requests = 6;
  gen.max_requests = 10;
  const Instance instance = metamorphic::random_instance(11, gen).instance;
  const DualAscentResult res = dual_ascent_lower_bound(instance);

  const std::string text = certificate_to_string(res.certificate);
  const DualCertificate parsed = certificate_from_string(text);
  EXPECT_EQ(parsed.num_requests, res.certificate.num_requests);
  EXPECT_EQ(parsed.num_commodities, res.certificate.num_commodities);
  EXPECT_EQ(parsed.num_points, res.certificate.num_points);
  EXPECT_EQ(parsed.method, res.certificate.method);
  EXPECT_EQ(parsed.objective, res.certificate.objective);  // bitwise
  EXPECT_EQ(parsed.duals, res.certificate.duals);
  EXPECT_EQ(parsed.facility_slack, res.certificate.facility_slack);
  // The parsed certificate is still verifiable against the instance.
  EXPECT_EQ(verify_certificate(instance, parsed), std::nullopt);
  // And re-serialization is a fixed point (precision 17 round-trips).
  EXPECT_EQ(certificate_to_string(parsed), text);
}

TEST(Certificate, ParserRejectsTrailingGarbage) {
  const MetricPtr metric = LineMetric::uniform_grid(2, 1.0);
  const CostModelPtr cost = std::make_shared<LinearCostModel>(1, 1.0);
  Instance instance(metric, cost, {make_request(0, 1, {0})}, "tiny");
  const DualAscentResult res = dual_ascent_lower_bound(instance);
  const std::string text = certificate_to_string(res.certificate);
  EXPECT_THROW((void)certificate_from_string(text + "extra junk\n"),
               std::invalid_argument);
}

// ----------------------------------------------------- windows and chunks ---

TEST(WindowBound, DrainingStreamsSplitIntoBusyWindows) {
  const MetricPtr metric = LineMetric::uniform_grid(4, 9.0);
  const CostModelPtr cost = std::make_shared<LinearCostModel>(2, 1.0);
  // Timeline: A (lease 1) expires before event 1 → window {A}; B
  // (lease 1) expires before event 2 → window {B}; C is pinned and
  // survives → final window {C}.
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(0, 2, {0}), 1));
  events.push_back(StreamEvent::arrival(make_request(1, 2, {1}), 1));
  events.push_back(StreamEvent::arrival(make_request(3, 2, {0}), 0));
  const EventStream stream(metric, cost, std::move(events), "drain");
  stream.validate();

  MaterializedEventSource source(stream);
  const StreamBoundResult res = bound_stream_windows(source);
  EXPECT_EQ(res.windows, 3u);
  EXPECT_EQ(res.forced_splits, 0u);
  EXPECT_EQ(res.arrivals, 3u);
  ASSERT_EQ(res.per_window.size(), 3u);
  double sum = 0.0;
  for (const WindowBoundRow& row : res.per_window) {
    EXPECT_EQ(row.arrivals, 1u);
    // A lone one-commodity request at its own point: LB = the weight 1.
    EXPECT_NEAR(row.lower, 1.0, 1e-12);
    sum += row.lower;
  }
  EXPECT_EQ(res.windowed_lower, sum);
}

TEST(WindowBound, ArrivalCapForcesASplit) {
  const MetricPtr metric = LineMetric::uniform_grid(4, 9.0);
  const CostModelPtr cost = std::make_shared<LinearCostModel>(2, 1.0);
  std::vector<StreamEvent> events;
  for (int i = 0; i < 3; ++i)
    events.push_back(StreamEvent::arrival(make_request(0, 2, {0}), 0));
  const EventStream stream(metric, cost, std::move(events), "pinned");

  MaterializedEventSource source(stream);
  WindowBoundOptions options;
  options.max_window_arrivals = 2;
  const StreamBoundResult res = bound_stream_windows(source, options);
  EXPECT_EQ(res.windows, 2u);
  EXPECT_EQ(res.forced_splits, 1u);
  EXPECT_EQ(res.max_window_arrivals, 2u);
}

TEST(ChunkedBound, SingleChunkEqualsThePlainBoundAndStaysBelowOpt) {
  metamorphic::GeneratorOptions gen;
  gen.min_points = 3;
  gen.max_points = 4;
  gen.min_requests = 8;
  gen.max_requests = 12;
  const Instance instance = metamorphic::random_instance(19, gen).instance;

  const DualAscentResult plain = dual_ascent_lower_bound(instance);
  const ChunkedBound whole = bound_instance_chunked(instance);
  EXPECT_EQ(whole.chunks, 1u);
  EXPECT_EQ(whole.lower, plain.lower_bound);  // bitwise: same computation

  WindowBoundOptions options;
  options.max_window_arrivals = 3;
  const ChunkedBound split = bound_instance_chunked(instance, options);
  EXPECT_GT(split.chunks, 1u);
  const OptEstimate opt = estimate_opt(instance);
  ASSERT_TRUE(opt.exact);
  const double tol = 1e-9 * std::max(1.0, std::abs(opt.cost));
  // Max over request subsets — a valid OPT bound even after splitting.
  EXPECT_LE(split.lower, opt.cost + tol);
}

// ------------------------------------------------------------ determinism ---

TEST(DualAscent, BitwiseIdenticalAcrossThreadCounts) {
  metamorphic::GeneratorOptions gen;  // default (larger) sizes
  gen.min_commodities = 5;
  gen.max_commodities = 6;
  for (std::uint64_t seed = 60; seed < 63; ++seed) {
    const Instance instance =
        metamorphic::random_instance(seed, gen).instance;
    DualAscentOptions one;
    one.threads = 1;
    DualAscentOptions four;
    four.threads = 4;
    const DualAscentResult a = dual_ascent_lower_bound(instance, one);
    const DualAscentResult b = dual_ascent_lower_bound(instance, four);
    EXPECT_EQ(certificate_to_string(a.certificate),
              certificate_to_string(b.certificate))
        << "thread-count nondeterminism at seed " << seed;
  }
}

// ---------------------------------------------------------------- registry ---

TEST(BoundRegistry, RosterAndErrors) {
  const BoundRegistry& registry = default_bound_registry();
  for (const char* name :
       {"auto", "certificate", "chunked", "dual-ascent", "exact-small"})
    EXPECT_TRUE(registry.contains(name)) << name;
  EXPECT_THROW((void)registry.spec("nope"), std::invalid_argument);

  const MetricPtr metric = LineMetric::uniform_grid(2, 5.0);
  const CostModelPtr cost = std::make_shared<LinearCostModel>(1, 1.0);
  Instance instance(metric, cost,
                    {make_request(0, 1, {0}), make_request(1, 1, {0})},
                    "registry");
  // No generator certificate on a hand-built instance.
  EXPECT_THROW((void)registry.make("certificate", instance),
               BoundUnsupportedError);
  const BoundOutcome exact = registry.make("exact-small", instance);
  EXPECT_TRUE(exact.exact);
  const BoundOutcome ascent = registry.make("dual-ascent", instance);
  EXPECT_TRUE(ascent.certificate.has_value());
  EXPECT_LE(ascent.lower, exact.lower + 1e-12);
  // auto prefers the exact value here.
  const BoundOutcome picked = registry.make("auto", instance);
  EXPECT_TRUE(picked.exact);
  EXPECT_EQ(picked.lower, exact.lower);
}

// `auto` and estimate_opt share one exact chain: on single-point
// scenarios the DP's exact value, never a dual-ascent bound that can sit
// an ulp above it.
TEST(BoundRegistry, AutoTakesTheSinglePointDpOnSinglePointScenarios) {
  for (const char* name : {"shared-demand", "single-point-mixed"})
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Instance instance = default_scenario_registry().make(name, seed);
      const BoundOutcome picked = default_bound_registry().make("auto",
                                                                instance);
      const OptEstimate opt = estimate_opt(instance);
      EXPECT_EQ(picked.method, "single-point-dp") << name << " " << seed;
      EXPECT_TRUE(picked.exact) << name << " " << seed;
      EXPECT_EQ(picked.lower, opt.cost) << name << " " << seed;
      EXPECT_EQ(opt.method, "single-point-dp") << name << " " << seed;
    }
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The dual-ascent certificate, byte for byte: FNV-1a 64 digests and
// lengths of the OMFLP-CERT text on uniform-line seeds 1-3, recorded
// before the certificate assembly moved into seal_certificate.
TEST(DualAscent, CertificateBytesArePinned) {
  const struct {
    std::uint64_t seed;
    std::uint64_t digest;
    std::size_t length;
  } pinned[] = {{1, 0x597752b45956635cULL, 6314},
                {2, 0x66ba1474e2950b6bULL, 5831},
                {3, 0x583abfb282be4154ULL, 6147}};
  for (const auto& pin : pinned) {
    const Instance instance =
        default_scenario_registry().make("uniform-line", pin.seed);
    const std::string text =
        certificate_to_string(dual_ascent_lower_bound(instance).certificate);
    EXPECT_EQ(text.size(), pin.length) << "seed " << pin.seed;
    EXPECT_EQ(fnv1a64(text), pin.digest) << "seed " << pin.seed;
  }
}

// `omflp bound --save-cert` saves the outcome certificate_outcome picks.
// Under the default method every registered scenario yields a verified
// certificate whose bound stays at or below the printed one, exact
// outcomes included (they used to have nothing to save).
TEST(BoundRegistry, EveryScenarioHasACertificateToSave) {
  const ScenarioRegistry& scenarios = default_scenario_registry();
  for (const std::string& name : scenarios.names()) {
    const Instance instance = scenarios.make(name, 1);
    const BoundOutcome outcome = default_bound_registry().make("auto",
                                                               instance);
    const BoundOutcome saved = certificate_outcome(instance, outcome);
    ASSERT_TRUE(saved.certificate.has_value()) << name;
    EXPECT_EQ(verify_certificate(instance, *saved.certificate), std::nullopt)
        << name;
    EXPECT_LE(saved.lower,
              outcome.lower + 1e-9 * std::max(1.0, outcome.lower))
        << name;
    if (outcome.certificate)
      EXPECT_EQ(saved.lower, outcome.lower) << name;
    std::stringstream file;
    write_certificate(file, *saved.certificate);
    EXPECT_EQ(read_certificate(file).objective, saved.certificate->objective)
        << name;
  }
  // A chunked bound holds one certificate per chunk: nothing to save.
  const Instance instance = scenarios.make("uniform-line", 1);
  EXPECT_THROW((void)certificate_outcome(
                   instance, default_bound_registry().make("chunked",
                                                           instance)),
               std::invalid_argument);
}

TEST(BoundRegistry, UnsupportedCostStructureThrows) {
  // Heavy-tail costs expose neither additive weights nor a size-only
  // form; with the exhaustive budget fallback disabled the bounder must
  // refuse rather than emit an unsound bound.
  const CommodityId s = 4;
  CommoditySet heavy(s);
  heavy.add(0);
  const CostModelPtr cost = std::make_shared<HeavyTailCostModel>(
      s, [](CommodityId k) { return std::sqrt(static_cast<double>(k)); },
      heavy, std::vector<double>{5.0, 0.0, 0.0, 0.0});
  const MetricPtr metric = LineMetric::uniform_grid(2, 5.0);
  Instance instance(metric, cost, {make_request(0, s, {0, 1})}, "heavy");

  DualAscentOptions options;
  options.max_exhaustive_commodities = 2;  // below |S| = 4
  EXPECT_THROW((void)dual_ascent_lower_bound(instance, options),
               BoundUnsupportedError);
  // With the default budget the exhaustive fallback handles it exactly.
  const DualAscentResult res = dual_ascent_lower_bound(instance);
  EXPECT_EQ(verify_certificate(instance, res.certificate), std::nullopt);
}

// ------------------------------------------------------------ sweep columns ---

TEST(Sweep, CertifiedColumnsAppearWhenRequested) {
  SweepOptions options;
  options.scenarios = {"theorem2"};
  options.algorithms = {"pd"};
  options.seeds = 2;
  options.opt.compute_lower = true;
  const SweepResult result = run_sweep(options);
  const SweepCell& cell = result.cell("theorem2", "pd");
  EXPECT_EQ(cell.lower_certified, 2u);
  ASSERT_EQ(cell.certified_ratio.count(), 2u);
  // theorem2 carries an exact certificate: zero gap, certified == plain.
  EXPECT_EQ(cell.gap.mean(), 0.0);
  EXPECT_EQ(cell.certified_ratio.mean(), cell.ratio.mean());

  std::ostringstream csv;
  result.write_csv(csv);
  EXPECT_NE(csv.str().find("certified_ratio_mean"), std::string::npos);
  EXPECT_NE(csv.str().find("gap_mean"), std::string::npos);
  std::ostringstream json;
  result.write_json(json);
  EXPECT_NE(json.str().find("\"lower_certified\": 2"), std::string::npos);
}

// Without the opt-in the certified columns stay empty — and cost nothing.
TEST(Sweep, CertifiedColumnsStayEmptyByDefault) {
  SweepOptions options;
  options.scenarios = {"theorem2"};
  options.algorithms = {"pd"};
  options.seeds = 1;
  const SweepResult result = run_sweep(options);
  const SweepCell& cell = result.cell("theorem2", "pd");
  // theorem2 is exact, so the lower bound rides along for free even
  // without compute_lower (the exact value certifies itself).
  EXPECT_EQ(cell.lower_certified, 1u);
  EXPECT_EQ(cell.gap.mean(), 0.0);
}

}  // namespace
}  // namespace omflp
