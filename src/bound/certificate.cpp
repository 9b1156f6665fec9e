#include "bound/certificate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "instance/io_detail.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

constexpr const char* kHeader = "OMFLP-CERT v1";

/// lhs ≤ rhs up to the relative tolerance.
bool tol_leq(double lhs, double rhs, double tol) {
  return lhs <= rhs + tol * std::max(1.0, std::abs(rhs));
}

/// a == b up to the relative tolerance.
bool tol_eq(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string describe(const char* what, PointId m, double lhs, double rhs) {
  std::ostringstream os;
  os.precision(17);
  os << what << " at point " << m << ": lhs " << lhs << " > rhs " << rhs;
  return os.str();
}

CommoditySet set_from_mask(CommodityId universe, std::uint64_t mask) {
  CommoditySet s(universe);
  while (mask) {
    const int bit = __builtin_ctzll(mask);
    s.add(static_cast<CommodityId>(bit));
    mask &= mask - 1;
  }
  return s;
}

}  // namespace

// ---- serialization ---------------------------------------------------------

void write_certificate(std::ostream& os, const DualCertificate& cert) {
  os << kHeader << '\n';
  os << "method " << cert.method << '\n';
  os << "requests " << cert.num_requests << '\n';
  os << "commodities " << cert.num_commodities << '\n';
  os << "points " << cert.num_points << '\n';
  os.precision(17);
  os << "objective " << cert.objective << '\n';
  for (const std::vector<double>& row : cert.duals) {
    os << "dual " << row.size();
    for (double a : row) os << ' ' << a;
    os << '\n';
  }
  os << "slack";
  for (double s : cert.facility_slack) os << ' ' << s;
  os << '\n';
}

std::string certificate_to_string(const DualCertificate& cert) {
  std::ostringstream os;
  write_certificate(os, cert);
  return os.str();
}

DualCertificate read_certificate(std::istream& is) {
  iodetail::LineReader reader(is, "read_certificate");

  if (reader.next("header") != kHeader)
    reader.fail("bad header, expected 'OMFLP-CERT v1'");

  DualCertificate cert;
  std::string word;

  std::istringstream method_line(reader.next("method"));
  if (!(method_line >> word >> cert.method) || word != "method")
    reader.fail("expected 'method <name>'");

  std::istringstream requests_line(reader.next("requests"));
  if (!(requests_line >> word >> cert.num_requests) || word != "requests")
    reader.fail("expected 'requests <n>'");

  std::istringstream commodities_line(reader.next("commodities"));
  if (!(commodities_line >> word >> cert.num_commodities) ||
      word != "commodities" || cert.num_commodities == 0)
    reader.fail("expected 'commodities <|S|>'");

  std::istringstream points_line(reader.next("points"));
  if (!(points_line >> word >> cert.num_points) || word != "points" ||
      cert.num_points == 0)
    reader.fail("expected 'points <|M|>'");

  std::istringstream objective_line(reader.next("objective"));
  if (!(objective_line >> word >> cert.objective) || word != "objective" ||
      !std::isfinite(cert.objective))
    reader.fail("expected 'objective <finite value>'");

  // Capped reserves: absurd declared counts (fuzzed certificates) must
  // fail at "bad dual line", never in the allocator.
  cert.duals.reserve(
      std::min<std::size_t>(cert.num_requests, std::size_t{1} << 20));
  for (std::size_t r = 0; r < cert.num_requests; ++r) {
    std::istringstream row(reader.next("dual"));
    std::size_t k = 0;
    if (!(row >> word >> k) || word != "dual" || k == 0 ||
        k > cert.num_commodities)
      reader.fail("bad dual line");
    std::vector<double> values;
    values.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      double a = 0.0;
      if (!(row >> a) || !std::isfinite(a))
        reader.fail("bad dual value");
      values.push_back(a);
    }
    cert.duals.push_back(std::move(values));
  }

  std::istringstream slack_line(reader.next("slack"));
  if (!(slack_line >> word) || word != "slack")
    reader.fail("expected 'slack <values...>'");
  cert.facility_slack.reserve(
      std::min<std::size_t>(cert.num_points, std::size_t{1} << 20));
  for (std::size_t m = 0; m < cert.num_points; ++m) {
    double s = 0.0;
    if (!(slack_line >> s) || !std::isfinite(s))
      reader.fail("bad slack value");
    cert.facility_slack.push_back(s);
  }

  if (reader.try_next())
    throw std::invalid_argument(
        "read_certificate: trailing content after slack line");
  return cert;
}

DualCertificate certificate_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_certificate(is);
}

// ---- verification ----------------------------------------------------------

namespace {

/// Per-request data the checker derives once: location, demanded
/// commodities (ascending, aligned with the certificate's dual rows) and
/// the dual sum A_r.
struct CheckedRequest {
  PointId location = 0;
  std::vector<CommodityId> commodities;
  double dual_sum = 0.0;
};

/// Exhaustive path: constraint (D) for every configuration σ ⊆ S at every
/// point, in ascending mask order and ascending m, with the lhs bits of
/// the dense sweep
///
///     lhs[m] = +0.0;  for r in request order:  lhs[m] += t > 0 ? t : +0.0
///     with t = A_r(σ) − d(m, r),  A_r(σ) = the ascending-commodity sum
///     0.0 + a_{r,e_1} + a_{r,e_2} + …  over σ ∩ s_r.
///
/// The dense sweep is not run; three facts make a sparse one equal to it
/// bit for bit (no FTZ/DAZ: with gradual underflow t > 0 iff A > d):
///   * Reach lists. Rounding is monotone, so adding a term ≤ 0 never
///     raises a running sum and adding a term > 0 never lowers one; hence
///     every subset sum A_r(σ) ≤ cap_r, the same ascending sum over r's
///     positive duals only. A point with cap_r ≤ d(m, r) gets no positive
///     term from r under any σ. Each point keeps the list of (r, d(m, r))
///     with cap_r > d(m, r) in request order; a point with an empty list
///     has lhs = +0.0 in every configuration.
///   * Request sums. T_r[j] = T_r[j without its top bit] + a_top (local
///     bit i ↔ the i-th smallest commodity of s_r, T_r[0] = 0.0) is the
///     ascending addition chain itself, so T_r[pext(mask, s_r)] = A_r(σ).
///     Requests whose table would outgrow 4·|S| entries instead run the
///     ascending bit loop over a dense dual row (a_{r,e} at index e), the
///     same chain. A request disjoint from σ gets A = 0.0, so t ≤ 0.
///   * +0.0 additions. Every lhs is ≥ +0 and x + (+0.0) == x bitwise, so
///     adding +0.0 for a non-positive t, or for a request not in the
///     point's list, changes nothing: only the positive terms in request
///     order remain, as in the dense sweep.
/// Each configuration compares the reached points with the exact tol_leq
/// and clears every other point by one integer scan of the rhs row: with
/// tol ≥ 0, lhs = +0.0 ≤ rhs + tol·max(1, |rhs|) holds for every rhs
/// whose bits have no sign bit and an exponent short of all ones. On a
/// failure, or any rhs the scan cannot clear, the exact scalar scan over
/// every point reruns, so the first violating m and the count m + 1 are
/// those of the dense sweep. Extra memory is O(n·|S| + reach entries +
/// |M|). Requires |S| ≤ 63 (configurations as bitmasks).
std::optional<std::string> check_exhaustive(
    const Instance& instance, const DualCertificate& cert,
    const std::vector<CheckedRequest>& reqs, double tol) {
  const std::size_t n = reqs.size();
  const std::size_t points = instance.metric().num_points();
  const CommodityId s = cert.num_commodities;

  // Reach entries (point, request, d) in request order; distances come
  // from the metric directly (no DistanceOracle — the checker shares
  // nothing with the bounder).
  struct Hit {
    PointId point;
    std::uint32_t request;
    double dist;
  };
  std::vector<Hit> hits;
  std::vector<bool> reached(n, false);
  for (std::size_t r = 0; r < n; ++r) {
    double cap = 0.0;
    for (const double a : cert.duals[r])
      if (a > 0.0) cap += a;
    for (PointId m = 0; m < points; ++m) {
      const double d = instance.metric().distance(reqs[r].location, m);
      if (cap > d) {
        hits.push_back({m, static_cast<std::uint32_t>(r), d});
        reached[r] = true;
      }
    }
  }
  OMFLP_PERF_ADD(distance_lookups, n * points);

  // One sum slot per reached request: those with a table T_r first, then
  // those on dense dual rows.
  const std::size_t max_table = 4 * static_cast<std::size_t>(s);
  std::vector<std::uint32_t> slot_of(n);
  std::vector<double> tables;
  std::vector<std::size_t> table_base;
  std::vector<std::uint64_t> table_masks;
  std::vector<std::uint64_t> dense_masks;
  std::vector<double> dense_rows;  // |S| per dense-row request
  for (const bool tabled : {true, false}) {
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t k = reqs[r].commodities.size();
      if (!reached[r] || ((std::size_t{1} << k) <= max_table) != tabled)
        continue;
      std::uint64_t dmask = 0;
      for (const CommodityId e : reqs[r].commodities)
        dmask |= std::uint64_t{1} << e;
      if (tabled) {
        slot_of[r] = static_cast<std::uint32_t>(table_masks.size());
        table_masks.push_back(dmask);
        table_base.push_back(tables.size());
        tables.resize(tables.size() + (std::size_t{1} << k), 0.0);
        double* t = tables.data() + table_base.back();
        for (std::size_t j = 1; j < (std::size_t{1} << k); ++j) {
          const int top = std::bit_width(j) - 1;
          t[j] = t[j ^ (std::size_t{1} << top)] +
                 cert.duals[r][static_cast<std::size_t>(top)];
        }
      } else {
        slot_of[r] =
            static_cast<std::uint32_t>(table_masks.size() + dense_masks.size());
        dense_masks.push_back(dmask);
        const std::size_t row = dense_rows.size();
        dense_rows.resize(row + s, 0.0);
        for (std::size_t i = 0; i < k; ++i)
          dense_rows[row + reqs[r].commodities[i]] = cert.duals[r][i];
      }
    }
  }
  const std::size_t table_slots = table_masks.size();

  // j = pext(mask, dmask), split at commodity 8: the local bits of
  // commodities 0–7 come from `low` (one row per low byte of the mask,
  // one column per table slot), those of higher commodities are folded
  // into `high_base` whenever the mask's upper bits change.
  const auto local_bits = [](std::uint64_t mask, std::uint64_t dmask,
                             std::uint64_t keep) {
    std::uint32_t j = 0;
    for (std::uint32_t i = 0; dmask != 0; dmask &= dmask - 1, ++i)
      if (mask & keep & dmask & (~dmask + 1)) j |= std::uint32_t{1} << i;
    return j;
  };
  constexpr std::uint64_t kLow = 0xff;
  const std::size_t low_values = std::size_t{1} << std::min<CommodityId>(s, 8);
  std::vector<std::uint8_t> low(low_values * table_slots);
  for (std::size_t v = 0; v < low_values; ++v)
    for (std::size_t k = 0; k < table_slots; ++k)
      low[v * table_slots + k] =
          static_cast<std::uint8_t>(local_bits(v, table_masks[k], kLow));

  // The per-point lists, concatenated in point order (a stable counting
  // sort of `hits`, so each list stays in request order; `start` ends up
  // as the fill cursors); each entry carries its point's rank among the
  // reached points.
  struct Entry {
    std::uint32_t slot;
    std::uint32_t rank;
    double dist;
  };
  std::vector<std::size_t> start(points + 1, 0);
  for (const Hit& h : hits) ++start[h.point + 1];
  std::vector<PointId> reached_points;
  std::vector<std::uint32_t> rank_of(points);
  for (PointId m = 0; m < points; ++m) {
    rank_of[m] = static_cast<std::uint32_t>(reached_points.size());
    if (start[m + 1] != 0) reached_points.push_back(m);
    start[m + 1] += start[m];
  }
  std::vector<Entry> entries(hits.size());
  for (const Hit& h : hits)
    entries[start[h.point]++] = {slot_of[h.request], rank_of[h.point], h.dist};
  hits = {};

  std::vector<std::size_t> high_base(table_slots);
  std::vector<double> sums(table_slots + dense_masks.size());
  std::vector<double> acc(reached_points.size());
  std::vector<double> lhs(points, 0.0);  // +0.0 wherever nothing reaches
  std::vector<double> rhs(points);
  const std::uint64_t num_configs = std::uint64_t{1} << s;
  for (std::uint64_t mask = 1; mask < num_configs; ++mask) {
    if (mask == 1 || (mask & kLow) == 0)
      for (std::size_t k = 0; k < table_slots; ++k)
        high_base[k] = table_base[k] + local_bits(mask, table_masks[k], ~kLow);
    const std::uint8_t* low_row = low.data() + (mask & kLow) * table_slots;
    for (std::size_t k = 0; k < table_slots; ++k)
      sums[k] = tables[high_base[k] + low_row[k]];
    for (std::size_t k = 0; k < dense_masks.size(); ++k) {
      const double* row = dense_rows.data() + k * s;
      double sum = 0.0;
      for (std::uint64_t inter = mask & dense_masks[k]; inter != 0;
           inter &= inter - 1)
        sum += row[std::countr_zero(inter)];
      sums[table_slots + k] = sum;
    }

    std::fill(acc.begin(), acc.end(), 0.0);
    for (const Entry& e : entries) {
      const double t = sums[e.slot] - e.dist;
      acc[e.rank] += t > 0.0 ? t : 0.0;
    }
    const CommoditySet config = set_from_mask(s, mask);
    instance.cost().open_cost_row(config, rhs);
    bool ok = true;
    for (std::size_t p = 0; p < reached_points.size(); ++p) {
      const PointId m = reached_points[p];
      lhs[m] = acc[p];
      ok &= tol_leq(acc[p], rhs[m], tol);
    }
    // Bit 63 of `bits` is the sign; bits + 2^52 carries into it exactly
    // when a non-negative pattern's exponent is all ones. A negative or
    // NaN tolerance leaves every point to the exact scan.
    std::uint64_t doubt = tol >= 0.0 ? 0 : ~std::uint64_t{0};
    for (const double v : rhs) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      doubt |= bits | (bits + (std::uint64_t{1} << 52));
    }
    if (!ok || (doubt >> 63) != 0) {
      for (PointId m = 0; m < points; ++m) {
        if (!tol_leq(lhs[m], rhs[m], tol)) {
          OMFLP_PERF_ADD(verifier_checks, m + 1);
          return describe(
              ("dual constraint violated for config " + config.to_string())
                  .c_str(),
              m, lhs[m], rhs[m]);
        }
      }
    }
    OMFLP_PERF_ADD(verifier_checks, points);
  }
  return std::nullopt;
}

/// Structured path: the split decomposition P_m(e) (see header) checked
/// against spot-verified additive or size-only cost structure.
std::optional<std::string> check_structured(
    const Instance& instance, const DualCertificate& cert,
    const std::vector<CheckedRequest>& reqs, double tol) {
  const std::size_t n = reqs.size();
  const std::size_t points = instance.metric().num_points();
  const CommodityId s = cert.num_commodities;
  const FacilityCostModel& cost = instance.cost();

  // Demanded commodities and, per commodity, the requests demanding it
  // (with their dual value and split divisor |s_r|).
  std::vector<std::vector<std::pair<std::size_t, double>>> by_commodity(s);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < reqs[r].commodities.size(); ++i)
      by_commodity[reqs[r].commodities[i]].push_back({r, cert.duals[r][i]});

  // P[m] per demanded commodity, computed one commodity at a time (O(|M|)
  // transient memory). The split uses u_{r,e} = 1/|s_r|.
  std::vector<std::vector<double>> profile;  // indexed by demanded slot
  std::vector<CommodityId> demanded;
  for (CommodityId e = 0; e < s; ++e) {
    if (by_commodity[e].empty()) continue;
    std::vector<double> p(points, 0.0);
    for (const auto& [r, dual] : by_commodity[e]) {
      const double inv_k =
          1.0 / static_cast<double>(reqs[r].commodities.size());
      for (PointId m = 0; m < points; ++m) {
        const double scaled =
            instance.metric().distance(reqs[r].location, m) * inv_k;
        const double clipped = dual - scaled;
        if (clipped > 0.0) p[m] += clipped;
      }
      OMFLP_PERF_ADD(distance_lookups, points);
    }
    profile.push_back(std::move(p));
    demanded.push_back(e);
  }

  const CommoditySet full = CommoditySet::full_set(s);
  for (PointId m = 0; m < points; ++m) {
    // Path A: additive costs f^σ_m = Σ_{e∈σ} w_e(m).
    if (const auto weights = cost.additive_weights(m)) {
      if (weights->size() != s)
        return "additive_weights reports the wrong universe size";
      // Spot-check the additivity claim on concrete configurations:
      // every singleton, the full set, and a half prefix.
      double total = 0.0;
      for (CommodityId e = 0; e < s; ++e) {
        const double w = (*weights)[e];
        if (!(w >= 0.0)) return "additive_weights reports a negative weight";
        total += w;
        OMFLP_PERF_ADD(verifier_checks, 1);
        if (!tol_eq(cost.singleton_cost(m, e), w, tol))
          return describe("additive_weights disagrees with singleton cost",
                          m, cost.singleton_cost(m, e), w);
      }
      if (!tol_eq(cost.open_cost(m, full), total, tol))
        return describe("additive_weights disagrees with full cost", m,
                        cost.open_cost(m, full), total);
      CommoditySet prefix(s);
      double prefix_total = 0.0;
      for (CommodityId e = 0; e < (s + 1) / 2; ++e) {
        prefix.add(e);
        prefix_total += (*weights)[e];
      }
      if (!prefix.empty() &&
          !tol_eq(cost.open_cost(m, prefix), prefix_total, tol))
        return describe("additive_weights disagrees with prefix cost", m,
                        cost.open_cost(m, prefix), prefix_total);

      for (std::size_t i = 0; i < demanded.size(); ++i) {
        OMFLP_PERF_ADD(verifier_checks, 1);
        if (!tol_leq(profile[i][m], (*weights)[demanded[i]], tol))
          return describe("commodity budget exceeded", m, profile[i][m],
                          (*weights)[demanded[i]]);
      }
      continue;
    }

    // Path B: size-only costs g_m(k).
    if (cost.cost_by_size(m, 1).has_value()) {
      std::vector<double> g(static_cast<std::size_t>(s) + 1, 0.0);
      for (CommodityId k = 1; k <= s; ++k) {
        const auto gk = cost.cost_by_size(m, k);
        if (!gk || !(*gk >= 0.0))
          return "cost_by_size is partial or negative";
        g[k] = *gk;
      }
      // Spot-check the size-only claim against open_cost on prefixes.
      for (CommodityId k : {CommodityId{1}, static_cast<CommodityId>(s / 2),
                            s}) {
        if (k == 0) continue;
        CommoditySet prefix(s);
        for (CommodityId e = 0; e < k; ++e) prefix.add(e);
        OMFLP_PERF_ADD(verifier_checks, 1);
        if (!tol_eq(cost.open_cost(m, prefix), g[k], tol))
          return describe("cost_by_size disagrees with open_cost", m,
                          cost.open_cost(m, prefix), g[k]);
      }
      // Suffix minimum: a configuration of size k ≥ j containing only j
      // demanded commodities still has rhs f = g(k), so the top-j profile
      // sum must clear min over k ≥ j (guards non-monotone g).
      std::vector<double> suffix_min(g.size(), 0.0);
      double running = std::numeric_limits<double>::infinity();
      for (std::size_t k = g.size() - 1; k >= 1; --k) {
        running = std::min(running, g[k]);
        suffix_min[k] = running;
      }
      std::vector<double> values;
      values.reserve(demanded.size());
      for (std::size_t i = 0; i < demanded.size(); ++i)
        values.push_back(profile[i][m]);
      std::sort(values.begin(), values.end(), std::greater<double>());
      double top_sum = 0.0;
      for (std::size_t j = 1; j <= values.size(); ++j) {
        top_sum += values[j - 1];
        OMFLP_PERF_ADD(verifier_checks, 1);
        if (!tol_leq(top_sum, suffix_min[j], tol))
          return describe("size-only budget exceeded", m, top_sum,
                          suffix_min[j]);
      }
      continue;
    }

    return "cost model is neither additive nor size-only and the universe "
           "is too large for exhaustive verification; certificate cannot "
           "be verified";
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> verify_certificate(
    const Instance& instance, const DualCertificate& cert,
    const VerifyCertificateOptions& options) {
  const double tol = options.tolerance;
  const std::size_t n = instance.num_requests();
  const std::size_t points = instance.metric().num_points();
  const CommodityId s = instance.num_commodities();

  // ---- structural checks ---------------------------------------------------
  if (cert.num_requests != n) return "certificate request count mismatch";
  if (cert.num_commodities != s)
    return "certificate commodity universe mismatch";
  if (cert.num_points != points) return "certificate point count mismatch";
  if (cert.duals.size() != n) return "certificate dual row count mismatch";
  if (cert.facility_slack.size() != points)
    return "certificate slack vector length mismatch";
  if (!std::isfinite(cert.objective)) return "certificate objective not finite";

  const double dual_floor = -tol * std::max(1.0, std::abs(cert.objective));
  std::vector<CheckedRequest> reqs(n);
  double objective = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const Request& request = instance.request(static_cast<RequestId>(r));
    reqs[r].location = request.location;
    reqs[r].commodities = request.commodities.to_vector();
    if (cert.duals[r].size() != reqs[r].commodities.size())
      return "dual row length does not match the request's demand set";
    for (double a : cert.duals[r]) {
      if (!std::isfinite(a)) return "non-finite dual value";
      if (a < dual_floor) return "negative dual value";
      reqs[r].dual_sum += a;
    }
    objective += reqs[r].dual_sum;
  }
  if (!tol_eq(objective, cert.objective, tol))
    return "certificate objective does not equal the dual sum";

  // ---- dual feasibility ----------------------------------------------------
  bool exhaustive = false;
  if (s <= 40) {
    const std::uint64_t configs = std::uint64_t{1} << s;
    const std::uint64_t per_config =
        static_cast<std::uint64_t>(std::max<std::size_t>(n, 1)) *
        static_cast<std::uint64_t>(points);
    exhaustive = configs <= options.max_exhaustive_work / per_config;
  }
  if (auto violation = exhaustive
                           ? check_exhaustive(instance, cert, reqs, tol)
                           : check_structured(instance, cert, reqs, tol))
    return violation;

  // ---- slack audit ---------------------------------------------------------
  // Recompute the canonical per-point slack (singleton constraints over
  // demanded commodities plus the full-configuration constraint) and
  // require it to match the stored vector: tampering with either side is
  // caught here even when the tampered value stays feasible.
  std::vector<double> slack(points,
                            std::numeric_limits<double>::infinity());
  std::vector<double> row(points);
  std::vector<std::vector<std::pair<std::size_t, double>>> by_commodity(s);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < reqs[r].commodities.size(); ++i)
      by_commodity[reqs[r].commodities[i]].push_back({r, cert.duals[r][i]});
  for (CommodityId e = 0; e < s; ++e) {
    if (by_commodity[e].empty()) continue;
    std::fill(row.begin(), row.end(), 0.0);
    for (const auto& [r, dual] : by_commodity[e]) {
      for (PointId m = 0; m < points; ++m) {
        const double clipped =
            dual - instance.metric().distance(reqs[r].location, m);
        if (clipped > 0.0) row[m] += clipped;
      }
      OMFLP_PERF_ADD(distance_lookups, points);
    }
    for (PointId m = 0; m < points; ++m)
      slack[m] =
          std::min(slack[m], instance.cost().singleton_cost(m, e) - row[m]);
  }
  std::fill(row.begin(), row.end(), 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (PointId m = 0; m < points; ++m) {
      const double clipped =
          reqs[r].dual_sum -
          instance.metric().distance(reqs[r].location, m);
      if (clipped > 0.0) row[m] += clipped;
    }
    OMFLP_PERF_ADD(distance_lookups, points);
  }
  for (PointId m = 0; m < points; ++m) {
    slack[m] = std::min(slack[m], instance.cost().full_cost(m) - row[m]);
    OMFLP_PERF_ADD(verifier_checks, 1);
    if (slack[m] < -tol * std::max(1.0, std::abs(slack[m])))
      return describe("negative audited slack", m, -slack[m], 0.0);
    if (!tol_eq(slack[m], cert.facility_slack[m], tol))
      return describe("stored facility slack disagrees with recomputation",
                      m, cert.facility_slack[m], slack[m]);
  }

  return std::nullopt;
}

}  // namespace omflp
