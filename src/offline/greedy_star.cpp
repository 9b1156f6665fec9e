#include "offline/greedy_star.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>

#include "support/assert.hpp"

namespace omflp {

namespace {

constexpr const char* kNoCover =
    "solve_greedy_star: no candidate covers remaining pairs (full-S "
    "candidates make this impossible)";

struct Candidate {
  PointId point = 0;
  CommoditySet config;
  double open_cost = 0.0;
  /// Offset of the point's row in Candidates::distances.
  std::size_t row = 0;
};

struct Candidates {
  std::vector<Candidate> list;
  /// One row per candidate point: d(location of request i, point) at
  /// index i, computed once per solve (n·|points| doubles).
  std::vector<double> distances;
};

Candidates build_candidates(const Instance& instance,
                            const GreedyStarOptions& options) {
  std::vector<PointId> points;
  const std::size_t m = instance.metric().num_points();
  if (m <= options.all_points_limit) {
    points.resize(m);
    for (PointId p = 0; p < m; ++p) points[p] = p;
  } else {
    std::unordered_set<PointId> seen;
    for (const Request& r : instance.requests())
      if (seen.insert(r.location).second) points.push_back(r.location);
    std::sort(points.begin(), points.end());
  }

  const CommodityId s = instance.num_commodities();
  const CommoditySet demanded = instance.demanded_union();
  // Determinism audit (omflp-lint nondet-iteration): both unordered
  // containers in this function are dedup sets only — their contents are
  // copied into vectors and sorted before any order-dependent use.
  std::unordered_set<CommoditySet, CommoditySetHash> configs;
  demanded.for_each([&](CommodityId e) {
    configs.insert(CommoditySet::singleton(s, e));
  });
  for (const Request& r : instance.requests()) configs.insert(r.commodities);
  configs.insert(demanded);
  configs.insert(CommoditySet::full_set(s));
  std::vector<CommoditySet> config_list(configs.begin(), configs.end());
  std::sort(config_list.begin(), config_list.end(),
            [](const CommoditySet& a, const CommoditySet& b) {
              if (a.count() != b.count()) return a.count() < b.count();
              return a.to_vector() < b.to_vector();
            });

  const std::size_t n = instance.num_requests();
  Candidates candidates;
  candidates.list.reserve(points.size() * config_list.size());
  candidates.distances.reserve(points.size() * n);
  for (PointId p : points) {
    const std::size_t row = candidates.distances.size();
    for (const Request& r : instance.requests())
      candidates.distances.push_back(
          instance.metric().distance(r.location, p));
    for (const CommoditySet& config : config_list)
      candidates.list.push_back(
          Candidate{p, config, instance.cost().open_cost(p, config), row});
  }
  return candidates;
}

/// Requests gaining coverage from a candidate, cheapest first by distance
/// per newly covered commodity, and the candidate's best prefix ratio.
struct StarEval {
  struct Gain {
    double unit_cost;  // d(m, r) / covered
    double distance;
    std::size_t covered;
    std::size_t request;
  };
  std::vector<Gain> gains;
  /// min over prefixes of (f + Σ distance) / Σ covered; +inf when no
  /// prefix has a finite ratio or `gains` is empty.
  double ratio = std::numeric_limits<double>::infinity();
  /// Length of the first prefix attaining `ratio`.
  std::size_t prefix = 0;
};

StarEval evaluate_star(const Candidates& candidates, const Candidate& c,
                       const std::vector<CommoditySet>& uncovered) {
  StarEval eval;
  const double* distance = candidates.distances.data() + c.row;
  for (std::size_t i = 0; i < uncovered.size(); ++i) {
    const CommoditySet newly = uncovered[i] & c.config;
    if (newly.empty()) continue;
    const double d = distance[i];
    const std::size_t covered = newly.count();
    eval.gains.push_back(
        StarEval::Gain{d / static_cast<double>(covered), d, covered, i});
  }
  std::sort(eval.gains.begin(), eval.gains.end(),
            [](const StarEval::Gain& a, const StarEval::Gain& b) {
              if (a.unit_cost != b.unit_cost)
                return a.unit_cost < b.unit_cost;
              return a.request < b.request;
            });
  double cost_acc = c.open_cost;
  std::size_t covered_acc = 0;
  for (std::size_t prefix = 0; prefix < eval.gains.size(); ++prefix) {
    cost_acc += eval.gains[prefix].distance;
    covered_acc += eval.gains[prefix].covered;
    const double ratio = cost_acc / static_cast<double>(covered_acc);
    if (ratio < eval.ratio) {
      eval.ratio = ratio;
      eval.prefix = prefix + 1;
    }
  }
  return eval;
}

}  // namespace

OfflineSolution solve_greedy_star(const Instance& instance,
                                  const GreedyStarOptions& options) {
  OMFLP_REQUIRE(instance.num_requests() > 0,
                "solve_greedy_star: empty instance");
  const Candidates candidates = build_candidates(instance, options);

  // Uncovered (request, commodity) pairs, tracked per request.
  std::vector<CommoditySet> uncovered;
  uncovered.reserve(instance.num_requests());
  std::size_t open_pairs = 0;
  for (const Request& r : instance.requests()) {
    uncovered.push_back(r.commodities);
    open_pairs += r.commodities.count();
  }

  // Lazy (CELF) queue: min-heap on (key, candidate index), one entry per
  // candidate that still covers something. A key is the candidate's best
  // prefix ratio as of round evaluated_in[c]; it is exact ("fresh") while
  // no facility has been committed since.
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::size_t round = 0;
  std::vector<std::size_t> evaluated_in(candidates.list.size(), 0);
  const auto fresh = [&](std::size_t c) { return evaluated_in[c] == round; };
  // Evaluates a candidate and queues it unless it covers nothing (then it
  // never will again: coverage only shrinks).
  const auto evaluate = [&](std::size_t c) {
    const StarEval eval =
        evaluate_star(candidates, candidates.list[c], uncovered);
    evaluated_in[c] = round;
    if (!eval.gains.empty()) queue.push({eval.ratio, c});
  };
  for (std::size_t c = 0; c < candidates.list.size(); ++c) evaluate(c);

  std::vector<PlacedFacility> opened;
  std::vector<Entry> near;
  while (open_pairs > 0) {
    OMFLP_CHECK(!queue.empty(), kNoCover);
    const auto [best_ratio, top] = queue.top();
    queue.pop();
    if (!fresh(top)) {
      evaluate(top);
      continue;
    }
    // The top is exact and every other key a lower bound, up to rounding.
    // Stale keys within 1e-9 relative of the top are re-evaluated before
    // committing, so a near-tie that re-summation could flip is decided
    // on exact values, as an eager scan would decide it.
    const double near_limit = best_ratio + 1e-9 * std::abs(best_ratio);
    near.clear();
    while (!queue.empty() && queue.top().first <= near_limit) {
      near.push_back(queue.top());
      queue.pop();
    }
    queue.push({best_ratio, top});
    bool refreshed = false;
    for (const Entry& entry : near) {
      if (fresh(entry.second)) {
        queue.push(entry);
      } else {
        evaluate(entry.second);
        refreshed = true;
      }
    }
    if (refreshed) continue;
    OMFLP_CHECK(best_ratio < std::numeric_limits<double>::infinity(),
                kNoCover);

    // Open the chosen facility (merging with an existing one at the same
    // point — subadditivity makes the union no more expensive) and cover
    // exactly the chosen prefix's pairs. Requests beyond the prefix stay
    // open: covering them here would strand them on a distant facility
    // that was never priced for them.
    const Candidate& best = candidates.list[top];
    bool merged = false;
    for (PlacedFacility& f : opened) {
      if (f.point == best.point) {
        f.config |= best.config;
        merged = true;
        break;
      }
    }
    if (!merged) opened.push_back(PlacedFacility{best.point, best.config});
    const StarEval chosen = evaluate_star(candidates, best, uncovered);
    for (std::size_t p = 0; p < chosen.prefix; ++p) {
      const std::size_t i = chosen.gains[p].request;
      const CommoditySet newly = uncovered[i] & best.config;
      open_pairs -= newly.count();
      uncovered[i] -= newly;
    }
    ++round;
  }

  OfflineSolution solution;
  solution.facilities = std::move(opened);
  solution.opening_cost = 0.0;
  for (const PlacedFacility& f : solution.facilities)
    solution.opening_cost +=
        instance.cost().open_cost(f.point, f.config);
  solution.connection_cost =
      total_assignment_cost(instance, std::span(solution.facilities));
  OMFLP_CHECK(std::isfinite(solution.connection_cost),
              "solve_greedy_star: produced an infeasible facility set");
  solution.cost = solution.opening_cost + solution.connection_cost;
  solution.exact = false;
  solution.method = "greedy-star";
  return solution;
}

}  // namespace omflp
