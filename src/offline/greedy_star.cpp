#include "offline/greedy_star.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "support/assert.hpp"

namespace omflp {

namespace {

constexpr const char* kNoCover =
    "solve_greedy_star: no candidate covers remaining pairs (full-S "
    "candidates make this impossible)";

/// Heap order: the top is the smallest (unit cost, request).
bool pops_later(const StarWalk::Gain& a, const StarWalk::Gain& b) {
  if (a.unit_cost != b.unit_cost) return a.unit_cost > b.unit_cost;
  return a.request > b.request;
}

// StarWalk evaluates a star by popping its gains in (unit cost, request)
// order and stops at the first gain whose unit cost û exceeds
// R̂·(1 + τ), where R̂ is the smallest computed prefix ratio so far and
// τ = 4·(P + 1)·u, P = Σ_r |s_r| (the instance's pairs) and u = 2^-53.
//
// Claim: no later prefix has a computed ratio below R̂, so the eager
// scan over the fully sorted gains, which updates only on a strictly
// smaller ratio, returns the same ratio and prefix. The walked prefixes
// are summed in the same order as the full sort's, so their values agree
// bit for bit; the claim covers the rest.
//
// Proof. Write Ŝ_j for the computed running cost after j gains (Ŝ_0 = f),
// C_j for the covered count (an exact integer), gain j as (d_j, c_j) with
// c_j ≥ 1 and û_j = fl(d_j / c_j), and stop before gain k + 1. All terms
// are ≥ 0, so when R̂ = +inf nothing stops the walk and when R̂ = 0 no
// ratio is below it; take 0 < R̂ < inf. Once an infinite distance enters
// every later ratio is +inf; take the later d_j finite. Rounding is
// monotone and R̂ is a double, so fl(Ŝ_j / C_j) ≥ R̂ whenever the surplus
// E_j = Ŝ_j − R̂·C_j is ≥ 0. It suffices to show E_j ≥ 0 for j > k.
//   (i)  fl(Ŝ_k / C_k) ≥ R̂ gives Ŝ_k ≥ R̂·C_k/(1 + u), so
//        E_k ≥ −u·R̂·C_k ≥ −u·û_{k+1}·P.
//   (ii) Ŝ_j = (Ŝ_{j−1} + d_j)(1 + δ) with |δ| ≤ u, so
//        E_j ≥ E_{j−1} + (d_j − R̂·c_j) − u·(Ŝ_{j−1} + d_j).
//        Gains pop in unit-cost order, so û_j ≥ û_{k+1} > R̂(1 + τ') with
//        τ' ≥ τ − 3u for the rounded threshold, and d_j ≥ c_j·û_j/(1 + u):
//        the step earns d_j − R̂·c_j ≥ û_j·(τ' − u)(1 − 2τ') ≥ 3.2·u·û_j·P
//        (for τ ≤ 0.1, i.e. P below 10^13).
//   (iii) The step loses at most u·(Ŝ_{j−1} + d_j) ≤ 2.01·u·û_j·P: every
//        popped unit cost is ≤ û_j, f ≤ Ŝ_{k*} ≤ (1 + u)·R̂·C_{k*} for the
//        best prefix k*, R̂ < û_j, and recursive summation of at most n + 1
//        non-negative terms is within a factor 1 + (n + 1)u ≤ 1.001 of the
//        exact sum; so Ŝ_{j−1} + d_j ≤ 2.01·û_j·C_j ≤ 2.01·û_j·P.
// Step k + 1 earns 3.2·u·û_{k+1}·P, which pays its own loss and the
// deficit in (i); every later step pays its own. So E_j ≥ 0 for all j > k.
// (A fixed relative guard such as 1e-9 would not do: the loss grows with
// the prefix's covered count, which reaches the instance's P.)
//
// The walk reads the requests in increasing distance from the point and
// pops a gain only when its unit cost is below d / most_covered_[j] for
// the next unread distance d. Every unread request's unit cost is at
// least that (rounding is monotone), so the pops come in the full sort's
// (unit cost, request) order, and a stop needs both the heap's top and
// that bound past the guard. Until a prefix has a finite ratio the guard
// is +inf and the walk reads every request, so `covers` is exact.

}  // namespace

StarWalk::StarWalk(const CandidatePool& pool)
    : pool_(pool), n_(pool.instance().num_requests()) {
  double pairs = 0.0;
  for (const Request& r : pool.instance().requests()) {
    uncovered_.push_back(r.commodities);
    open_pairs_ += r.commodities.count();
    pairs += static_cast<double>(r.commodities.count());
  }
  guard_ = 4.0 * (pairs + 1.0) * std::ldexp(1.0, -53);
  order_.resize(pool.points().size() * n_);
  for (std::size_t k = 0; k < pool.points().size(); ++k) {
    const auto first = order_.begin() + static_cast<std::ptrdiff_t>(k * n_);
    const auto last = first + static_cast<std::ptrdiff_t>(n_);
    std::iota(first, last, std::uint32_t{0});
    const double* distance = pool.row(k);
    std::sort(first, last, [&](std::uint32_t a, std::uint32_t b) {
      if (distance[a] != distance[b]) return distance[a] < distance[b];
      return a < b;
    });
  }
  for (std::size_t j = 0; j < pool.configs().size(); ++j) {
    int most = 0;
    for (const CandidatePool::Cover& c : pool.covers(j))
      most = std::max(most, std::popcount(c.mask));
    most_covered_.push_back(static_cast<double>(most));
  }
}

StarWalk::Star StarWalk::evaluate(std::size_t k, std::size_t j) {
  Star star;
  heap_.clear();
  walked_.clear();
  const double most = most_covered_[j];
  if (most == 0.0) return star;
  const CommoditySet& config = pool_.configs()[j];
  const double* distance = pool_.row(k);
  const std::uint32_t* order = order_.data() + k * n_;
  double cost_acc = pool_.open_cost(k, j);
  std::size_t covered_acc = 0;
  std::size_t next = 0;
  while (true) {
    const double limit = star.ratio + star.ratio * guard_;
    const double unread = next < n_ ? distance[order[next]] / most
                                    : std::numeric_limits<double>::infinity();
    if (!heap_.empty() && heap_.front().unit_cost < unread) {
      if (heap_.front().unit_cost > limit) break;
      std::pop_heap(heap_.begin(), heap_.end(), pops_later);
      walked_.push_back(heap_.back());
      heap_.pop_back();
      cost_acc += walked_.back().distance;
      covered_acc += walked_.back().covered;
      const double ratio = cost_acc / static_cast<double>(covered_acc);
      if (ratio < star.ratio) {
        star.ratio = ratio;
        star.prefix = walked_.size();
      }
      continue;
    }
    if (unread > limit || next == n_) break;
    const std::uint32_t i = order[next++];
    const CommodityId covered = uncovered_[i].intersection_count(config);
    if (covered == 0) continue;
    star.covers = true;
    const double d = distance[i];
    heap_.push_back(Gain{d / static_cast<double>(covered), d, covered, i});
    std::push_heap(heap_.begin(), heap_.end(), pops_later);
  }
  return star;
}

void StarWalk::cover(std::size_t j, std::size_t prefix) {
  OMFLP_REQUIRE(prefix <= walked_.size(),
                "StarWalk::cover: prefix longer than the walk");
  const CommoditySet& config = pool_.configs()[j];
  for (std::size_t p = 0; p < prefix; ++p) {
    open_pairs_ -= walked_[p].covered;
    uncovered_[walked_[p].request] -= config;
  }
}

OfflineSolution solve_greedy_star(const CandidatePool& pool) {
  const Instance& instance = pool.instance();
  const std::size_t configs = pool.configs().size();
  const std::size_t candidates = pool.points().size() * configs;
  StarWalk walk(pool);

  // Lazy (CELF) queue: min-heap on (key, candidate index), one entry per
  // candidate that still covers something. Candidate c is
  // (points()[c / configs], configs()[c % configs]). A key is the
  // candidate's best prefix ratio as of round evaluated_in[c]; it is exact
  // ("fresh") while no facility has been committed since.
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::size_t round = 0;
  std::vector<std::size_t> evaluated_in(candidates, 0);
  const auto fresh = [&](std::size_t c) { return evaluated_in[c] == round; };
  // Evaluates a candidate and queues it unless it covers nothing (then it
  // never will again: coverage only shrinks).
  const auto evaluate = [&](std::size_t c) {
    const StarWalk::Star star = walk.evaluate(c / configs, c % configs);
    evaluated_in[c] = round;
    if (star.covers) queue.push({star.ratio, c});
  };
  for (std::size_t c = 0; c < candidates; ++c) evaluate(c);

  std::vector<PlacedFacility> opened;
  std::vector<Entry> near;
  while (walk.open_pairs() > 0) {
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
    const PointId point = pool.points()[top / configs];
    const CommoditySet& config = pool.configs()[top % configs];
    bool merged = false;
    for (PlacedFacility& f : opened) {
      if (f.point == point) {
        f.config |= config;
        merged = true;
        break;
      }
    }
    if (!merged) opened.push_back(PlacedFacility{point, config});
    walk.cover(top % configs,
               walk.evaluate(top / configs, top % configs).prefix);
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

OfflineSolution solve_greedy_star(const Instance& instance) {
  OMFLP_REQUIRE(instance.num_requests() > 0,
                "solve_greedy_star: empty instance");
  return solve_greedy_star(CandidatePool(instance));
}

}  // namespace omflp
