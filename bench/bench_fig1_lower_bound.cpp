// Figure 1 + Theorem 2 — the adversarial single-point game.
//
// Runs the Theorem 2 distribution (request ⌊√|S|⌋ uniformly random
// commodities one at a time on one point, cost g(|σ|) = ⌈|σ|/√|S|⌉,
// OPT = 1 exactly) against the algorithm roster and reports mean
// competitive ratios against the proof's √|S|/16 lower bound and the
// 15·√|S|·H_n Theorem 4 budget.
//
// Expected shape: every algorithm's ratio grows as Θ(√|S|) — the lower
// bound says nobody can do better here. PD tracks its predicted value
// 2√|S| − 1 exactly (√|S| − 1 singleton facilities, then one large
// facility); the no-prediction ablation pays √|S| (all singletons).
//
// The second table reproduces Figure 1's *rounds* view for one PD run:
// per round (request), the facility built and how many commodities are
// covered so far — showing the switch from small facilities to the one
// large (all-commodity) facility at round √|S|.
#include <cmath>
#include <iostream>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "instance/adversarial.hpp"
#include "support/table.hpp"

int main() {
  using namespace omflp;
  using namespace omflp::bench;
  print_bench_header(
      "Figure 1 / Theorem 2 — adversarial single-point game",
      "Theorem 2, Corollary 3, Figure 1",
      "all ratios grow ~ sqrt(S); PD == 2*sqrt(S)-1; bounds sandwich holds");

  const std::size_t trials = bench_pick<std::size_t>(15, 50);
  std::vector<CommodityId> sizes = {16, 64, 256, 1024};
  if (bench_full_scale()) sizes.push_back(4096);

  TableWriter table({"|S|", "sqrt(S)/16 (thm2 LB)", "PD-OMFLP",
                     "PD[no-prediction]", "RAND-OMFLP (mean±ci)",
                     "PerCommodity[Fotakis]", "PD predicted 2*sqrt(S)-1",
                     "thm4 budget"});
  for (const CommodityId s : sizes) {
    // The Theorem 2 game comes from the scenario registry; trial t plays
    // the "theorem2" scenario with seed s*7919 + t (distinct per size).
    const std::map<std::string, double> params = {
        {"commodities", static_cast<double>(s)}};
    const std::uint64_t seed_base = static_cast<std::uint64_t>(s) * 7919;
    const Summary pd =
        ratio_for_scenario("pd", "theorem2", trials, params, seed_base);
    const Summary no_pred = ratio_for_scenario("pd-nopred", "theorem2",
                                               trials, params, seed_base);
    const Summary rand =
        ratio_for_scenario("rand", "theorem2", trials, params, seed_base);
    const Summary per_comm = ratio_for_scenario("fotakis", "theorem2",
                                                trials, params, seed_base);
    const double sqrt_s = std::sqrt(static_cast<double>(s));
    table.begin_row()
        .add(static_cast<long long>(s))
        .add(theorem2_bound(s))
        .add(pd.mean())
        .add(no_pred.mean())
        .add(mean_ci(rand))
        .add(per_comm.mean())
        .add(2.0 * sqrt_s - 1.0)
        .add(theorem4_bound(s, theorem2_sequence_length(s)));
  }
  table.write_markdown(std::cout);

  // ---- Figure 1 rounds view for one PD run ------------------------------
  std::cout << "\nFigure 1 rounds view (PD-OMFLP, |S| = 64, one run):\n\n";
  const Instance inst = default_scenario_registry().make(
      "theorem2", /*seed=*/1, {{"commodities", 64.0}});
  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, inst);
  TableWriter rounds({"round", "event", "facility config size",
                      "commodities covered by ALG", "cumulative cost"});
  CommoditySet covered(64);
  double cost = 0.0;
  std::size_t fac = 0;
  for (RequestId r = 0; r < inst.num_requests(); ++r) {
    std::string event = "connect";
    std::size_t config_size = 0;
    while (fac < ledger.num_facilities() &&
           ledger.facility(fac).opened_during == r) {
      covered |= ledger.facility(fac).config;
      cost += ledger.facility(fac).open_cost;
      config_size = ledger.facility(fac).config.count();
      event = config_size == 1 ? "open small" : "open LARGE";
      ++fac;
    }
    rounds.begin_row()
        .add(static_cast<long long>(r + 1))
        .add(event)
        .add(static_cast<long long>(config_size))
        .add(static_cast<long long>(covered.count()))
        .add(cost);
  }
  rounds.write_markdown(std::cout);
  std::cout << "\nPD total = " << ledger.total_cost()
            << " vs OPT = 1 (exact); the switch small→large happens at "
            << "round sqrt(S) = 8, as the proof sketch predicts.\n";
  return 0;
}
