// PD-OMFLP — the paper's deterministic primal–dual algorithm (Algorithm 1,
// Section 3), O(√|S|·log n)-competitive under Condition 1 (Theorem 4).
//
// On arrival of request r with demand set s_r, the algorithm raises the
// dual variables a_re of all not-yet-served commodities e ∈ s_r
// simultaneously at unit rate and reacts to the first constraint that
// becomes tight:
//
//   (1) a_re = d(F(e), r)                         — connect e to the
//       nearest open facility offering e (small or large);
//   (3) (a_re − d(m,r))+ + Σ_j (min{a_je, d(F(e),j)} − d(m,j))+ = f^{e}_m
//       — enough joint investment at point m: a *small* facility {e}
//       opens temporarily at m and e is served by it;
//   (2) Σ_{e∈s_r} a_re = d(F̂, r)                  — the joint investment
//       reaches the nearest *large* facility: all of s_r is re-assigned to
//       it and this round's temporary facilities are discarded;
//   (4) (Σ_e a_re − d(m,r))+ + Σ_j (min{Σ_e a_je, d(F̂,j)} − d(m,j))+ = f^S_m
//       — enough joint investment for a new large facility at m: it opens
//       (irrevocably), serves all of s_r, temporary facilities discarded.
//
// When the dual-raising finishes without (2)/(4), the temporary small
// facilities become permanent. Only permanent facilities reach the ledger,
// so ledger decisions are irrevocable as the model demands.
//
// The continuous raising is simulated exactly: all four constraint
// families are piecewise-linear in the raised amount Δ, so the algorithm
// computes the tightness time of each candidate event in closed form,
// advances to the minimum and processes events in a deterministic
// tie-break order (constraint number, then commodity id, then point id).
//
// Bid sums over past requests (the Σ_j terms) are supplied by one of two
// interchangeable strategies, selectable via PdOptions::bid_mode:
//   * kReference   — recompute every sum from first principles at each
//                    arrival (obviously correct; O(n·|M|) per arrival);
//   * kIncremental — maintain per-(commodity, point) prefix sums, updated
//                    when duals freeze and when facilities open.
// Both must produce identical runs; tests/test_pd_omflp.cpp asserts equal
// facilities and duals on randomized instances.
//
// Options beyond the paper (all default to the paper's behaviour):
//   * prediction = kOff disables large facilities entirely (constraints
//     (2)/(4) never fire). This is the ablation for the §2 discussion that
//     *without* prediction every algorithm is Ω(|S|)-competitive.
//   * large_config = kSeenUnion opens "large" facilities with the union of
//     all commodities seen so far instead of the full S — a natural
//     future-work variant (the paper's closing remarks discuss restricting
//     prediction). Constraint (2)/(4) then measure distances to facilities
//     that cover the *request's* demand set. Requires a monotone cost
//     model (f^a ≤ f^b for a ⊆ b); all shipped models are monotone.
//   * excluded_from_prediction implements the §5 closing-remarks recipe
//     for *heavy* commodities: large facilities carry S minus the excluded
//     set, constraints (2)/(4) only collect the investment of non-excluded
//     commodities, and excluded commodities are always served through the
//     small-facility constraints (1)/(3). Pair with
//     detect_heavy_commodities() from cost/heavy.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/nearest_facility_index.hpp"
#include "core/online_algorithm.hpp"
#include "kernel/bid_plane.hpp"
#include "metric/distance_oracle.hpp"

namespace omflp {

struct PdOptions {
  enum class BidMode { kReference, kIncremental };
  enum class Prediction { kOn, kOff };
  enum class LargeConfig { kFullS, kSeenUnion };
  /// What depart() does on a dynamic stream (static runs never call it):
  ///   * kRollback — withdraw the departed request's frozen bids from
  ///     every bid row (shift its clipped contribution to zero) and zero
  ///     its duals, so future facility openings are no longer subsidized
  ///     by ghosts. Decisions already made stay irrevocable.
  ///   * kFrozen   — keep the bids (the sunk-investment policy).
  enum class DeletionPolicy { kRollback, kFrozen };

  BidMode bid_mode = BidMode::kIncremental;
  Prediction prediction = Prediction::kOn;
  LargeConfig large_config = LargeConfig::kFullS;
  DeletionPolicy deletion_policy = DeletionPolicy::kRollback;
  /// Commodities kept out of large facilities (§5 heavy commodities).
  /// Default-constructed (empty universe) means "exclude nothing"; a
  /// non-empty universe must match the instance's |S|.
  CommoditySet excluded_from_prediction;
};

/// One (request, commodity) dual variable after its freeze, exported for
/// the dual-feasibility checker (Lemmas 14/16) and the Corollary 8 test.
struct PdDualRecord {
  RequestId id = 0;  // the request's arrival id
  PointId location = 0;
  std::vector<CommodityId> commodities;  // s_r in increasing order
  std::vector<double> duals;             // a_re, aligned with commodities
};

class PdOmflp final : public OnlineAlgorithm {
 public:
  explicit PdOmflp(PdOptions options = {});

  std::string name() const override;
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  /// Deletion handling per PdOptions::deletion_policy (kRollback by
  /// default): the departed request's clipped bid contributions are
  /// shifted out of the small and large rows and its duals zeroed, in
  /// both bid modes, so reference and incremental dynamic runs stay
  /// trace-identical.
  void depart(RequestId id, const Request& request,
              SolutionLedger& ledger) override;
  /// Under kRollback, drops every departed slot from past_ and rebuilds
  /// by_commodity_. A rolled-back slot has zero duals, so no bid row,
  /// decision, contributor list or dual total ever depended on it:
  /// compaction changes nothing but memory and the scans it saves.
  /// Under kFrozen the departed bids are sunk investment and stay.
  void compact_departed() override;

  /// Checkpoint: the facility indexes, every resident request's id,
  /// frozen duals and maintained distances, the incremental bid rows
  /// (bitwise — recomputing them on restore would only agree to audit
  /// tolerance, not bit-for-bit), the dual total and an options guard. Everything
  /// that is a pure function of those is rebuilt on restore instead:
  /// by_commodity_, each request's dual_sum_large (summed in slot order
  /// exactly as archive_request does) and, lazily, the cost rows.
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader) override;

  /// Σ_r Σ_{e∈s_r} a_re — the dual objective before scaling. On dynamic
  /// runs with kRollback, departed requests' duals leave the sum (the
  /// dual bound is argued on the surviving set).
  double total_dual() const noexcept { return total_dual_; }

  /// Deep self-check of the algorithm's internal state (test hook): the
  /// nearest-facility index against first-principles scans at every
  /// point (bitwise; queries may materialize index tables), maintained
  /// nearest-facility distances of live (not rolled-back) requests
  /// against fresh scans, the incremental bid sums against
  /// from-scratch recomputation, and the invariants
  /// "Σ_j bids ≤ f^{{e}}_m" (constraint 3) and
  /// "Σ_j bids ≤ f^{large}_m" (constraint 4) at every point. Returns a
  /// description of the first inconsistency, or nullopt when clean.
  /// O(n·|M|·|S|); call after serve()s, not inside hot loops.
  std::optional<std::string> audit_state(double tolerance = 1e-7) const;

  /// Every resident request's frozen duals, in arrival order, built by
  /// value from the algorithm's one copy of them. Under kRollback a
  /// departed request that was not yet compacted away reports its
  /// rolled-back duals (all exactly zero), so the duals sum to
  /// total_dual(); under kFrozen and on static runs every request is
  /// resident with its duals as frozen at arrival. O(Σ|s_r|) per call:
  /// bind the result once instead of calling it in a loop.
  std::vector<PdDualRecord> dual_records() const;

  const PdOptions& options() const noexcept { return options_; }

  /// The contiguous bid arena: rows 0..|S|-1 are the per-commodity small
  /// bids, row |S| the large side. Exposed for the activated_rows stat
  /// (sparse workloads activate only the commodities they touch) and the
  /// kernel-layer tests.
  const kernel::BidPlane& bid_plane() const noexcept { return bids_; }

 private:
  // ---- per-run immutable context ------------------------------------------
  PdOptions options_;
  CostModelPtr cost_;
  std::unique_ptr<DistanceOracle> dist_;
  CommodityId num_commodities_ = 0;
  std::size_t num_points_ = 0;

  // ---- facility state -----------------------------------------------------
  /// Group e < |S|: every permanent facility whose config contains e, in
  /// opening order, with its per-point nearest table. Group |S|
  /// (universal_group()): the large facilities whose config contains
  /// S minus the excluded set — every large in kFullS mode — which cover
  /// any request's eligible demand.
  NearestFacilityIndex index_;
  std::size_t universal_group() const noexcept { return num_commodities_; }
  struct LargeRecord {
    PointId point = 0;
    FacilityId id = kInvalidFacility;
    CommoditySet config;  // full S in kFullS mode; the union in kSeenUnion
  };
  std::vector<LargeRecord> larges_;
  /// larges_ index of each entry of the universal group, in group order
  /// (the (distance, list order) tie-break against the scanned larges).
  std::vector<std::uint32_t> universal_rank_;
  /// larges_ indexes of the larges outside the universal group (kSeenUnion
  /// configs that miss a commodity): still scanned per query.
  std::vector<std::uint32_t> nonuniversal_larges_;
  /// S minus the excluded set: a large whose config contains it is
  /// universal.
  CommoditySet universal_config_;
  /// Union of commodities demanded so far (kSeenUnion's prediction set).
  CommoditySet seen_;
  /// Normalized excluded set (empty set over S when the option is unset).
  CommoditySet excluded_;

  // ---- past-request state -------------------------------------------------
  /// One (request, commodity) slot of a past request.
  struct PastSlot {
    CommodityId commodity = 0;
    double dual = 0.0;        // frozen a_je (zeroed by rollback)
    double small_dist = 0.0;  // d(F(e), j), maintained
  };
  struct PastRequest {
    RequestId id = 0;  // stable arrival id; past_ is sorted by it
    PointId location = 0;
    std::uint32_t num_slots = 0;
    std::size_t first_slot = 0;      // into slots_
    double dual_sum_large = 0.0;     // Σ a_je over non-excluded commodities
    double large_dist = kInfiniteDistance;  // d(F̂, j), maintained
    /// Departed and rolled back: duals are zero, bids withdrawn. The slot
    /// stays resident only until the next compact_departed(); until then
    /// every scan skips it and its maintained distances go stale.
    bool departed = false;
  };
  /// Resident requests in arrival order: every request on static runs
  /// and under kFrozen, the live ones (plus departures since the last
  /// compaction) under kRollback.
  std::vector<PastRequest> past_;
  /// Every resident request's slots, contiguous per request and in
  /// past_ order (compact_departed() closes the gaps in place).
  std::vector<PastSlot> slots_;
  std::span<PastSlot> slots_of(const PastRequest& pr) {
    return {slots_.data() + pr.first_slot, pr.num_slots};
  }
  std::span<const PastSlot> slots_of(const PastRequest& pr) const {
    return {slots_.data() + pr.first_slot, pr.num_slots};
  }
  /// by_commodity_[e]: (index into past_, slot in its commodity list).
  std::vector<std::vector<std::pair<std::size_t, std::uint32_t>>>
      by_commodity_;

  // ---- incremental bid sums (kIncremental only) ---------------------------
  /// One arena for every bid row (see kernel/bid_plane.hpp). Row e:
  /// Σ_j (min{a_je, d(F(e),j)} − d(m,j))+ over past j, lazily activated on
  /// the first posting to commodity e. Row |S| (kLargeRow):
  /// Σ_j (min{Σ_e a_je, d(F̂,j)} − d(m,j))+, activated at reset.
  kernel::BidPlane bids_;
  std::size_t large_row_ = 0;  // == num_commodities_

  // ---- cached cost rows (the cost model is immutable per run) -------------
  /// Row e = f^{{e}}_m for every m, materialized on first use.
  kernel::BidPlane cost_rows_;
  /// f^σ_m row for the most recent large configuration σ (constant in
  /// kFullS mode, refreshed when the seen-union changes).
  std::vector<double> large_cost_row_;
  CommoditySet large_cost_config_;
  bool large_cost_valid_ = false;

  // ---- serve() scratch (reused across requests) ---------------------------
  std::vector<std::vector<double>> ref_bid_scratch_;  // reference-mode rows
  std::vector<double> large_bid_scratch_;
  /// Owned copy of the request's distance row on the uncached-oracle
  /// path (the oracle's fallback buffer is single-slot; a row held for a
  /// whole event loop must not alias it).
  std::vector<double> dist_loc_scratch_;
  struct NewFacility {
    PointId point;
    CommoditySet config;
    FacilityId id;
    bool is_large;
  };
  /// Per-round state of serve(), one entry per demanded commodity; kept
  /// as members so a steady-state serve() allocates nothing (the set
  /// algebra allocates neither: sets over <= 64 commodities are inline).
  struct RoundScratch {
    std::vector<CommodityId> commodities;  // s_r in increasing order
    std::vector<double> a;                 // the raised duals a_re
    std::vector<std::uint8_t> served;
    std::vector<std::uint8_t> eligible;  // may use constraints (2)/(4)
    std::vector<double> dist1;           // round-start d(F(e), r)
    std::vector<FacilityId> fac1;        // and the facility attaining it
    std::vector<const double*> f_small;     // f^{{e}} cost rows
    std::vector<const double*> bids_small;  // constraint-(3) bid rows
    std::vector<PointId> temp_point;        // constraint (3) outcome
    std::vector<std::uint8_t> via_existing;  // constraint (1) outcome
    std::vector<std::uint8_t> via_large;     // constraints (2)/(4) outcome
    std::vector<NewFacility> committed;
  };
  RoundScratch round_;

  // ---- outputs -------------------------------------------------------------
  double total_dual_ = 0.0;

  // ---- helpers -------------------------------------------------------------
  bool prediction_enabled() const noexcept {
    return options_.prediction == PdOptions::Prediction::kOn;
  }
  /// The configuration a new large facility would open with right now
  /// (full S or the seen union, minus the excluded commodities).
  CommoditySet current_large_config() const;
  /// Distance from point p to the nearest large facility covering
  /// `eligible_demand` (the demand minus excluded commodities), and that
  /// facility: the universal group's table merged, by (distance, larges_
  /// order), with a scan of the non-universal larges.
  std::pair<double, FacilityId> nearest_large(
      PointId p, const CommoditySet& eligible_demand) const;
  /// Distance from p to the nearest facility offering e, and the facility.
  std::pair<double, FacilityId> nearest_offering(CommodityId e,
                                                 PointId p) const;
  /// First-principles linear scans over the facility lists — the
  /// independent oracles audit_state() checks the maintained state with.
  std::pair<double, FacilityId> scan_nearest_offering(CommodityId e,
                                                      PointId p) const;
  std::pair<double, FacilityId> scan_nearest_large(
      PointId p, const CommoditySet& eligible_demand) const;
  /// Appends larges_'s newest record to the universal group or to the
  /// scanned list.
  void register_large();
  /// Rebuilds by_commodity_ from past_ (slot order, so arrival order).
  void index_by_commodity();

  /// Fill `out[m]` with the constraint-(3) bid sum for commodity e at every
  /// point m (past requests only), according to the bid mode.
  void small_bid_row(CommodityId e, std::vector<double>& out) const;
  /// Same for the constraint-(4) large-facility bid sums.
  void large_bid_row(std::vector<double>& out) const;
  void recompute_small_bid_row(CommodityId e, std::vector<double>& out) const;
  void recompute_large_bid_row(std::vector<double>& out) const;

  /// Materializes (once) and returns the f^{{e}}_m cost row. The returned
  /// pointer is invalidated by a later ensure call for a new commodity
  /// (arena growth), so serve() ensures every row it needs before taking
  /// pointers.
  void ensure_singleton_cost_row(CommodityId e);
  /// Refreshes large_cost_row_ for `config` when it changed.
  const double* large_cost_row(const CommoditySet& config);

  /// Registers a newly permanent facility at `point` offering `config`
  /// with the internal indexes and (kIncremental) adjusts bid sums of past
  /// requests whose nearest-facility distances improved.
  void integrate_facility(PointId point, const CommoditySet& config,
                          FacilityId id, bool is_large);

  /// Appends the finished request to past_ / by_commodity_ and posts its
  /// contributions to the incremental bid arrays.
  void archive_request(RequestId id, const Request& request,
                       std::span<const CommodityId> commodities,
                       std::span<const double> duals);
};

}  // namespace omflp
