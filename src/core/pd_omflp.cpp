#include "core/pd_omflp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "instance/checkpoint_io.hpp"
#include "kernel/kernels.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"
#include "support/request_index.hpp"

namespace omflp {

namespace {

inline double positive_part(double x) noexcept { return x > 0.0 ? x : 0.0; }

}  // namespace

PdOmflp::PdOmflp(PdOptions options) : options_(options) {}

std::string PdOmflp::name() const {
  std::string n = "PD-OMFLP";
  if (options_.prediction == PdOptions::Prediction::kOff)
    n += "[no-prediction]";
  if (options_.large_config == PdOptions::LargeConfig::kSeenUnion)
    n += "[seen-union]";
  if (!options_.excluded_from_prediction.empty())
    n += "[exclude=" +
         std::to_string(options_.excluded_from_prediction.count()) + "]";
  if (options_.bid_mode == PdOptions::BidMode::kReference) n += "[reference]";
  return n;
}

void PdOmflp::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "PdOmflp::reset: incomplete context");
  cost_ = context.cost;
  dist_ = std::make_unique<DistanceOracle>(context.metric);
  num_commodities_ = cost_->num_commodities();
  num_points_ = dist_->num_points();

  index_.reset(static_cast<std::size_t>(num_commodities_) + 1, dist_.get());
  larges_.clear();
  universal_rank_.clear();
  nonuniversal_larges_.clear();
  seen_ = CommoditySet(num_commodities_);
  if (options_.excluded_from_prediction.universe_size() == 0) {
    excluded_ = CommoditySet(num_commodities_);
  } else {
    OMFLP_REQUIRE(options_.excluded_from_prediction.universe_size() ==
                      num_commodities_,
                  "PdOmflp: excluded_from_prediction universe mismatch");
    excluded_ = options_.excluded_from_prediction;
  }
  universal_config_ = CommoditySet::full_set(num_commodities_) - excluded_;
  past_.clear();
  slots_.clear();
  by_commodity_.assign(num_commodities_, {});
  large_row_ = num_commodities_;
  bids_.reset(num_commodities_ + 1, num_points_);
  if (options_.bid_mode == PdOptions::BidMode::kIncremental)
    bids_.activate(large_row_);
  cost_rows_.reset(num_commodities_, num_points_);
  large_cost_row_.clear();
  large_cost_valid_ = false;
  ref_bid_scratch_.clear();
  large_bid_scratch_.clear();
  total_dual_ = 0.0;
}

void PdOmflp::ensure_singleton_cost_row(CommodityId e) {
  if (cost_rows_.active(e)) return;
  double* row = cost_rows_.activate(e);
  for (PointId m = 0; m < num_points_; ++m)
    row[m] = cost_->singleton_cost(m, e);
}

const double* PdOmflp::large_cost_row(const CommoditySet& config) {
  if (!large_cost_valid_ || !(large_cost_config_ == config)) {
    large_cost_row_.resize(num_points_);
    for (PointId m = 0; m < num_points_; ++m)
      large_cost_row_[m] = cost_->open_cost(m, config);
    large_cost_config_ = config;
    large_cost_valid_ = true;
  }
  return large_cost_row_.data();
}

CommoditySet PdOmflp::current_large_config() const {
  if (options_.large_config == PdOptions::LargeConfig::kFullS)
    return CommoditySet::full_set(num_commodities_) - excluded_;
  return seen_ - excluded_;
}

std::pair<double, FacilityId> PdOmflp::nearest_large(
    PointId p, const CommoditySet& eligible_demand) const {
  const NearestFacilityIndex::Nearest hit =
      index_.nearest(universal_group(), p);
  double best = hit.distance;
  FacilityId best_id = hit.id;
  std::uint32_t best_rank = hit.id == kInvalidFacility
                                ? NearestFacilityIndex::kNone
                                : universal_rank_[hit.position];
  OMFLP_PERF_ADD(facilities_probed, nonuniversal_larges_.size());
  std::size_t probed = 0;
  for (const std::uint32_t rank : nonuniversal_larges_) {
    const LargeRecord& lf = larges_[rank];
    if (!eligible_demand.is_subset_of(lf.config)) continue;
    ++probed;
    const double d = dist_->at(p, lf.point);
    // The scan over larges_ keeps the first record at minimal distance.
    if (d < best ||
        (d == best && best_id != kInvalidFacility && rank < best_rank)) {
      best = d;
      best_id = lf.id;
      best_rank = rank;
    }
  }
  OMFLP_PERF_ADD(distance_lookups, probed);
  return {best, best_id};
}

std::pair<double, FacilityId> PdOmflp::nearest_offering(CommodityId e,
                                                        PointId p) const {
  const NearestFacilityIndex::Nearest hit = index_.nearest(e, p);
  return {hit.distance, hit.id};
}

std::pair<double, FacilityId> PdOmflp::scan_nearest_offering(
    CommodityId e, PointId p) const {
  double best = kInfiniteDistance;
  FacilityId best_id = kInvalidFacility;
  for (const NearestFacilityIndex::Entry& f : index_.facilities(e)) {
    const double d = dist_->at(p, f.point);
    if (d < best) {
      best = d;
      best_id = f.id;
    }
  }
  return {best, best_id};
}

std::pair<double, FacilityId> PdOmflp::scan_nearest_large(
    PointId p, const CommoditySet& eligible_demand) const {
  double best = kInfiniteDistance;
  FacilityId best_id = kInvalidFacility;
  for (const LargeRecord& lf : larges_) {
    if (!eligible_demand.is_subset_of(lf.config)) continue;
    const double d = dist_->at(p, lf.point);
    if (d < best) {
      best = d;
      best_id = lf.id;
    }
  }
  return {best, best_id};
}

void PdOmflp::register_large() {
  const auto rank = static_cast<std::uint32_t>(larges_.size() - 1);
  const LargeRecord& lf = larges_.back();
  if (universal_config_.is_subset_of(lf.config)) {
    index_.add(universal_group(), lf.point, lf.id);
    universal_rank_.push_back(rank);
  } else {
    nonuniversal_larges_.push_back(rank);
  }
}

void PdOmflp::recompute_small_bid_row(CommodityId e,
                                      std::vector<double>& out) const {
  out.assign(num_points_, 0.0);
  if (by_commodity_[e].empty()) return;
  const std::span<const NearestFacilityIndex::Entry> offering =
      index_.facilities(e);
  OMFLP_PERF_ADD(distance_lookups, by_commodity_[e].size() * offering.size());
  for (const auto& [j, slot] : by_commodity_[e]) {
    const PastRequest& pr = past_[j];
    if (pr.departed) continue;  // rolled back: zero duals, no bid
    // Lazily fetched: a request with no facility to scan and no positive
    // bid never pays for a row materialization on the uncached-oracle
    // path. One fetch serves both the facility scan and the accumulation.
    const double* dist_j = nullptr;
    // d(F(e), j) from first principles: scan every facility offering e.
    double dist_e = kInfiniteDistance;
    if (!offering.empty()) {
      dist_j = dist_->row(pr.location);
      for (const NearestFacilityIndex::Entry& f : offering)
        dist_e = std::min(dist_e, dist_j[f.point]);
    }
    const double v = std::min(slots_[pr.first_slot + slot].dual, dist_e);
    if (v <= 0.0) continue;
    if (dist_j == nullptr) dist_j = dist_->row(pr.location);
    OMFLP_PERF_ADD(bids_evaluated, num_points_);
    OMFLP_PERF_ADD(distance_lookups, num_points_);
    kernel::accumulate_clipped_bid(out.data(), dist_j, v, num_points_);
  }
}

void PdOmflp::recompute_large_bid_row(std::vector<double>& out) const {
  out.assign(num_points_, 0.0);
  for (const PastRequest& pr : past_) {
    if (pr.departed) continue;  // rolled back: zero duals, no bid
    const double* dist_j = larges_.empty() ? nullptr
                                           : dist_->row(pr.location);
    double dist_large = kInfiniteDistance;
    std::size_t probed = 0;
    for (const LargeRecord& lf : larges_) {
      bool covers = true;
      for (const PastSlot& ps : slots_of(pr)) {
        if (excluded_.contains(ps.commodity)) continue;
        if (!lf.config.contains(ps.commodity)) {
          covers = false;
          break;
        }
      }
      if (!covers) continue;
      ++probed;
      dist_large = std::min(dist_large, dist_j[lf.point]);
    }
    OMFLP_PERF_ADD(distance_lookups, probed);
    const double v = std::min(pr.dual_sum_large, dist_large);
    if (v <= 0.0) continue;
    OMFLP_PERF_ADD(bids_evaluated, num_points_);
    OMFLP_PERF_ADD(distance_lookups, num_points_);
    kernel::accumulate_clipped_bid(out.data(), dist_->row(pr.location), v,
                                   num_points_);
  }
}

void PdOmflp::small_bid_row(CommodityId e, std::vector<double>& out) const {
  if (options_.bid_mode == PdOptions::BidMode::kReference) {
    recompute_small_bid_row(e, out);
    return;
  }
  if (!bids_.active(e)) {
    out.assign(num_points_, 0.0);
  } else {
    const double* row = bids_.row(e);
    out.assign(row, row + num_points_);
  }
}

void PdOmflp::large_bid_row(std::vector<double>& out) const {
  if (options_.bid_mode == PdOptions::BidMode::kReference) {
    recompute_large_bid_row(out);
    return;
  }
  const double* row = bids_.row(large_row_);
  out.assign(row, row + num_points_);
}

void PdOmflp::integrate_facility(PointId point, const CommoditySet& config,
                                 FacilityId id, bool is_large) {
  const bool incremental =
      options_.bid_mode == PdOptions::BidMode::kIncremental;
  // F̂ is defined by what a facility offers, not how it was opened: with
  // |S| = 1 a "small" facility covers all of S and belongs to F̂.
  is_large = is_large || config.is_full();

  config.for_each([&](CommodityId e) {
    index_.add(e, point, id);
    for (const auto& [j, slot] : by_commodity_[e]) {
      const PastRequest& pr = past_[j];
      // A rolled-back slot has zero duals: no bid to shift, and no
      // future use for its distance.
      if (pr.departed) continue;
      PastSlot& ps = slots_[pr.first_slot + slot];
      const double d_new = (*dist_)(point, pr.location);
      if (d_new >= ps.small_dist) continue;
      if (incremental) {
        const double v_old = std::min(ps.dual, ps.small_dist);
        const double v_new = std::min(ps.dual, d_new);
        if (v_new < v_old && v_old > 0.0 && bids_.active(e)) {
          OMFLP_PERF_ADD(bids_updated, num_points_);
          OMFLP_PERF_ADD(distance_lookups, num_points_);
          kernel::shift_clipped_bid(bids_.row(e), dist_->row(pr.location),
                                    v_old, v_new, num_points_);
        }
      }
      ps.small_dist = d_new;
    }
  });

  if (!is_large) return;
  larges_.push_back(LargeRecord{point, id, config});
  register_large();
  for (PastRequest& pr : past_) {
    if (pr.departed) continue;
    bool covers = true;
    for (const PastSlot& ps : slots_of(pr)) {
      if (excluded_.contains(ps.commodity)) continue;
      if (!config.contains(ps.commodity)) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    const double d_new = (*dist_)(point, pr.location);
    if (d_new >= pr.large_dist) continue;
    if (incremental) {
      const double v_old = std::min(pr.dual_sum_large, pr.large_dist);
      const double v_new = std::min(pr.dual_sum_large, d_new);
      if (v_new < v_old && v_old > 0.0) {
        OMFLP_PERF_ADD(bids_updated, num_points_);
        OMFLP_PERF_ADD(distance_lookups, num_points_);
        kernel::shift_clipped_bid(bids_.row(large_row_),
                                  dist_->row(pr.location), v_old, v_new,
                                  num_points_);
      }
    }
    pr.large_dist = d_new;
  }
}

void PdOmflp::archive_request(RequestId id, const Request& request,
                              std::span<const CommodityId> commodities,
                              std::span<const double> duals) {
  const bool incremental =
      options_.bid_mode == PdOptions::BidMode::kIncremental;

  PastRequest pr;
  pr.id = id;
  pr.location = request.location;
  pr.num_slots = static_cast<std::uint32_t>(commodities.size());
  pr.first_slot = slots_.size();
  for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
    slots_.push_back(PastSlot{
        commodities[slot], duals[slot],
        nearest_offering(commodities[slot], request.location).first});
    if (!excluded_.contains(commodities[slot]))
      pr.dual_sum_large += duals[slot];
  }
  pr.large_dist =
      nearest_large(request.location, request.commodities - excluded_)
          .first;

  const std::size_t j = past_.size();
  for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
    by_commodity_[commodities[slot]].emplace_back(
        j, static_cast<std::uint32_t>(slot));
    if (incremental) {
      const double v =
          std::min(duals[slot], slots_[pr.first_slot + slot].small_dist);
      if (v > 0.0) {
        double* row = bids_.activate(commodities[slot]);
        OMFLP_PERF_ADD(bids_updated, num_points_);
        OMFLP_PERF_ADD(distance_lookups, num_points_);
        kernel::accumulate_clipped_bid(row, dist_->row(pr.location), v,
                                       num_points_);
      }
    }
  }
  if (incremental && prediction_enabled()) {
    const double v = std::min(pr.dual_sum_large, pr.large_dist);
    if (v > 0.0) {
      OMFLP_PERF_ADD(bids_updated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      kernel::accumulate_clipped_bid(bids_.row(large_row_),
                                     dist_->row(pr.location), v,
                                     num_points_);
    }
  }
  past_.push_back(pr);
  for (double a : duals) total_dual_ += a;

  if (obs::tracing()) {
    // One dual_raise per (request, commodity) slot: the frozen a_re.
    for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kDualRaise;
      ev.request = id;
      ev.commodity = commodities[slot];
      ev.config_size = 1;
      ev.cost = duals[slot];
      obs::emit(ev);
    }
  }
}

void PdOmflp::depart(RequestId id, const Request& request,
                     SolutionLedger& ledger) {
  (void)request;
  (void)ledger;  // ledger-level re-accounting already happened
  OMFLP_CHECK(cost_ != nullptr, "PdOmflp: depart() before reset()");
  if (options_.deletion_policy == PdOptions::DeletionPolicy::kFrozen)
    return;
  const std::size_t j = index_of_request(past_, id);
  OMFLP_REQUIRE(j < past_.size(), "PdOmflp: depart of unknown request");
  PastRequest& pr = past_[j];
  OMFLP_REQUIRE(!pr.departed, "PdOmflp: request departed twice");
  const bool incremental =
      options_.bid_mode == PdOptions::BidMode::kIncremental;

  // Withdraw the currently-posted clipped contribution of every slot:
  // min{a_je, d(F(e), j)} with the *maintained* nearest distance is
  // exactly what archive_request posted and integrate_facility has been
  // shifting, so shifting it to zero removes the request from the row.
  double withdrawn = 0.0;     // bid mass leaving the rows
  double dual_removed = 0.0;  // dual objective leaving total_dual_
  for (PastSlot& ps : slots_of(pr)) {
    const CommodityId e = ps.commodity;
    const double v = std::min(ps.dual, ps.small_dist);
    if (v > 0.0) withdrawn += v;
    if (incremental && v > 0.0 && bids_.active(e)) {
      OMFLP_PERF_ADD(bids_updated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      kernel::shift_clipped_bid(bids_.row(e), dist_->row(pr.location), v,
                                0.0, num_points_);
    }
    total_dual_ -= ps.dual;
    dual_removed += ps.dual;
    ps.dual = 0.0;
  }
  if (prediction_enabled()) {
    const double v = std::min(pr.dual_sum_large, pr.large_dist);
    if (v > 0.0) withdrawn += v;
    if (incremental && v > 0.0) {
      OMFLP_PERF_ADD(bids_updated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      kernel::shift_clipped_bid(bids_.row(large_row_),
                                dist_->row(pr.location), v, 0.0,
                                num_points_);
    }
  }
  pr.dual_sum_large = 0.0;
  pr.departed = true;
  if (obs::tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kBidRollback;
    ev.request = id;
    ev.bid_mass = withdrawn;
    ev.cost = dual_removed;
    obs::emit(ev);
  }
  // With the duals zeroed the slot can never reach a bid row again:
  // reference-mode recomputation, integrate_facility and the trace
  // contributor lists all skip it, so both bid modes keep agreeing after
  // deletions, and compact_departed() may drop it.
}

void PdOmflp::index_by_commodity() {
  for (auto& entries : by_commodity_) entries.clear();  // keeps capacity
  for (std::size_t j = 0; j < past_.size(); ++j) {
    const std::span<const PastSlot> slots = slots_of(past_[j]);
    for (std::size_t slot = 0; slot < slots.size(); ++slot)
      by_commodity_[slots[slot].commodity].emplace_back(
          j, static_cast<std::uint32_t>(slot));
  }
  // The same 4x rule as past_ and slots_ in compact_departed(): a list
  // keeps its buffer through steady serving but not a burst's high water.
  for (auto& entries : by_commodity_)
    if (entries.capacity() > 4 * entries.size()) entries.shrink_to_fit();
}

PdOmflp::ResidentFootprint PdOmflp::resident_footprint() const noexcept {
  ResidentFootprint out;
  out.requests = past_.size();
  out.requests_capacity = past_.capacity();
  out.slots = slots_.size();
  out.slots_capacity = slots_.capacity();
  for (const auto& entries : by_commodity_) {
    out.index_entries += entries.size();
    out.index_capacity += entries.capacity();
  }
  return out;
}

void PdOmflp::compact_departed() {
  if (options_.deletion_policy == PdOptions::DeletionPolicy::kFrozen) return;
  // Stable in-place compaction of past_ and of its slots: survivors only
  // move towards the front, so no copy overwrites an unread slot.
  std::size_t kept = 0;
  std::size_t kept_slots = 0;
  for (PastRequest& pr : past_) {
    if (pr.departed) continue;
    if (pr.first_slot != kept_slots) {
      const auto from =
          slots_.begin() + static_cast<std::ptrdiff_t>(pr.first_slot);
      std::copy(from, from + pr.num_slots,
                slots_.begin() + static_cast<std::ptrdiff_t>(kept_slots));
      pr.first_slot = kept_slots;
    }
    kept_slots += pr.num_slots;
    past_[kept++] = pr;
  }
  if (kept == past_.size()) return;
  past_.resize(kept);
  slots_.resize(kept_slots);
  // Hand back what a long batch or a burst left behind, as the
  // per-request allocations of departed requests used to be: capacity
  // stays within 4x of the live set, so steady-state serving keeps its
  // buffers and the state does not stay history-sized.
  if (past_.capacity() > 4 * past_.size()) past_.shrink_to_fit();
  if (slots_.capacity() > 4 * slots_.size()) slots_.shrink_to_fit();
  index_by_commodity();
}

std::optional<std::string> PdOmflp::audit_state(double tolerance) const {
  if (cost_ == nullptr) return std::nullopt;  // never reset: nothing to audit
  std::ostringstream os;

  // 0. The nearest-facility index vs fresh scans at every point: the same
  //    facility and bitwise the same distance. Large queries run for each
  //    distinct eligible demand of a live request, so the merge with the
  //    scanned non-universal larges is covered too.
  const auto same = [](const std::pair<double, FacilityId>& x,
                       const std::pair<double, FacilityId>& y) {
    return x.second == y.second && std::bit_cast<std::uint64_t>(x.first) ==
                                       std::bit_cast<std::uint64_t>(y.first);
  };
  for (CommodityId e = 0; e < num_commodities_; ++e) {
    if (index_.facilities(e).empty()) continue;
    for (PointId m = 0; m < num_points_; ++m) {
      if (!same(nearest_offering(e, m), scan_nearest_offering(e, m))) {
        os << "nearest-facility index disagrees with the scan for e=" << e
           << " at m=" << m;
        return os.str();
      }
    }
  }
  std::vector<CommoditySet> demands;
  for (const PastRequest& pr : past_) {
    if (pr.departed || larges_.empty()) continue;
    CommoditySet eligible(num_commodities_);
    for (const PastSlot& ps : slots_of(pr))
      if (!excluded_.contains(ps.commodity)) eligible.add(ps.commodity);
    if (std::find(demands.begin(), demands.end(), eligible) != demands.end())
      continue;
    for (PointId m = 0; m < num_points_; ++m) {
      if (!same(nearest_large(m, eligible), scan_nearest_large(m, eligible))) {
        os << "nearest-large index disagrees with the scan at m=" << m
           << " for request " << pr.id << "'s demand";
        return os.str();
      }
    }
    demands.push_back(std::move(eligible));
  }

  // 1. Maintained nearest-facility distances vs fresh scans.
  for (const PastRequest& pr : past_) {
    if (pr.departed) continue;  // rolled back: distances no longer kept
    const std::span<const PastSlot> slots = slots_of(pr);
    for (std::size_t slot = 0; slot < slots.size(); ++slot) {
      const double maintained = slots[slot].small_dist;
      const double fresh =
          scan_nearest_offering(slots[slot].commodity, pr.location).first;
      const bool both_infinite =
          !std::isfinite(fresh) && !std::isfinite(maintained);
      if (!both_infinite && std::abs(fresh - maintained) > tolerance) {
        os << "stale small_dist for request " << pr.id << " slot " << slot
           << ": maintained " << maintained << " vs fresh " << fresh;
        return os.str();
      }
    }
    CommoditySet demand(num_commodities_);
    for (const PastSlot& ps : slots) demand.add(ps.commodity);
    const double fresh_large =
        scan_nearest_large(pr.location, demand - excluded_).first;
    const bool both_infinite =
        !std::isfinite(fresh_large) && !std::isfinite(pr.large_dist);
    if (!both_infinite && std::abs(fresh_large - pr.large_dist) > tolerance) {
      os << "stale large_dist for request " << pr.id << ": maintained "
         << pr.large_dist << " vs fresh " << fresh_large;
      return os.str();
    }
  }

  // 2. Incremental bid sums vs from-scratch recomputation, plus the
  //    constraint-(3) invariant Σ_j bids ≤ f^{{e}}_m.
  std::vector<double> fresh_row;
  for (CommodityId e = 0; e < num_commodities_; ++e) {
    if (by_commodity_[e].empty() && !bids_.active(e)) continue;
    recompute_small_bid_row(e, fresh_row);
    const bool check_drift =
        options_.bid_mode == PdOptions::BidMode::kIncremental &&
        bids_.active(e);
    const double* maintained = check_drift ? bids_.row(e) : nullptr;
    for (PointId m = 0; m < num_points_; ++m) {
      if (check_drift && std::abs(maintained[m] - fresh_row[m]) >
                             tolerance * (1.0 + fresh_row[m])) {
        os << "incremental small bids drifted for e=" << e << " at m=" << m
           << ": " << maintained[m] << " vs " << fresh_row[m];
        return os.str();
      }
      const double f = cost_->singleton_cost(m, e);
      if (fresh_row[m] > f + tolerance * (1.0 + f)) {
        os << "constraint (3) invariant violated for e=" << e
           << " at m=" << m << ": bids " << fresh_row[m] << " > f " << f;
        return os.str();
      }
    }
  }

  // 3. Same for the large side (constraint (4) invariant against the
  //    *current* large configuration).
  if (prediction_enabled()) {
    const CommoditySet large_cfg = current_large_config();
    recompute_large_bid_row(fresh_row);
    const bool check_drift =
        options_.bid_mode == PdOptions::BidMode::kIncremental;
    const double* maintained = check_drift ? bids_.row(large_row_) : nullptr;
    for (PointId m = 0; m < num_points_; ++m) {
      if (check_drift && std::abs(maintained[m] - fresh_row[m]) >
                             tolerance * (1.0 + fresh_row[m])) {
        os << "incremental large bids drifted at m=" << m << ": "
           << maintained[m] << " vs " << fresh_row[m];
        return os.str();
      }
      if (!large_cfg.empty()) {
        const double f = cost_->open_cost(m, large_cfg);
        if (fresh_row[m] > f + tolerance * (1.0 + f)) {
          os << "constraint (4) invariant violated at m=" << m << ": bids "
             << fresh_row[m] << " > f " << f;
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

void PdOmflp::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "PdOmflp: serve() before reset()");
  const RequestId request_id = ledger.num_requests() - 1;
  const PointId loc = request.location;

  // The kSeenUnion prediction set includes the current request's demands.
  seen_ |= request.commodities;

  // Per-slot round state lives in round_ (reused, so a steady-state
  // serve() allocates nothing while tracing is off).
  std::vector<CommodityId>& commodities = round_.commodities;
  commodities.clear();
  request.commodities.for_each(
      [&](CommodityId e) { commodities.push_back(e); });
  const std::size_t k = commodities.size();

  std::vector<double>& a = round_.a;
  a.assign(k, 0.0);
  std::vector<std::uint8_t>& served = round_.served;
  served.assign(k, 0);
  std::size_t unserved = k;
  double raised = 0.0;

  // Eligibility for the large-facility constraints (2)/(4): every slot in
  // the paper's algorithm, everything outside the excluded set in the §5
  // heavy-commodity variant.
  std::vector<std::uint8_t>& eligible = round_.eligible;
  eligible.assign(k, 0);
  std::size_t unserved_eligible = 0;
  for (std::size_t slot = 0; slot < k; ++slot) {
    eligible[slot] = !excluded_.contains(commodities[slot]);
    if (eligible[slot]) ++unserved_eligible;
  }
  const CommoditySet eligible_demand = request.commodities - excluded_;
  double sum_eligible = 0.0;  // Σ a_re over eligible slots (frozen or not)

  // Round-start snapshots; permanent facilities do not change mid-round.
  std::vector<double>& dist1 = round_.dist1;
  std::vector<FacilityId>& fac1 = round_.fac1;
  dist1.resize(k);
  fac1.resize(k);
  for (std::size_t slot = 0; slot < k; ++slot) {
    const auto [d, id] = nearest_offering(commodities[slot], loc);
    dist1[slot] = d;
    fac1[slot] = id;
  }
  const auto [dhat, near_large_id] =
      prediction_enabled() && !eligible_demand.empty()
          ? nearest_large(loc, eligible_demand)
          : std::pair<double, FacilityId>{kInfiniteDistance,
                                          kInvalidFacility};

  // Per-slot singleton cost rows and bid rows — raw pointers into the
  // cost-row arena, the bid arena (incremental) or the reusable
  // reference-mode scratch. Every cost row is ensured before any pointer
  // is taken: activation can grow the arena and move earlier rows.
  if (ref_bid_scratch_.size() < k) ref_bid_scratch_.resize(k);
  for (std::size_t slot = 0; slot < k; ++slot)
    ensure_singleton_cost_row(commodities[slot]);
  std::vector<const double*>& f_small = round_.f_small;
  std::vector<const double*>& bids_small = round_.bids_small;
  f_small.resize(k);
  bids_small.resize(k);
  for (std::size_t slot = 0; slot < k; ++slot) {
    const CommodityId e = commodities[slot];
    f_small[slot] = cost_rows_.row(e);
    if (options_.bid_mode == PdOptions::BidMode::kIncremental &&
        bids_.active(e)) {
      bids_small[slot] = bids_.row(e);
    } else {
      small_bid_row(e, ref_bid_scratch_[slot]);
      bids_small[slot] = ref_bid_scratch_[slot].data();
    }
  }

  CommoditySet large_cfg(num_commodities_);
  const double* f_large = nullptr;
  const double* bids_large = nullptr;
  const bool can_open_large =
      prediction_enabled() && unserved_eligible > 0 &&
      !(large_cfg = current_large_config()).empty();
  if (can_open_large) {
    f_large = large_cost_row(large_cfg);
    if (options_.bid_mode == PdOptions::BidMode::kIncremental) {
      bids_large = bids_.row(large_row_);
    } else {
      large_bid_row(large_bid_scratch_);
      bids_large = large_bid_scratch_.data();
    }
  }

  // Bid rows and permanent facilities do not change mid-round, so one
  // distance row serves every event scan of the round. On the uncached
  // oracle path the row is copied into owned scratch: the oracle's
  // fallback buffer is single-slot, and a pointer held across the whole
  // event loop must not be silently repointed by a future row() call.
  // Counters still tick once per sweep.
  const double* dist_loc;
  if (dist_->cached()) {
    dist_loc = dist_->row(loc);
  } else {
    const double* fallback = dist_->row(loc);
    dist_loc_scratch_.assign(fallback, fallback + num_points_);
    dist_loc = dist_loc_scratch_.data();
  }

  // Round outcome.
  std::vector<PointId>& temp_point = round_.temp_point;
  temp_point.assign(k, kInvalidPoint);
  std::vector<std::uint8_t>& via_existing = round_.via_existing;
  via_existing.assign(k, 0);
  std::vector<std::uint8_t>& via_large = round_.via_large;
  via_large.assign(k, 0);
  FacilityId large_serving = kInvalidFacility;        // existing (2)
  PointId new_large_point = kInvalidPoint;            // new (4)
  bool opened_large = false;

  // Decision-time captures for the trace sink (bid rows are mutated by
  // archive_request after the round, so the values must be taken when the
  // constraint fires, not at commit). Allocated only while tracing.
  const bool tracing = obs::tracing();
  std::vector<double> traced_bid_mass;
  std::vector<double> traced_tightness;
  double traced_large_bid_mass = 0.0;
  double traced_large_tightness = 0.0;
  if (tracing) {
    traced_bid_mass.assign(k, 0.0);
    traced_tightness.assign(k, 0.0);
  }

  while (unserved > 0) {
    // Find the next tightness event. Priority on ties: (2) and (4) end the
    // round and subsume any simultaneous (1)/(3) event (the pseudocode
    // processes lines 3-5 then 6-9 in the same instant, with 6-9
    // overriding), then (1) before (3), smaller slot, smaller point.
    struct Event {
      double delta = std::numeric_limits<double>::infinity();
      int priority = 99;  // 0:(2) 1:(4) 2:(1) 3:(3)
      std::size_t slot = 0;
      PointId point = kInvalidPoint;
    };
    Event best;
    auto consider = [&](double delta, int priority, std::size_t slot,
                        PointId point) {
      if (delta < best.delta ||
          (delta == best.delta &&
           (priority < best.priority ||
            (priority == best.priority &&
             (slot < best.slot ||
              (slot == best.slot && point < best.point)))))) {
        best = Event{delta, priority, slot, point};
      }
    };

    // Constraint (2): the eligible investment reaches d(F̂, r).
    if (prediction_enabled() && unserved_eligible > 0 &&
        std::isfinite(dhat))
      consider(positive_part(dhat - sum_eligible) /
                   static_cast<double>(unserved_eligible),
               0, 0, kInvalidPoint);

    // Constraint (4): joint investment pays for a new large facility at m.
    if (can_open_large && unserved_eligible > 0) {
      OMFLP_PERF_ADD(bids_evaluated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      const kernel::RowEvent event = kernel::min_tightness_over_row(
          dist_loc, f_large, bids_large, sum_eligible,
          static_cast<double>(unserved_eligible), num_points_);
      consider(event.delta, 1, 0, static_cast<PointId>(event.index));
    }

    for (std::size_t slot = 0; slot < k; ++slot) {
      if (served[slot]) continue;
      // Constraint (1): a_re reaches the nearest facility offering e.
      if (std::isfinite(dist1[slot]))
        consider(positive_part(dist1[slot] - a[slot]), 2, slot,
                 kInvalidPoint);
      // Constraint (3): investment pays for a small facility {e} at m.
      OMFLP_PERF_ADD(bids_evaluated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      const kernel::RowEvent event = kernel::min_tightness_over_row(
          dist_loc, f_small[slot], bids_small[slot], a[slot], 1.0,
          num_points_);
      consider(event.delta, 3, slot, static_cast<PointId>(event.index));
    }

    OMFLP_CHECK(std::isfinite(best.delta),
                "PdOmflp: no constraint can become tight — facility costs "
                "must be finite");

    // Advance the duals of all unserved commodities by the event time.
    if (best.delta > 0.0) {
      for (std::size_t slot = 0; slot < k; ++slot) {
        if (served[slot]) continue;
        a[slot] += best.delta;
        if (eligible[slot]) sum_eligible += best.delta;
      }
      raised += best.delta;
    }

    // (2)/(4): every eligible commodity of s_r is (re)assigned to the
    // large facility; temporary facilities of reassigned slots are
    // discarded (Algorithm 1 lines 7-9). Excluded (heavy) slots continue
    // through constraints (1)/(3).
    auto serve_eligible_by_large = [&] {
      for (std::size_t slot = 0; slot < k; ++slot) {
        if (!eligible[slot]) continue;
        if (!served[slot]) --unserved;
        served[slot] = 1;
        via_large[slot] = 1;
        via_existing[slot] = 0;
        temp_point[slot] = kInvalidPoint;
      }
      unserved_eligible = 0;
    };

    switch (best.priority) {
      case 0: {  // (2) — connect to the nearest existing large facility.
        large_serving = near_large_id;
        serve_eligible_by_large();
        break;
      }
      case 1: {  // (4) — open a new large facility at best.point.
        opened_large = true;
        new_large_point = best.point;
        if (tracing) {
          traced_large_bid_mass = bids_large[best.point];
          traced_large_tightness = raised;
        }
        serve_eligible_by_large();
        break;
      }
      case 2: {  // (1) — serve e by the nearest existing facility.
        served[best.slot] = 1;
        via_existing[best.slot] = 1;
        --unserved;
        if (eligible[best.slot]) --unserved_eligible;
        break;
      }
      case 3: {  // (3) — temporarily open a small facility {e} at m.
        served[best.slot] = 1;
        temp_point[best.slot] = best.point;
        if (tracing) {
          traced_bid_mass[best.slot] = bids_small[best.slot][best.point];
          traced_tightness[best.slot] = raised;
        }
        --unserved;
        if (eligible[best.slot]) --unserved_eligible;
        break;
      }
      default:
        OMFLP_CHECK(false, "PdOmflp: invalid event");
    }
  }

  // Commit the round's decisions to the ledger; temporary facilities are
  // discarded when the round ended through (2)/(4) (lines 8-9 of
  // Algorithm 1), otherwise they become permanent (line 10).
  std::vector<NewFacility>& committed = round_.committed;
  committed.clear();

  // facility_open trace events, emitted at commit with the decision-time
  // bid/tightness captures. Contributor lists are rebuilt from the
  // archived state: each past request's clipped bid at the opening point
  // plus the current request's own term — the left-hand side of the
  // constraint that went tight.
  const auto emit_small_open = [&](std::size_t slot, FacilityId id) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFacilityOpen;
    ev.request = request_id;
    ev.constraint = 3;
    ev.commodity = commodities[slot];
    ev.facility = id;
    ev.point = temp_point[slot];
    ev.config_size = 1;
    ev.cost = ledger.facility(id).open_cost;
    ev.bid_mass = traced_bid_mass[slot];
    ev.tightness = traced_tightness[slot];
    std::vector<TraceContributor> contribs;
    const double* dist_m = dist_->row(temp_point[slot]);
    for (const auto& [j, pslot] : by_commodity_[commodities[slot]]) {
      const PastRequest& pr = past_[j];
      const PastSlot& ps = slots_[pr.first_slot + pslot];
      const double v = std::min(ps.dual, ps.small_dist);
      if (v <= 0.0) continue;
      const double amount = positive_part(v - dist_m[pr.location]);
      if (amount > 0.0) contribs.push_back(TraceContributor{pr.id, amount});
    }
    const double own = positive_part(a[slot] - dist_loc[temp_point[slot]]);
    if (own > 0.0)
      contribs.push_back(TraceContributor{request_id, own});
    set_trace_contributors(ev, std::move(contribs));
    obs::emit(ev);
  };
  const auto emit_large_open = [&](FacilityId id) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFacilityOpen;
    ev.request = request_id;
    ev.constraint = 4;
    ev.facility = id;
    ev.point = new_large_point;
    ev.config_size = large_cfg.count();
    ev.cost = ledger.facility(id).open_cost;
    ev.bid_mass = traced_large_bid_mass;
    ev.tightness = traced_large_tightness;
    std::vector<TraceContributor> contribs;
    const double* dist_m = dist_->row(new_large_point);
    for (const PastRequest& pr : past_) {
      const double v = std::min(pr.dual_sum_large, pr.large_dist);
      if (v <= 0.0) continue;
      const double amount = positive_part(v - dist_m[pr.location]);
      if (amount > 0.0) contribs.push_back(TraceContributor{pr.id, amount});
    }
    const double own = positive_part(sum_eligible - dist_loc[new_large_point]);
    if (own > 0.0)
      contribs.push_back(TraceContributor{request_id, own});
    set_trace_contributors(ev, std::move(contribs));
    obs::emit(ev);
  };

  FacilityId large_id = large_serving;
  if (opened_large) {
    large_id = ledger.open_facility(new_large_point, large_cfg);
    committed.push_back(
        NewFacility{new_large_point, large_cfg, large_id, true});
    if (tracing) emit_large_open(large_id);
  }
  for (std::size_t slot = 0; slot < k; ++slot) {
    if (via_large[slot]) {
      OMFLP_CHECK(large_id != kInvalidFacility,
                  "PdOmflp: large assignment without a large facility");
      ledger.assign(commodities[slot], large_id);
    } else if (temp_point[slot] != kInvalidPoint) {
      const CommoditySet single =
          CommoditySet::singleton(num_commodities_, commodities[slot]);
      const FacilityId id = ledger.open_facility(temp_point[slot], single);
      committed.push_back(NewFacility{temp_point[slot], single, id, false});
      if (tracing) emit_small_open(slot, id);
      ledger.assign(commodities[slot], id);
    } else {
      OMFLP_CHECK(via_existing[slot] && fac1[slot] != kInvalidFacility,
                  "PdOmflp: slot finished without an assignment");
      ledger.assign(commodities[slot], fac1[slot]);
    }
  }

  for (const NewFacility& nf : committed)
    integrate_facility(nf.point, nf.config, nf.id, nf.is_large);

  archive_request(request_id, request, commodities, a);
}

std::vector<PdDualRecord> PdOmflp::dual_records() const {
  std::vector<PdDualRecord> records;
  records.reserve(past_.size());
  for (const PastRequest& pr : past_) {
    PdDualRecord& record = records.emplace_back();
    record.id = pr.id;
    record.location = pr.location;
    for (const PastSlot& ps : slots_of(pr)) {
      record.commodities.push_back(ps.commodity);
      record.duals.push_back(ps.dual);
    }
  }
  return records;
}

namespace {

const char* bid_mode_tag(PdOptions::BidMode m) {
  return m == PdOptions::BidMode::kIncremental ? "incremental" : "reference";
}
const char* prediction_tag(PdOptions::Prediction p) {
  return p == PdOptions::Prediction::kOn ? "on" : "off";
}
const char* large_config_tag(PdOptions::LargeConfig c) {
  return c == PdOptions::LargeConfig::kFullS ? "full-s" : "seen-union";
}
const char* deletion_tag(PdOptions::DeletionPolicy d) {
  return d == PdOptions::DeletionPolicy::kRollback ? "rollback" : "frozen";
}

}  // namespace

void PdOmflp::serialize_state(CkptWriter& writer) const {
  // Options guard: a checkpoint only restores into the same variant.
  writer.line("pd-options")
      .tok(bid_mode_tag(options_.bid_mode))
      .tok(prediction_tag(options_.prediction))
      .tok(large_config_tag(options_.large_config))
      .tok(deletion_tag(options_.deletion_policy))
      .set(excluded_);
  writer.line("offering-index").u(num_commodities_);
  for (CommodityId e = 0; e < num_commodities_; ++e) {
    const std::span<const NearestFacilityIndex::Entry> row =
        index_.facilities(e);
    writer.line("offering").u(row.size());
    for (const NearestFacilityIndex::Entry& f : row)
      writer.u(f.point).u(f.id);
  }
  writer.line("larges").u(larges_.size());
  for (const LargeRecord& f : larges_)
    writer.line("large").u(f.point).u(f.id).set(f.config);
  writer.line("seen").set(seen_);
  writer.line("past").u(past_.size());
  for (const PastRequest& pr : past_) {
    writer.line("past-request")
        .u(pr.id)
        .u(pr.location)
        .u(pr.num_slots)
        .d(pr.large_dist)
        .b(pr.departed);
    const std::span<const PastSlot> slots = slots_of(pr);
    writer.line("past-commodities");
    for (const PastSlot& ps : slots) writer.u(ps.commodity);
    writer.line("past-duals");
    for (const PastSlot& ps : slots) writer.d(ps.dual);
    writer.line("past-small-dist");
    for (const PastSlot& ps : slots) writer.d(ps.small_dist);
  }
  // Incremental bid rows, bitwise, in canonical (row id) order — slot
  // order inside the arena is an activation-history artifact that never
  // affects numerics.
  std::vector<std::size_t> active_rows;
  for (std::size_t r = 0; r < bids_.num_rows(); ++r)
    if (bids_.active(r)) active_rows.push_back(r);
  writer.line("bid-rows").u(active_rows.size()).u(bids_.row_length());
  for (const std::size_t r : active_rows) {
    writer.line("bid-row").u(r);
    const double* row = bids_.row(r);
    for (std::size_t m = 0; m < bids_.row_length(); ++m) writer.d(row[m]);
  }
  writer.line("dual-total").d(total_dual_);
}

void PdOmflp::restore_state(CkptReader& reader) {
  reader.expect("pd-options");
  if (reader.tok() != bid_mode_tag(options_.bid_mode) ||
      reader.tok() != prediction_tag(options_.prediction) ||
      reader.tok() != large_config_tag(options_.large_config) ||
      reader.tok() != deletion_tag(options_.deletion_policy))
    reader.fail("checkpoint was written by a different PD-OMFLP variant");
  if (!(reader.set() == excluded_))
    reader.fail("checkpoint excluded-commodity set mismatch");
  // reset() left every nearest-facility table unmaterialized: the lists
  // are re-added here and each table is rebuilt on its group's first
  // query.
  reader.expect("offering-index");
  if (reader.u() != num_commodities_)
    reader.fail("offering index universe mismatch");
  for (CommodityId e = 0; e < num_commodities_; ++e) {
    reader.expect("offering");
    const std::uint64_t n = reader.u();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto point = static_cast<PointId>(reader.u());
      const auto id = static_cast<FacilityId>(reader.u());
      if (point >= num_points_) reader.fail("facility point out of range");
      index_.add(e, point, id);
    }
  }
  reader.expect("larges");
  const std::uint64_t num_larges = reader.u();
  larges_.reserve(capped_reserve(num_larges));
  for (std::uint64_t i = 0; i < num_larges; ++i) {
    reader.expect("large");
    LargeRecord f;
    f.point = static_cast<PointId>(reader.u());
    f.id = static_cast<FacilityId>(reader.u());
    f.config = reader.set();
    if (f.config.universe_size() != num_commodities_)
      reader.fail("large facility config universe mismatch");
    larges_.push_back(std::move(f));
    register_large();
  }
  reader.expect("seen");
  seen_ = reader.set();
  if (seen_.universe_size() != num_commodities_)
    reader.fail("seen-union universe mismatch");
  reader.expect("past");
  const std::uint64_t num_past = reader.u();
  past_.reserve(capped_reserve(num_past));
  for (std::uint64_t k = 0; k < num_past; ++k) {
    reader.expect("past-request");
    PastRequest pr;
    pr.id = static_cast<RequestId>(reader.u());
    if (!past_.empty() && pr.id <= past_.back().id)
      reader.fail("past request ids out of order");
    pr.location = static_cast<PointId>(reader.u());
    const std::uint64_t slots = reader.u();
    if (slots > num_commodities_)
      reader.fail("past request demands more commodities than |S|");
    pr.num_slots = static_cast<std::uint32_t>(slots);
    pr.first_slot = slots_.size();
    pr.large_dist = reader.d();
    pr.departed = reader.b();
    slots_.resize(pr.first_slot + pr.num_slots);
    const std::span<PastSlot> restored = slots_of(pr);
    reader.expect("past-commodities");
    for (PastSlot& ps : restored) {
      ps.commodity = static_cast<CommodityId>(reader.u());
      if (ps.commodity >= num_commodities_)
        reader.fail("past commodity out of range");
    }
    reader.expect("past-duals");
    for (PastSlot& ps : restored) ps.dual = reader.d();
    // Recomputed exactly as archive_request sums it (same order, same
    // skips). Rolled-back slots hold +0.0 duals, so a departed request
    // sums to the 0.0 depart() stored.
    for (const PastSlot& ps : restored)
      if (!excluded_.contains(ps.commodity)) pr.dual_sum_large += ps.dual;
    reader.expect("past-small-dist");
    for (PastSlot& ps : restored) ps.small_dist = reader.d();
    past_.push_back(pr);
  }
  // The per-commodity index is a pure function of past_.
  index_by_commodity();
  reader.expect("bid-rows");
  const std::uint64_t num_bid_rows = reader.u();
  if (reader.u() != bids_.row_length())
    reader.fail("bid row length differs from the metric");
  for (std::uint64_t i = 0; i < num_bid_rows; ++i) {
    reader.expect("bid-row");
    const std::uint64_t r = reader.u();
    if (r >= bids_.num_rows()) reader.fail("bid row id out of range");
    double* row = bids_.active(static_cast<std::size_t>(r))
                      ? bids_.row(static_cast<std::size_t>(r))
                      : bids_.activate(static_cast<std::size_t>(r));
    for (std::size_t m = 0; m < bids_.row_length(); ++m) row[m] = reader.d();
  }
  reader.expect("dual-total");
  total_dual_ = reader.d();
}

}  // namespace omflp
