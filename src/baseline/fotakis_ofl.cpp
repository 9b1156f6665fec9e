#include "baseline/fotakis_ofl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "instance/checkpoint_io.hpp"
#include "kernel/kernels.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

void FotakisOfl::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "FotakisOfl::reset: incomplete context");
  OMFLP_REQUIRE(context.num_commodities() == 1,
                "FotakisOfl: single-commodity algorithm; wrap in "
                "PerCommodityAdapter for |S| > 1");
  cost_ = context.cost;
  dist_ = std::make_unique<DistanceOracle>(context.metric);
  num_points_ = dist_->num_points();
  facilities_.clear();
  past_.clear();
  bids_.assign(num_points_, 0.0);
  const CommoditySet single = CommoditySet::full_set(1);
  cost_row_.resize(num_points_);
  for (PointId m = 0; m < num_points_; ++m)
    cost_row_[m] = cost_->open_cost(m, single);
  total_dual_ = 0.0;
}

void FotakisOfl::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "FotakisOfl: serve() before reset()");
  const PointId loc = request.location;

  // Nearest open facility (constraint (1) threshold).
  OMFLP_PERF_ADD(facilities_probed, facilities_.size());
  double d1 = kInfiniteDistance;
  FacilityId f1 = kInvalidFacility;
  if (!facilities_.empty()) {
    OMFLP_PERF_ADD(distance_lookups, facilities_.size());
    const double* dist_loc = dist_->row(loc);
    for (const OpenRecord& f : facilities_) {
      const double d = dist_loc[f.point];
      if (d < d1) {
        d1 = d;
        f1 = f.id;
      }
    }
  }

  // First tightness event while raising a_r from 0:
  //   (1) a_r = d(F, r);
  //   (3) (a_r − d(m,r))+ + bids_[m] = f_m  ⇒  a_r = d(m,r) + f_m − bids_[m].
  double best_delta = d1;
  int best_kind = 1;
  PointId best_point = kInvalidPoint;
  const CommoditySet single = CommoditySet::full_set(1);
  OMFLP_PERF_ADD(bids_evaluated, num_points_);
  OMFLP_PERF_ADD(distance_lookups, num_points_);
  const kernel::RowEvent event = kernel::min_tightness_over_row(
      dist_->row(loc), cost_row_.data(), bids_.data(), /*raised=*/0.0,
      /*divisor=*/1.0, num_points_);
  if (event.delta < best_delta) {
    best_delta = event.delta;
    best_kind = 3;
    best_point = static_cast<PointId>(event.index);
  }
  OMFLP_CHECK(std::isfinite(best_delta),
              "FotakisOfl: no constraint can become tight");

  const double a = best_delta;
  FacilityId serving = f1;
  if (best_kind == 3) {
    serving = ledger.open_facility(best_point, single);
    facilities_.push_back(OpenRecord{best_point, serving});
    if (obs::tracing()) {
      // Captured before the reinvestment loop below mutates bids_ and the
      // maintained facility distances.
      TraceEvent ev;
      ev.kind = TraceEventKind::kFacilityOpen;
      ev.request = ledger.num_requests() - 1;
      ev.constraint = 3;
      ev.commodity = 0;
      ev.facility = serving;
      ev.point = best_point;
      ev.config_size = 1;
      ev.cost = ledger.facility(serving).open_cost;
      ev.bid_mass = bids_[best_point];
      ev.tightness = a;
      std::vector<TraceContributor> contribs;
      const double* dist_m = dist_->row(best_point);
      for (std::size_t j = 0; j < past_.size(); ++j) {
        const PastRequest& pr = past_[j];
        const double v = std::min(pr.dual, pr.facility_dist);
        if (v <= 0.0) continue;
        const double amount = v - dist_m[pr.location];
        if (amount > 0.0)
          contribs.push_back(TraceContributor{j, amount});
      }
      const double own = a - dist_m[loc];
      if (own > 0.0)
        contribs.push_back(
            TraceContributor{ledger.num_requests() - 1, own});
      set_trace_contributors(ev, std::move(contribs));
      obs::emit(ev);
    }
    // The new facility may lower past requests' d(F, j); shrink their
    // outstanding bids accordingly (Lemma 6's reinvestment rule).
    for (PastRequest& pr : past_) {
      const double d_new = (*dist_)(best_point, pr.location);
      if (d_new >= pr.facility_dist) continue;
      const double v_old = std::min(pr.dual, pr.facility_dist);
      const double v_new = std::min(pr.dual, d_new);
      if (v_new < v_old && v_old > 0.0) {
        OMFLP_PERF_ADD(bids_updated, num_points_);
        OMFLP_PERF_ADD(distance_lookups, num_points_);
        kernel::shift_clipped_bid(bids_.data(), dist_->row(pr.location),
                                  v_old, v_new, num_points_);
      }
      pr.facility_dist = d_new;
    }
  }
  ledger.assign(0, serving);

  // Archive: post this request's bid contributions.
  PastRequest pr;
  pr.location = loc;
  pr.dual = a;
  pr.facility_dist = kInfiniteDistance;
  if (!facilities_.empty()) {
    OMFLP_PERF_ADD(distance_lookups, facilities_.size());
    const double* dist_loc = dist_->row(loc);
    for (const OpenRecord& f : facilities_)
      pr.facility_dist = std::min(pr.facility_dist, dist_loc[f.point]);
  }
  const double v = std::min(pr.dual, pr.facility_dist);
  if (v > 0.0) {
    OMFLP_PERF_ADD(bids_updated, num_points_);
    OMFLP_PERF_ADD(distance_lookups, num_points_);
    kernel::accumulate_clipped_bid(bids_.data(), dist_->row(loc), v,
                                   num_points_);
  }
  past_.push_back(pr);

  total_dual_ += a;

  if (obs::tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kDualRaise;
    ev.request = ledger.num_requests() - 1;
    ev.commodity = 0;
    ev.config_size = 1;
    ev.cost = a;
    obs::emit(ev);
  }
}

void FotakisOfl::depart(RequestId id, const Request& request,
                        SolutionLedger& ledger) {
  (void)request;
  (void)ledger;
  OMFLP_CHECK(cost_ != nullptr, "FotakisOfl: depart() before reset()");
  OMFLP_REQUIRE(id < past_.size(), "FotakisOfl: depart of unknown request");
  PastRequest& pr = past_[id];
  OMFLP_REQUIRE(!pr.departed, "FotakisOfl: request departed twice");
  pr.departed = true;
  const double v = std::min(pr.dual, pr.facility_dist);
  if (v > 0.0) {
    OMFLP_PERF_ADD(bids_updated, num_points_);
    OMFLP_PERF_ADD(distance_lookups, num_points_);
    kernel::shift_clipped_bid(bids_.data(), dist_->row(pr.location), v,
                              0.0, num_points_);
  }
  total_dual_ -= pr.dual;
  if (obs::tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kBidRollback;
    ev.request = id;
    ev.bid_mass = v > 0.0 ? v : 0.0;
    ev.cost = pr.dual;
    obs::emit(ev);
  }
  pr.dual = 0.0;  // reinvestment shifts for this request become no-ops
}

std::vector<double> FotakisOfl::duals() const {
  std::vector<double> out;
  out.reserve(past_.size());
  for (const PastRequest& pr : past_) out.push_back(pr.dual);
  return out;
}

void FotakisOfl::serialize_state(CkptWriter& writer) const {
  writer.line("facilities").u(facilities_.size());
  for (const OpenRecord& f : facilities_) writer.u(f.point).u(f.id);
  writer.line("past").u(past_.size());
  for (const PastRequest& pr : past_) {
    writer.line("past-request")
        .u(pr.location)
        .d(pr.dual)
        .d(pr.facility_dist)
        .b(pr.departed);
  }
  writer.line("bids").u(bids_.size());
  for (const double v : bids_) writer.d(v);
  writer.line("dual-total").d(total_dual_);
}

void FotakisOfl::restore_state(CkptReader& reader) {
  reader.expect("facilities");
  const std::uint64_t num_facilities = reader.u();
  facilities_.reserve(capped_reserve(num_facilities));
  for (std::uint64_t i = 0; i < num_facilities; ++i) {
    OpenRecord f;
    f.point = static_cast<PointId>(reader.u());
    f.id = static_cast<FacilityId>(reader.u());
    facilities_.push_back(f);
  }
  reader.expect("past");
  const std::uint64_t num_past = reader.u();
  past_.reserve(capped_reserve(num_past));
  for (std::uint64_t i = 0; i < num_past; ++i) {
    reader.expect("past-request");
    PastRequest pr;
    pr.location = static_cast<PointId>(reader.u());
    pr.dual = reader.d();
    pr.facility_dist = reader.d();
    pr.departed = reader.b();
    past_.push_back(pr);
  }
  reader.expect("bids");
  if (reader.u() != bids_.size())
    reader.fail("bid row length differs from the metric");
  for (double& v : bids_) v = reader.d();
  reader.expect("dual-total");
  total_dual_ = reader.d();
}

}  // namespace omflp
