#include "solution/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <vector>

#include "instance/checkpoint_io.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"

namespace omflp {

namespace {

std::optional<VerificationError> fail(const std::string& msg) {
  return VerificationError{msg};
}

/// The per-facility re-derivation shared by every verifier: pricing and
/// well-formedness against the cost model.
std::optional<std::string> check_facility(const MetricSpace& metric,
                                          const FacilityCostModel& cost,
                                          const OpenFacilityRecord& f,
                                          double tolerance) {
  OMFLP_PERF_COUNT(verifier_checks);
  if (f.location >= metric.num_points())
    return "facility outside the metric space";
  if (f.config.universe_size() != cost.num_commodities())
    return "facility config universe mismatch";
  if (f.config.empty()) return "facility with empty configuration";
  const double expect = cost.open_cost(f.location, f.config);
  if (std::abs(expect - f.open_cost) > tolerance) {
    std::ostringstream os;
    os << "facility " << f.id << " open cost " << f.open_cost
       << " != model cost " << expect;
    return os.str();
  }
  return std::nullopt;
}

/// Whether rec.connected is the strictly ascending list of the distinct
/// facilities rec.served uses, checked without building that list.
bool connected_matches_served(const RequestRecord& rec) {
  const std::vector<FacilityId>& connected = rec.connected;
  for (std::size_t k = 1; k < connected.size(); ++k)
    if (connected[k - 1] >= connected[k]) return false;
  for (const ServedCommodity& sc : rec.served)
    if (!std::binary_search(connected.begin(), connected.end(), sc.facility))
      return false;
  for (const FacilityId f : connected)
    if (std::none_of(rec.served.begin(), rec.served.end(),
                     [&](const ServedCommodity& sc) {
                       return sc.facility == f;
                     }))
      return false;
  return true;
}

}  // namespace

std::optional<std::string> check_request_record(
    const MetricSpace& metric, const FacilityCostModel& cost,
    const SolutionLedger& ledger, RequestId id, const Request& expected,
    const RequestRecord& rec, double tolerance, double& connection) {
  OMFLP_PERF_COUNT(verifier_checks);
  if (!(rec.request.location == expected.location &&
        rec.request.commodities == expected.commodities)) {
    std::ostringstream os;
    os << "request " << id << " in ledger differs from the input";
    return os.str();
  }

  CommoditySet covered(cost.num_commodities());
  for (const ServedCommodity& sc : rec.served) {
    if (sc.facility >= ledger.num_facilities())
      return "assignment to unknown facility";
    const OpenFacilityRecord& f = ledger.facility(sc.facility);
    if (!f.config.contains(sc.commodity))
      return "assigned facility does not offer the commodity";
    if (f.opened_during > id)
      return "causality violation: facility opened after the request it "
             "serves";
    if (covered.contains(sc.commodity))
      return "commodity covered twice in one request";
    covered.add(sc.commodity);
  }
  // Admission control may have rejected commodities; served + rejected
  // must still partition the demand set exactly (sorted, no overlap).
  for (std::size_t k = 0; k < rec.rejected.size(); ++k) {
    const CommodityId e = rec.rejected[k];
    if (!expected.commodities.contains(e))
      return "rejected commodity the request does not demand";
    if (covered.contains(e))
      return "commodity both served and rejected";
    if (k > 0 && rec.rejected[k - 1] >= e)
      return "rejected list not sorted and distinct";
    covered.add(e);
  }
  if (!(covered == expected.commodities)) {
    std::ostringstream os;
    os << "request " << id << " not exactly covered: got "
       << covered.to_string() << ", demanded "
       << expected.commodities.to_string();
    return os.str();
  }

  double expect_conn = 0.0;
  if (ledger.policy() == ConnectionChargePolicy::kPerFacility) {
    if (!connected_matches_served(rec))
      return "connected-facility list inconsistent with assignments";
    for (const FacilityId f : rec.connected)
      expect_conn +=
          metric.distance(expected.location, ledger.facility(f).location);
  } else {
    for (const ServedCommodity& sc : rec.served)
      expect_conn += metric.distance(expected.location,
                                     ledger.facility(sc.facility).location);
  }
  if (std::abs(expect_conn - rec.connection_cost) >
      tolerance * (1.0 + expect_conn)) {
    std::ostringstream os;
    os << "request " << id << " connection cost " << rec.connection_cost
       << " != recomputed " << expect_conn;
    return os.str();
  }
  connection = expect_conn;
  return std::nullopt;
}

std::optional<VerificationError> verify_solution(const Instance& instance,
                                                 const SolutionLedger& ledger,
                                                 double tolerance) {
  if (ledger.request_in_flight())
    return fail("ledger left a request in flight");
  if (ledger.num_requests() != instance.num_requests()) {
    std::ostringstream os;
    os << "ledger served " << ledger.num_requests() << " requests, instance has "
       << instance.num_requests();
    return fail(os.str());
  }

  const MetricSpace& metric = instance.metric();
  const FacilityCostModel& cost = instance.cost();

  // Facilities: recompute opening costs. One verifier_check per facility
  // and per request record re-derived below.
  double opening = 0.0;
  for (const OpenFacilityRecord& f : ledger.facilities()) {
    if (auto error = check_facility(metric, cost, f, tolerance))
      return fail(*error);
    opening += cost.open_cost(f.location, f.config);
  }
  if (std::abs(opening - ledger.opening_cost()) > tolerance * (1.0 + opening))
    return fail("total opening cost mismatch");

  // Requests: coverage, causality, connection cost.
  double connection = 0.0;
  for (RequestId i = 0; i < instance.num_requests(); ++i) {
    const RequestRecord& rec = ledger.request_records()[i];
    double expect_conn = 0.0;
    if (auto error = check_request_record(metric, cost, ledger, i,
                                          instance.request(i), rec, tolerance,
                                          expect_conn))
      return fail(*error);
    if (!rec.rejected.empty() && !is_capacitated(instance.capacities()))
      return fail("rejected commodity on an uncapacitated instance");
    connection += expect_conn;
  }
  if (std::abs(connection - ledger.connection_cost()) >
      tolerance * (1.0 + connection))
    return fail("total connection cost mismatch");

  // Capacity feasibility: a static run never retires anyone, so each
  // facility's occupancy is simply the number of distinct requests that
  // connect to it — re-derived from the served lists, not the ledger's
  // own occupancy bookkeeping.
  if (is_capacitated(instance.capacities())) {
    const CapacityMap& caps = instance.capacities();
    std::vector<std::uint64_t> occupancy(ledger.num_facilities(), 0);
    for (const RequestRecord& rec : ledger.request_records()) {
      std::vector<FacilityId> distinct;
      for (const ServedCommodity& sc : rec.served)
        distinct.push_back(sc.facility);
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      for (const FacilityId f : distinct) ++occupancy[f];
    }
    for (const OpenFacilityRecord& f : ledger.facilities()) {
      if (occupancy[f.id] > capacity_at(caps, f.location)) {
        std::ostringstream os;
        os << "facility " << f.id << " occupancy " << occupancy[f.id]
           << " exceeds capacity " << capacity_at(caps, f.location);
        return fail(os.str());
      }
    }
  }

  return std::nullopt;
}

// -------------------------------------------------------- dynamic runs ---

std::optional<VerificationError> verify_stream(const EventStream& stream,
                                               const SolutionLedger& ledger,
                                               double tolerance) {
  if (ledger.request_in_flight())
    return fail("ledger left a request in flight");
  // Dense records only: record i must be request i. Any compaction —
  // not just of a prefix — breaks that, so count the records.
  if (ledger.request_records().size() != ledger.num_requests())
    return fail("compacted ledger cannot be verified offline; use "
                "StreamVerifier during the run");

  // Independently re-derive the retirement timeline: explicit departures
  // and lease expiries, with expiries firing before the event at their
  // deadline and explicit departures winning over a later expiry.
  using Expiry = std::pair<std::uint64_t, RequestId>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>
      expiries;
  std::vector<std::uint64_t> retired_at;  // by arrival id
  std::vector<const Request*> arrivals;
  const std::vector<StreamEvent>& events = stream.events();
  for (std::size_t t = 0; t < events.size(); ++t) {
    while (!expiries.empty() && expiries.top().first <= t) {
      const auto [deadline, id] = expiries.top();
      expiries.pop();
      if (retired_at[id] == kNeverRetired) retired_at[id] = deadline;
    }
    const StreamEvent& e = events[t];
    if (e.kind == StreamEvent::Kind::kArrival) {
      const RequestId id = arrivals.size();
      arrivals.push_back(&e.request);
      retired_at.push_back(kNeverRetired);
      if (e.lease > 0) expiries.emplace(lease_deadline(t, e.lease), id);
    } else {
      if (e.target >= arrivals.size() ||
          retired_at[e.target] != kNeverRetired)
        return fail("stream contains an invalid departure (event " +
                    std::to_string(t) + ")");
      retired_at[e.target] = t;
    }
  }

  if (ledger.num_requests() != arrivals.size()) {
    std::ostringstream os;
    os << "ledger served " << ledger.num_requests()
       << " requests, stream has " << arrivals.size() << " arrivals";
    return fail(os.str());
  }

  const MetricSpace& metric = stream.metric();
  const FacilityCostModel& cost = stream.cost();

  double opening = 0.0;
  for (const OpenFacilityRecord& f : ledger.facilities()) {
    if (auto error = check_facility(metric, cost, f, tolerance))
      return fail(*error);
    opening += cost.open_cost(f.location, f.config);
  }
  if (std::abs(opening - ledger.opening_cost()) > tolerance * (1.0 + opening))
    return fail("total opening cost mismatch");

  double gross = 0.0;
  double active = 0.0;
  std::size_t active_count = 0;
  for (RequestId id = 0; id < arrivals.size(); ++id) {
    const RequestRecord& rec = ledger.request_records()[id];
    if (rec.retired_at != retired_at[id]) {
      std::ostringstream os;
      os << "request " << id << " active interval mismatch: ledger retired "
         << "at " << rec.retired_at << ", timeline says " << retired_at[id]
         << " (" << kNeverRetired << " = never)";
      return fail(os.str());
    }
    double connection = 0.0;
    if (auto error = check_request_record(metric, cost, ledger, id,
                                          *arrivals[id], rec, tolerance,
                                          connection))
      return fail(*error);
    if (!rec.rejected.empty() && !is_capacitated(stream.capacities()))
      return fail("rejected commodity on an uncapacitated stream");
    gross += connection;
    if (rec.active()) {
      active += connection;
      ++active_count;
    }
  }
  if (std::abs(gross - ledger.connection_cost()) > tolerance * (1.0 + gross))
    return fail("total connection cost mismatch");
  if (std::abs(active - ledger.active_connection_cost()) >
      tolerance * (1.0 + active))
    return fail("active connection cost mismatch");
  if (active_count != ledger.num_active_requests())
    return fail("active request count mismatch");

  // Capacity feasibility over the whole timeline: replay arrivals and
  // retirements in event order and check that no facility's occupancy
  // (distinct active requests connected to it) ever exceeds its
  // location's capacity. Occupancy is re-derived from the served lists
  // validated above, independent of the ledger's own counts.
  if (is_capacitated(stream.capacities())) {
    const CapacityMap& caps = stream.capacities();
    std::vector<std::uint64_t> occupancy(ledger.num_facilities(), 0);
    const auto connected_of = [&](RequestId id) {
      std::vector<FacilityId> distinct;
      for (const ServedCommodity& sc : ledger.request_records()[id].served)
        distinct.push_back(sc.facility);
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      return distinct;
    };
    const auto release = [&](RequestId id) {
      for (const FacilityId f : connected_of(id)) --occupancy[f];
    };
    std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>
        pending;
    std::vector<bool> live;
    RequestId next_arrival = 0;
    for (std::size_t t = 0; t < events.size(); ++t) {
      while (!pending.empty() && pending.top().first <= t) {
        const RequestId id = pending.top().second;
        pending.pop();
        if (live[id]) {
          live[id] = false;
          release(id);
        }
      }
      const StreamEvent& e = events[t];
      if (e.kind == StreamEvent::Kind::kArrival) {
        const RequestId id = next_arrival++;
        live.push_back(true);
        for (const FacilityId f : connected_of(id)) {
          if (++occupancy[f] >
              capacity_at(caps, ledger.facility(f).location)) {
            std::ostringstream os;
            os << "facility " << f << " over capacity at event " << t;
            return fail(os.str());
          }
        }
        if (e.lease > 0) pending.emplace(lease_deadline(t, e.lease), id);
      } else {
        live[e.target] = false;
        release(e.target);
      }
    }
  }
  return std::nullopt;
}

StreamVerifier::StreamVerifier(MetricPtr metric, CostModelPtr cost,
                               double tolerance, CapacityMap capacities)
    : metric_(std::move(metric)),
      cost_(std::move(cost)),
      tolerance_(tolerance),
      capacities_(std::move(capacities)),
      capacitated_(is_capacitated(capacities_)) {
  OMFLP_PERF_COUNT(verifier_checks);
}

void StreamVerifier::fail_check(const std::string& what) {
  if (error_) return;
  error_ = VerificationError{what};
  if (obs::tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kVerifierFlag;
    // The most recently admitted arrival, if any — the request being
    // processed when the invariant broke.
    ev.request = next_expected_ > 0 ? next_expected_ - 1 : kInvalidRequest;
    ev.set_note(what);
    obs::emit(ev);
  }
}

void StreamVerifier::on_arrival(RequestId id, const Request& request,
                                const SolutionLedger& ledger) {
  if (error_) return;
  if (id != next_expected_) {
    fail_check("arrivals out of order");
    return;
  }
  ++next_expected_;

  // New facilities opened while serving this arrival.
  while (facilities_seen_ < ledger.num_facilities()) {
    const OpenFacilityRecord& f = ledger.facility(facilities_seen_);
    if (auto error = check_facility(*metric_, *cost_, f, tolerance_)) {
      fail_check(*error);
      return;
    }
    opening_ += cost_->open_cost(f.location, f.config);
    occupancy_.push_back(0);
    ++facilities_seen_;
  }

  const RequestRecord& rec = ledger.request_record(id);
  if (!rec.active()) {
    fail_check("freshly served request is not active");
    return;
  }
  double connection = 0.0;
  if (auto error = check_request_record(*metric_, *cost_, ledger, id,
                                        request, rec, tolerance_,
                                        connection)) {
    fail_check(*error);
    return;
  }
  if (!rec.rejected.empty() && !capacitated_) {
    fail_check("rejected commodity without capacities");
    return;
  }
  // Occupancy re-derived from the served list (independent of the
  // ledger's own counters); a capacitated verifier flags any facility
  // this arrival pushes past its location's capacity.
  ActiveRequest entry;
  entry.connection = connection;
  for (const ServedCommodity& sc : rec.served)
    entry.connected.push_back(sc.facility);
  std::sort(entry.connected.begin(), entry.connected.end());
  entry.connected.erase(
      std::unique(entry.connected.begin(), entry.connected.end()),
      entry.connected.end());
  for (const FacilityId f : entry.connected) {
    ++occupancy_[f];
    if (capacitated_ &&
        occupancy_[f] >
            capacity_at(capacities_, ledger.facility(f).location)) {
      std::ostringstream os;
      os << "facility " << f << " over capacity serving request " << id;
      fail_check(os.str());
      return;
    }
  }
  gross_connection_ += connection;
  active_costs_.emplace(id, std::move(entry));
}

void StreamVerifier::on_retire(RequestId id, std::uint64_t event_index,
                               const SolutionLedger& ledger) {
  if (error_) return;
  const auto it = active_costs_.find(id);
  if (it == active_costs_.end()) {
    fail_check("retirement of an unknown or already-retired request");
    return;
  }
  const RequestRecord& rec = ledger.request_record(id);
  if (rec.retired_at != event_index) {
    std::ostringstream os;
    os << "request " << id << " retired_at " << rec.retired_at
       << " != runner event " << event_index;
    fail_check(os.str());
    return;
  }
  retired_connection_ += it->second.connection;
  for (const FacilityId f : it->second.connected) {
    if (f < occupancy_.size() && occupancy_[f] > 0) --occupancy_[f];
  }
  active_costs_.erase(it);
}

std::optional<VerificationError> StreamVerifier::finish(
    const SolutionLedger& ledger) {
  if (error_) return error_;
  if (ledger.request_in_flight())
    return fail("ledger left a request in flight");
  if (next_expected_ != ledger.num_requests())
    fail_check("ledger request count differs from arrivals seen");
  else if (facilities_seen_ != ledger.num_facilities())
    fail_check("facilities opened outside any arrival");
  else if (std::abs(opening_ - ledger.opening_cost()) >
           tolerance_ * (1.0 + opening_))
    fail_check("total opening cost mismatch");
  else if (std::abs(gross_connection_ - ledger.connection_cost()) >
           tolerance_ * (1.0 + gross_connection_))
    fail_check("total connection cost mismatch");
  else if (std::abs((gross_connection_ - retired_connection_) -
                    ledger.active_connection_cost()) >
           tolerance_ * (1.0 + gross_connection_))
    fail_check("active connection cost mismatch");
  else if (active_costs_.size() != ledger.num_active_requests())
    fail_check("active request count mismatch");
  return error_;
}

void StreamVerifier::serialize(CkptWriter& writer) const {
  writer.line("verifier")
      .u(next_expected_)
      .u(facilities_seen_)
      .d(opening_)
      .d(gross_connection_)
      .d(retired_connection_);
  // Canonical form: the unordered map serialized sorted by request id.
  std::vector<std::pair<RequestId, const ActiveRequest*>> active;
  active.reserve(active_costs_.size());
  for (const auto& [id, entry] : active_costs_) active.emplace_back(id, &entry);
  std::sort(active.begin(), active.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer.line("verifier-active").u(active.size());
  for (const auto& [id, entry] : active) {
    writer.u(id).d(entry->connection).u(entry->connected.size());
    for (const FacilityId f : entry->connected) writer.u(f);
  }
  writer.line("verifier-error").b(error_.has_value());
  if (error_) writer.bytes(error_->what);
}

void StreamVerifier::restore(CkptReader& reader) {
  reader.expect("verifier");
  next_expected_ = static_cast<RequestId>(reader.u());
  facilities_seen_ = reader.u();
  opening_ = reader.d();
  gross_connection_ = reader.d();
  retired_connection_ = reader.d();
  reader.expect("verifier-active");
  const std::uint64_t num_active = reader.u();
  active_costs_.reserve(capped_reserve(num_active));
  for (std::uint64_t i = 0; i < num_active; ++i) {
    const auto id = static_cast<RequestId>(reader.u());
    ActiveRequest entry;
    entry.connection = reader.d();
    const std::uint64_t num_connected = reader.u();
    entry.connected.reserve(capped_reserve(num_connected));
    for (std::uint64_t k = 0; k < num_connected; ++k) {
      const auto f = static_cast<FacilityId>(reader.u());
      if (f >= facilities_seen_)
        reader.fail("verifier active entry references an unknown facility");
      entry.connected.push_back(f);
    }
    if (!active_costs_.emplace(id, std::move(entry)).second)
      reader.fail("duplicate verifier active-request id");
  }
  reader.expect("verifier-error");
  if (reader.b()) error_ = VerificationError{reader.bytes()};
}

void StreamVerifier::restore_occupancy(CkptReader& reader,
                                       const SolutionLedger& ledger) {
  // An erroring verifier stops catching up with new facilities, so only
  // then may its count trail the ledger's.
  const std::size_t facilities = ledger.num_facilities();
  if (error_ ? facilities_seen_ > facilities : facilities_seen_ != facilities)
    reader.fail("verifier facility count disagrees with the ledger");
  occupancy_.assign(facilities_seen_, 0);
  // Integer tallies: the unordered visiting order cannot change them.
  for (const auto& [id, entry] : active_costs_)
    for (const FacilityId f : entry.connected) ++occupancy_[f];
}

}  // namespace omflp
