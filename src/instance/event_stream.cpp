#include "instance/event_stream.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "support/assert.hpp"

namespace omflp {

namespace {

/// Per-arrival "active until" clocks: until[id] is the first event index
/// at which arrival id is no longer active — its lease deadline, or
/// kNoDeadline without a lease, and 0 once it departed. Arrival id is
/// active at event t iff until[id] > t: exactly the rule of a lease
/// min-heap drained of every deadline <= t before event t (expiries fire
/// before their deadline event), with no heap to maintain.
constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

std::uint64_t active_until(std::uint64_t t, const StreamEvent& arrival) {
  return arrival.lease > 0 ? lease_deadline(t, arrival.lease) : kNoDeadline;
}

}  // namespace

EventStream::EventStream(MetricPtr metric, CostModelPtr cost,
                         std::vector<StreamEvent> events, std::string name)
    : metric_(std::move(metric)),
      cost_(std::move(cost)),
      events_(std::move(events)),
      name_(std::move(name)) {
  OMFLP_REQUIRE(metric_ != nullptr, "EventStream: null metric");
  OMFLP_REQUIRE(cost_ != nullptr, "EventStream: null cost model");
  for (const StreamEvent& e : events_)
    if (e.kind == StreamEvent::Kind::kArrival) ++num_arrivals_;
}

void EventStream::validate() const {
  const CommodityId s = cost_->num_commodities();
  const std::size_t points = metric_->num_points();
  std::vector<std::uint64_t> until;  // by arrival id
  until.reserve(num_arrivals_);

  auto fail = [](std::size_t t, const std::string& what) {
    std::ostringstream os;
    os << "EventStream: event " << t << ": " << what;
    throw std::invalid_argument(os.str());
  };

  for (std::size_t t = 0; t < events_.size(); ++t) {
    const StreamEvent& e = events_[t];
    if (e.kind == StreamEvent::Kind::kArrival) {
      if (e.request.location >= points)
        fail(t, "arrival location outside the metric space");
      if (e.request.commodities.universe_size() != s)
        fail(t, "arrival demand set over the wrong universe");
      if (e.request.commodities.empty()) fail(t, "empty demand set");
      until.push_back(active_until(t, e));
    } else {
      if (e.target >= until.size())
        fail(t, "departure of an arrival that has not happened");
      // Departed (0) or lease already expired (deadline <= t).
      if (until[e.target] <= t)
        fail(t, "departure of an arrival that is no longer active");
      until[e.target] = 0;
    }
  }
}

std::vector<RequestId> EventStream::surviving_arrivals() const {
  std::vector<std::uint64_t> until;  // by arrival id
  until.reserve(num_arrivals_);
  for (std::size_t t = 0; t < events_.size(); ++t) {
    const StreamEvent& e = events_[t];
    if (e.kind == StreamEvent::Kind::kArrival) {
      until.push_back(active_until(t, e));
    } else {
      OMFLP_REQUIRE(e.target < until.size() && until[e.target] > t,
                    "EventStream: invalid departure (run validate())");
      until[e.target] = 0;
    }
  }
  // Leases with deadlines past the last event never fire: whatever is
  // still active after it survives.
  std::vector<RequestId> out;
  for (RequestId id = 0; id < until.size(); ++id)
    if (until[id] >= events_.size()) out.push_back(id);
  return out;
}

Instance EventStream::surviving_instance() const {
  const std::vector<RequestId> survivors = surviving_arrivals();
  std::vector<bool> keep(num_arrivals_, false);
  for (const RequestId id : survivors) keep[id] = true;
  std::vector<Request> requests;
  requests.reserve(survivors.size());
  RequestId arrival = 0;
  for (const StreamEvent& e : events_) {
    if (e.kind != StreamEvent::Kind::kArrival) continue;
    if (keep[arrival]) requests.push_back(e.request);
    ++arrival;
  }
  Instance instance(metric_, cost_, std::move(requests),
                    name_ + "-surviving");
  instance.set_capacities(capacities_);
  return instance;
}

void EventStream::set_capacities(CapacityMap capacities) {
  if (capacities) {
    OMFLP_REQUIRE(capacities->size() <= metric_->num_points(),
                  "EventStream: capacity map larger than the metric space");
  }
  capacities_ = std::move(capacities);
}

std::size_t MaterializedEventSource::next_batch(
    std::vector<StreamEvent>& out, std::size_t max_events) {
  const std::vector<StreamEvent>& events = stream_->events();
  const std::size_t n = std::min(max_events, events.size() - cursor_);
  out.insert(out.end(), events.begin() + static_cast<std::ptrdiff_t>(cursor_),
             events.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
  cursor_ += n;
  return n;
}

void EventSource::skip_events(std::uint64_t n) {
  std::vector<StreamEvent> discard;
  while (n > 0) {
    discard.clear();
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, 8192));
    const std::size_t got = next_batch(discard, chunk);
    if (got == 0)
      throw std::invalid_argument(
          "EventSource::skip_events: stream shorter than the checkpoint "
          "clock");
    n -= got;
  }
}

void MaterializedEventSource::skip_events(std::uint64_t n) {
  const std::vector<StreamEvent>& events = stream_->events();
  if (n > events.size() - cursor_)
    throw std::invalid_argument(
        "MaterializedEventSource::skip_events: stream shorter than the "
        "checkpoint clock");
  cursor_ += static_cast<std::size_t>(n);
}

}  // namespace omflp
