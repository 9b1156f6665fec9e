#include "obs/explain.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace omflp {

namespace {

const char* constraint_name(std::uint8_t constraint) {
  switch (constraint) {
    case 1: return "(1) connect to a nearby open facility";
    case 2: return "(2) reach a large facility";
    case 3: return "(3) joint investment in a small facility";
    case 4: return "(4) joint investment in a large facility";
    default: return "(coin flip / threshold; no dual constraint)";
  }
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return std::string(buf);
}

/// One line per event, used by the per-request view.
void render_event(std::ostringstream& os, const TraceEvent& ev,
                  std::size_t index) {
  os << "  [" << index << "] " << trace_event_kind_name(ev.kind);
  switch (ev.kind) {
    case TraceEventKind::kFacilityOpen:
      os << "  facility " << ev.facility << " at point " << ev.point
         << " (|config|=" << ev.config_size << ", cost " << fmt(ev.cost)
         << ", constraint " << int{ev.constraint} << ")";
      break;
    case TraceEventKind::kRequestAssign:
      os << "  request " << ev.request << " -> facility " << ev.facility
         << " (commodity " << ev.commodity << ", dist " << fmt(ev.cost)
         << ")";
      break;
    case TraceEventKind::kBidRollback:
      os << "  request " << ev.request << " withdrew bid mass "
         << fmt(ev.bid_mass) << " (dual " << fmt(ev.cost) << ")";
      break;
    case TraceEventKind::kDepart:
    case TraceEventKind::kLeaseExpire:
      os << "  request " << ev.request << " at stream event "
         << ev.stream_event;
      break;
    case TraceEventKind::kDualRaise:
      os << "  request " << ev.request << " commodity " << ev.commodity
         << " raised " << fmt(ev.cost);
      break;
    case TraceEventKind::kVerifierFlag:
      os << "  request " << ev.request << ": " << ev.note();
      break;
    case TraceEventKind::kRequestReject:
      os << "  request " << ev.request << " shed commodity "
         << ev.commodity;
      break;
    case TraceEventKind::kRequestSpill:
      os << "  request " << ev.request << " -> facility " << ev.facility
         << " at point " << ev.point << " (commodity " << ev.commodity
         << ", dist " << fmt(ev.cost) << ")";
      break;
  }
  os << "\n";
}

std::string explain_facility(const std::vector<TraceEvent>& events,
                             FacilityId facility) {
  // The opening event and its position in the trace.
  std::size_t open_index = events.size();
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].kind == TraceEventKind::kFacilityOpen &&
        events[i].facility == facility) {
      open_index = i;
      break;
    }
  if (open_index == events.size())
    throw std::invalid_argument("explain: facility " +
                                std::to_string(facility) +
                                " never opened in this trace");
  const TraceEvent& open = events[open_index];

  std::ostringstream os;
  os << "facility " << facility << " opened at point " << open.point
     << " while serving request " << open.request << "\n"
     << "  configuration size " << open.config_size << ", opening cost "
     << fmt(open.cost) << "\n"
     << "  tight constraint: " << constraint_name(open.constraint) << "\n";
  if (open.tightness > 0.0)
    os << "  tightness/coin value at the decision: " << fmt(open.tightness)
       << "\n";

  // The bid side: who paid. Percentages are of the recorded contributor
  // total (archived bids + the serving request's own term), not of
  // bid_mass, which counts only the archived rows.
  double contributed = open.residual;
  for (const TraceContributor& c : open.contributors())
    contributed += c.amount;
  if (!open.contributors().empty() || open.bid_mass > 0.0) {
    os << "  archived bid mass at decision time: " << fmt(open.bid_mass)
       << "; recorded contributions: " << fmt(contributed) << "\n";
    for (const TraceContributor& c : open.contributors()) {
      os << "    request " << c.request << " contributed " << fmt(c.amount);
      if (contributed > 0.0)
        os << " (" << fmt(100.0 * c.amount / contributed) << "%)";
      os << "\n";
    }
    if (open.residual > 0.0)
      os << "    (+ " << fmt(open.residual) << " from contributors beyond "
         << "the top " << kMaxTraceContributors << ")\n";
  } else {
    os << "  no archived bid mass (threshold or coin-flip opening)\n";
  }

  // The service side: connections through this facility, and what later
  // departures withdrew from the bid mass that paid for it.
  std::size_t assignments = 0;
  double rolled_back = 0.0;
  std::size_t contributors_rolled = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (ev.kind == TraceEventKind::kRequestAssign &&
        ev.facility == facility)
      ++assignments;
    if (i > open_index && ev.kind == TraceEventKind::kBidRollback) {
      for (const TraceContributor& c : open.contributors())
        if (c.request == ev.request) {
          rolled_back += c.amount;
          ++contributors_rolled;
          break;
        }
    }
  }
  os << "  served " << assignments << " connection"
     << (assignments == 1 ? "" : "s") << " in the trace\n";
  if (contributors_rolled > 0) {
    os << "  rollback: " << contributors_rolled << " of "
       << open.contributors().size() << " recorded contributors later "
       << "departed, withdrawing " << fmt(rolled_back) << " of "
       << fmt(contributed) << " contributed mass";
    if (contributed > 0.0 && rolled_back >= contributed - 1e-12)
      os << " — the joint investment was fully undone (the facility "
            "stays open; only the dual accounting is withdrawn)";
    os << "\n";
  } else {
    os << "  rollback: none of the recorded contributors departed later\n";
  }
  return os.str();
}

std::string explain_request(const std::vector<TraceEvent>& events,
                            RequestId request) {
  std::ostringstream os;
  os << "events involving request " << request << ":\n";
  std::size_t hits = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    bool involved = ev.request == request;
    if (!involved)
      for (const TraceContributor& c : ev.contributors())
        if (c.request == request) {
          involved = true;
          break;
        }
    if (!involved) continue;
    ++hits;
    if (ev.request != request &&
        ev.kind == TraceEventKind::kFacilityOpen) {
      // Involved as a contributor only.
      double amount = 0.0;
      for (const TraceContributor& c : ev.contributors())
        if (c.request == request) amount = c.amount;
      os << "  [" << i << "] contributed " << fmt(amount)
         << " bid mass to facility " << ev.facility << " (opened by "
         << "request " << ev.request << ")\n";
      continue;
    }
    render_event(os, ev, i);
  }
  if (hits == 0) os << "  (none)\n";
  return os.str();
}

std::string explain_summary(const std::vector<TraceEvent>& events) {
  constexpr std::size_t kNumKinds =
      static_cast<std::size_t>(TraceEventKind::kRequestSpill) + 1;
  std::array<std::size_t, kNumKinds> by_kind{};
  double opening_cost = 0.0;
  double rolled_back_mass = 0.0;
  for (const TraceEvent& ev : events) {
    ++by_kind[static_cast<std::size_t>(ev.kind)];
    if (ev.kind == TraceEventKind::kFacilityOpen) opening_cost += ev.cost;
    if (ev.kind == TraceEventKind::kBidRollback)
      rolled_back_mass += ev.bid_mass;
  }
  std::ostringstream os;
  os << "trace: " << events.size() << " events\n";
  for (std::size_t k = 0; k < kNumKinds; ++k)
    if (by_kind[k] > 0)
      os << "  " << trace_event_kind_name(static_cast<TraceEventKind>(k))
         << ": " << by_kind[k] << "\n";
  if (by_kind[0] > 0)
    os << "total opening cost across openings: " << fmt(opening_cost)
       << "\n";
  if (by_kind[2] > 0)
    os << "total bid mass withdrawn by rollbacks: "
       << fmt(rolled_back_mass) << "\n";
  os << "use --facility N for the causal chain behind one opening, "
        "--request N for one request's events\n";
  return os.str();
}

}  // namespace

std::string explain_trace(const std::vector<TraceEvent>& events,
                          const ExplainOptions& options) {
  if (options.facility) return explain_facility(events, *options.facility);
  if (options.request) return explain_request(events, *options.request);
  return explain_summary(events);
}

}  // namespace omflp
