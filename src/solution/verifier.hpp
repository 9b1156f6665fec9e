// Independent verification of a finished online run.
//
// The ledger already enforces its invariants incrementally; the verifier
// re-derives everything from the raw records with separate code so that a
// bookkeeping bug in the ledger (or an algorithm bypassing it in a novel
// way) cannot hide. Every algorithm test runs the verifier on its output.
//
// Dynamic streams get two verifiers with the same philosophy:
//   * verify_stream — offline, for materialized (uncompacted) runs:
//     re-derives the retirement timeline from the EventStream (explicit
//     departures and lease expiries) and checks every record's active
//     interval and the active/gross cost split against it;
//   * StreamVerifier — incremental, fed by the stream runner as events
//     are processed, so records can be compacted away afterwards without
//     losing verification coverage. Memory is O(active set).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "instance/capacity.hpp"
#include "instance/event_stream.hpp"
#include "instance/instance.hpp"
#include "solution/solution.hpp"

namespace omflp {

class CkptReader;
class CkptWriter;

struct VerificationError {
  std::string what;
};

/// Checks, against the instance:
///  * the ledger processed exactly the instance's request sequence, in
///    order;
///  * every request's demand set is exactly covered by its assignments,
///    each assignment points at a facility that offers the commodity and
///    was open by the end of that request's processing (irrevocability /
///    causality: facility.opened_during <= request index);
///  * recomputed opening and connection costs match the ledger's totals
///    (within `tolerance` for floating-point accumulation);
///  * facility open costs match the cost model;
///  * capacity feasibility when the instance is capacitated: served +
///    rejected partition each demand set, re-derived facility occupancy
///    never exceeds the location's capacity, and uncapacitated instances
///    admit no rejections at all.
std::optional<VerificationError> verify_solution(const Instance& instance,
                                                 const SolutionLedger& ledger,
                                                 double tolerance = 1e-6);

/// The per-record check every verifier runs on a served request:
/// the record matches `expected`, its assignments and rejections
/// partition the demand set, each assigned facility offers the commodity
/// and opened no later than request `id`, the connected list is the
/// sorted distinct served facilities (per-facility charging), and the
/// recomputed connection cost — returned through `connection` — matches
/// the record's. Returns the first failure's message. Allocates nothing
/// while the record passes.
std::optional<std::string> check_request_record(
    const MetricSpace& metric, const FacilityCostModel& cost,
    const SolutionLedger& ledger, RequestId id, const Request& expected,
    const RequestRecord& rec, double tolerance, double& connection);

/// Offline verification of a dynamic run against its EventStream.
/// Checks, beyond the static per-record properties (coverage, causality,
/// facility pricing, connection costs):
///  * the ledger served exactly the stream's arrivals, in order;
///  * every record's retirement matches the independently re-derived
///    timeline — explicit departures and lease expiries at the exact
///    event indices, survivors still active;
///  * the active/gross accounting: connection_cost() sums all records,
///    active_connection_cost() sums the surviving ones;
///  * capacity feasibility when the stream is capacitated: re-derived
///    occupancy (distinct active requests per facility) stays within the
///    location's capacity at every point of the timeline.
/// Requires an uncompacted ledger (request_records().size() ==
/// num_requests()); compacted stream runs are verified incrementally by
/// StreamVerifier instead.
std::optional<VerificationError> verify_stream(const EventStream& stream,
                                               const SolutionLedger& ledger,
                                               double tolerance = 1e-6);

/// Incremental verifier for (possibly compacted) stream runs. The stream
/// runner calls on_arrival after each served arrival and on_retire after
/// each retirement, both *before* any compaction, so every record is
/// checked exactly once while still resident; finish() closes the books
/// against the ledger totals. The first failure sticks and short-circuits
/// later checks. Holds O(active requests) state.
class StreamVerifier {
 public:
  /// `capacities` enables the capacity-feasibility check: the verifier
  /// re-derives each facility's occupancy from the records it sees and
  /// flags any arrival that pushes a facility past its location's
  /// capacity (and any rejection when no capacities are given). Null
  /// keeps the uncapacitated behavior.
  StreamVerifier(MetricPtr metric, CostModelPtr cost,
                 double tolerance = 1e-6, CapacityMap capacities = nullptr);

  /// Arrival `id` (== ledger request id) was just served with `request`.
  void on_arrival(RequestId id, const Request& request,
                  const SolutionLedger& ledger);
  /// Arrival `id` was just retired at stream-event index `event_index`.
  void on_retire(RequestId id, std::uint64_t event_index,
                 const SolutionLedger& ledger);
  /// Final totals check; returns the first error found, or nullopt.
  std::optional<VerificationError> finish(const SolutionLedger& ledger);

  const std::optional<VerificationError>& error() const noexcept {
    return error_;
  }

  /// Checkpoint/restore (instance/checkpoint_io.hpp): the verifier's
  /// running totals and per-active-request recomputed costs, so a
  /// restored run keeps full verification coverage over the events it
  /// replays — including a sticky error recorded before the snapshot.
  /// restore fills a freshly constructed verifier (same metric, cost
  /// model and tolerance); restore_occupancy completes it once the
  /// session's ledger is restored, checking the declared facility count
  /// against the ledger's before anything is sized by it.
  void serialize(CkptWriter& writer) const;
  void restore(CkptReader& reader);
  void restore_occupancy(CkptReader& reader, const SolutionLedger& ledger);

 private:
  struct ActiveRequest {
    /// Recomputed connection cost (independent of the ledger's figure).
    double connection = 0.0;
    /// Distinct facilities the request occupies — released from the
    /// occupancy tally on retirement.
    std::vector<FacilityId> connected;
  };

  void fail_check(const std::string& what);

  MetricPtr metric_;
  CostModelPtr cost_;
  double tolerance_;
  CapacityMap capacities_;
  bool capacitated_ = false;

  RequestId next_expected_ = 0;
  std::size_t facilities_seen_ = 0;
  double opening_ = 0.0;
  double gross_connection_ = 0.0;
  double retired_connection_ = 0.0;
  /// Independently re-derived occupancy per facility (parallel to the
  /// first facilities_seen_ facilities).
  std::vector<std::uint64_t> occupancy_;
  /// Recomputed state of each still-active request.
  /// Determinism audit (omflp-lint nondet-iteration): never iterated
  /// unordered — finish() only compares size(), serialize() copies into
  /// a vector and sorts by request id before writing (canonical
  /// checkpoint form). Keep it that way.
  std::unordered_map<RequestId, ActiveRequest> active_costs_;
  std::optional<VerificationError> error_;
};

}  // namespace omflp
