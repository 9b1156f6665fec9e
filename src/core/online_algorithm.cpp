#include "core/online_algorithm.hpp"

#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

void OnlineAlgorithm::depart(RequestId id, const Request& request,
                             SolutionLedger& ledger) {
  // Frozen deletion policy: nothing to undo.
  (void)id;
  (void)request;
  (void)ledger;
}

void OnlineAlgorithm::compact_departed() {}

void OnlineAlgorithm::serialize_state(CkptWriter& writer) const {
  // Stateless beyond reset(): nothing to capture.
  (void)writer;
}

void OnlineAlgorithm::restore_state(CkptReader& reader) { (void)reader; }

SolutionLedger run_online(OnlineAlgorithm& algorithm, const Instance& instance,
                          ConnectionChargePolicy policy,
                          OverflowPolicy overflow) {
  SolutionLedger ledger(instance.metric_ptr(), instance.cost_ptr(), policy,
                        instance.capacities(), overflow);
  ProblemContext context{instance.metric_ptr(), instance.cost_ptr()};
  algorithm.reset(context);
  for (const Request& request : instance.requests()) {
    ledger.begin_request(request);
    algorithm.serve(request, ledger);
    ledger.finish_request();
    OMFLP_PERF_COUNT(requests_served);
  }
  return ledger;
}

}  // namespace omflp
