// Dynamic-stream subsystem tests: event-stream validation, the stream
// scenario families, ledger active-interval accounting, deletion
// policies (PD/Fotakis bid rollback vs frozen), offline and incremental
// verifier agreement, trace round-trips through stream IO, bounded-memory
// compaction, and bitwise determinism across thread counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "baseline/per_commodity.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "core/stream_runner.hpp"
#include "cost/cost_models.hpp"
#include "instance/checkpoint_io.hpp"
#include "instance/event_stream.hpp"
#include "instance/stream_io.hpp"
#include "instance/tracelog_io.hpp"
#include "kernel/kernels.hpp"
#include "metric/line_metric.hpp"
#include "obs/trace_sink.hpp"
#include "scenario/stream_registry.hpp"
#include "solution/verifier.hpp"

namespace omflp {
namespace {

/// Restores the kernel parallel threshold on scope exit.
class ThresholdGuard {
 public:
  explicit ThresholdGuard(std::size_t threshold)
      : saved_(kernel::parallel_threshold()) {
    kernel::set_parallel_threshold(threshold);
  }
  ~ThresholdGuard() { kernel::set_parallel_threshold(saved_); }

 private:
  std::size_t saved_;
};

Request make_request(CommodityId universe, PointId location,
                     std::initializer_list<CommodityId> demand) {
  Request r;
  r.location = location;
  r.commodities = CommoditySet(universe, demand);
  return r;
}

/// A small two-commodity line world shared by the handcrafted tests.
struct SmallWorld {
  MetricPtr metric = LineMetric::uniform_grid(8, 7.0);  // points 0..7
  CostModelPtr cost = std::make_shared<PolynomialCostModel>(2, 1.0, 3.0);
};

// ------------------------------------------------------------ validation ---

TEST(EventStream, ValidateAcceptsWellFormedTimelines) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 1, {0}), 3));
  events.push_back(StreamEvent::arrival(make_request(2, 5, {0, 1})));
  events.push_back(StreamEvent::departure(1));
  events.push_back(StreamEvent::arrival(make_request(2, 2, {1})));
  const EventStream stream(w.metric, w.cost, events, "ok");
  EXPECT_NO_THROW(stream.validate());
  EXPECT_EQ(stream.num_events(), 4u);
  EXPECT_EQ(stream.num_arrivals(), 3u);
}

TEST(EventStream, ValidateRejectsMalformedEvents) {
  SmallWorld w;
  {
    // Departure of an arrival that never happened.
    const EventStream stream(
        w.metric, w.cost,
        {StreamEvent::arrival(make_request(2, 0, {0})),
         StreamEvent::departure(1)},
        "bad");
    EXPECT_THROW(stream.validate(), std::invalid_argument);
  }
  {
    // Double departure.
    const EventStream stream(w.metric, w.cost,
                             {StreamEvent::arrival(make_request(2, 0, {0})),
                              StreamEvent::departure(0),
                              StreamEvent::departure(0)},
                             "bad");
    EXPECT_THROW(stream.validate(), std::invalid_argument);
  }
  {
    // Departure after the lease already expired (lease 1 fires before
    // event 2).
    const EventStream stream(
        w.metric, w.cost,
        {StreamEvent::arrival(make_request(2, 0, {0}), /*lease=*/1),
         StreamEvent::arrival(make_request(2, 1, {1})),
         StreamEvent::departure(0)},
        "bad");
    EXPECT_THROW(stream.validate(), std::invalid_argument);
  }
  {
    // Location outside the metric.
    const EventStream stream(
        w.metric, w.cost, {StreamEvent::arrival(make_request(2, 99, {0}))},
        "bad");
    EXPECT_THROW(stream.validate(), std::invalid_argument);
  }
}

TEST(EventStream, HugeLeasesSaturateInsteadOfWrapping) {
  // Regression: the deadline t + lease wrapped around uint64, so a lease
  // of 2^64−1 granted at event 1 "expired" at deadline 0 — before its
  // own arrival — in all three timeline implementations at once (which
  // is why the verifier could not catch it).
  SmallWorld w;
  const std::uint64_t huge = ~std::uint64_t{0};
  const EventStream stream(
      w.metric, w.cost,
      {StreamEvent::arrival(make_request(2, 0, {0})),
       StreamEvent::arrival(make_request(2, 1, {1}), huge),
       StreamEvent::arrival(make_request(2, 2, {0}))},
      "huge-lease");
  EXPECT_NO_THROW(stream.validate());
  EXPECT_EQ(stream.surviving_arrivals(),
            (std::vector<RequestId>{0, 1, 2}));

  AlwaysOpen algorithm;
  StreamRunOptions options;
  options.verify = true;
  const StreamRunResult result = run_stream(algorithm, stream, options);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.lease_expiries, 0u);
  EXPECT_EQ(result.ledger.num_active_requests(), 3u);
  EXPECT_FALSE(verify_stream(stream, result.ledger).has_value());
}

TEST(EventStream, SurvivingSetRespectsLeasesAndDepartures) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0}), 2));  // 0
  events.push_back(StreamEvent::arrival(make_request(2, 1, {1})));     // 1
  events.push_back(StreamEvent::arrival(make_request(2, 2, {0})));     // 2
  events.push_back(StreamEvent::departure(2));
  events.push_back(StreamEvent::arrival(make_request(2, 3, {1}), 50));  // 3
  const EventStream stream(w.metric, w.cost, events, "surv");
  stream.validate();
  // Arrival 0's lease expires before event 2; arrival 2 departs
  // explicitly; arrival 3's lease outlives the stream.
  EXPECT_EQ(stream.surviving_arrivals(),
            (std::vector<RequestId>{1, 3}));
  const Instance surviving = stream.surviving_instance();
  ASSERT_EQ(surviving.num_requests(), 2u);
  EXPECT_EQ(surviving.request(0).location, 1u);
  EXPECT_EQ(surviving.request(1).location, 3u);
}

// ------------------------------------------------------------ accounting ---

TEST(StreamRunner, ActiveIntervalAccountingByHand) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));  // id 0
  events.push_back(StreamEvent::arrival(make_request(2, 7, {0})));  // id 1
  events.push_back(StreamEvent::departure(0));
  const EventStream stream(w.metric, w.cost, events, "hand");
  stream.validate();

  // AlwaysOpen opens at the request location: zero connection cost,
  // opening 3.0 per singleton facility (scale 3, |σ|=1, exponent 1).
  AlwaysOpen algorithm;
  StreamRunOptions options;
  options.verify = true;
  options.compact = false;  // the test inspects retired records below
  const StreamRunResult result = run_stream(algorithm, stream, options);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.arrivals, 2u);
  EXPECT_EQ(result.departures, 1u);
  const SolutionLedger& ledger = result.ledger;
  EXPECT_DOUBLE_EQ(ledger.opening_cost(), 6.0);
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 0.0);
  // Openings are sunk: the departed request removes no opening cost.
  EXPECT_DOUBLE_EQ(ledger.active_cost(), 6.0);
  EXPECT_EQ(ledger.num_active_requests(), 1u);
  EXPECT_EQ(ledger.num_retired_requests(), 1u);
  EXPECT_EQ(ledger.request_record(0).retired_at, 2u);
  EXPECT_TRUE(ledger.request_record(1).active());

  EXPECT_FALSE(verify_stream(stream, ledger).has_value());
}

TEST(StreamRunner, ConnectionCostLeavesActiveTallyOnDeparture) {
  SmallWorld w;
  // NearestOrOpen: first request opens {0} at point 0; the second (same
  // commodity, distance 1 away, opening cost 3 > 1) connects instead.
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));  // id 0
  events.push_back(StreamEvent::arrival(make_request(2, 1, {0})));  // id 1
  events.push_back(StreamEvent::departure(1));
  const EventStream stream(w.metric, w.cost, events, "conn");
  stream.validate();

  NearestOrOpen algorithm;
  StreamRunOptions options;
  options.verify = true;
  options.compact = false;  // verify_stream needs every record resident
  const StreamRunResult result = run_stream(algorithm, stream, options);
  EXPECT_FALSE(result.violation.has_value());
  const SolutionLedger& ledger = result.ledger;
  EXPECT_DOUBLE_EQ(ledger.opening_cost(), 3.0);
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 1.0);   // gross keeps it
  EXPECT_DOUBLE_EQ(ledger.active_connection_cost(), 0.0);  // retired
  EXPECT_DOUBLE_EQ(ledger.active_cost(), 3.0);
  EXPECT_FALSE(verify_stream(stream, ledger).has_value());
}

TEST(StreamVerifier, CatchesActiveIntervalTampering) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));
  events.push_back(StreamEvent::arrival(make_request(2, 1, {0})));
  events.push_back(StreamEvent::departure(0));
  const EventStream stream(w.metric, w.cost, events, "tamper");
  stream.validate();

  // Drive a ledger by hand but retire the *wrong* request: the offline
  // stream verifier must flag the active-interval mismatch.
  SolutionLedger ledger(w.metric, w.cost);
  AlwaysOpen algorithm;
  algorithm.reset(ProblemContext{w.metric, w.cost});
  for (int i = 0; i < 2; ++i) {
    const Request& r = events[static_cast<std::size_t>(i)].request;
    ledger.begin_request(r);
    algorithm.serve(r, ledger);
    ledger.finish_request();
  }
  ledger.retire_request(1, 2);  // the stream departs id 0, not id 1
  const auto violation = verify_stream(stream, ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->what.find("active interval"), std::string::npos);
}

// Offline verification needs dense records. A ledger whose request 0 is
// still live but whose middle request was retired and compacted away
// must be refused, not misread (record 1 would be request 2).
TEST(StreamVerifier, OfflineVerifierRefusesLedgerWithCompactedMiddle) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));  // id 0
  events.push_back(StreamEvent::arrival(make_request(2, 3, {1})));  // id 1
  events.push_back(StreamEvent::arrival(make_request(2, 6, {0})));  // id 2
  events.push_back(StreamEvent::departure(1));
  const EventStream stream(w.metric, w.cost, events, "middle");
  stream.validate();

  NearestOrOpen algorithm;
  StreamRunOptions options;
  options.verify = true;
  const StreamRunResult compacted = run_stream(algorithm, stream, options);
  EXPECT_FALSE(compacted.violation.has_value());
  const SolutionLedger& ledger = compacted.ledger;
  ASSERT_EQ(ledger.num_requests(), 3u);
  ASSERT_EQ(ledger.request_records().size(), 2u);
  EXPECT_TRUE(ledger.request_record(0).active());
  EXPECT_EQ(ledger.request_records()[1].id, 2u);
  EXPECT_FALSE(ledger.is_active(1));
  const auto error = verify_stream(stream, ledger);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->what.find("compacted ledger"), std::string::npos)
      << error->what;

  options.compact = false;
  NearestOrOpen uncompacted_algorithm;
  const StreamRunResult dense =
      run_stream(uncompacted_algorithm, stream, options);
  EXPECT_FALSE(verify_stream(stream, dense.ledger).has_value());
}

TEST(StreamVerifier, RejectsHandTamperedOverCapacityLedger) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));
  EventStream stream(w.metric, w.cost, events, "over-cap");
  stream.set_capacities(
      std::make_shared<const std::vector<std::uint64_t>>(8, 1));
  stream.validate();

  // An uncapacitated ledger happily stacks both active requests onto the
  // same facility; the capacitated stream says one slot per facility at
  // point 0 — the offline verifier must flag the over-subscription.
  SolutionLedger ledger(w.metric, w.cost);
  NearestOrOpen algorithm;
  algorithm.reset(ProblemContext{w.metric, w.cost});
  for (const StreamEvent& event : events) {
    ledger.begin_request(event.request);
    algorithm.serve(event.request, ledger);
    ledger.finish_request();
  }
  ASSERT_EQ(ledger.num_facilities(), 1u);  // second arrival reused it
  const auto violation = verify_stream(stream, ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->what.find("capacity"), std::string::npos)
      << violation->what;
}

// ------------------------------------------------------ deletion policies ---

TEST(PdDeletion, RollbackKeepsBidModesIdenticalAndAuditClean) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/5,
      {{"events", 512}, {"points", 24}, {"commodities", 6}});

  auto run = [&](PdOptions::BidMode mode) {
    PdOmflp pd(PdOptions{.bid_mode = mode, .excluded_from_prediction = {}});
    StreamRunOptions options;
    options.verify = true;
    options.compact = false;
    StreamRunResult result = run_stream(pd, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
    const auto issue = pd.audit_state();
    EXPECT_FALSE(issue.has_value()) << *issue;
    EXPECT_FALSE(verify_stream(stream, result.ledger).has_value());
    return std::tuple<double, double, std::size_t>{
        result.ledger.total_cost(), result.ledger.active_cost(),
        result.ledger.num_facilities()};
  };
  const auto incremental = run(PdOptions::BidMode::kIncremental);
  const auto reference = run(PdOptions::BidMode::kReference);
  EXPECT_EQ(std::get<0>(incremental), std::get<0>(reference));  // bitwise
  EXPECT_EQ(std::get<1>(incremental), std::get<1>(reference));
  EXPECT_EQ(std::get<2>(incremental), std::get<2>(reference));
}

TEST(PdDeletion, RollbackAndFrozenDiverge) {
  // The two policies must be distinguishable: rollback withdraws the
  // deleted requests' investment, frozen keeps bidding on top of it.
  // (Equality would mean depart() is not actually rolling anything
  // back.) A multi-point workload is needed — on a single point every
  // bid clips to zero once a facility opens, leaving nothing to roll
  // back.
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/3,
      {{"events", 512}, {"points", 32}, {"commodities", 6},
       {"churn", 0.5}});
  auto run = [&](PdOptions::DeletionPolicy policy) {
    PdOmflp pd(PdOptions{.deletion_policy = policy,
                         .excluded_from_prediction = {}});
    StreamRunOptions options;
    options.verify = true;
    StreamRunResult result = run_stream(pd, stream, options);
    EXPECT_FALSE(result.violation.has_value());
    return result.ledger.total_cost();
  };
  const double rollback = run(PdOptions::DeletionPolicy::kRollback);
  const double frozen = run(PdOptions::DeletionPolicy::kFrozen);
  EXPECT_NE(rollback, frozen);
}

TEST(PdDeletion, RollbackWithdrawsTotalDual) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0, 1})));
  events.push_back(StreamEvent::arrival(make_request(2, 6, {0})));
  events.push_back(StreamEvent::departure(0));
  events.push_back(StreamEvent::departure(1));
  const EventStream stream(w.metric, w.cost, events, "duals");
  stream.validate();
  PdOmflp pd;
  const StreamRunResult result = run_stream(pd, stream, {});
  // Every archived request departed and was rolled back.
  EXPECT_DOUBLE_EQ(pd.total_dual(), 0.0);
  const auto issue = pd.audit_state();
  EXPECT_FALSE(issue.has_value()) << *issue;
  EXPECT_EQ(result.ledger.num_active_requests(), 0u);
}

// dual_records() and FotakisOfl::duals() are views of each algorithm's
// one copy of the duals: after a rollback churn run, every departed
// request reports exactly zero and the views sum to total_dual().
TEST(PdDeletion, DerivedDualViewsReportRolledBackZeros) {
  const auto departed = [](const StreamRunResult& result, RequestId r) {
    return !result.ledger.request_records()[r].active();
  };
  StreamRunOptions options;
  options.compact = false;  // keep every request record for departed()
  {
    const EventStream stream = default_stream_scenario_registry().make(
        "churn-uniform", /*seed=*/4,
        {{"events", 512}, {"points", 24}, {"commodities", 4}});
    PdOmflp pd;
    const StreamRunResult result = run_stream(pd, stream, options);
    const std::vector<PdDualRecord> records = pd.dual_records();
    ASSERT_EQ(records.size(), result.ledger.num_requests());
    std::size_t num_departed = 0;
    double sum = 0.0;
    for (RequestId r = 0; r < records.size(); ++r) {
      for (const double a : records[r].duals) {
        if (departed(result, r)) {
          EXPECT_EQ(a, 0.0) << "request " << r;
        }
        sum += a;
      }
      num_departed += departed(result, r) ? 1 : 0;
    }
    EXPECT_GT(num_departed, 0u);
    EXPECT_NEAR(sum, pd.total_dual(), 1e-9);
  }
  {
    const EventStream stream = default_stream_scenario_registry().make(
        "churn-uniform", /*seed=*/4,
        {{"events", 512}, {"points", 24}, {"commodities", 1}});
    FotakisOfl fotakis;
    const StreamRunResult result = run_stream(fotakis, stream, options);
    const std::vector<double> duals = fotakis.duals();
    ASSERT_EQ(duals.size(), result.ledger.num_requests());
    std::size_t num_departed = 0;
    double sum = 0.0;
    for (RequestId r = 0; r < duals.size(); ++r) {
      if (departed(result, r)) {
        EXPECT_EQ(duals[r], 0.0) << "request " << r;
        ++num_departed;
      }
      sum += duals[r];
    }
    EXPECT_GT(num_departed, 0u);
    EXPECT_NEAR(sum, fotakis.total_dual(), 1e-9);
  }
}

TEST(BaselineDeletion, AllRosterAlgorithmsSurviveChurnVerified) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/7,
      {{"events", 384}, {"points", 16}, {"commodities", 5}});
  StreamRunOptions options;
  options.verify = true;

  {
    auto fotakis = PerCommodityAdapter::fotakis();  // rollback per commodity
    const StreamRunResult result = run_stream(*fotakis, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
  }
  {
    auto meyerson = PerCommodityAdapter::meyerson(11);  // frozen subs
    const StreamRunResult result = run_stream(*meyerson, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
  }
  {
    RandOmflp rand(RandOptions{.seed = 13});
    const StreamRunResult result = run_stream(rand, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
  }
  {
    RentOrBuy rentbuy;
    const StreamRunResult result = run_stream(rentbuy, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
  }
}

// ---------------------------------------------------------------- trace IO ---

TEST(StreamIo, RoundTripIsByteIdentical) {
  for (const char* scenario :
       {"churn-uniform", "adversarial-churn", "lease-poisson"}) {
    const EventStream stream = default_stream_scenario_registry().make(
        scenario, /*seed=*/9, {});
    const std::string text = event_stream_to_string(stream);
    const EventStream reloaded = event_stream_from_string(text);
    EXPECT_EQ(event_stream_to_string(reloaded), text) << scenario;
    EXPECT_EQ(reloaded.num_events(), stream.num_events());
    EXPECT_EQ(reloaded.num_arrivals(), stream.num_arrivals());
    EXPECT_NO_THROW(reloaded.validate());
  }
}

TEST(StreamIo, CapacityMapRoundTripsAndStaysOptional) {
  const EventStream capped = default_stream_scenario_registry().make(
      "hotspot-grid-capped", /*seed=*/9, {{"events", 64}});
  ASSERT_NE(capped.capacities(), nullptr);
  const std::string text = event_stream_to_string(capped);
  EXPECT_NE(text.find("\ncapacities "), std::string::npos);
  const EventStream reloaded = event_stream_from_string(text);
  ASSERT_NE(reloaded.capacities(), nullptr);
  EXPECT_TRUE(*reloaded.capacities() == *capped.capacities());
  EXPECT_EQ(event_stream_to_string(reloaded), text);

  // The uncapped sibling (same generator, no cap) writes no capacities
  // section at all — existing uncapacitated files stay byte-stable.
  const EventStream uncapped = default_stream_scenario_registry().make(
      "hotspot-grid", /*seed=*/9, {{"events", 64}});
  EXPECT_EQ(uncapped.capacities(), nullptr);
  EXPECT_EQ(event_stream_to_string(uncapped).find("capacities"),
            std::string::npos);
}

TEST(StreamIo, ReplayThroughTraceReproducesCostsExactly) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/4, {{"events", 512}});
  PdOmflp direct;
  const StreamRunResult expected = run_stream(direct, stream, {});

  std::istringstream is(event_stream_to_string(stream));
  StreamTraceReader reader(is);
  EXPECT_EQ(reader.num_events(), stream.num_events());
  EXPECT_EQ(reader.num_arrivals(), stream.num_arrivals());
  PdOmflp replayed;
  StreamRunOptions options;
  options.batch_size = 61;  // odd batches: exercise the batched parser
  options.verify = true;
  const StreamRunResult result = run_stream(replayed, reader, options);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.ledger.total_cost(), expected.ledger.total_cost());
  EXPECT_EQ(result.ledger.active_cost(), expected.ledger.active_cost());
  EXPECT_EQ(result.events, expected.events);
  EXPECT_EQ(result.lease_expiries, expected.lease_expiries);
}

TEST(StreamIo, RejectsMalformedTraces) {
  EXPECT_THROW(event_stream_from_string("OMFLP-STREAM v2\n"),
               std::invalid_argument);
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/2, {{"events", 32}});
  std::string text = event_stream_to_string(stream);
  EXPECT_THROW(
      event_stream_from_string(text.substr(0, text.size() / 2)),
      std::invalid_argument);
}

TEST(StreamIo, EventLinesAreParsedStrictly) {
  // Regression: the first event parser truncated "d 3.5" to a departure
  // of 3, accepted trailing garbage, and silently collapsed duplicate
  // commodity ids — a corrupted trace was misread instead of rejected.
  SmallWorld w;
  const EventStream stream(
      w.metric, w.cost,
      {StreamEvent::arrival(make_request(2, 0, {0}), 4),
       StreamEvent::arrival(make_request(2, 1, {0, 1})),
       StreamEvent::departure(0)},
      "strict");
  const std::string text = event_stream_to_string(stream);
  auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string mutated = text;
    const auto at = mutated.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    mutated.replace(at, from.size(), to);
    EXPECT_THROW(event_stream_from_string(mutated), std::invalid_argument)
        << "accepted: " << to;
  };
  corrupt("d 0", "d 0.5");          // fractional departure target
  corrupt("d 0", "d 0 junk");       // trailing garbage on a departure
  corrupt("a 1 2 0 1", "a 1 2 0 0");     // duplicate commodity id
  corrupt("a 1 2 0 1", "a 1 2 0 1 junk");  // trailing garbage
  corrupt("L 4", "L 4 junk");       // trailing garbage after a lease
  corrupt("L 4", "L -4");           // negative lease
  // Header counts parse strictly too: "events -5" used to wrap through
  // istream's unsigned extraction and die in vector::reserve.
  corrupt("events 3 arrivals 2", "events -5 arrivals 2");
  corrupt("events 3 arrivals 2", "events 3 arrivals -1");
  corrupt("events 3 arrivals 2", "events 3 arrivals 9");  // k > n
  corrupt("commodities 2", "commodities -2");
  // Events beyond the declared count (e.g. a truncated 'events' header)
  // must be rejected, not silently replayed as a prefix workload — in
  // both the materializing and the batched reader.
  EXPECT_THROW(event_stream_from_string(text + "a 0 1 0\n"),
               std::invalid_argument);
  {
    std::istringstream is(text + "a 0 1 0\n");
    StreamTraceReader reader(is);
    std::vector<StreamEvent> out;
    EXPECT_THROW(reader.next_batch(out, 1024), std::invalid_argument);
  }
}

TEST(StreamRunner, RejectsMalformedArrivals) {
  // run_stream's contract: the same conditions validate() rejects throw
  // from the runner too (a programmatically-built source can skip
  // validate(), and nothing malformed may reach the kernels).
  SmallWorld w;
  AlwaysOpen algorithm;
  {
    const EventStream stream(
        w.metric, w.cost, {StreamEvent::arrival(make_request(2, 99, {0}))},
        "bad-location");
    EXPECT_THROW(run_stream(algorithm, stream, {}), std::invalid_argument);
  }
  {
    const EventStream stream(
        w.metric, w.cost, {StreamEvent::arrival(make_request(5, 0, {0}))},
        "bad-universe");
    EXPECT_THROW(run_stream(algorithm, stream, {}), std::invalid_argument);
  }
}

// -------------------------------------------------------------- compaction ---

TEST(StreamRunner, CompactionBoundsResidentRecordsWithoutChangingCosts) {
  const EventStream stream = default_stream_scenario_registry().make(
      "lease-poisson", /*seed=*/6, {{"events", 2048}, {"mean_lease", 24}});

  NearestOrOpen uncompacted_algorithm;
  StreamRunOptions uncompacted_options;
  uncompacted_options.compact = false;
  uncompacted_options.verify = true;
  const StreamRunResult uncompacted =
      run_stream(uncompacted_algorithm, stream, uncompacted_options);
  EXPECT_FALSE(uncompacted.violation.has_value());
  EXPECT_EQ(uncompacted.ledger.request_records().size(),
            uncompacted.ledger.num_requests());
  EXPECT_FALSE(verify_stream(stream, uncompacted.ledger).has_value());

  NearestOrOpen compacted_algorithm;
  StreamRunOptions compacted_options;
  compacted_options.compact = true;
  compacted_options.batch_size = 128;
  compacted_options.verify = true;
  const StreamRunResult compacted =
      run_stream(compacted_algorithm, stream, compacted_options);
  EXPECT_FALSE(compacted.violation.has_value());
  // Compaction really dropped retired records...
  EXPECT_EQ(compacted.ledger.request_records().size(),
            compacted.ledger.num_active_requests());
  EXPECT_LT(compacted.peak_resident_records, stream.num_arrivals());
  // ...without touching any accounting (bitwise).
  EXPECT_EQ(compacted.ledger.total_cost(), uncompacted.ledger.total_cost());
  EXPECT_EQ(compacted.ledger.active_cost(),
            uncompacted.ledger.active_cost());
  EXPECT_EQ(compacted.ledger.num_requests(),
            uncompacted.ledger.num_requests());
  EXPECT_EQ(compacted.ledger.num_active_requests(),
            uncompacted.ledger.num_active_requests());
}

// ------------------------------------------------- live-set compaction ---

struct TracedPdRun {
  StreamRunResult result;
  double total_dual = 0.0;
  std::string tracelog;
  std::size_t resident_slots = 0;  // PD's past requests still held
};

TracedPdRun traced_pd_run(const EventStream& stream, bool compact) {
  PdOmflp pd;
  StreamRunOptions options;
  options.batch_size = 32;  // compaction starts while facilities open
  options.compact = compact;
  options.verify = true;
  std::ostringstream os;
  TraceLogWriter writer(os);
  StreamRunResult result = [&] {
    TraceScope scope(writer);
    return run_stream(pd, stream, options);
  }();
  writer.finish();
  const auto issue = pd.audit_state();
  EXPECT_FALSE(issue.has_value()) << *issue;
  return TracedPdRun{std::move(result), pd.total_dual(), os.str(),
                     pd.dual_records().size()};
}

// Dropping departed PD slots and retired ledger records changes nothing
// but memory: costs, the whole decision trace (contributor ids
// included) and the dual total are bitwise those of an uncompacted run.
TEST(StreamRunner, PdCompactionIsBitwiseNeutral) {
  for (const char* scenario : {"churn-uniform", "lease-poisson"}) {
    SCOPED_TRACE(scenario);
    const EventStream stream = default_stream_scenario_registry().make(
        scenario, /*seed=*/12,
        {{"events", 2048}, {"points", 64}, {"commodities", 6}});
    const TracedPdRun compacted = traced_pd_run(stream, true);
    const TracedPdRun dense = traced_pd_run(stream, false);
    EXPECT_FALSE(compacted.result.violation.has_value());
    EXPECT_FALSE(dense.result.violation.has_value());
    const SolutionLedger& a = compacted.result.ledger;
    const SolutionLedger& b = dense.result.ledger;
    EXPECT_EQ(a.total_cost(), b.total_cost());
    EXPECT_EQ(a.active_cost(), b.active_cost());
    EXPECT_EQ(a.opening_cost(), b.opening_cost());
    EXPECT_EQ(a.num_facilities(), b.num_facilities());
    EXPECT_EQ(compacted.total_dual, dense.total_dual);
    EXPECT_TRUE(compacted.tracelog == dense.tracelog)
        << "tracelogs differ (" << compacted.tracelog.size() << " vs "
        << dense.tracelog.size() << " bytes)";
    // Compaction really happened, on both sides of the session.
    EXPECT_EQ(dense.resident_slots, dense.result.arrivals);
    EXPECT_EQ(compacted.resident_slots, a.num_active_requests());
    EXPECT_EQ(a.request_records().size(), a.num_active_requests());
    EXPECT_LT(compacted.resident_slots, dense.resident_slots);
  }
}

// Soak: ten times the stream length leaves the checkpoint size where it
// was, because PD and the ledger keep only live requests, and resident
// records never exceed the live set plus one batch of arrivals.
TEST(StreamRunner, PdCheckpointSizePlateausWithStreamLength) {
  const std::size_t batch = 256;
  const auto checkpoint_bytes = [&](std::size_t events) {
    const EventStream stream = default_stream_scenario_registry().make(
        "lease-poisson", /*seed=*/21,
        {{"events", static_cast<double>(events)},
         {"points", 24},
         {"commodities", 4},
         {"mean_lease", 512}});
    PdOmflp pd;
    MaterializedEventSource source(stream);
    StreamRunOptions options;
    options.batch_size = batch;
    options.verify = true;
    StreamSession session(pd, source, options);
    while (session.step_batch() != 0) {
    }
    std::ostringstream os;
    CkptWriter writer(os);
    session.checkpoint(writer);
    writer.finish();
    const StreamRunResult result = session.finish();
    EXPECT_FALSE(result.violation.has_value());
    EXPECT_LE(result.peak_resident_records, result.peak_active + batch);
    return static_cast<double>(os.str().size());
  };
  const double short_run = checkpoint_bytes(2048);
  const double long_run = checkpoint_bytes(20480);
  EXPECT_LE(long_run, 1.1 * short_run);
  EXPECT_GE(long_run, 0.9 * short_run);
}

// ------------------------------------------------------------- determinism ---

TEST(StreamRunner, ChurnRunIsBitIdenticalAcrossThreadCounts) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/8,
      {{"events", 512}, {"points", 32}, {"commodities", 6}});

  auto run = [&](std::size_t threshold, const char* threads) {
    ThresholdGuard guard(threshold);
    ::setenv("OMFLP_THREADS", threads, 1);
    PdOmflp pd;
    const StreamRunResult result = run_stream(pd, stream, {});
    ::unsetenv("OMFLP_THREADS");
    return std::pair<double, double>{result.ledger.total_cost(),
                                     result.ledger.active_cost()};
  };
  const auto serial = run(static_cast<std::size_t>(-1), "1");
  const auto parallel = run(0, "4");  // forced parallel split
  EXPECT_EQ(serial.first, parallel.first);    // bitwise, not NEAR
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(StreamRunner, CapacitatedRunIsBitIdenticalAcrossThreadCounts) {
  const EventStream stream = default_stream_scenario_registry().make(
      "hotspot-grid-capped", /*seed=*/6,
      {{"events", 256}, {"capacity", 2}});
  ASSERT_NE(stream.capacities(), nullptr);

  auto run = [&](std::size_t threshold, const char* threads) {
    ThresholdGuard guard(threshold);
    ::setenv("OMFLP_THREADS", threads, 1);
    PdOmflp pd;
    StreamRunOptions options;
    options.verify = true;  // shadow StreamVerifier sees the same caps
    const StreamRunResult result = run_stream(pd, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
    ::unsetenv("OMFLP_THREADS");
    return std::tuple<double, double, std::size_t, std::size_t>{
        result.ledger.total_cost(), result.ledger.active_cost(),
        result.ledger.num_shed_requests(),
        result.ledger.num_spilled_assignments()};
  };
  const auto serial = run(static_cast<std::size_t>(-1), "1");
  const auto parallel = run(0, "4");  // forced parallel split
  EXPECT_EQ(serial, parallel);  // costs AND admission counters, bitwise
  // The cap must actually bind, or this run never exercises admission.
  EXPECT_GT(std::get<2>(serial) + std::get<3>(serial), 0u);
}

TEST(StreamScenarios, GenerationIsDeterministicInSeed) {
  for (const char* scenario :
       {"churn-uniform", "adversarial-churn", "lease-poisson"}) {
    const EventStream a =
        default_stream_scenario_registry().make(scenario, 42, {});
    const EventStream b =
        default_stream_scenario_registry().make(scenario, 42, {});
    EXPECT_EQ(event_stream_to_string(a), event_stream_to_string(b))
        << scenario;
    const EventStream c =
        default_stream_scenario_registry().make(scenario, 43, {});
    EXPECT_NE(event_stream_to_string(a), event_stream_to_string(c))
        << scenario;
  }
}

// -------------------------------------------------------------- edge cases ---

TEST(StreamRunner, RejectsInvalidDepartures) {
  SmallWorld w;
  const EventStream stream(w.metric, w.cost,
                           {StreamEvent::arrival(make_request(2, 0, {0})),
                            StreamEvent::departure(5)},
                           "bad");
  AlwaysOpen algorithm;
  EXPECT_THROW(run_stream(algorithm, stream, {}), std::invalid_argument);
}

TEST(StreamRunner, LedgerRefusesDoubleRetirement) {
  SmallWorld w;
  SolutionLedger ledger(w.metric, w.cost);
  AlwaysOpen algorithm;
  algorithm.reset(ProblemContext{w.metric, w.cost});
  const Request r = make_request(2, 0, {0});
  ledger.begin_request(r);
  algorithm.serve(r, ledger);
  ledger.finish_request();
  ledger.retire_request(0, 1);
  EXPECT_THROW(ledger.retire_request(0, 2), std::invalid_argument);
}

}  // namespace
}  // namespace omflp
