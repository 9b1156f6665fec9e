// The online algorithms' per-arrival serve path: the nearest-facility
// index (core/nearest_facility_index.hpp) against first-principles linear
// scans — ties at equal distance, +inf distances, the uncached oracle,
// restore followed by query, and PD-OMFLP's non-universal larges — plus
// PD-OMFLP's allocation-free steady-state serve().
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>

#include "core/nearest_facility_index.hpp"
#include "core/pd_omflp.hpp"
#include "cost/cost_models.hpp"
#include "instance/checkpoint_io.hpp"
#include "instance/generators.hpp"
#include "metric/line_metric.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "solution/verifier.hpp"
#include "support/rng.hpp"

// ---- counting global allocator ------------------------------------------
// Counts operator new calls made on this thread while an AllocationCount
// scope is open; outside one it only forwards to malloc/free.
namespace {
thread_local bool tl_counting = false;
thread_local std::size_t tl_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (tl_counting) ++tl_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (tl_counting) ++tl_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace omflp {
namespace {

class AllocationCount {
 public:
  AllocationCount() {
    tl_allocations = 0;
    tl_counting = true;
  }
  ~AllocationCount() { tl_counting = false; }
  AllocationCount(const AllocationCount&) = delete;
  AllocationCount& operator=(const AllocationCount&) = delete;
  std::size_t count() const { return tl_allocations; }
};

/// Integer positions on a line (so distinct facility points tie at equal
/// distance) split into two components at `split`: points on different
/// sides are at +inf distance.
class SplitLineMetric final : public MetricSpace {
 public:
  SplitLineMetric(std::vector<int> positions, std::size_t split)
      : positions_(std::move(positions)), split_(split) {}
  std::size_t num_points() const noexcept override {
    return positions_.size();
  }
  double distance(PointId a, PointId b) const override {
    if ((a < split_) != (b < split_)) return kInfiniteDistance;
    return std::abs(positions_[a] - positions_[b]);
  }
  std::string description() const override { return "split-line"; }

 private:
  std::vector<int> positions_;
  std::size_t split_;
};

/// `points` points at integer positions in [0, 6); with `infinite`, the
/// upper half is a second component.
MetricPtr tie_metric(std::size_t points, bool infinite, Rng& rng) {
  std::vector<int> positions;
  for (std::size_t i = 0; i < points; ++i)
    positions.push_back(static_cast<int>(rng.uniform_index(6)));
  return std::make_shared<SplitLineMetric>(std::move(positions),
                                           infinite ? points / 2 : points);
}

/// The linear scan the index replaces, reading distances through row().
NearestFacilityIndex::Nearest scan(const DistanceOracle& dist,
                                   std::span<const NearestFacilityIndex::Entry>
                                       list,
                                   PointId p) {
  NearestFacilityIndex::Nearest best;
  const double* row = dist.row(p);
  for (std::size_t k = 0; k < list.size(); ++k) {
    const double d = row[list[k].point];
    if (d < best.distance)
      best = {d, list[k].id, static_cast<std::uint32_t>(k)};
  }
  return best;
}

void expect_same(const NearestFacilityIndex::Nearest& indexed,
                 const NearestFacilityIndex::Nearest& scanned,
                 std::size_t group, PointId p) {
  EXPECT_EQ(indexed.id, scanned.id) << "group " << group << " point " << p;
  EXPECT_EQ(indexed.position, scanned.position)
      << "group " << group << " point " << p;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(indexed.distance),
            std::bit_cast<std::uint64_t>(scanned.distance))
      << "group " << group << " point " << p;
}

void expect_matches_scan(const NearestFacilityIndex& index,
                         const DistanceOracle& dist, std::size_t group) {
  for (PointId p = 0; p < dist.num_points(); ++p)
    expect_same(index.nearest(group, p),
                scan(dist, index.facilities(group), p), group, p);
}

// ------------------------------------------------ index vs linear scan ---

class NearestIndexDifferential
    : public ::testing::TestWithParam<std::tuple<bool, bool, std::uint64_t>> {
};

TEST_P(NearestIndexDifferential, EveryAnswerMatchesTheLinearScan) {
  const auto [cached, infinite, seed] = GetParam();
  Rng rng(seed);
  const std::size_t points = 20;
  const std::size_t groups = 3;
  const DistanceOracle dist(tie_metric(points, infinite, rng),
                            cached ? 4096 : 0);
  ASSERT_EQ(dist.cached(), cached);
  NearestFacilityIndex index;
  index.reset(groups, &dist);
  FacilityId next_id = 0;
  for (std::size_t step = 0; step < 60; ++step) {
    if (rng.bernoulli(0.6)) {
      // Several facilities per point too: a later duplicate never wins.
      index.add(rng.uniform_index(groups),
                static_cast<PointId>(rng.uniform_index(points)), next_id++);
    }
    // Query one group per step, so tables materialize at different
    // history lengths and are maintained by add() from then on.
    expect_matches_scan(index, dist, rng.uniform_index(groups));
  }
  for (std::size_t g = 0; g < groups; ++g) expect_matches_scan(index, dist, g);
}

INSTANTIATE_TEST_SUITE_P(
    OracleAndMetric, NearestIndexDifferential,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 2, 3)));

TEST(NearestFacilityIndex, RestoredListsRebuildOnFirstQuery) {
  Rng rng(17);
  const DistanceOracle dist(tie_metric(16, /*infinite=*/true, rng));
  NearestFacilityIndex original;
  original.reset(2, &dist);
  for (FacilityId id = 0; id < 12; ++id) {
    original.add(id % 2, static_cast<PointId>(rng.uniform_index(16)), id);
    expect_matches_scan(original, dist, id % 2);
  }
  // What restore_state does: re-add every list into a freshly reset
  // index. No table exists until a group's first query rebuilds it.
  NearestFacilityIndex restored;
  restored.reset(2, &dist);
  PerfCounters c;
  {
    PerfScope scope(c);
    for (std::size_t g = 0; g < 2; ++g)
      for (const NearestFacilityIndex::Entry& f : original.facilities(g))
        restored.add(g, f.point, f.id);
    EXPECT_EQ(c.distance_lookups, 0u);
    const bool answered = restored.nearest(0, 0).id != kInvalidFacility;
    EXPECT_EQ(c.distance_lookups,
              16 * restored.facilities(0).size() + (answered ? 1 : 0));
  }
  for (std::size_t g = 0; g < 2; ++g)
    for (PointId p = 0; p < 16; ++p)
      expect_same(restored.nearest(g, p), original.nearest(g, p), g, p);
  for (FacilityId id = 12; id < 20; ++id) {
    const auto p = static_cast<PointId>(rng.uniform_index(16));
    original.add(0, p, id);
    restored.add(0, p, id);
    expect_matches_scan(restored, dist, 0);
  }
}

TEST(NearestFacilityIndex, CountsOnlyTheReadsItMakes) {
  const DistanceOracle dist(std::make_shared<SplitLineMetric>(
      std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}, 4));
  NearestFacilityIndex index;
  index.reset(2, &dist);
  PerfCounters c;
  {
    PerfScope scope(c);
    EXPECT_EQ(index.nearest(0, 1).id, kInvalidFacility);  // empty group
    index.add(0, 2, 7);  // stale table: appended only
    EXPECT_EQ(c.distance_lookups, 0u);
    EXPECT_EQ(index.nearest(0, 1).id, 7u);  // rebuild 8x1, then one read
    EXPECT_EQ(c.distance_lookups, 9u);
    EXPECT_EQ(c.facilities_probed, 1u);
    // Points 4..7 are unreachable from point 2: no record, nothing read.
    EXPECT_EQ(index.nearest(0, 5).id, kInvalidFacility);
    EXPECT_EQ(c.distance_lookups, 9u);
    EXPECT_EQ(c.facilities_probed, 1u);
    // Maintenance: 8 reads of the new facility, 4 of the points' current
    // nearest (the four reachable ones).
    index.add(0, 6, 8);
    EXPECT_EQ(c.distance_lookups, 21u);
    EXPECT_EQ(index.nearest(0, 5).id, 8u);
    EXPECT_EQ(c.facilities_probed, 2u);
  }
}

// ------------------------------------------- PD-OMFLP index vs scans -----

Instance tie_instance(std::uint64_t seed, bool infinite, CommodityId s,
                      std::size_t requests) {
  Rng rng(seed);
  const std::size_t points = 14;
  MetricPtr metric = tie_metric(points, infinite, rng);
  auto cost = std::make_shared<PolynomialCostModel>(s, 1.0, 2.5);
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < requests; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(points));
    r.commodities = sample_demand_set(
        s, static_cast<CommodityId>(1 + rng.uniform_index(3)), 0.0, rng);
    reqs.push_back(std::move(r));
  }
  return Instance(std::move(metric), std::move(cost), std::move(reqs),
                  "tie-instance");
}

std::string pd_state(const PdOmflp& pd) {
  std::ostringstream os;
  CkptWriter writer(os);
  pd.serialize_state(writer);
  writer.finish();
  return os.str();
}

void restore_pd(PdOmflp& pd, const ProblemContext& context,
                const std::string& state) {
  pd.reset(context);
  std::istringstream is(state);
  CkptReader reader(is);
  pd.restore_state(reader);
  reader.finish();
}

class PdIndexModes
    : public ::testing::TestWithParam<std::tuple<int, bool, std::uint64_t>> {};

TEST_P(PdIndexModes, IndexAgreesWithTheScansThroughChurnAndRestore) {
  const auto [mode, infinite, seed] = GetParam();
  const CommodityId s = 4;
  CommoditySet excluded_one(s);
  excluded_one.add(1);
  const PdOptions options[] = {
      PdOptions{},
      PdOptions{.large_config = PdOptions::LargeConfig::kSeenUnion},
      PdOptions{.excluded_from_prediction = excluded_one},
      PdOptions{.large_config = PdOptions::LargeConfig::kSeenUnion,
                .excluded_from_prediction = excluded_one},
      PdOptions{.bid_mode = PdOptions::BidMode::kReference,
                .large_config = PdOptions::LargeConfig::kSeenUnion},
  };
  const Instance inst = tie_instance(seed * 31 + 5, infinite, s, 48);
  const ProblemContext context{inst.metric_ptr(), inst.cost_ptr()};
  PdOmflp pd{options[mode]};
  pd.reset(context);
  SolutionLedger ledger(inst.metric_ptr(), inst.cost_ptr());

  // A second copy restored from a checkpoint halfway; it must query its
  // stale tables into the same answers and then run identically.
  std::optional<PdOmflp> restored;
  std::optional<SolutionLedger> restored_ledger;
  const auto step = [&](PdOmflp& algo, SolutionLedger& book, std::size_t i) {
    const Request& r = inst.request(i);
    book.begin_request(r);
    algo.serve(r, book);
    book.finish_request();
    if (i >= 4 && i % 3 == 0) {  // churn: the request four back leaves
      const RequestId gone = i - 4;
      if (book.is_active(gone)) {
        book.retire_request(gone, i);
        algo.depart(gone, book.request_record(gone).request, book);
      }
    }
    if (i % 8 == 7) {
      book.compact_retired();
      algo.compact_departed();
    }
  };
  for (std::size_t i = 0; i < inst.num_requests(); ++i) {
    step(pd, ledger, i);
    if (restored) step(*restored, *restored_ledger, i);
    const auto problem = pd.audit_state();
    ASSERT_FALSE(problem.has_value()) << pd.name() << ": " << *problem;
    if (i == inst.num_requests() / 2) {
      restored.emplace(options[mode]);
      restore_pd(*restored, context, pd_state(pd));
      restored_ledger.emplace(ledger);
      const auto restored_problem = restored->audit_state();
      ASSERT_FALSE(restored_problem.has_value()) << *restored_problem;
    }
  }
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(pd_state(*restored), pd_state(pd));
  EXPECT_EQ(restored_ledger->total_cost(), ledger.total_cost());
}

INSTANTIATE_TEST_SUITE_P(
    ModesMetricsSeeds, PdIndexModes,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Bool(),
                       ::testing::Values(1, 2)));

// ------------------------------------------- allocation-free serve() -----

TEST(PdServeAllocations, SteadyStateServeAllocatesNothing) {
  // Warm-up reaches every high-water mark the measured phase can: full
  // demand sets (every commodity's index table, bid row, cost row and
  // per-commodity list touched, k = |S| per round) over a sliding window
  // of 48 live requests; the measured phase keeps the window with random
  // demand sets, so its state stays within the 4x of its high-water mark
  // that compact_departed() lets it keep. A serve() that opens a
  // facility appends to the facility lists (amortized growth of the
  // ledger and the index), so only the calls that open none are held to
  // zero allocations.
  {
    AllocationCount count;
    const std::vector<int> probe(3);
    EXPECT_EQ(count.count(), 1u) << "premise: the counting allocator works";
  }
  const CommodityId s = 6;
  const std::size_t points = 24;
  Rng rng(5);
  std::vector<double> positions;
  for (std::size_t i = 0; i < points; ++i)
    positions.push_back(rng.uniform(0.0, 40.0));
  const auto metric = std::make_shared<LineMetric>(std::move(positions));
  const auto cost = std::make_shared<PolynomialCostModel>(s, 1.0, 3.0);
  const ProblemContext context{metric, cost};

  for (const PdOptions& options :
       {PdOptions{},
        PdOptions{.large_config = PdOptions::LargeConfig::kSeenUnion}}) {
    PdOmflp pd{options};
    pd.reset(context);
    SolutionLedger ledger(metric, cost);
    std::size_t checked = 0;
    std::size_t allocating = 0;
    RequestId next_departure = 0;
    const std::size_t window = 48;
    const std::size_t warm_up = 1200;
    for (std::size_t i = 0; i < warm_up + 2000; ++i) {
      const bool measured = i >= warm_up;
      Request r;
      r.location = static_cast<PointId>(rng.uniform_index(points));
      r.commodities =
          measured ? sample_demand_set(
                         s, static_cast<CommodityId>(1 + rng.uniform_index(s)),
                         0.0, rng)
                   : CommoditySet::full_set(s);
      const RequestId id = ledger.begin_request(r);
      const std::size_t facilities = ledger.num_facilities();
      std::size_t allocations = 0;
      {
        AllocationCount count;
        pd.serve(r, ledger);
        allocations = count.count();
      }
      ledger.finish_request();
      if (measured && ledger.num_facilities() == facilities) {
        ++checked;
        if (allocations != 0) ++allocating;
      }
      for (; next_departure + window <= id; ++next_departure) {
        ledger.retire_request(next_departure, i);
        pd.depart(next_departure,
                  ledger.request_record(next_departure).request, ledger);
      }
      if (i % 16 == 15) {
        ledger.compact_retired();
        pd.compact_departed();
      }
    }
    EXPECT_GE(checked, 1500u) << pd.name() << ": premise — most measured "
                                              "calls open no facility";
    EXPECT_EQ(allocating, 0u)
        << pd.name() << ": serve() calls that allocated, of " << checked;
  }
}

// ------------------------------- allocation-free per-record verification ---

// The stream verifier checks every served arrival with
// check_request_record; a record that passes costs no allocation (the
// failure messages are built only on failure).
TEST(RecordCheckAllocations, PassingRecordsAllocateNothing) {
  const CommodityId s = 6;
  Rng rng(11);
  std::vector<double> positions;
  for (std::size_t i = 0; i < 16; ++i)
    positions.push_back(rng.uniform(0.0, 40.0));
  const auto metric = std::make_shared<LineMetric>(std::move(positions));
  const auto cost = std::make_shared<PolynomialCostModel>(s, 1.0, 3.0);
  PdOmflp pd;
  pd.reset(ProblemContext{metric, cost});
  SolutionLedger ledger(metric, cost);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 200; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(16));
    r.commodities = sample_demand_set(
        s, static_cast<CommodityId>(1 + rng.uniform_index(s)), 0.0, rng);
    ledger.begin_request(r);
    pd.serve(r, ledger);
    ledger.finish_request();
    requests.push_back(std::move(r));
  }
  std::size_t multi_facility = 0;
  for (RequestId id = 0; id < requests.size(); ++id) {
    const RequestRecord& rec = ledger.request_record(id);
    if (rec.connected.size() > 1) ++multi_facility;
    double connection = -1.0;
    std::size_t allocations = 0;
    bool passed = false;
    {
      AllocationCount count;
      passed = !check_request_record(*metric, *cost, ledger, id, requests[id],
                                     rec, 1e-6, connection)
                    .has_value();
      allocations = count.count();
    }
    EXPECT_TRUE(passed) << "request " << id;
    EXPECT_EQ(allocations, 0u) << "request " << id;
    EXPECT_NEAR(connection, rec.connection_cost, 1e-9) << "request " << id;
  }
  EXPECT_GT(multi_facility, 0u) << "premise: some request uses two facilities";
}

// ------------------------------------------- TraceEvent without detail ---

/// Keeps the last event by copy-assignment into one preallocated slot, so
/// the sink itself never allocates.
struct LastEventSink final : TraceSink {
  void on_event(const TraceEvent& event) override { last = event; }
  TraceEvent last;
};

TEST(TraceEventAllocations, ScalarEventsCopyAndEmitWithoutAllocating) {
  TraceEvent scalar;
  scalar.kind = TraceEventKind::kRequestAssign;
  scalar.request = 12;
  scalar.facility = 3;
  scalar.cost = 1.25;
  TraceEvent open;
  open.kind = TraceEventKind::kFacilityOpen;
  open.set_contributors({{1, 2.0}});
  LastEventSink sink;
  TraceScope scope(sink);
  {
    AllocationCount count;
    const TraceEvent copy(scalar);
    TraceEvent assigned;
    assigned = copy;
    assigned.set_contributors({});
    assigned.set_note({});
    for (TraceContributor& c : assigned.contributors()) c.request = 0;
    obs::emit(assigned);
    EXPECT_EQ(count.count(), 0u) << "a detail-free event allocated";
  }
  EXPECT_EQ(sink.last.request, 12u);
  EXPECT_FALSE(sink.last.has_detail());
  {
    // Premise: the counter sees a detail being copied.
    AllocationCount count;
    obs::emit(open);
    EXPECT_GE(count.count(), 2u) << "detail and contributor list";
  }
  ASSERT_EQ(sink.last.contributors().size(), 1u);
  {
    // Overwriting an event that has a detail with one that has none
    // frees it and allocates nothing.
    AllocationCount count;
    obs::emit(scalar);
    EXPECT_EQ(count.count(), 0u);
  }
  EXPECT_FALSE(sink.last.has_detail());
}

}  // namespace
}  // namespace omflp
