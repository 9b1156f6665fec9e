// Fault-tolerance tests: the OMFLP-CKPT v3 container, per-algorithm
// session checkpoint/restore (crash → restore → drain must be bitwise
// identical to an uninterrupted run, for every roster algorithm), the
// checkpoint store's generation fallback, deterministic fault injection,
// and engine-level crash recovery including tenant migration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/pd_omflp.hpp"
#include "core/stream_runner.hpp"
#include "engine/sharded_engine.hpp"
#include "instance/checkpoint_io.hpp"
#include "instance/tracelog_io.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/trace_sink.hpp"
#include "recover/checkpoint_store.hpp"
#include "recover/fault_plan.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/stream_registry.hpp"
#include "support/atomic_file.hpp"

namespace omflp {
namespace {

// The full roster: every algorithm the registry serves, plus
// "pd-excluded", each of which must survive checkpoint/restore bitwise.
const char* const kRoster[] = {"pd",       "pd-nopred", "pd-seenunion",
                               "rand",     "fotakis",   "meyerson",
                               "greedy",   "rentbuy",   "alwaysopen",
                               "pd-excluded"};

// "pd-excluded" (not a registry entry) is PD with commodities {1, 3} of
// test_stream's four kept out of large facilities: restore must rebuild
// each request's large-side dual sum skipping exactly those.
std::unique_ptr<OnlineAlgorithm> make_roster_algorithm(const std::string& name,
                                                       std::uint64_t seed) {
  if (name == "pd-excluded") {
    CommoditySet excluded(4);
    excluded.add(1);
    excluded.add(3);
    return std::make_unique<PdOmflp>(
        PdOptions{.excluded_from_prediction = excluded});
  }
  return default_algorithm_registry().make(name, derive_algorithm_seed(seed));
}

// A stream with churn, leases and enough events to cross several
// batches: the checkpoint lands mid-run with active requests, pending
// expiries and compacted prefixes all in play.
EventStream test_stream(std::uint64_t seed) {
  return default_stream_scenario_registry().make(
      "churn-uniform", seed,
      {{"events", 600}, {"points", 40}, {"commodities", 4}});
}

StreamRunOptions test_options() {
  StreamRunOptions options;
  options.batch_size = 64;
  options.compact = true;
  options.verify = true;
  return options;
}

std::string algorithm_state(const OnlineAlgorithm& algorithm) {
  std::ostringstream os;
  CkptWriter writer(os);
  algorithm.serialize_state(writer);
  writer.finish();
  return os.str();
}

void expect_results_identical(const StreamRunResult& a,
                              const StreamRunResult& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.lease_expiries, b.lease_expiries);
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.peak_resident_records, b.peak_resident_records);
  EXPECT_FALSE(a.violation.has_value())
      << (a.violation ? a.violation->what : "");
  EXPECT_FALSE(b.violation.has_value());

  EXPECT_EQ(a.ledger.total_cost(), b.ledger.total_cost());
  EXPECT_EQ(a.ledger.opening_cost(), b.ledger.opening_cost());
  EXPECT_EQ(a.ledger.connection_cost(), b.ledger.connection_cost());
  EXPECT_EQ(a.ledger.active_cost(), b.ledger.active_cost());
  EXPECT_EQ(a.ledger.num_requests(), b.ledger.num_requests());
  EXPECT_EQ(a.ledger.num_active_requests(), b.ledger.num_active_requests());
  ASSERT_EQ(a.ledger.num_facilities(), b.ledger.num_facilities());
  for (std::size_t f = 0; f < a.ledger.num_facilities(); ++f) {
    const OpenFacilityRecord& fa = a.ledger.facilities()[f];
    const OpenFacilityRecord& fb = b.ledger.facilities()[f];
    EXPECT_EQ(fa.location, fb.location);
    EXPECT_EQ(fa.open_cost, fb.open_cost);
    EXPECT_EQ(fa.opened_during, fb.opened_during);
    EXPECT_TRUE(fa.config == fb.config);
  }
  ASSERT_EQ(a.ledger.request_records().size(),
            b.ledger.request_records().size());
  for (std::size_t r = 0; r < a.ledger.request_records().size(); ++r) {
    const RequestRecord& ra = a.ledger.request_records()[r];
    const RequestRecord& rb = b.ledger.request_records()[r];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.connection_cost, rb.connection_cost);
    EXPECT_EQ(ra.retired_at, rb.retired_at);
    EXPECT_EQ(ra.connected, rb.connected);
  }
}

// ------------------------------------------------------- format basics ---

TEST(CheckpointIo, RoundTripsEveryTokenType) {
  std::ostringstream os;
  {
    CkptWriter w(os);
    w.line("mix")
        .u(0)
        .u(~std::uint64_t{0})
        .d(0.0)
        .d(-0.0)
        .d(1.0 / 3.0)
        .d(std::numeric_limits<double>::infinity())
        .b(true)
        .tok("a-token");
    w.line("raw").bytes(std::string("\x00\xff hi\n", 6));
    CommoditySet s(70);
    s.add(0);
    s.add(69);
    w.line("set").set(s);
    w.finish();
  }
  std::istringstream is(os.str());
  CkptReader r(is);
  r.expect("mix");
  EXPECT_EQ(r.u(), 0u);
  EXPECT_EQ(r.u(), ~std::uint64_t{0});
  EXPECT_EQ(r.d(), 0.0);
  const double neg_zero = r.d();
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.d(), 1.0 / 3.0);
  EXPECT_EQ(r.d(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.tok(), "a-token");
  r.expect("raw");
  EXPECT_EQ(r.bytes(), std::string("\x00\xff hi\n", 6));
  r.expect("set");
  const CommoditySet back = r.set();
  EXPECT_EQ(back.universe_size(), 70u);
  EXPECT_TRUE(back.contains(0));
  EXPECT_TRUE(back.contains(69));
  EXPECT_EQ(back.count(), 2u);
  r.finish();
}

TEST(CheckpointIo, RejectsTamperingTruncationAndBadHeader) {
  std::ostringstream os;
  {
    CkptWriter w(os);
    w.line("payload").u(42).d(3.25);
    w.finish();
  }
  const std::string good = os.str();
  {  // pristine file validates
    EXPECT_TRUE(checkpoint_payload_valid(good));
  }
  {  // bit flip in the payload
    std::string bad = good;
    bad[bad.find("42")] = '9';
    EXPECT_FALSE(checkpoint_payload_valid(bad));
    std::istringstream is2(bad);
    CkptReader r(is2);
    r.expect("payload");
    (void)r.u();
    (void)r.d();
    EXPECT_THROW(r.finish(), std::invalid_argument);
  }
  {  // truncation: drop the checksum line (a torn write)
    const std::string torn = good.substr(0, good.find("checksum"));
    EXPECT_FALSE(checkpoint_payload_valid(torn));
  }
  {  // trailing content after the checksum
    EXPECT_FALSE(checkpoint_payload_valid(good + "extra\n"));
  }
  {  // wrong version header
    std::string bad = good;
    bad.replace(0, 12, "OMFLP-CKPT 4");
    EXPECT_FALSE(checkpoint_payload_valid(bad));
    std::istringstream is2(bad);
    EXPECT_THROW(CkptReader r(is2), std::invalid_argument);
  }
}

TEST(CheckpointIo, RetiredV1HeaderIsRejectedByName) {
  std::ostringstream os;
  {
    CkptWriter w(os);
    w.line("payload").u(42);
    w.finish();
  }
  std::string v1 = os.str();
  ASSERT_EQ(v1.rfind("OMFLP-CKPT 3\n", 0), 0u);
  v1.replace(0, 12, "OMFLP-CKPT 1");
  EXPECT_FALSE(checkpoint_payload_valid(v1));
  std::istringstream is2(v1);
  try {
    CkptReader r(is2);
    ADD_FAILURE() << "a v1 header was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("OMFLP-CKPT v1"),
              std::string::npos)
        << error.what();
  }
}

TEST(CheckpointIo, RetiredV2HeaderIsRejectedByName) {
  std::ostringstream os;
  {
    CkptWriter w(os);
    w.line("payload").u(42);
    w.finish();
  }
  std::string v2 = os.str();
  ASSERT_EQ(v2.rfind("OMFLP-CKPT 3\n", 0), 0u);
  v2.replace(0, 12, "OMFLP-CKPT 2");
  EXPECT_FALSE(checkpoint_payload_valid(v2));
  std::istringstream is2(v2);
  try {
    CkptReader r(is2);
    ADD_FAILURE() << "a v2 header was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("OMFLP-CKPT v2"),
              std::string::npos)
        << error.what();
  }
}

TEST(CheckpointIo, StrictReaderErrors) {
  std::ostringstream os;
  {
    CkptWriter w(os);
    w.line("key").u(7);
    w.finish();
  }
  {  // wrong key
    std::istringstream is(os.str());
    CkptReader r(is);
    EXPECT_THROW(r.expect("other"), std::invalid_argument);
  }
  {  // trailing token on the line
    std::istringstream is(os.str());
    CkptReader r(is);
    r.expect("key");
    EXPECT_THROW(r.finish(), std::invalid_argument);
  }
  {  // token type mismatch
    std::istringstream is(os.str());
    CkptReader r(is);
    r.expect("key");
    EXPECT_THROW((void)r.d(), std::invalid_argument);
  }
}

TEST(CheckpointIo, ChecksumKeyIsReserved) {
  // A data line keyed "checksum" would end checkpoint_payload_valid()'s
  // scan early and reject an intact file, so the writer refuses it.
  std::ostringstream os;
  CkptWriter writer(os);
  writer.line("key").u(7);
  EXPECT_THROW(writer.line("checksum"), std::invalid_argument);
  EXPECT_THROW(writer.line("checksum").u(1), std::invalid_argument);
  // The refused key leaves the open line intact: the file still seals
  // and validates.
  writer.line("checksums").u(2);
  writer.finish();
  EXPECT_TRUE(checkpoint_payload_valid(os.str()));
  std::istringstream is(os.str());
  CkptReader reader(is);
  reader.expect("key");
  EXPECT_EQ(reader.u(), 7u);
  reader.expect("checksums");
  EXPECT_EQ(reader.u(), 2u);
  reader.finish();
}

// ------------------------------------------------- session round trips ---

// Crash → restore → drain equals an uninterrupted run, bitwise, for
// every roster algorithm. The "crash" is simulated by checkpointing
// mid-run, destroying the session, and restoring into fresh objects.
TEST(SessionRecovery, CrashRestoreDrainIsBitwiseIdenticalForRoster) {
  const std::uint64_t seed = 20260808;
  for (const char* algo : kRoster) {
    SCOPED_TRACE(algo);
    const EventStream stream = test_stream(seed);
    const StreamRunOptions options = test_options();

    // Uninterrupted reference.
    auto ref_algorithm = make_roster_algorithm(algo, seed);
    MaterializedEventSource ref_source(stream);
    StreamSession ref_session(*ref_algorithm, ref_source, options);
    while (ref_session.step_batch() != 0) {
    }
    StreamRunResult reference = ref_session.finish();

    // Interrupted run: advance a few batches, snapshot, drop everything.
    std::string snapshot;
    {
      auto algorithm = make_roster_algorithm(algo, seed);
      MaterializedEventSource source(stream);
      StreamSession session(*algorithm, source, options);
      for (int i = 0; i < 3; ++i) (void)session.step_batch();
      std::ostringstream os;
      CkptWriter writer(os);
      session.checkpoint(writer);
      writer.finish();
      snapshot = os.str();
    }

    // Restore into fresh objects and drain.
    auto algorithm = make_roster_algorithm(algo, seed);
    MaterializedEventSource source(stream);
    std::istringstream is(snapshot);
    CkptReader reader(is);
    StreamSession session(*algorithm, source, options, reader);
    reader.finish();
    while (session.step_batch() != 0) {
    }
    StreamRunResult restored = session.finish();

    expect_results_identical(restored, reference, "restored vs reference");
    // The drained algorithm state, bid rows included, is bitwise the
    // reference's too: a restore that rebuilt derived state wrongly (say,
    // a large-side dual sum) can leave every cost equal and still skew
    // later bids.
    EXPECT_TRUE(algorithm_state(*algorithm) == algorithm_state(*ref_algorithm))
        << "drained algorithm state differs";
  }
}

// A v3 snapshot taken mid-stream, after compaction has dropped departed
// PD slots and retired ledger records, restores into a session whose
// remaining decision trace is byte-identical to the uninterrupted run's.
TEST(SessionRecovery, CompactedPdRestoreContinuesTracelogBitwise) {
  const EventStream stream = default_stream_scenario_registry().make(
      "lease-poisson", /*seed=*/5,
      {{"events", 1500}, {"points", 24}, {"commodities", 4},
       {"mean_lease", 48}});
  const StreamRunOptions options = test_options();
  const auto drain_traced = [](StreamSession& session) {
    std::ostringstream os;
    TraceLogWriter writer(os);
    {
      TraceScope scope(writer);
      while (session.step_batch() != 0) {
      }
    }
    writer.finish();
    return os.str();
  };

  PdOmflp reference_pd;
  MaterializedEventSource reference_source(stream);
  StreamSession reference_session(reference_pd, reference_source, options);
  for (int i = 0; i < 6; ++i) (void)reference_session.step_batch();
  std::ostringstream snapshot;
  {
    CkptWriter writer(snapshot);
    reference_session.checkpoint(writer);
    writer.finish();
  }
  const SolutionLedger& mid = reference_session.ledger();
  ASSERT_LT(reference_pd.dual_records().size(), mid.num_requests())
      << "no departed PD slot was compacted before the snapshot";
  ASSERT_LT(mid.request_records().size(), mid.num_requests());
  const std::string reference_tail = drain_traced(reference_session);
  const StreamRunResult reference = reference_session.finish();

  PdOmflp pd;
  MaterializedEventSource source(stream);
  std::istringstream is(snapshot.str());
  CkptReader reader(is);
  StreamSession session(pd, source, options, reader);
  reader.finish();
  const std::string tail = drain_traced(session);
  const StreamRunResult restored = session.finish();

  EXPECT_GT(tail.size(), 1000u);
  EXPECT_TRUE(tail == reference_tail) << "post-restore tracelog differs";
  expect_results_identical(restored, reference, "restored vs reference");
  EXPECT_EQ(pd.total_dual(), reference_pd.total_dual());
  EXPECT_TRUE(algorithm_state(pd) == algorithm_state(reference_pd));
}

// serialize → restore → serialize is byte-identical (the canonical-form
// contract the checkpoint store's bitwise cross-checks build on).
TEST(SessionRecovery, CheckpointOfRestoredSessionIsByteIdentical) {
  const std::uint64_t seed = 99;
  for (const char* algo : kRoster) {
    SCOPED_TRACE(algo);
    const EventStream stream = test_stream(seed);
    const StreamRunOptions options = test_options();

    auto algorithm = make_roster_algorithm(algo, seed);
    MaterializedEventSource source(stream);
    StreamSession session(*algorithm, source, options);
    for (int i = 0; i < 4; ++i) (void)session.step_batch();
    std::ostringstream os;
    CkptWriter writer(os);
    session.checkpoint(writer);
    writer.finish();
    const std::string first = os.str();

    auto algorithm2 = make_roster_algorithm(algo, seed);
    MaterializedEventSource source2(stream);
    std::istringstream is(first);
    CkptReader reader(is);
    StreamSession restored(*algorithm2, source2, options, reader);
    reader.finish();
    std::ostringstream os2;
    CkptWriter writer2(os2);
    restored.checkpoint(writer2);
    writer2.finish();
    // run_ns is wall time; it is serialized verbatim, so the bytes still
    // match — the restored session has not stepped since restore.
    EXPECT_EQ(os2.str(), first);
  }
}

// A snapshot taken at one clock restores correctly even under the
// non-default charge policy and with verification off.
TEST(SessionRecovery, PolicyAndVerifyGuardsAreEnforced) {
  const std::uint64_t seed = 3;
  const EventStream stream = test_stream(seed);
  StreamRunOptions options = test_options();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();

  auto algorithm = algorithms.make("greedy", derive_algorithm_seed(seed));
  MaterializedEventSource source(stream);
  StreamSession session(*algorithm, source, options);
  (void)session.step_batch();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();

  {  // verify flag mismatch
    StreamRunOptions other = options;
    other.verify = false;
    auto a = algorithms.make("greedy", derive_algorithm_seed(seed));
    MaterializedEventSource s(stream);
    std::istringstream is(os.str());
    CkptReader reader(is);
    EXPECT_THROW(StreamSession(*a, s, other, reader),
                 std::invalid_argument);
  }
  {  // different algorithm
    auto a = algorithms.make("rentbuy", derive_algorithm_seed(seed));
    MaterializedEventSource s(stream);
    std::istringstream is(os.str());
    CkptReader reader(is);
    EXPECT_THROW(StreamSession(*a, s, options, reader),
                 std::invalid_argument);
  }
}

// A capacitated session (facility occupancy, shed/spill counters,
// rejected lanes) restores bitwise: occupancy is derived state, rebuilt
// from the resident active records, so the drained run must match an
// uninterrupted one exactly — and the overflow policy is guarded like
// the charge policy and verify flag.
TEST(SessionRecovery, CapacitatedRestoreIsBitwiseAndOverflowIsGuarded) {
  const std::uint64_t seed = 12;
  const EventStream stream = default_stream_scenario_registry().make(
      "hotspot-grid-capped", seed, {{"events", 256}, {"capacity", 2}});
  ASSERT_NE(stream.capacities(), nullptr);
  const AlgorithmRegistry& algorithms = default_algorithm_registry();

  for (const OverflowPolicy overflow :
       {OverflowPolicy::kReassign, OverflowPolicy::kReject}) {
    SCOPED_TRACE(overflow_policy_tag(overflow));
    StreamRunOptions options = test_options();
    options.overflow = overflow;

    auto ref_algorithm = algorithms.make("pd", derive_algorithm_seed(seed));
    MaterializedEventSource ref_source(stream);
    StreamSession ref_session(*ref_algorithm, ref_source, options);
    while (ref_session.step_batch() != 0) {
    }
    StreamRunResult reference = ref_session.finish();

    std::string snapshot;
    {
      auto algorithm = algorithms.make("pd", derive_algorithm_seed(seed));
      MaterializedEventSource source(stream);
      StreamSession session(*algorithm, source, options);
      for (int i = 0; i < 2; ++i) (void)session.step_batch();
      std::ostringstream os;
      CkptWriter writer(os);
      session.checkpoint(writer);
      writer.finish();
      snapshot = os.str();
    }

    auto algorithm = algorithms.make("pd", derive_algorithm_seed(seed));
    MaterializedEventSource source(stream);
    std::istringstream is(snapshot);
    CkptReader reader(is);
    StreamSession session(*algorithm, source, options, reader);
    reader.finish();
    while (session.step_batch() != 0) {
    }
    StreamRunResult restored = session.finish();

    expect_results_identical(restored, reference, "capacitated restore");
    EXPECT_EQ(restored.ledger.num_shed_requests(),
              reference.ledger.num_shed_requests());
    EXPECT_EQ(restored.ledger.num_spilled_assignments(),
              reference.ledger.num_spilled_assignments());
    EXPECT_EQ(restored.ledger.num_rejected_commodities(),
              reference.ledger.num_rejected_commodities());

    {  // overflow policy mismatch is refused, like the other guards
      StreamRunOptions other = options;
      other.overflow = overflow == OverflowPolicy::kReassign
                           ? OverflowPolicy::kReject
                           : OverflowPolicy::kReassign;
      auto a = algorithms.make("pd", derive_algorithm_seed(seed));
      MaterializedEventSource s(stream);
      std::istringstream guard_is(snapshot);
      CkptReader guard_reader(guard_is);
      EXPECT_THROW(StreamSession(*a, s, other, guard_reader),
                   std::invalid_argument);
    }
  }
}

// ------------------------------------------------- checkpoint store ---

/// Fresh scratch directory under the system temp dir, removed on
/// destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("omflp-recover-" + tag + "-" +
              std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::string tiny_payload(std::uint64_t value) {
  std::ostringstream os;
  CkptWriter writer(os);
  writer.line("value").u(value);
  writer.finish();
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(CheckpointStore, FallsBackPastCorruptTornAndUncommittedGenerations) {
  ScratchDir dir("store");
  CheckpointStore store(dir.str());
  EXPECT_FALSE(store.latest_valid().has_value());

  CheckpointManifest g1;
  g1.generation = 1;
  g1.round = 1;
  g1.trace_seq = 10;
  g1.tenants = {"a", "b"};
  store.publish(g1, {tiny_payload(1), tiny_payload(2)});
  CheckpointManifest g2 = g1;
  g2.generation = 2;
  g2.round = 2;
  g2.trace_seq = 20;
  store.publish(g2, {tiny_payload(3), tiny_payload(4)});

  auto latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 2u);
  EXPECT_EQ(latest->round, 2u);
  EXPECT_EQ(latest->trace_seq, 20u);
  EXPECT_EQ(latest->tenants, (std::vector<std::string>{"a", "b"}));

  // Tenant files without a manifest are not a generation: the manifest
  // is the commit point.
  spill(store.tenant_path(0, 3), tiny_payload(5));
  spill(store.tenant_path(1, 3), tiny_payload(6));
  latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 2u);

  // A flipped byte in one tenant file invalidates the whole generation.
  std::string corrupt = slurp(store.tenant_path(1, 2));
  corrupt[corrupt.size() / 2] ^= 0x01;
  spill(store.tenant_path(1, 2), corrupt);
  latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 1u) << "must fall back past the corrupt set";

  // A torn (truncated) file in the older generation too: nothing valid.
  const std::string torn = slurp(store.tenant_path(0, 1));
  spill(store.tenant_path(0, 1), torn.substr(0, torn.size() / 2));
  EXPECT_FALSE(store.latest_valid().has_value());
}

TEST(CheckpointStore, PrunesToTwoGenerations) {
  ScratchDir dir("prune");
  CheckpointStore store(dir.str());
  for (std::uint64_t g = 1; g <= 5; ++g) {
    CheckpointManifest manifest;
    manifest.generation = g;
    manifest.round = g;
    manifest.tenants = {"only"};
    store.publish(manifest, {tiny_payload(g)});
  }
  EXPECT_EQ(store.list_generations(),
            (std::vector<std::uint64_t>{4, 5}));
  EXPECT_FALSE(std::filesystem::exists(store.tenant_path(0, 3)));
  auto latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 5u);
}

// ----------------------------------------------------- fault plan ---

TEST(FaultPlanTest, ScheduleIsDeterministicAndSpecIsValidated) {
  const FaultPlan a = FaultPlan::parse("crashes=3,seed=9,gap=8,torn=1");
  const FaultPlan b = FaultPlan::parse("crashes=3,seed=9,gap=8,torn=1");
  EXPECT_EQ(a.crash_rounds(), b.crash_rounds());
  EXPECT_EQ(a.crash_rounds().size(), 3u);
  EXPECT_TRUE(a.torn());
  EXPECT_FALSE(a.bitflip());
  // Gaps are draws from [1, gap]: strictly increasing rounds.
  for (std::size_t i = 1; i < a.crash_rounds().size(); ++i) {
    EXPECT_GT(a.crash_rounds()[i], a.crash_rounds()[i - 1]);
    EXPECT_LE(a.crash_rounds()[i] - a.crash_rounds()[i - 1], 8u);
  }
  const FaultPlan other = FaultPlan::parse("crashes=3,seed=10,gap=8");
  EXPECT_NE(a.crash_rounds(), other.crash_rounds());

  FaultPlan consume = FaultPlan::parse("crashes=1,seed=2,gap=4");
  const std::uint64_t when = consume.crash_rounds()[0];
  EXPECT_FALSE(consume.should_crash(when - 1));
  EXPECT_TRUE(consume.should_crash(when));
  EXPECT_FALSE(consume.should_crash(when)) << "each crash fires once";
  EXPECT_EQ(consume.crashes_remaining(), 0u);

  EXPECT_THROW(FaultPlan::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crashes"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("gap=0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crashes=x"), std::invalid_argument);
}

// ------------------------------------------------- engine recovery ---

std::vector<TenantSpec> engine_tenants(const std::string& algorithm) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "mixed", 4, 7, 0.25);
  for (TenantSpec& spec : specs) spec.algorithm = algorithm;
  return specs;
}

void expect_engine_results_identical(const EngineResult& a,
                                     const EngineResult& b,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].name, b.tenants[i].name);
    expect_results_identical(a.tenants[i].run, b.tenants[i].run,
                             label + "/" + a.tenants[i].name);
  }
  EXPECT_EQ(a.aggregate_gross_cost, b.aggregate_gross_cost);
  EXPECT_EQ(a.aggregate_active_cost, b.aggregate_active_cost);
  EXPECT_EQ(a.total_events, b.total_events);
}

/// Drive an engine through every injected crash to completion, exactly
/// like the CLI restart loop: tear down, rebuild, restore.
EngineResult run_with_restarts(const std::vector<TenantSpec>& specs,
                               const EngineOptions& options,
                               std::uint64_t* restarts_out = nullptr) {
  std::uint64_t restarts = 0;
  for (;;) {
    try {
      const ShardedEngine engine(specs, options);
      EngineResult result = engine.run();
      if (restarts_out != nullptr) *restarts_out = restarts;
      return result;
    } catch (const EngineCrash&) {
      ++restarts;
    }
  }
}

TEST(EngineRecovery, CrashCorruptRestoreIsBitwiseIdenticalAcrossShards) {
  const std::vector<TenantSpec> specs = engine_tenants("pd");

  EngineOptions plain;
  plain.batch_size = 256;
  plain.shards = 1;
  plain.threads = 1;
  const EngineResult reference = ShardedEngine(specs, plain).run();

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ScratchDir dir("engine-s" + std::to_string(shards));
    EngineOptions faulty = plain;
    faulty.shards = shards;
    faulty.threads = shards;
    faulty.checkpoint_dir = dir.str();
    faulty.checkpoint_every = 2;
    // Torn + bit-flip corruption on every crash: recovery must reject
    // the newest generation and replay from the previous one.
    FaultPlan plan = FaultPlan::parse("crashes=2,seed=5,gap=4,torn=1,bitflip=1");
    faulty.fault_plan = &plan;

    std::uint64_t restarts = 0;
    const EngineResult recovered =
        run_with_restarts(specs, faulty, &restarts);
    EXPECT_EQ(restarts, 2u);
    EXPECT_EQ(recovered.shards, shards);
    expect_engine_results_identical(
        recovered, reference, "shards=" + std::to_string(shards));
    EXPECT_FALSE(recovered.first_violation() != nullptr);
  }
}

TEST(EngineRecovery, MigrationRestoreUnderNewPlacementIsBitwiseIdentical) {
  const std::vector<TenantSpec> specs = engine_tenants("rand");

  EngineOptions plain;
  plain.batch_size = 256;
  plain.shards = 2;
  plain.threads = 2;
  const EngineResult reference = ShardedEngine(specs, plain).run();

  // Phase 1: serve on 2 shards with periodic checkpoints, crash mid-run.
  ScratchDir dir("migrate");
  EngineOptions before = plain;
  before.checkpoint_dir = dir.str();
  before.checkpoint_every = 2;
  FaultPlan plan = FaultPlan::parse("crashes=1,seed=3,gap=3");
  before.fault_plan = &plan;
  EXPECT_THROW(ShardedEngine(specs, before).run(), EngineCrash);

  // Phase 2: "migrate" every tenant — restore the same checkpoint set on
  // 4 shards under a reversed placement and drain. Per-tenant results
  // must be bitwise identical to the never-crashed, never-migrated run.
  EngineOptions after = plain;
  after.checkpoint_dir = dir.str();
  after.checkpoint_every = 2;
  after.shards = 4;
  after.threads = 4;
  after.placement = {3, 2, 1, 0};
  const EngineResult migrated = ShardedEngine(specs, after).run();
  EXPECT_GT(migrated.restored_from_round, 0u);
  ASSERT_EQ(migrated.tenants.size(), 4u);
  EXPECT_EQ(migrated.tenants[0].shard, 3u);
  EXPECT_EQ(migrated.tenants[3].shard, 0u);
  expect_engine_results_identical(migrated, reference, "migrated");
}

/// A checkpoint file minus its wall-time `session-stats` line and the
/// checksum line that covers it.
std::string without_wall_time_lines(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("session-stats ", 0) == 0 ||
        line.rfind("checksum ", 0) == 0)
      continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::map<std::string, std::string> checkpoint_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files[entry.path().filename().string()] = slurp(entry.path().string());
  return files;
}

TEST(EngineRecovery, CheckpointFilesIndependentOfThreadCount) {
  // Capacity 6 with reject on lease-heavy traffic: shed requests, pending
  // expiries and rollbacks all land in the snapshots.
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "lease-heavy", 4, 3, 0.25);
  for (TenantSpec& spec : specs) spec.algorithm = "pd";

  EngineOptions base;
  base.batch_size = 128;
  base.capacity = 6;
  base.overflow = OverflowPolicy::kReject;
  base.checkpoint_every = 2;

  std::map<std::string, std::string> files[2];
  EngineResult results[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    ScratchDir dir("threads" + std::to_string(thread_counts[k]));
    EngineOptions options = base;
    options.shards = thread_counts[k];
    options.threads = thread_counts[k];
    options.checkpoint_dir = dir.str();
    results[k] = ShardedEngine(specs, options).run();
    EXPECT_GE(results[k].checkpoints_published, 2u);
    files[k] = checkpoint_files(dir.str());

    // Every tenant file sits in its own slot: a fresh engine restoring
    // the final generation reproduces the uninterrupted results.
    const EngineResult restored = ShardedEngine(specs, options).run();
    EXPECT_GT(restored.restored_from_round, 0u);
    expect_engine_results_identical(
        restored, results[k], "restore threads=" +
                                  std::to_string(thread_counts[k]));
  }
  expect_engine_results_identical(results[0], results[1], "threads 1 vs 4");
  std::uint64_t shed = 0;
  for (const TenantResult& tenant : results[1].tenants)
    shed += tenant.run.ledger.num_shed_requests();
  EXPECT_GT(shed, 0u) << "capacity 6 must shed on lease-heavy traffic";

  ASSERT_EQ(files[0].size(), files[1].size());
  std::size_t tenant_files = 0;
  for (const auto& [name, text] : files[0]) {
    SCOPED_TRACE(name);
    ASSERT_EQ(files[1].count(name), 1u);
    if (name.rfind("MANIFEST", 0) == 0) {
      EXPECT_EQ(text, files[1].at(name));
    } else {
      ASSERT_EQ(name.rfind("t", 0), 0u);
      ++tenant_files;
      EXPECT_EQ(without_wall_time_lines(text),
                without_wall_time_lines(files[1].at(name)));
    }
  }
  EXPECT_EQ(tenant_files, 2 * specs.size()) << "two generations kept";
}

// The bytes-per-live-request gauge: EngineResult::checkpoint_bytes is
// the newest generation's tenant files (published, or restored when the
// run only restores), and every sampler row divides its shard's share
// by the shard's active requests.
TEST(EngineRecovery, CheckpointBytesGaugeTracksNewestGeneration) {
  const std::vector<TenantSpec> specs = engine_tenants("pd");
  ScratchDir dir("gauge");
  std::ostringstream csv;
  MetricsSampler sampler(csv, MetricsSampler::Format::kCsv);
  EngineOptions options;
  options.batch_size = 256;
  options.shards = 2;
  options.checkpoint_dir = dir.str();
  options.checkpoint_every = 1;
  options.sampler = &sampler;
  const EngineResult published = ShardedEngine(specs, options).run();

  CheckpointStore store(dir.str());
  const auto manifest = store.latest_valid();
  ASSERT_TRUE(manifest.has_value());
  std::uint64_t newest = 0;
  for (std::size_t i = 0; i < specs.size(); ++i)
    newest += std::filesystem::file_size(
        store.tenant_path(i, manifest->generation));
  EXPECT_EQ(published.checkpoint_bytes, newest);

  std::istringstream rows(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(rows, line));
  ASSERT_EQ(line.substr(line.rfind(',') + 1), "bytes_per_live_request");
  std::size_t positive = 0;
  while (std::getline(rows, line))
    if (std::stod(line.substr(line.rfind(',') + 1)) > 0.0) ++positive;
  EXPECT_GT(positive, 0u);

  EngineOptions restore_only = options;
  restore_only.checkpoint_every = 0;
  restore_only.sampler = nullptr;
  const EngineResult restored = ShardedEngine(specs, restore_only).run();
  EXPECT_EQ(restored.checkpoint_bytes, newest);
}

TEST(EngineRecovery, RestoreGuardsRosterAndPlacement) {
  const std::vector<TenantSpec> specs = engine_tenants("greedy");
  ScratchDir dir("guards");

  EngineOptions options;
  options.batch_size = 256;
  options.shards = 1;
  options.threads = 1;
  options.checkpoint_dir = dir.str();
  options.checkpoint_every = 2;
  FaultPlan plan = FaultPlan::parse("crashes=1,seed=4,gap=3");
  options.fault_plan = &plan;
  EXPECT_THROW(ShardedEngine(specs, options).run(), EngineCrash);

  // A different tenant roster must not restore from this checkpoint set.
  std::vector<TenantSpec> renamed = specs;
  renamed[1].name = "impostor";
  EngineOptions restore = options;
  restore.fault_plan = nullptr;
  EXPECT_THROW(ShardedEngine(renamed, restore).run(),
               std::invalid_argument);

  // Placement validation is independent of recovery.
  EngineOptions bad_placement = restore;
  bad_placement.placement = {0, 0, 0};  // wrong size
  EXPECT_THROW(ShardedEngine(specs, bad_placement).run(),
               std::invalid_argument);
  bad_placement.placement = {0, 0, 0, 9};  // shard out of range
  EXPECT_THROW(ShardedEngine(specs, bad_placement).run(),
               std::invalid_argument);
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// A golden decision trace: the tracelog of a small crash-injected PD
// serve (lease-heavy tenants, capacity 6 with reject) is pinned by its
// FNV-1a 64 digest, recorded before TraceEvent moved its contributors
// and note behind a pointer. The CI cmp steps compare two runs of one
// build; this digest also catches a change that moves both runs alike
// (a field narrowed, dropped or reordered on the way to the log). The
// run mirrors `omflp serve --fault-plan`: the trace is buffered in
// memory and rewound to the restored manifest's trace_seq per crash.
TEST(EngineRecovery, FaultPlanTracelogMatchesGoldenDigest) {
  std::vector<TenantSpec> specs =
      default_workload_mix_registry().tenants("lease-heavy", 4, 1, 0.5);
  ScratchDir dir("golden-trace");
  EngineOptions options;
  options.batch_size = 512;
  options.capacity = 6;
  options.overflow = OverflowPolicy::kReject;
  options.checkpoint_dir = dir.str();
  options.checkpoint_every = 2;
  FaultPlan plan = FaultPlan::parse("crashes=1,seed=3,gap=4");
  options.fault_plan = &plan;
  TraceBuffer trace;
  options.trace_sink = &trace;

  std::uint64_t restarts = 0;
  for (;;) {
    try {
      ShardedEngine(specs, options).run();
      break;
    } catch (const EngineCrash&) {
      ++restarts;
      const auto manifest = CheckpointStore(options.checkpoint_dir)
                                .latest_valid();
      const std::uint64_t keep = manifest ? manifest->trace_seq : 0;
      if (trace.events().size() > keep) trace.events().resize(keep);
    }
  }
  ASSERT_EQ(restarts, 1u);

  std::ostringstream os;
  TraceLogWriter writer(os);
  std::size_t opens_with_contributors = 0;
  for (const TraceEvent& event : trace.events()) {
    writer.on_event(event);
    if (event.kind == TraceEventKind::kFacilityOpen &&
        !event.contributors().empty())
      ++opens_with_contributors;
  }
  writer.finish();
  const std::string log = os.str();
  // The workload exercises contributor lists, not only scalar events.
  EXPECT_GT(opens_with_contributors, 0u);
  EXPECT_EQ(writer.events_written(), 26034u);
  EXPECT_EQ(log.size(), 2469060u);
  EXPECT_EQ(fnv1a64(log), 0xdb245cae31aa7f7dULL);
}

}  // namespace
}  // namespace omflp
