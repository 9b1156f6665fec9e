// Observability subsystem tests: the TraceSink install/suppress contract,
// the OMFLP-TRACELOG v1 round trip (byte identity) and tamper rejection,
// thread-count trace determinism for both the single-stream path and the
// ShardedEngine, the trace_events_emitted counter, the MetricsSampler
// CSV/JSONL schema, and `explain` output on a hand-computed Theorem-2
// style instance where the opening chain is known.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/online_algorithm.hpp"
#include "core/pd_omflp.hpp"
#include "core/stream_runner.hpp"
#include "cost/cost_models.hpp"
#include "engine/sharded_engine.hpp"
#include "instance/tracelog_io.hpp"
#include "metric/line_metric.hpp"
#include "obs/explain.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "scenario/stream_registry.hpp"

namespace omflp {
namespace {

/// A churn stream traced through PD: covers every event kind the stream
/// path can produce (opens, assigns, dual raises, departs, rollbacks).
std::vector<TraceEvent> traced_churn_events(std::uint64_t seed = 1) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", seed, {{"events", 512}});
  PdOmflp pd;
  TraceBuffer buffer;
  {
    TraceScope scope(buffer);
    StreamRunOptions options;
    options.batch_size = 128;
    (void)run_stream(pd, stream, options);
  }
  return buffer.events();
}

std::size_t count_kind(const std::vector<TraceEvent>& events,
                       TraceEventKind kind) {
  std::size_t n = 0;
  for (const TraceEvent& ev : events)
    if (ev.kind == kind) ++n;
  return n;
}

// ------------------------------------------------------- sink contract ---

TEST(TraceSink, OffByDefaultAndScopeRestores) {
  ASSERT_FALSE(obs::tracing());
  TraceBuffer outer;
  {
    TraceScope scope(outer);
    EXPECT_TRUE(obs::tracing());
    TraceBuffer inner;
    {
      TraceScope nested(inner);
      TraceEvent ev;
      ev.kind = TraceEventKind::kDepart;
      obs::emit(ev);
    }
    EXPECT_EQ(obs::trace_sink(), &outer);  // nesting restored
    EXPECT_EQ(inner.events().size(), 1u);
    EXPECT_TRUE(outer.events().empty());
  }
  EXPECT_FALSE(obs::tracing());
}

TEST(TraceSink, SuppressScopeMutesAndRestores) {
  TraceBuffer buffer;
  TraceScope scope(buffer);
  {
    TraceSuppressScope mute;
    EXPECT_FALSE(obs::tracing());
    TraceEvent ev;
    obs::emit(ev);  // dropped
  }
  EXPECT_TRUE(obs::tracing());
  EXPECT_TRUE(buffer.events().empty());
}

TEST(TraceSink, ContributorsCanonicalizedAndCapped) {
  TraceEvent ev;
  std::vector<TraceContributor> all;
  for (RequestId r = 0; r < 20; ++r)
    all.push_back({r, static_cast<double>(1 + r % 5)});
  set_trace_contributors(ev, all);
  ASSERT_EQ(ev.contributors().size(), kMaxTraceContributors);
  for (std::size_t i = 1; i < ev.contributors().size(); ++i) {
    const TraceContributor& a = ev.contributors()[i - 1];
    const TraceContributor& b = ev.contributors()[i];
    EXPECT_TRUE(a.amount > b.amount ||
                (a.amount == b.amount && a.request < b.request));
  }
  double total = ev.residual;
  for (const TraceContributor& c : ev.contributors()) total += c.amount;
  double expected = 0.0;
  for (const TraceContributor& c : all) expected += c.amount;
  EXPECT_DOUBLE_EQ(total, expected);  // the tail folds into residual
  EXPECT_GT(ev.residual, 0.0);
}

TEST(TraceEventLayout, CompactAndDetailOnlyWhenCarried) {
  // Whole traces are buffered in memory (engine, serve --fault-plan,
  // explain): the event stays within 80 bytes.
  EXPECT_LE(sizeof(TraceEvent), 80u);
  TraceEvent ev;
  EXPECT_FALSE(ev.has_detail());
  EXPECT_TRUE(ev.contributors().empty());
  EXPECT_TRUE(ev.note().empty());
  // Empty setters and mutable reads leave it without a detail.
  ev.set_contributors({});
  ev.set_note("");
  EXPECT_TRUE(ev.contributors().empty());  // non-const overload
  EXPECT_FALSE(ev.has_detail());
  // A detail appears with either field and goes once both are empty.
  ev.set_note("flag");
  ev.set_contributors({{3, 1.5}});
  EXPECT_TRUE(ev.has_detail());
  ev.set_note("");
  EXPECT_TRUE(ev.has_detail());
  ev.set_contributors({});
  EXPECT_FALSE(ev.has_detail());
}

TEST(TraceEventLayout, CopiesAreDeepAndMovesTakeTheDetail) {
  TraceEvent original;
  original.kind = TraceEventKind::kFacilityOpen;
  original.request = 7;
  original.set_contributors({{1, 2.0}, {2, 1.0}});
  original.set_note("n");

  TraceEvent copy(original);
  ASSERT_TRUE(copy.has_detail());
  EXPECT_NE(copy.contributors().data(), original.contributors().data());
  copy.contributors()[0].request = 99;  // in-place edit of the copy only
  copy.set_note("changed");
  EXPECT_EQ(original.contributors()[0].request, 1u);
  EXPECT_EQ(original.note(), "n");

  TraceEvent assigned;
  assigned.set_note("old detail, overwritten");
  assigned = original;
  EXPECT_EQ(assigned.request, 7u);
  ASSERT_EQ(assigned.contributors().size(), 2u);
  EXPECT_NE(assigned.contributors().data(), original.contributors().data());
  EXPECT_EQ(assigned.note(), "n");
  assigned = TraceEvent{};  // assigning a detail-free event drops it
  EXPECT_FALSE(assigned.has_detail());

  const TraceContributor* storage = original.contributors().data();
  TraceEvent moved(std::move(original));
  EXPECT_EQ(moved.contributors().data(), storage);  // the pointer moved
  EXPECT_FALSE(original.has_detail());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(original.contributors().empty());
  EXPECT_TRUE(original.note().empty());
  TraceEvent target;
  target = std::move(moved);
  EXPECT_EQ(target.contributors().data(), storage);
  EXPECT_FALSE(moved.has_detail());  // NOLINT(bugprone-use-after-move)
}

TEST(TraceCounter, EmittedOnlyWhenSinkInstalled) {
  const std::vector<TraceEvent> events = traced_churn_events();
  ASSERT_FALSE(events.empty());

  // Counted pass with a trace sink: the counter equals the buffer size.
  PerfCounters traced;
  {
    PerfScope count(traced);
    (void)traced_churn_events();
  }
  EXPECT_EQ(traced.trace_events_emitted, events.size());

  // Counted pass without one: nothing emitted.
  PerfCounters untraced;
  {
    PerfScope count(untraced);
    const EventStream stream = default_stream_scenario_registry().make(
        "churn-uniform", 1, {{"events", 512}});
    PdOmflp pd;
    (void)run_stream(pd, stream, {});
  }
  EXPECT_EQ(untraced.trace_events_emitted, 0u);
}

// ------------------------------------------------------------ tracelog ---

TEST(TraceLog, RoundTripIsByteIdentical) {
  const std::vector<TraceEvent> events = traced_churn_events();
  ASSERT_FALSE(events.empty());
  EXPECT_GT(count_kind(events, TraceEventKind::kFacilityOpen), 0u);
  EXPECT_GT(count_kind(events, TraceEventKind::kBidRollback), 0u);

  const std::string text = tracelog_to_string(events);
  const std::vector<TraceEvent> reread = tracelog_from_string(text);
  ASSERT_EQ(reread.size(), events.size());
  // read -> rewrite reproduces the input byte for byte: the property that
  // makes tracelogs usable as golden-trace differential artifacts.
  EXPECT_EQ(tracelog_to_string(reread), text);
}

// Synthetic coverage of the two variable-length fields: a facility_open
// with the full 16 contributors plus a folded residual, and a
// verifier_flag whose note needs every escape, survive write → read →
// write byte for byte and field for field.
TEST(TraceLog, DetailFieldsRoundTrip) {
  TraceEvent open;
  open.kind = TraceEventKind::kFacilityOpen;
  open.request = 41;
  open.commodity = 2;
  open.facility = 9;
  open.point = 4000000000u;
  open.config_size = 4294967295u;
  open.constraint = 4;
  open.cost = 12.5;
  open.bid_mass = 3.0 / 7.0;
  open.tightness = 0.1;
  std::vector<TraceContributor> all;
  for (RequestId r = 0; r < 20; ++r)
    all.push_back({1000 + r, 0.25 * static_cast<double>(r + 1)});
  set_trace_contributors(open, all);
  ASSERT_EQ(open.contributors().size(), kMaxTraceContributors);
  ASSERT_GT(open.residual, 0.0);

  TraceEvent flag;
  flag.kind = TraceEventKind::kVerifierFlag;
  flag.request = 5;
  flag.set_note("tab\there \"quoted\" back\\slash\nnew\x01\x1f end");

  TraceEvent plain;  // a scalar event between them stays detail-free
  plain.kind = TraceEventKind::kDepart;
  plain.request = 3;
  plain.stream_event = 77;

  const std::vector<TraceEvent> events = {open, plain, flag};
  const std::string text = tracelog_to_string(events);
  const std::vector<TraceEvent> reread = tracelog_from_string(text);
  ASSERT_EQ(reread.size(), 3u);
  EXPECT_EQ(tracelog_to_string(reread), text);

  const TraceEvent& o = reread[0];
  EXPECT_EQ(o.request, open.request);
  EXPECT_EQ(o.commodity, open.commodity);
  EXPECT_EQ(o.facility, open.facility);
  EXPECT_EQ(o.point, open.point);
  EXPECT_EQ(o.config_size, open.config_size);
  EXPECT_EQ(o.constraint, open.constraint);
  EXPECT_EQ(o.bid_mass, open.bid_mass);
  EXPECT_EQ(o.residual, open.residual);
  ASSERT_EQ(o.contributors().size(), kMaxTraceContributors);
  for (std::size_t i = 0; i < kMaxTraceContributors; ++i) {
    EXPECT_EQ(o.contributors()[i].request, open.contributors()[i].request);
    EXPECT_EQ(o.contributors()[i].amount, open.contributors()[i].amount);
  }
  EXPECT_TRUE(o.note().empty());
  EXPECT_FALSE(reread[1].has_detail());
  EXPECT_EQ(reread[1].stream_event, 77u);
  EXPECT_EQ(reread[2].note(), flag.note());
  EXPECT_TRUE(reread[2].contributors().empty());
}

TEST(TraceLog, EmptyTraceRoundTrips) {
  const std::string text = tracelog_to_string({});
  EXPECT_TRUE(tracelog_from_string(text).empty());
}

TEST(TraceLog, WriterCountsAndRefusesEventsAfterFinish) {
  std::ostringstream os;
  TraceLogWriter writer(os);
  TraceEvent ev;
  writer.on_event(ev);
  writer.finish();
  writer.finish();  // idempotent
  EXPECT_EQ(writer.events_written(), 1u);
  EXPECT_THROW(writer.on_event(ev), std::logic_error);
}

/// The reference formatter the writer replaced: glibc printf "%.17g".
/// The value passes through a volatile so the formatting happens in libc
/// at run time, never in the compiler's constant folder.
std::string printf_g17(double value) {
  volatile double input = value;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", input);
  return buf;
}

/// A request_assign event whose last field is `cost` (the field the
/// atomicity checks poison).
TraceEvent assign_event(RequestId request, double cost) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kRequestAssign;
  ev.request = request;
  ev.commodity = static_cast<CommodityId>(request % 7);
  ev.facility = static_cast<FacilityId>(request / 3);
  ev.point = static_cast<PointId>(request % 101);
  ev.cost = cost;
  return ev;
}

std::string expected_assign_line(const TraceEvent& ev, std::uint64_t seq) {
  return "{\"seq\":" + std::to_string(seq) +
         ",\"kind\":\"request_assign\",\"request\":" +
         std::to_string(ev.request) +
         ",\"commodity\":" + std::to_string(ev.commodity) +
         ",\"facility\":" + std::to_string(ev.facility) +
         ",\"point\":" + std::to_string(ev.point) +
         ",\"cost\":" + printf_g17(ev.cost) + "}\n";
}

constexpr const char* kTraceLogHeader =
    "{\"format\":\"OMFLP-TRACELOG\",\"version\":1}\n";

TEST(TraceLog, DoublesMatchPrintfG17) {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      9007199254740992.0 - 1.0,  // 2^53 - 1
      9007199254740992.0,        // 2^53
      9007199254740992.0 + 2.0,  // 2^53 + 1 rounds to the next double
      0.1,
      0.2,
      0.3,
      1.0 / 3.0,
      2.0 / 3.0,
      1e-300,
      1e300,
      1e16,
      1e17,
      1e-5,
      1e-4,
      123456789012345678.0,
      0.30000000000000004,  // needs all 17 digits
      5e-324,
      1.7976931348623157e308,
      2.2250738585072014e-308,
      4.9406564584124654e-324,
      1.0,
      -1.0,
      100.0,
      0.5,
      12345.678901234567};
  std::mt19937_64 rng(20260417);
  while (values.size() < 110000) {
    const double value = std::bit_cast<double>(rng());
    if (std::isfinite(value)) values.push_back(value);
  }
  // A narrow band of ordinary magnitudes too, where the choice between
  // fixed and exponent notation is made.
  std::uniform_real_distribution<double> exponent(-20.0, 20.0);
  for (int i = 0; i < 20000; ++i)
    values.push_back(std::pow(10.0, exponent(rng)));

  std::ostringstream os;
  TraceLogWriter writer(os);
  for (std::size_t i = 0; i < values.size(); ++i)
    writer.on_event(assign_event(static_cast<RequestId>(i), values[i]));
  writer.finish();

  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << "missing line " << i;
    const std::size_t at = line.rfind(",\"cost\":");
    ASSERT_NE(at, std::string::npos);
    const std::string text = line.substr(at + 8, line.size() - at - 9);
    const std::string reference = printf_g17(values[i]);
    if (text != reference && ++mismatches <= 10)
      ADD_FAILURE() << "bits " << std::hex
                    << std::bit_cast<std::uint64_t>(values[i]) << std::dec
                    << ": wrote " << text << ", printf gives " << reference;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(TraceLog, BufferedWriterIsByteIdenticalAndAtomicPerEvent) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> cost(0.0, 1000.0);
  // The one unbounded kind: a verifier note with every escaped byte.
  TraceEvent flag;
  flag.kind = TraceEventKind::kVerifierFlag;
  flag.request = 3;
  flag.set_note("a\"b\\c\nd\r\t\x01\x1f~");
  std::vector<TraceEvent> events = {flag};
  std::string expected = kTraceLogHeader;
  expected +=
      "{\"seq\":0,\"kind\":\"verifier_flag\",\"request\":3,"
      "\"note\":\"a\\\"b\\\\c\\nd\\r\\t\\u0001\\u001f~\"}\n";
  while (expected.size() < 3 * TraceLogWriter::kFlushBytes + 4096) {
    events.push_back(
        assign_event(static_cast<RequestId>(events.size()), cost(rng)));
    expected += expected_assign_line(events.back(), events.size() - 1);
  }

  std::ostringstream os;
  TraceLogWriter writer(os);
  for (const TraceEvent& ev : events) {
    writer.on_event(ev);
    // Whatever reached the stream so far is whole lines of the log.
    const std::string published = os.str();
    ASSERT_EQ(published.back(), '\n');
    ASSERT_EQ(expected.compare(0, published.size(), published), 0);
  }
  EXPECT_GT(os.str().size(), 3 * TraceLogWriter::kFlushBytes)
      << "the buffer is handed over before finish()";
  EXPECT_EQ(writer.events_written(), events.size());

  // A NaN in the line's last field throws after the line's other fields
  // were formatted; the half-built line must not survive.
  const std::uint64_t before = writer.events_written();
  EXPECT_THROW(writer.on_event(assign_event(
                   0, std::numeric_limits<double>::quiet_NaN())),
               std::invalid_argument);
  EXPECT_EQ(writer.events_written(), before);
  TraceEvent open;
  open.kind = TraceEventKind::kFacilityOpen;
  open.set_contributors(
      {{1, 2.0}, {2, std::numeric_limits<double>::infinity()}});
  EXPECT_THROW(writer.on_event(open), std::invalid_argument);
  EXPECT_EQ(writer.events_written(), before);

  writer.finish();
  expected +=
      "{\"end\":true,\"events\":" + std::to_string(events.size()) + "}\n";
  const std::string written = os.str();
  const auto diff = std::mismatch(written.begin(), written.end(),
                                  expected.begin(), expected.end());
  EXPECT_TRUE(written == expected)
      << "first difference at byte " << (diff.first - written.begin())
      << " of " << written.size() << " (expected " << expected.size()
      << "): "
      << written.substr(static_cast<std::size_t>(diff.first - written.begin()),
                        80);
  const std::vector<TraceEvent> reread = tracelog_from_string(os.str());
  ASSERT_EQ(reread.size(), events.size());
  EXPECT_EQ(tracelog_to_string(reread), expected);
}

TEST(TraceLog, TamperedLogsAreRejected) {
  const std::vector<TraceEvent> events = traced_churn_events();
  const std::string text = tracelog_to_string(events);

  // Baseline sanity: the untampered text parses.
  ASSERT_EQ(tracelog_from_string(text).size(), events.size());

  std::vector<std::string> lines;
  {
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 4u);
  const auto joined = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l + "\n";
    return out;
  };

  // Missing header.
  {
    std::vector<std::string> t(lines.begin() + 1, lines.end());
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Wrong version.
  {
    std::vector<std::string> t = lines;
    t[0] = "{\"format\":\"OMFLP-TRACELOG\",\"version\":2}";
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Deleted event line -> seq gap against the line index.
  {
    std::vector<std::string> t = lines;
    t.erase(t.begin() + 2);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Duplicated event line -> repeated seq.
  {
    std::vector<std::string> t = lines;
    t.insert(t.begin() + 2, t[1]);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Truncation: the end line is gone.
  {
    std::vector<std::string> t(lines.begin(), lines.end() - 1);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Understated event count in the end line.
  {
    std::vector<std::string> t = lines;
    t.back() = "{\"end\":true,\"events\":1}";
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Trailing content after the end line.
  {
    std::vector<std::string> t = lines;
    t.push_back(lines[1]);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Non-canonical spelling: the scanner accepts exactly the writer's
  // byte layout, so an inserted space is a malformation, not style.
  {
    std::vector<std::string> t = lines;
    const std::size_t colon = t[1].find(':');
    ASSERT_NE(colon, std::string::npos);
    t[1].insert(colon + 1, " ");
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
}

TEST(TraceLog, RecoverPrefixSalvagesTornAndCorruptLogs) {
  const std::vector<TraceEvent> events = traced_churn_events();
  ASSERT_GE(events.size(), 8u);
  const std::string text = tracelog_to_string(events);

  std::vector<std::string> lines;
  {
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  const auto joined = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l + "\n";
    return out;
  };
  const auto recover = [](const std::string& t) {
    std::istringstream is(t);
    TraceLogReader reader(is, TraceLogReadMode::kRecoverPrefix);
    std::vector<TraceEvent> out;
    TraceEvent ev;
    while (reader.next(ev)) out.push_back(ev);
    return std::pair<std::vector<TraceEvent>, bool>{std::move(out),
                                                    reader.truncated()};
  };

  // An intact log reads fully with truncated() == false.
  {
    const auto [prefix, truncated] = recover(text);
    EXPECT_EQ(prefix.size(), events.size());
    EXPECT_FALSE(truncated);
  }
  // Torn tail (crash mid-write): the end line and the last events are
  // gone. Strict throws; recover yields exactly the surviving prefix.
  {
    std::vector<std::string> t(lines.begin(), lines.end() - 4);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
    const auto [prefix, truncated] = recover(joined(t));
    EXPECT_EQ(prefix.size(), events.size() - 3);
    EXPECT_TRUE(truncated);
    // The salvaged prefix re-serializes byte-identically to the
    // corresponding prefix of the clean log.
    EXPECT_EQ(tracelog_to_string(prefix),
              tracelog_to_string(std::vector<TraceEvent>(
                  events.begin(), events.end() - 3)));
  }
  // Half an event line at the tail — the classic torn write.
  {
    std::string t = joined({lines.begin(), lines.end() - 1});
    t += lines.back().substr(0, lines.back().size() / 2);
    const auto [prefix, truncated] = recover(t);
    EXPECT_EQ(prefix.size(), events.size());
    EXPECT_TRUE(truncated);  // end line never validated
  }
  // Corruption in the middle: recover stops just before the damage.
  {
    std::vector<std::string> t = lines;
    t[5] = t[5].substr(0, t[5].size() / 2);
    const auto [prefix, truncated] = recover(joined(t));
    EXPECT_EQ(prefix.size(), 4u);
    EXPECT_TRUE(truncated);
  }
  // A seq gap is damage too, even with a well-formed end line.
  {
    std::vector<std::string> t = lines;
    t.erase(t.begin() + 4);
    const auto [prefix, truncated] = recover(joined(t));
    EXPECT_EQ(prefix.size(), 3u);
    EXPECT_TRUE(truncated);
  }
  // The header stays strict: a file that is not a tracelog at all has no
  // prefix to recover.
  {
    std::istringstream is("not a tracelog\n");
    EXPECT_THROW(TraceLogReader(is, TraceLogReadMode::kRecoverPrefix),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------- determinism ---

TEST(TraceDeterminism, StreamTraceIndependentOfThreadCount) {
  std::string traces[2];
  int slot = 0;
  for (const char* threads : {"1", "4"}) {
    ::setenv("OMFLP_THREADS", threads, 1);
    traces[slot++] = tracelog_to_string(traced_churn_events(/*seed=*/7));
  }
  ::unsetenv("OMFLP_THREADS");
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(TraceDeterminism, EngineTraceIndependentOfShardsAndThreads) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "mixed", /*count=*/4, /*seed=*/11);
  for (TenantSpec& spec : specs) spec.overrides["events"] = 384;

  const auto run_traced = [&](std::size_t shards, const char* threads) {
    ::setenv("OMFLP_THREADS", threads, 1);
    TraceBuffer buffer;
    EngineOptions options;
    options.batch_size = 128;
    options.shards = shards;
    options.trace_sink = &buffer;
    ShardedEngine engine(specs, options);
    (void)engine.run();
    return tracelog_to_string(buffer.events());
  };
  const std::string reference = run_traced(1, "1");
  EXPECT_EQ(run_traced(4, "1"), reference);
  EXPECT_EQ(run_traced(2, "4"), reference);
  EXPECT_EQ(run_traced(4, "4"), reference);
  ::unsetenv("OMFLP_THREADS");
  EXPECT_FALSE(tracelog_from_string(reference).empty());
}

// -------------------------------------------------------------- sampler ---

TEST(MetricsSampler, ZeroCadenceThrows) {
  std::ostringstream os;
  EXPECT_THROW(MetricsSampler(os, MetricsSampler::Format::kCsv, 0),
               std::invalid_argument);
}

TEST(MetricsSampler, EngineEmitsCsvRowsPerShardPerRound) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "mixed", /*count=*/4, /*seed=*/3);
  for (TenantSpec& spec : specs) spec.overrides["events"] = 384;

  std::ostringstream os;
  MetricsSampler sampler(os, MetricsSampler::Format::kCsv);
  EngineOptions options;
  options.batch_size = 128;
  options.shards = 2;
  options.sampler = &sampler;
  ShardedEngine engine(specs, options);
  const EngineResult result = engine.run();

  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header.substr(0, 12), "round,shard,");
  // Sampler rows are interval deltas, but the histogram's max is
  // cumulative — the column says so.
  EXPECT_NE(header.find(",max_ns_cum,"), std::string::npos) << header;
  std::size_t rows = 0;
  for (std::string line; std::getline(is, line);) ++rows;
  EXPECT_EQ(rows, result.rounds * result.shards);
  // The sampler forces counter collection even without an outer sink.
  EXPECT_FALSE(result.counters.all_zero());
}

TEST(MetricsSampler, JsonlRowsCarryLatencyObjects) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "churn-heavy", /*count=*/2, /*seed=*/5);
  for (TenantSpec& spec : specs) spec.overrides["events"] = 256;

  std::ostringstream os;
  MetricsSampler sampler(os, MetricsSampler::Format::kJsonl);
  EngineOptions options;
  options.batch_size = 128;
  options.sampler = &sampler;
  ShardedEngine engine(specs, options);
  (void)engine.run();

  std::istringstream is(os.str());
  std::size_t rows = 0;
  for (std::string line; std::getline(is, line);) {
    ++rows;
    EXPECT_EQ(line.substr(0, 9), "{\"round\":") << line;
    EXPECT_NE(line.find("\"latency\":{\"count\":"), std::string::npos)
        << line;
    // Delta snapshots must label the cumulative max honestly: the field
    // is "max_ns_cum", never a plain "max_ns" masquerading as a delta.
    EXPECT_NE(line.find("\"max_ns_cum\":"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"max_ns\":"), std::string::npos) << line;
  }
  EXPECT_GT(rows, 0u);
}

// -------------------------------------------------------------- explain ---

/// The hand-computed instance: two co-located requests demanding the same
/// single commodity on a 2-point line, f(k) = 4k. PD must open exactly
/// one size-1 facility at the shared point — the first request raises its
/// dual until the joint-small constraint (3) for {e} goes tight at the
/// opening cost 4 and pays the entire bid itself; the second request
/// connects at distance 0 without opening anything.
Instance theorem2_hand_instance() {
  auto metric = std::make_shared<LineMetric>(std::vector<double>{0.0, 5.0});
  auto cost = std::make_shared<PolynomialCostModel>(
      /*num_commodities=*/2, /*exponent_x=*/2.0, /*scale=*/4.0);
  std::vector<Request> requests(2);
  requests[0].location = 0;
  requests[0].commodities = CommoditySet::singleton(2, 0);
  requests[1].location = 0;
  requests[1].commodities = CommoditySet::singleton(2, 0);
  return Instance(std::move(metric), std::move(cost), std::move(requests),
                  "theorem2-hand");
}

TEST(Explain, HandComputedOpeningChain) {
  PdOmflp pd;
  TraceBuffer buffer;
  {
    TraceScope scope(buffer);
    (void)run_online(pd, theorem2_hand_instance());
  }
  const std::vector<TraceEvent>& events = buffer.events();

  ASSERT_EQ(count_kind(events, TraceEventKind::kFacilityOpen), 1u);
  ASSERT_EQ(count_kind(events, TraceEventKind::kRequestAssign), 2u);
  EXPECT_GT(count_kind(events, TraceEventKind::kDualRaise), 0u);

  const TraceEvent* open = nullptr;
  for (const TraceEvent& ev : events)
    if (ev.kind == TraceEventKind::kFacilityOpen) open = &ev;
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->request, 0u);
  EXPECT_EQ(open->facility, 0u);
  EXPECT_EQ(open->point, 0u);
  EXPECT_EQ(open->config_size, 1u);
  EXPECT_EQ(open->constraint, 3);  // joint investment, small facility
  EXPECT_DOUBLE_EQ(open->cost, 4.0);  // f({e}) = 4·1
  ASSERT_EQ(open->contributors().size(), 1u);
  EXPECT_EQ(open->contributors()[0].request, 0u);
  EXPECT_DOUBLE_EQ(open->contributors()[0].amount, 4.0);

  // The rendered causal chain names the decision's ingredients.
  const std::string chain =
      explain_trace(events, {.facility = FacilityId{0}});
  EXPECT_NE(chain.find("facility 0 opened at point 0"), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("(3) joint investment in a small facility"),
            std::string::npos)
      << chain;
  EXPECT_NE(chain.find("request 0 contributed 4"), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("served 2 connections"), std::string::npos) << chain;
  EXPECT_NE(chain.find("rollback: none"), std::string::npos) << chain;

  const std::string summary = explain_trace(events, {});
  EXPECT_NE(summary.find("facility_open: 1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("request_assign: 2"), std::string::npos) << summary;
}

TEST(Explain, UnknownFacilityThrowsAndRollbacksAreReported) {
  const std::vector<TraceEvent> events = traced_churn_events();
  EXPECT_THROW(
      (void)explain_trace(events, {.facility = FacilityId{999999}}),
      std::invalid_argument);

  // Some churn opening eventually loses a contributor; the per-request
  // view renders without throwing for every request seen in the trace.
  const std::string summary = explain_trace(events, {});
  EXPECT_NE(summary.find("bid_rollback"), std::string::npos) << summary;
}

TEST(Explain, ShedAndSpilledRequestsAreRendered) {
  TraceEvent reject;
  reject.kind = TraceEventKind::kRequestReject;
  reject.request = 5;
  reject.commodity = 2;
  TraceEvent spill;
  spill.kind = TraceEventKind::kRequestSpill;
  spill.request = 5;
  spill.commodity = 3;
  spill.facility = 7;
  spill.point = 11;
  spill.cost = 2.5;
  const std::vector<TraceEvent> events = {reject, spill, reject};

  const std::string view = explain_trace(events, {.request = RequestId{5}});
  EXPECT_NE(view.find("[0] request_reject  request 5 shed commodity 2\n"),
            std::string::npos)
      << view;
  EXPECT_NE(view.find("[1] request_spill  request 5 -> facility 7 at point "
                      "11 (commodity 3, dist 2.5)\n"),
            std::string::npos)
      << view;

  const std::string summary = explain_trace(events, {});
  EXPECT_NE(summary.find("request_reject: 2\n"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("request_spill: 1\n"), std::string::npos)
      << summary;
}

}  // namespace
}  // namespace omflp
