// e2ebench runner — one process runs one end-to-end OMFLP workload.
//
// The runner calls the library's public entry points in the order the
// `omflp stream` and `omflp serve` verbs call them, checks every output,
// and prints one JSON report as its last stdout line. e2ebench/run.py
// builds it, passes the workload parameters from e2ebench/workloads.json
// and turns the report into the benchmark's result line. README.md in
// this directory defines every metric.
//
// Two modes:
//   * untraced (--trace 0): the end-to-end metrics. No span is recorded
//     and no counter sink is installed, so the library runs exactly as
//     the CLI runs it.
//   * traced (--trace 1): the per-layer metrics. Spans are recorded from
//     this file around each call into a layer, kept in memory and
//     written when the run ends; comparison passes (verifier off,
//     checkpoints off, a sequential loop) and one counting pass give the
//     layer numbers the spans cannot see.
//
// Usage (normally via run.py):
//   e2ebench --workload stream-ratio|serve-mixed|serve-durable --seed N
//            --seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]
//            [--param key=value ...]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "bound/dual_ascent.hpp"
#include "bound/window.hpp"
#include "core/stream_runner.hpp"
#include "engine/sharded_engine.hpp"
#include "instance/instance.hpp"
#include "instance/tracelog_io.hpp"
#include "obs/trace_sink.hpp"
#include "offline/greedy_star.hpp"
#include "offline/local_search.hpp"
#include "offline/opt_estimate.hpp"
#include "perf/perf_counters.hpp"
#include "recover/checkpoint_store.hpp"
#include "recover/fault_plan.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/stream_registry.hpp"
#include "support/atomic_file.hpp"
#include "support/commodity_set.hpp"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_BUILD_FLAGS
#define E2E_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace omflp;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ------------------------------------------------------------- spans ---

// One timed call into a layer. The layer is the name's prefix before
// the first '.'; `bench` marks the benchmark's own work.
struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;     // index into SpanLog::records, -1 = none
  int iteration = -1;  // measured iteration, -1 = set-up or probe
};

// In-memory span log. Single-threaded: spans are opened only on the
// calling thread, around calls into the library.
struct SpanLog {
  bool enabled = false;
  int iteration = -1;
  int open = -1;
  Clock::time_point epoch = Clock::now();
  std::vector<SpanRecord> records;
};
SpanLog g_spans;

class Span {
 public:
  explicit Span(const char* name) {
    if (!g_spans.enabled) return;
    index_ = static_cast<int>(g_spans.records.size());
    g_spans.records.push_back({name, seconds_since(g_spans.epoch), 0.0,
                               g_spans.open, g_spans.iteration});
    g_spans.open = index_;
  }
  ~Span() {
    if (index_ < 0) return;
    SpanRecord& record = g_spans.records[static_cast<std::size_t>(index_)];
    record.end_s = seconds_since(g_spans.epoch);
    g_spans.open = record.parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

// ------------------------------------------------------------ checks ---

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cerr << "e2ebench: check failed: " << what << "\n";
  }
};
Checks g_checks;

// ---------------------------------------------------------- outcomes ---

// The deterministic part of one tenant's result: a pure function of its
// events and algorithm, compared bitwise across every run of it.
struct TenantOutcome {
  double gross = 0.0;
  double active = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t spilled = 0;
  std::uint64_t facilities = 0;
  std::uint64_t active_requests = 0;
  std::uint64_t arrivals = 0;
  bool violation = false;

  bool operator==(const TenantOutcome&) const = default;
};

TenantOutcome outcome_of(const StreamRunResult& run) {
  TenantOutcome out;
  out.gross = run.ledger.total_cost();
  out.active = run.ledger.active_cost();
  out.shed = run.ledger.num_shed_requests();
  out.spilled = run.ledger.num_spilled_assignments();
  out.facilities = run.ledger.num_facilities();
  out.active_requests = run.ledger.num_active_requests();
  out.arrivals = run.arrivals;
  out.violation = run.violation.has_value();
  return out;
}

std::vector<TenantOutcome> outcomes_of(const EngineResult& result) {
  std::vector<TenantOutcome> out;
  for (const TenantResult& tenant : result.tenants)
    out.push_back(outcome_of(tenant.run));
  return out;
}

// OPT bracket on the surviving set, summed over tenants.
struct Bracket {
  double upper = 0.0;
  double lower = 0.0;
  bool operator==(const Bracket&) const = default;
};

// -------------------------------------------------------- parameters ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans_out;
  std::map<std::string, std::string> params;

  const std::string& param(const std::string& key) const {
    const auto it = params.find(key);
    if (it == params.end())
      throw std::invalid_argument("missing --param " + key);
    return it->second;
  }
  double number(const std::string& key) const {
    return std::stod(param(key));
  }
  std::size_t count(const std::string& key) const {
    return static_cast<std::size_t>(std::stoull(param(key)));
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--spans-out") args.spans_out = value;
    else if (flag == "--param") {
      const auto eq = value.find('=');
      if (eq == std::string::npos)
        throw std::invalid_argument("--param wants key=value: " + value);
      args.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (args.workload != "stream-ratio" && args.workload != "serve-mixed" &&
      args.workload != "serve-durable")
    throw std::invalid_argument("unknown --workload '" + args.workload +
                                "'");
  if (!(args.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  return args;
}

// Per-tenant event seed: the workload seed decorrelated per tenant.
std::uint64_t tenant_seed(std::uint64_t seed, std::size_t index) {
  return derive_algorithm_seed(seed * 0x100000001b3ULL + index + 1);
}

// ---------------------------------------------------------- workload ---

struct Workload {
  bool stream_ratio = false;  // StreamSession + surviving-set OPT bracket
  bool durable = false;       // checkpoints, tracelog and a crash per run
  std::vector<TenantSpec> specs;
  // Plain serving: the workload's threads, batch and admission control,
  // with checkpoints, trace and faults off.
  EngineOptions plain;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  std::string trace_path;
};

std::vector<TenantSpec> make_specs(const Args& args) {
  std::vector<TenantSpec> specs;
  if (args.workload == "stream-ratio") {
    const std::size_t instances = args.count("instances");
    const double events = args.number("events");
    // Leases bound the surviving set (and so the offline bracket's cost)
    // while the sessions serve the whole stream.
    for (std::size_t i = 0; i < instances; ++i) {
      TenantSpec spec;
      spec.name = "s" + std::to_string(i) + "-hotspot-grid";
      spec.scenario = "hotspot-grid";
      spec.overrides = {{"events", events},
                        {"mean_lease", args.number("mean_lease")}};
      spec.seed = tenant_seed(args.seed, i);
      specs.push_back(std::move(spec));
    }
    return specs;
  }
  // A fixed roster (which tenant plays which profile, at which volume)
  // with per-tenant event seeds from --seed: the seed varies the traffic,
  // not the shape of the workload.
  specs = default_workload_mix_registry().tenants(
      args.param("mix"), args.count("tenants"),
      static_cast<std::uint64_t>(args.number("roster_seed")),
      args.number("scale"));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].seed = tenant_seed(args.seed, i);
    specs[i].algorithm = "pd";
  }
  return specs;
}

Workload make_workload(const Args& args) {
  Workload w;
  w.stream_ratio = args.workload == "stream-ratio";
  w.durable = args.workload == "serve-durable";
  w.specs = make_specs(args);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  w.plain.threads = std::min(args.count("max_threads"), hw);
  w.plain.batch_size = args.count("batch");
  w.plain.verify = true;
  w.plain.capacity = static_cast<std::uint64_t>(args.number("capacity"));
  const std::string overflow = args.param("overflow");
  if (overflow == "reject") w.plain.overflow = OverflowPolicy::kReject;
  else if (overflow == "reassign") w.plain.overflow = OverflowPolicy::kReassign;
  else throw std::invalid_argument("unknown overflow " + overflow);
  w.checkpoint_every = args.count("checkpoint_every");
  w.checkpoint_dir = (fs::path(args.work_dir) / "ckpt").string();
  w.trace_path = (fs::path(args.work_dir) / "trace.log").string();
  return w;
}

void clear_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// Bytes of the newest valid checkpoint generation: manifest plus every
// tenant file.
std::uint64_t newest_generation_bytes(const std::string& dir,
                                      std::size_t tenants) {
  CheckpointStore store(dir);
  const auto manifest = store.latest_valid();
  if (!manifest) return 0;
  std::uint64_t bytes = fs::file_size(store.manifest_path(manifest->generation));
  for (std::size_t i = 0; i < tenants; ++i)
    bytes += fs::file_size(store.tenant_path(i, manifest->generation));
  return bytes;
}

// The surviving set rebuilt from a ledger, as `omflp stream` does.
Instance surviving_instance(const SolutionLedger& ledger,
                            const MetricPtr& metric,
                            const CostModelPtr& cost) {
  std::vector<Request> requests;
  requests.reserve(ledger.num_active_requests());
  for (const RequestRecord& record : ledger.request_records())
    if (record.active()) requests.push_back(record.request);
  return Instance(metric, cost, std::move(requests), "surviving");
}

// The bracket `omflp stream` reports for surviving sets beyond its
// local-search limit: upper = best single-full-facility solution
// (feasible by construction), lower = the chunked dual-ascent bound.
// The serve workloads use it; it calls the bound layer, never offline.
Bracket large_set_bracket(const Instance& surviving) {
  Bracket bracket;
  if (surviving.num_requests() == 0) return bracket;
  const MetricSpace& metric = surviving.metric();
  const FacilityCostModel& cost = surviving.cost();
  const CommoditySet full = CommoditySet::full_set(cost.num_commodities());
  bracket.upper = kInfiniteDistance;
  for (PointId m = 0; m < metric.num_points(); ++m) {
    double candidate = cost.open_cost(m, full);
    for (const Request& r : surviving.requests())
      candidate += metric.distance(m, r.location);
    bracket.upper = std::min(bracket.upper, candidate);
  }
  try {
    Span span("bound.lower");
    bracket.lower = bound_instance_chunked(surviving, WindowBoundOptions{})
                        .lower;
  } catch (const BoundUnsupportedError&) {
    bracket.lower = 0.0;
  }
  return bracket;
}

// Collects the engine's merged decision trace in memory so a crash can
// rewind it to the last checkpoint's trace_seq, as `omflp serve` does
// under a fault plan.
struct VecTraceSink final : TraceSink {
  std::vector<TraceEvent> events;
  void on_event(const TraceEvent& event) override { events.push_back(event); }
};

// Times each TraceLogWriter::on_event call (the obs write path).
struct TimedTraceSink final : TraceSink {
  explicit TimedTraceSink(TraceSink& inner_sink) : inner(inner_sink) {}
  void on_event(const TraceEvent& event) override {
    const auto start = Clock::now();
    inner.on_event(event);
    seconds += seconds_since(start);
  }
  TraceSink& inner;
  double seconds = 0.0;
};

// A fault plan with exactly one crash after checkpoint generation one
// exists and before the last round, so every crash restores from a
// checkpoint and replays a tail. Deterministic: the first plan seed
// whose crash lands in range.
std::string crash_spec(std::uint64_t rounds, std::uint64_t every) {
  const std::uint64_t lo = every + 1;
  const std::uint64_t hi = rounds >= 2 ? rounds - 2 : 0;
  if (every == 0 || hi < lo)
    throw std::invalid_argument(
        "workload has " + std::to_string(rounds) +
        " rounds: too few for a crash after a checkpoint every " +
        std::to_string(every));
  for (std::uint64_t seed = 1; seed < 10000; ++seed) {
    const std::string spec = "crashes=1,seed=" + std::to_string(seed) +
                             ",gap=" + std::to_string(hi);
    const std::uint64_t round = FaultPlan::parse(spec).crash_rounds().at(0);
    if (round >= lo && round <= hi) return spec;
  }
  throw std::logic_error("no crash seed in range");
}

// One crash -> restore -> drain cycle, the `omflp serve --fault-plan`
// loop: `first` (built by the caller, outside the timing) crashes, a
// fresh engine restores from the newest valid generation and drains. A
// crash rewinds `trace` to the restored generation's trace_seq.
struct CrashRun {
  EngineResult result;
  double serving_s = 0.0;  // inside the run() calls
  double recover_s = 0.0;  // crash -> drained
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t crashes = 0;
};

CrashRun crash_run(const Workload& w, const ShardedEngine& first,
                   const EngineOptions& options, VecTraceSink* trace) {
  CrashRun out;
  auto start = Clock::now();
  try {
    Span span("engine.run");
    out.result = first.run();
    out.serving_s = seconds_since(start);
  } catch (const EngineCrash&) {
    out.serving_s = seconds_since(start);
    const auto crashed_at = Clock::now();
    ++out.crashes;
    if (trace) {
      Span span("recover.manifest");
      std::uint64_t keep = 0;
      if (const auto manifest =
              CheckpointStore(options.checkpoint_dir).latest_valid())
        keep = manifest->trace_seq;
      if (trace->events.size() > keep) trace->events.resize(keep);
    }
    std::optional<ShardedEngine> restarted;
    {
      Span span("scenario.make");
      restarted.emplace(w.specs, options);
    }
    start = Clock::now();
    {
      Span span("recover.restore");
      out.result = restarted->run();
    }
    out.serving_s += seconds_since(start);
    out.recover_s = seconds_since(crashed_at);
  }
  out.checkpoint_bytes =
      newest_generation_bytes(options.checkpoint_dir, w.specs.size());
  return out;
}

// ------------------------------------------------------------ report ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0;
  return 0.0;
}

// Spreads single-threaded work over the CPUs the process may use. On a
// shared virtual machine each CPU's speed swings by up to 1.6x for
// seconds at a time, independently of the others, and an unpinned busy
// thread stays on one CPU: its timings then follow that one CPU's
// neighbours. Pinning consecutive slices of work to consecutive CPUs
// makes every timing sample all of them. Threads inherit the mask, so
// only work that starts no threads of its own is pinned.
class CpuRotation {
 public:
  CpuRotation() {
#ifdef __linux__
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
#endif
  }

  // Pins the calling thread to CPU number `slot` (modulo their count).
  // False when there is one CPU or the call failed.
  bool pin_to(std::size_t slot) const {
#ifdef __linux__
    if (cpus_.size() < 2) return false;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
#else
    (void)slot;
    return false;
#endif
  }

  // Pins the calling thread to the next CPU until the guard ends.
  class Pin {
   public:
    explicit Pin(CpuRotation& rotation)
        : rotation_(rotation), pinned_(rotation.pin_to(rotation.next_++)) {}
    ~Pin() {
#ifdef __linux__
      if (pinned_)
        sched_setaffinity(0, sizeof(rotation_.all_), &rotation_.all_);
#endif
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    CpuRotation& rotation_;
    bool pinned_ = false;
  };

 private:
#ifdef __linux__
  cpu_set_t all_;
#endif
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// Parallel-capacity probe: the time of one copy of a fixed scalar
// kernel alone over the time of `copies` concurrent copies, each pinned
// to its own CPU. 1.0 means the host delivered `copies` cores; 1/copies
// means it delivered one. Unpinned, new threads start on one CPU and
// are spread out only after about 100 ms, longer than the kernel runs,
// so the probe would read 1/copies on an idle host.
double parallel_efficiency(std::size_t copies, const CpuRotation& cpus) {
  const auto kernel = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = Clock::now();
    kernel();
    const double alone = seconds_since(start);
    start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < copies; ++i)
      threads.emplace_back([&cpus, &kernel, i] {
        cpus.pin_to(i);
        kernel();
      });
    for (std::thread& t : threads) t.join();
    ratios.push_back(alone / seconds_since(start));
  }
  return median(ratios);
}

// ------------------------------------------------------------- runner ---

// Per-iteration measurement of the workload's measured loop.
struct Iteration {
  double wall_s = 0.0;
  double serving_s = 0.0;
  double recover_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t trace_bytes = 0;
  double trace_write_s = 0.0;
  std::vector<TenantOutcome> tenants;
  Bracket bracket;
  std::vector<double> batch_s;  // stream-ratio: each step_batch call
  bool traced = false;
};

class Runner {
 public:
  explicit Runner(const Args& args) : args_(args) {}

  int run() {
    const std::size_t repeats = args_.count("setup_repeats");
    for (std::size_t i = 0; i < repeats; ++i) setup_s_.push_back(setup());
    reference();
    efficiency_ = parallel_efficiency(w_.plain.threads, cpus_);
    if (args_.trace) traced();
    else untraced();
    return 0;
  }

  std::vector<Metric> metrics;
  std::map<std::string, std::string> deterministic;
  std::map<std::string, double> layer_self_s;
  std::vector<std::string> notes;
  const Workload& workload() const { return w_; }
  double efficiency() const { return efficiency_; }

 private:
  // ----------------------------------------------------------- set-up ---

  // Input generation plus construction, before the first event served.
  double setup() {
    const auto start = Clock::now();
    Span span("scenario.make");
    w_ = make_workload(args_);
    if (w_.stream_ratio) {
      streams_.clear();
      algorithms_.clear();
      for (const TenantSpec& spec : w_.specs) {
        streams_.push_back(default_stream_scenario_registry().make(
            spec.scenario, spec.seed, spec.overrides));
        algorithms_.push_back(default_algorithm_registry().make(
            spec.algorithm, derive_algorithm_seed(spec.seed)));
      }
    } else {
      engine_.reset();
      engine_.emplace(w_.specs, measured_options());
    }
    return seconds_since(start);
  }

  // Options of the measured serving loop: plain for serve-mixed; with
  // checkpoints, the tracelog sink and the fault plan for serve-durable.
  EngineOptions measured_options() {
    return w_.durable ? durable_options(&trace_events_) : w_.plain;
  }

  EngineOptions durable_options(VecTraceSink* sink) {
    EngineOptions options = w_.plain;
    options.checkpoint_dir = w_.checkpoint_dir;
    options.checkpoint_every = w_.checkpoint_every;
    options.fault_plan = &plan_;
    options.trace_sink = sink;
    return options;
  }

  // Untimed reference pass: one plain engine run, the sequential
  // run_stream loop over the same tenants, and their bitwise comparison.
  void reference() {
    reference_ = ShardedEngine(w_.specs, w_.plain).run();
    reference_tenants_ = outcomes_of(reference_);
    for (const TenantOutcome& t : reference_tenants_)
      g_checks.expect(!t.violation, "verifier clean on the plain run");
    spec_ = crash_spec(reference_.rounds, w_.checkpoint_every);
    seq_streams_.clear();
    for (const TenantSpec& spec : w_.specs)
      seq_streams_.push_back(default_stream_scenario_registry().make(
          spec.scenario, spec.seed, spec.overrides));
    const std::vector<TenantOutcome> seq = sequential(nullptr);
    g_checks.expect(seq == reference_tenants_,
                    "engine tenants bitwise equal to the sequential "
                    "run_stream loop");
  }

  // The tenants one run_stream after another on this thread, as
  // `omflp serve --seq-baseline` runs them. Optionally timed.
  std::vector<TenantOutcome> sequential(double* seconds) {
    StreamRunOptions options;
    options.batch_size = w_.plain.batch_size;
    options.verify = w_.plain.verify;
    options.overflow = w_.plain.overflow;
    std::vector<std::unique_ptr<OnlineAlgorithm>> algorithms;
    for (const TenantSpec& spec : w_.specs)
      algorithms.push_back(default_algorithm_registry().make(
          spec.algorithm, derive_algorithm_seed(spec.seed)));
    std::vector<TenantOutcome> out;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < w_.specs.size(); ++i) {
      if (w_.plain.capacity > 0)
        options.capacities = std::make_shared<const std::vector<std::uint64_t>>(
            seq_streams_[i].metric().num_points(), w_.plain.capacity);
      out.push_back(
          outcome_of(run_stream(*algorithms[i], seq_streams_[i], options)));
    }
    if (seconds) *seconds = seconds_since(start);
    return out;
  }

  // ---------------------------------------------------------- iteration ---

  Iteration iterate() {
    if (w_.stream_ratio) return stream_iteration();
    if (w_.durable) return durable_iteration();
    return serve_iteration();
  }

  // `omflp stream --ratio` per instance: drain a StreamSession, rebuild
  // the surviving set, estimate OPT on it with a certified lower bound.
  // Traced runs split estimate_opt(compute_lower) into its two calls so
  // each layer gets its own span. Without `ratio` only the sessions run.
  // Each instance (without `ratio`, each pass) runs on the next CPU.
  Iteration stream_iteration(bool ratio = true) {
    Iteration it;
    Span root("bench.iteration");
    std::optional<CpuRotation::Pin> pass_pin;
    if (!ratio) pass_pin.emplace(cpus_);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      std::optional<CpuRotation::Pin> pin;
      if (ratio) pin.emplace(cpus_);
      StreamRunOptions options;
      options.verify = true;
      MaterializedEventSource source(streams_[i]);
      std::optional<StreamSession> session;
      {
        Span span("core.session");
        session.emplace(*algorithms_[i], source, options);
      }
      for (;;) {
        const auto batch_start = Clock::now();
        std::size_t processed = 0;
        {
          Span span("core.step_batch");
          processed = session->step_batch();
        }
        if (processed == 0) break;
        it.batch_s.push_back(seconds_since(batch_start));
      }
      std::optional<StreamRunResult> result;
      {
        Span span("solution.finish");
        result.emplace(session->finish());
      }
      it.serving_s += result->run_ns / 1e9;
      it.events += result->events;
      it.tenants.push_back(outcome_of(*result));
      if (!ratio) continue;
      std::optional<Instance> surviving;
      {
        Span span("bench.surviving");
        surviving.emplace(surviving_instance(
            result->ledger, streams_[i].metric_ptr(), streams_[i].cost_ptr()));
      }
      OptEstimate opt;
      if (g_spans.enabled) {
        {
          Span span("offline.estimate_opt");
          opt = estimate_opt(*surviving, OptEstimateOptions{});
        }
        Span span("bound.lower");
        try {
          opt.lower =
              bound_instance_chunked(*surviving, WindowBoundOptions{}).lower;
        } catch (const BoundUnsupportedError&) {
          opt.lower = 0.0;
        }
      } else {
        OptEstimateOptions options_lower;
        options_lower.compute_lower = true;
        opt = estimate_opt(*surviving, options_lower);
      }
      it.bracket.upper += opt.cost;
      it.bracket.lower += opt.lower;
      g_checks.expect(!opt.exact, "surviving set takes the estimated path");
      g_checks.expect(opt.lower <= opt.cost, "opt_lower <= opt_upper");
      g_checks.expect(opt.lower <= result->ledger.active_cost(),
                      "opt_lower <= active_cost");
    }
    it.wall_s = seconds_since(start);
    return it;
  }

  Iteration serve_iteration() {
    Iteration it;
    Span root("bench.iteration");
    const auto start = Clock::now();
    EngineResult result;
    {
      Span span("engine.run");
      result = engine_->run();
    }
    it.serving_s = seconds_since(start);
    it.events = result.total_events;
    it.tenants = outcomes_of(result);
    it.wall_s = seconds_since(start);
    return it;
  }

  // `omflp serve --checkpoint-dir --checkpoint-every --fault-plan
  // --trace-out`: crash once, restore, drain, then write the tracelog.
  Iteration durable_iteration() {
    clear_dir(w_.checkpoint_dir);
    plan_ = FaultPlan::parse(spec_);
    trace_events_.events.clear();
    Iteration it;
    Span root("bench.iteration");
    const auto start = Clock::now();
    const CrashRun run =
        crash_run(w_, *engine_, measured_options(), &trace_events_);
    {
      Span span("obs.trace_write");
      AtomicFileWriter file(w_.trace_path);
      TraceLogWriter writer(file.stream());
      TimedTraceSink timed(writer);
      TraceSink& sink = g_spans.enabled ? static_cast<TraceSink&>(timed)
                                        : static_cast<TraceSink&>(writer);
      for (const TraceEvent& event : trace_events_.events) sink.on_event(event);
      writer.finish();
      file.commit();
      it.trace_write_s = timed.seconds;
    }
    it.wall_s = seconds_since(start);
    g_checks.expect(run.crashes == 1, "one crash injected");
    g_checks.expect(run.result.restored_from_round > 0,
                    "restore from a checkpoint generation");
    it.serving_s = run.serving_s;
    it.recover_s = run.recover_s;
    it.events = run.result.total_events;
    it.tenants = outcomes_of(run.result);
    it.checkpoint_bytes = run.checkpoint_bytes;
    it.trace_bytes = fs::file_size(w_.trace_path);
    return it;
  }

  // One iteration of the measured loop, checked against the reference
  // tenants and, for the bracket, against `first`. `index` >= 0 records
  // its spans under that iteration number.
  Iteration checked_iteration(int index, const Iteration* first) {
    g_spans.enabled = index >= 0;
    g_spans.iteration = index;
    Iteration it = iterate();
    it.traced = index >= 0;
    g_spans.enabled = false;
    g_spans.iteration = -1;
    g_checks.expect(it.tenants == reference_tenants_,
                    "iteration tenants bitwise equal to the reference");
    g_checks.expect(!first || it.bracket == first->bracket,
                    "OPT bracket repeats exactly, traced or not");
    for (const TenantOutcome& t : it.tenants)
      g_checks.expect(!t.violation, "verifier clean");
    return it;
  }

  // The crash/restore cycle on the workload's own tenants (stream-ratio
  // and serve-mixed keep no checkpoints in their measured loop).
  CrashRun crash_probe() {
    clear_dir(w_.checkpoint_dir);
    plan_ = FaultPlan::parse(spec_);
    const EngineOptions options = durable_options(nullptr);
    std::optional<CpuRotation::Pin> pin;
    if (options.threads == 1) pin.emplace(cpus_);
    const ShardedEngine first(w_.specs, options);
    CrashRun probe = crash_run(w_, first, options, nullptr);
    g_checks.expect(probe.crashes == 1, "one crash injected");
    g_checks.expect(outcomes_of(probe.result) == reference_tenants_,
                    "crash -> restore -> drain bitwise equal to the "
                    "uninterrupted run");
    return probe;
  }

  Bracket bracket_of(const EngineResult& result) {
    Bracket total;
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
      const SolutionLedger& ledger = result.tenants[i].run.ledger;
      Bracket b = large_set_bracket(surviving_instance(
          ledger, seq_streams_[i].metric_ptr(), seq_streams_[i].cost_ptr()));
      // A tenant that shed nothing serves every survivor, so its active
      // solution is feasible on the surviving set: a tighter upper end.
      if (ledger.num_shed_requests() == 0)
        b.upper = std::min(b.upper, ledger.active_cost());
      g_checks.expect(b.lower <= b.upper, "opt_lower <= opt_upper");
      total.upper += b.upper;
      total.lower += b.lower;
    }
    return total;
  }

  // -------------------------------------------------------- untraced ---

  // Measured iterations with the probes interleaved, so that every
  // metric samples the whole run rather than one window of it: the
  // crash/restore probe (stream-ratio, serve-mixed) takes about a fifth
  // of the time; stream-ratio's sessions, 0.1% of an iteration, are also
  // timed alone, for a tenth of the run, for a steady events_per_s.
  void untraced() {
    const double budget = args_.seconds;
    std::vector<Iteration> its;
    std::vector<double> wall, rate, recover;
    double checkpoint_bytes = 0.0;
    double probe_s = 0.0, online_s = 0.0, setup_in_loop_s = 0.0;
    double online_events = 0.0, online_serving_s = 0.0;
    const auto start = Clock::now();
    while (its.size() < 3 || recover.size() < 3 ||
           seconds_since(start) < budget) {
      while (setup_in_loop_s < 0.03 * seconds_since(start)) {
        setup_s_.push_back(setup());
        setup_in_loop_s += setup_s_.back();
      }
      its.push_back(checked_iteration(-1, its.empty() ? nullptr : &its[0]));
      const Iteration& it = its.back();
      wall.push_back(it.wall_s);
      if (!w_.stream_ratio)
        rate.push_back(static_cast<double>(it.events) / it.serving_s);
      if (w_.durable) {
        recover.push_back(it.recover_s);
        checkpoint_bytes = static_cast<double>(it.checkpoint_bytes);
        continue;
      }
      while (probe_s < 0.2 * seconds_since(start)) {
        const auto t = Clock::now();
        const CrashRun probe = crash_probe();
        probe_s += seconds_since(t);
        recover.push_back(probe.recover_s);
        checkpoint_bytes = static_cast<double>(probe.checkpoint_bytes);
      }
      while (w_.stream_ratio && online_s < 0.1 * seconds_since(start)) {
        const auto t = Clock::now();
        const Iteration online = stream_iteration(false);
        online_s += seconds_since(t);
        g_checks.expect(online.tenants == reference_tenants_,
                        "sessions equal the reference");
        rate.push_back(static_cast<double>(online.events) / online.serving_s);
        online_events += static_cast<double>(online.events);
        online_serving_s += online.serving_s;
      }
    }
    // stream-ratio's samples are pinned to CPUs whose speeds differ for
    // seconds at a time, so they fall into several modes: a median would
    // jump to whichever mode held most of the run, a mean weighs the
    // modes by the time they held. Its events_per_s is pooled over all
    // sessions-only passes for the same reason.
    const auto centre = [this](const std::vector<double>& values) {
      return w_.stream_ratio ? mean(values) : median(values);
    };
    const double events_per_s =
        w_.stream_ratio ? online_events / online_serving_s : median(rate);
    const Bracket bracket =
        w_.stream_ratio ? its.front().bracket : bracket_of(reference_);
    double active = 0.0, shed = 0.0, arrivals = 0.0;
    for (const TenantOutcome& t : reference_tenants_) {
      active += t.active;
      shed += static_cast<double>(t.shed);
      arrivals += static_cast<double>(t.arrivals);
    }
    metrics = {
        {"setup_s", median(setup_s_), "s"},
        {"wall_s", centre(wall), "s"},
        {"events_per_s", events_per_s, "1/s"},
        {"recover_s", centre(recover), "s"},
        {"peak_rss_mb", peak_rss_bytes() / 1e6, "MB"},
        {"checkpoint_mb", checkpoint_bytes / 1e6, "MB"},
        {"active_cost", active, "cost"},
        {"opt_upper", bracket.upper, "cost"},
        {"opt_lower", bracket.lower, "cost"},
        {"admit_rate", 1.0 - shed / arrivals, "ratio"},
    };
    record_deterministic(bracket);
    std::ostringstream spread;
    spread << "iterations n=" << its.size() << " wall min="
           << *std::min_element(wall.begin(), wall.end())
           << " median=" << median(wall) << " mean=" << mean(wall) << " max="
           << *std::max_element(wall.begin(), wall.end())
           << "; setup samples " << setup_s_.size() << "; recover samples "
           << recover.size() << "; rate samples " << rate.size();
    notes.push_back(spread.str());
  }

  // ---------------------------------------------------------- traced ---

  void traced() {
    const double budget = args_.seconds;
    // Set-up spans, then untraced and traced iterations interleaved.
    g_spans.enabled = true;
    std::vector<double> make_s;
    for (std::size_t i = 0; i < 3; ++i) make_s.push_back(setup());
    g_spans.enabled = false;
    std::vector<Iteration> its;
    const auto loop_start = Clock::now();
    while (its.size() < 4 || seconds_since(loop_start) < budget * 0.4) {
      const int index = static_cast<int>(its.size());
      its.push_back(checked_iteration(index % 2 == 1 ? index : -1,
                                      its.empty() ? nullptr : &its[0]));
    }

    std::vector<double> wall1, step_all, trace_write_s;
    const Iteration* last_traced = nullptr;
    for (const Iteration& it : its) {
      if (!it.traced) continue;
      last_traced = &it;
      wall1.push_back(it.wall_s);
      trace_write_s.push_back(it.trace_write_s);
      step_all.insert(step_all.end(), it.batch_s.begin(), it.batch_s.end());
    }
    std::map<int, double> top, step, estimate, bound, restore;
    std::map<int, int> roots;
    for (std::size_t i = 0; i < g_spans.records.size(); ++i) {
      const SpanRecord& s = g_spans.records[i];
      if (s.iteration < 0) continue;
      if (s.name == "bench.iteration") roots[s.iteration] = static_cast<int>(i);
    }
    for (const SpanRecord& s : g_spans.records) {
      if (s.iteration < 0) continue;
      const double d = s.end_s - s.start_s;
      if (s.parent >= 0 && s.parent == roots[s.iteration]) top[s.iteration] += d;
      if (s.name == "core.step_batch") step[s.iteration] += d;
      if (s.name == "offline.estimate_opt") estimate[s.iteration] += d;
      if (s.name == "bound.lower") bound[s.iteration] += d;
      if (s.name == "recover.restore") restore[s.iteration] += d;
    }
    const auto values = [](const std::map<int, double>& m) {
      std::vector<double> v;
      for (const auto& [k, d] : m) v.push_back(d);
      return v;
    };
    // Each traced iteration against the untraced one just before it, so
    // that the host's drift over the run cancels in the comparison.
    std::vector<double> cover_ratios, overheads;
    for (std::size_t k = 1; k < its.size(); ++k) {
      if (!its[k].traced || its[k - 1].traced) continue;
      const double untraced = its[k - 1].wall_s;
      cover_ratios.push_back(top[static_cast<int>(k)] / untraced);
      overheads.push_back(its[k].wall_s - untraced);
    }
    const double cover = median(cover_ratios);
    constexpr double kCoverTolerance = 0.2;
    g_checks.expect(std::abs(cover - 1.0) <= kCoverTolerance,
                    "top-level layer spans sum to the untraced wall_s "
                    "within 20% (got " + std::to_string(cover) + ")");

    // Comparison passes, outside the spans.
    g_spans.enabled = false;
    const double pass_budget = budget * 0.1;
    std::vector<double> verify_on, verify_off, plain_run, ckpt_run;
    EngineResult plain_result;
    {
      EngineOptions off = w_.plain;
      off.verify = false;
      const ShardedEngine on_engine(w_.specs, w_.plain);
      const ShardedEngine off_engine(w_.specs, off);
      const auto start = Clock::now();
      while (verify_on.size() < 3 || seconds_since(start) < pass_budget) {
        auto t = Clock::now();
        plain_result = on_engine.run();
        verify_on.push_back(seconds_since(t));
        t = Clock::now();
        const EngineResult unverified = off_engine.run();
        verify_off.push_back(seconds_since(t));
        g_checks.expect(outcomes_of(plain_result) == reference_tenants_,
                        "verified plain run equals the reference");
        g_checks.expect(outcomes_of(unverified) == reference_tenants_,
                        "unverified run equals the verified run");
      }
    }
    {
      EngineOptions ckpt = w_.plain;
      ckpt.checkpoint_dir = w_.checkpoint_dir;
      ckpt.checkpoint_every = w_.checkpoint_every;
      const ShardedEngine plain_engine(w_.specs, w_.plain);
      const auto start = Clock::now();
      while (ckpt_run.size() < 3 || seconds_since(start) < pass_budget) {
        clear_dir(w_.checkpoint_dir);
        const ShardedEngine ckpt_engine(w_.specs, ckpt);
        auto t = Clock::now();
        const EngineResult with = ckpt_engine.run();
        ckpt_run.push_back(seconds_since(t));
        t = Clock::now();
        plain_engine.run();
        plain_run.push_back(seconds_since(t));
        g_checks.expect(outcomes_of(with) == reference_tenants_,
                        "checkpointed run equals the reference");
      }
    }
    std::vector<double> seq_s;
    {
      const auto start = Clock::now();
      while (seq_s.size() < 3 || seconds_since(start) < pass_budget) {
        double s = 0.0;
        g_checks.expect(sequential(&s) == reference_tenants_,
                        "sequential loop equals the reference");
        seq_s.push_back(s);
      }
    }

    // Crash probes (serve-durable crashes in its measured loop).
    std::uint64_t checkpoint_bytes = last_traced->checkpoint_bytes;
    std::uint64_t active_requests = 0;
    for (const TenantOutcome& t : reference_tenants_)
      active_requests += t.active_requests;
    std::vector<double> restore_samples = values(restore);
    if (!w_.durable) {
      g_spans.enabled = true;
      const std::size_t first = g_spans.records.size();
      std::vector<CrashRun> probes;
      const auto probe_start = Clock::now();
      while (probes.size() < 3 || seconds_since(probe_start) < pass_budget)
        probes.push_back(crash_probe());
      g_spans.enabled = false;
      restore_samples.clear();
      for (std::size_t i = first; i < g_spans.records.size(); ++i)
        if (g_spans.records[i].name == "recover.restore")
          restore_samples.push_back(g_spans.records[i].end_s -
                                    g_spans.records[i].start_s);
      checkpoint_bytes = probes.back().checkpoint_bytes;
    }

    // Offline probes and the serve-side bracket, spans on.
    g_spans.enabled = true;
    double greedy_s = 0.0, local_s = 0.0, bracket_bound_s = 0.0;
    PerfCounters bracket_counters;
    Bracket bracket = its.front().bracket;
    if (w_.stream_ratio) {
      for (std::size_t i = 0; i < streams_.size(); ++i) {
        const StreamRunResult result = run_stream(*algorithms_[i], streams_[i]);
        const Instance surviving = surviving_instance(
            result.ledger, streams_[i].metric_ptr(), streams_[i].cost_ptr());
        auto t = Clock::now();
        {
          Span span("offline.greedy_star");
          solve_greedy_star(surviving);
        }
        greedy_s += seconds_since(t);
        t = Clock::now();
        {
          Span span("offline.local_search");
          solve_local_search(surviving);
        }
        local_s += seconds_since(t);
      }
    } else {
      // Counted here rather than in the counting pass below: a second
      // bracket would cost as much again.
      PerfScope scope(bracket_counters);
      const auto t = Clock::now();
      bracket = bracket_of(reference_);
      bracket_bound_s = seconds_since(t);
    }
    g_spans.enabled = false;

    // One counting pass: the workload's serving path with a PerfCounters
    // sink on this thread (the engine merges its shard sinks).
    PerfCounters counters = bracket_counters;
    {
      PerfScope scope(counters);
      if (w_.stream_ratio) {
        stream_iteration();
      } else {
        EngineOptions options = w_.plain;
        VecTraceSink sink;
        if (w_.durable) options.trace_sink = &sink;
        const EngineResult counted = ShardedEngine(w_.specs, options).run();
        counters += counted.counters;
      }
    }

    // Engine figures from the median-ish plain run.
    double skew = 0.0;
    {
      std::vector<double> busy(plain_result.shards, 0.0);
      for (const TenantResult& t : plain_result.tenants)
        busy[t.shard] += t.run.run_ns;
      double total = 0.0, peak = 0.0;
      for (const double b : busy) {
        total += b;
        peak = std::max(peak, b);
      }
      skew = total > 0.0 ? peak / (total / static_cast<double>(busy.size()))
                         : 0.0;
    }
    double step_batch_s = median(values(step));
    double step_p50_ms = median(step_all) * 1e3;
    if (!w_.stream_ratio) {
      step_batch_s = 0.0;
      for (const TenantResult& t : plain_result.tenants)
        step_batch_s += t.run.run_ns / 1e9;
      step_p50_ms = plain_result.batch_latency.p50_ns / 1e6;
    }
    const double run_s = median(plain_run);
    const double seq = median(seq_s);
    const double mb = 1e6;
    metrics = {
        {"scenario.make_s", median(make_s), "s"},
        {"core.step_batch_s", step_batch_s, "s"},
        {"core.step_batch_p50_ms", step_p50_ms, "ms"},
        {"solution.verify_s", median(verify_on) - median(verify_off), "s"},
        {"offline.estimate_opt_s", median(values(estimate)), "s"},
        {"offline.greedy_star_s", greedy_s, "s"},
        {"offline.local_search_s", local_s, "s"},
        {"bound.lower_s",
         w_.stream_ratio ? median(values(bound)) : bracket_bound_s, "s"},
        {"engine.run_s", run_s, "s"},
        {"engine.seq_s", seq, "s"},
        {"engine.speedup", run_s > 0.0 ? seq / run_s : 0.0, "x"},
        {"engine.shard_skew", skew, "x"},
        {"engine.batch_p50_ms", plain_result.batch_latency.p50_ns / 1e6, "ms"},
        {"engine.batch_p99_ms", plain_result.batch_latency.p99_ns / 1e6, "ms"},
        {"engine.batches",
         static_cast<double>(plain_result.batch_latency.count), "count"},
        {"recover.checkpoint_s", median(ckpt_run) - run_s, "s"},
        {"recover.restore_s", median(restore_samples), "s"},
        {"recover.bytes_per_live_request",
         active_requests > 0 ? static_cast<double>(checkpoint_bytes) /
                                   static_cast<double>(active_requests)
                             : 0.0,
         "B"},
        {"obs.trace_write_s", w_.durable ? median(trace_write_s) : 0.0, "s"},
        {"obs.trace_mb",
         w_.durable ? static_cast<double>(last_traced->trace_bytes) / mb
                    : 0.0,
         "MB"},
        {"metric.distance_lookups",
         static_cast<double>(counters.distance_lookups), "count"},
        {"kernel.bids_evaluated", static_cast<double>(counters.bids_evaluated),
         "count"},
        {"kernel.bids_updated", static_cast<double>(counters.bids_updated),
         "count"},
        {"core.facilities_probed",
         static_cast<double>(counters.facilities_probed), "count"},
        {"solution.facilities_opened",
         static_cast<double>(counters.facilities_opened), "count"},
        {"solution.verifier_checks",
         static_cast<double>(counters.verifier_checks), "count"},
        {"solution.requests_shed", static_cast<double>(counters.requests_shed),
         "count"},
        {"solution.assignments_spilled",
         static_cast<double>(counters.assignments_spilled), "count"},
        {"bound.duals_raised", static_cast<double>(counters.duals_raised),
         "count"},
        {"obs.trace_events_emitted",
         static_cast<double>(counters.trace_events_emitted), "count"},
        {"trace_overhead_s", median(overheads), "s"},
        {"trace.span_cover", cover, "ratio"},
        {"host.parallel_efficiency", efficiency_, "ratio"},
        {"host.engine_threads", static_cast<double>(w_.plain.threads),
         "count"},
    };
    record_deterministic(bracket);
    PerfCounters::for_each_field(counters,
                                 [&](const char* name, std::uint64_t& v) {
                                   deterministic[std::string("counter.") +
                                                 name] = std::to_string(v);
                                 });
    // Self time per layer over every recorded span.
    std::vector<double> child(g_spans.records.size(), 0.0);
    for (const SpanRecord& s : g_spans.records)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    for (std::size_t i = 0; i < g_spans.records.size(); ++i) {
      const SpanRecord& s = g_spans.records[i];
      layer_self_s[layer_of(s.name)] += s.end_s - s.start_s - child[i];
    }
    double offline_bound = 0.0;
    for (const auto& [k, d] : estimate) offline_bound += d;
    for (const auto& [k, d] : bound) offline_bound += d;
    double traced_wall = 0.0;
    for (const double w : wall1) traced_wall += w;
    char share[64];
    std::snprintf(share, sizeof(share), "offline+bound share of traced wall %.3f",
                  traced_wall > 0.0 ? offline_bound / traced_wall : 0.0);
    notes.push_back(share);
    if (!args_.spans_out.empty()) write_spans();
  }

  void record_deterministic(const Bracket& bracket) {
    double active = 0.0;
    std::uint64_t shed = 0, arrivals = 0;
    std::ostringstream tenants;
    tenants.precision(17);
    for (const TenantOutcome& t : reference_tenants_) {
      active += t.active;
      shed += t.shed;
      arrivals += t.arrivals;
      tenants << t.gross << ',' << t.active << ',' << t.shed << ','
              << t.spilled << ',' << t.facilities << ','
              << t.active_requests << ';';
    }
    deterministic["active_cost"] = json_number(active);
    deterministic["opt_upper"] = json_number(bracket.upper);
    deterministic["opt_lower"] = json_number(bracket.lower);
    deterministic["shed_requests"] = std::to_string(shed);
    deterministic["arrivals"] = std::to_string(arrivals);
    deterministic["tenants"] = std::to_string(
        std::hash<std::string>{}(tenants.str()));
  }

  void write_spans() const {
    std::ofstream out(args_.spans_out);
    for (std::size_t i = 0; i < g_spans.records.size(); ++i) {
      const SpanRecord& s = g_spans.records[i];
      out << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
          << ",\"layer\":" << json_string(layer_of(s.name))
          << ",\"start_s\":" << json_number(s.start_s)
          << ",\"end_s\":" << json_number(s.end_s)
          << ",\"parent\":" << s.parent
          << ",\"workload\":" << json_string(args_.workload)
          << ",\"iteration\":" << s.iteration << "}\n";
    }
  }

  const Args& args_;
  Workload w_;
  std::vector<double> setup_s_;
  double efficiency_ = 0.0;
  CpuRotation cpus_;
  std::vector<EventStream> streams_;  // stream-ratio inputs
  std::vector<std::unique_ptr<OnlineAlgorithm>> algorithms_;
  std::optional<ShardedEngine> engine_;  // serve inputs
  std::vector<EventStream> seq_streams_;
  EngineResult reference_;
  std::vector<TenantOutcome> reference_tenants_;
  std::string spec_;
  FaultPlan plan_ = FaultPlan::parse("crashes=0");
  VecTraceSink trace_events_;
};

void print_report(const Args& args, const Runner& runner) {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(args.workload)
     << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"attempted\":" << g_checks.attempted
     << ",\"failed\":" << g_checks.failed << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : runner.metrics) {
    os << (first ? "" : ",") << json_string(m.name) << ":{\"value\":"
       << json_number(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  os << "},\"deterministic\":{";
  first = true;
  for (const auto& [k, v] : runner.deterministic) {
    os << (first ? "" : ",") << json_string(k) << ":" << json_string(v);
    first = false;
  }
  os << "},\"layer_self_s\":{";
  first = true;
  for (const auto& [k, v] : runner.layer_self_s) {
    os << (first ? "" : ",") << json_string(k) << ":" << json_number(v);
    first = false;
  }
  const Workload& w = runner.workload();
  os << "},\"host\":{\"engine_threads\":" << w.plain.threads
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"parallel_efficiency\":" << json_number(runner.efficiency())
     << ",\"compiler\":" << json_string(E2E_COMPILER)
     << ",\"build_type\":" << json_string(E2E_BUILD_TYPE)
     << ",\"build_flags\":" << json_string(E2E_BUILD_FLAGS)
     << "},\"notes\":[";
  first = true;
  for (const std::string& note : runner.notes) {
    os << (first ? "" : ",") << json_string(note);
    first = false;
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    fs::create_directories(args.work_dir);
    Runner runner(args);
    runner.run();
    print_report(args, runner);
    return g_checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
