// omflp — the scenario-engine command line. `omflp --help` lists the
// verbs (list, run, sweep, replay, stream, bound, serve, explain, bench,
// compare) with their options; `omflp <verb> --help` lists one verb's.
// Both print the option tables the parser reads.
//
// Examples:
//   omflp run --scenario clustered --algorithm pd --seed 3 --set clusters=8
//   omflp run --scenario theorem2 --save trace.omflp
//   omflp replay trace.omflp --algorithm rand --seed 7
//   omflp sweep --scenarios all --algorithms pd,rand --seeds 8
//               ... --csv sweep.csv --json sweep.json
//   omflp stream --scenario churn-uniform --algorithm pd --save churn.omflp
//   omflp stream --trace churn.omflp --algorithm greedy --batch 4096
//   omflp serve --tenants 16 --mix mixed --algorithm pd --seq-baseline
//   omflp bound --scenario theorem2 --algorithm pd --assert-paper-bound
//   omflp bound --stream churn-uniform --window 4096 --algorithm pd
//   omflp bench --quick --out BENCH_default.json
//   omflp compare benchmarks/BENCH_baseline.json BENCH_default.json
//               ... --threshold 1.15
//
// Every run is a deterministic function of (scenario, parameters, seed):
// `replay` on a trace saved by `run --save` reproduces the same total
// cost exactly, as does re-running `run` with the same arguments; the
// same holds for `stream --trace` on a trace saved by `stream --save`.
// `stream --trace` reads the trace in bounded-memory batches and compacts
// retired ledger records, so million-event traces process in O(active
// set + batch) resident state.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/competitive.hpp"
#include "bound/registry.hpp"
#include "bound/window.hpp"
#include "core/stream_runner.hpp"
#include "engine/sharded_engine.hpp"
#include "instance/io.hpp"
#include "instance/stream_io.hpp"
#include "instance/tracelog_io.hpp"
#include "obs/explain.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/trace_sink.hpp"
#include "perf/bench_compare.hpp"
#include "perf/bench_suite.hpp"
#include "recover/checkpoint_store.hpp"
#include "recover/fault_plan.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/stream_registry.hpp"
#include "scenario/sweep.hpp"
#include "solution/verifier.hpp"
#include "support/atomic_file.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

namespace {

using namespace omflp;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

void parse_set(const std::string& text,
               std::map<std::string, double>& overrides) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0)
    throw std::invalid_argument("--set expects key=value, got '" + text +
                                "'");
  const std::string key = text.substr(0, eq);
  overrides[key] = parse_double_arg(text.substr(eq + 1), "--set " + key);
}

OverflowPolicy parse_overflow_arg(const std::string& value) {
  if (value == "reassign") return OverflowPolicy::kReassign;
  if (value == "reject") return OverflowPolicy::kReject;
  throw std::invalid_argument(
      "--overflow expects reassign or reject, got '" + value + "'");
}

// --------------------------------------------------------------- options ---
//
// Each verb declares its flags once, as rows of an option table bound to
// the verb's argument struct, whose member initializers are the defaults.
// The same rows drive the parser and `omflp <verb> --help`, so a flag
// cannot be accepted without being documented.

/// One flag: its name, the placeholder of its value (empty for a
/// switch), its help text and what it sets.
struct Option {
  std::string flag;
  std::string value;
  std::string help;
  std::function<void(const std::string&)> set;
};

struct OptionTable {
  std::vector<Option> options;
  /// Takes one positional operand or refuses it (the argument is then an
  /// unknown option); null for verbs without operands.
  std::function<bool(const std::string&)> operand;
};

// Strings verbatim; numbers through the strict parsers of
// support/parse.hpp, whose messages name the flag ("--trials -5" is
// rejected instead of wrapping to 2^64-5); std::optional fields through
// their value type.
template <class T>
void assign(T& target, const std::string& text, const std::string& flag) {
  if constexpr (std::is_same_v<T, std::string>)
    target = text;
  else if constexpr (std::is_floating_point_v<T>)
    target = parse_double_arg(text, flag);
  else if constexpr (std::is_integral_v<T>)
    target = static_cast<T>(parse_u64_arg(text, flag));
  else
    assign(target.emplace(), text, flag);
}

/// `flag VALUE`, parsed into `target`. --help shows the field's value
/// when the table is built (the default), unless it is empty or unset.
template <class T>
Option value(std::string flag, std::string placeholder, std::string help,
             T& target) {
  std::ostringstream fallback;
  if constexpr (std::is_arithmetic_v<T> || std::is_same_v<T, std::string>)
    fallback << target;
  if (!fallback.str().empty()) help += " (default: " + fallback.str() + ")";
  return {flag, std::move(placeholder), std::move(help),
          [&target, flag](const std::string& text) {
            assign(target, text, flag);
          }};
}

/// A switch: `flag` sets `target` to `to`.
template <class T>
Option toggle(std::string flag, std::string help, T& target, T to) {
  return {std::move(flag), "", std::move(help),
          [&target, to](const std::string&) { target = to; }};
}

// Rows several verbs share.
Option scenario_row(std::string& name, std::string help) {
  return value("--scenario", "NAME", std::move(help), name);
}

Option algorithm_row(std::string& name,
                     std::string help = "online algorithm from `omflp "
                                        "list`") {
  return value("--algorithm", "NAME", std::move(help), name);
}

Option seed_row(std::uint64_t& seed) {
  return value("--seed", "N",
               "seed of the workload and of the algorithm's coins", seed);
}

Option threads_row(std::size_t& threads) {
  return value("--threads", "N", "worker threads, 0 = hardware / "
               "OMFLP_THREADS", threads);
}

Option batch_row(std::size_t& batch, std::string help) {
  return value("--batch", "N", std::move(help), batch);
}

Option set_row(std::map<std::string, double>& overrides,
               std::string help = "override a scenario parameter "
                                  "(repeatable)") {
  return {"--set", "key=value", std::move(help),
          [&overrides](const std::string& text) {
            parse_set(text, overrides);
          }};
}

Option overflow_row(OverflowPolicy& policy) {
  return {"--overflow", "POLICY",
          std::string("reassign | reject at a full facility (default: ") +
              overflow_policy_tag(policy) + ")",
          [&policy](const std::string& text) {
            policy = parse_overflow_arg(text);
          }};
}

void parse_options(const std::string& verb, const OptionTable& table,
                   const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto row =
        std::find_if(table.options.begin(), table.options.end(),
                     [&](const Option& option) { return option.flag == arg; });
    if (row == table.options.end()) {
      if (!table.operand || arg.empty() || arg[0] == '-' ||
          !table.operand(arg))
        throw std::invalid_argument(verb + ": unknown option " + arg);
    } else if (row->value.empty()) {
      row->set(arg);
    } else if (i + 1 < args.size()) {
      row->set(args[++i]);
    } else {
      throw std::invalid_argument("missing value after " + arg);
    }
  }
}

/// `head`, padded to the help column, then `text` word-wrapped at 79.
void write_row(std::ostream& os, std::string head, const std::string& text) {
  constexpr std::size_t kColumn = 30;
  constexpr std::size_t kWidth = 79;
  head.resize(std::max(head.size() + 2, kColumn), ' ');
  std::string line = std::move(head);
  bool fresh = true;  // no word on `line` yet
  std::istringstream words(text);
  for (std::string word; words >> word;) {
    if (!fresh && line.size() + 1 + word.size() > kWidth) {
      os << line << "\n";
      line.assign(kColumn, ' ');
      fresh = true;
    }
    line += (fresh ? "" : " ") + word;
    fresh = false;
  }
  os << line << "\n";
}

void write_options(std::ostream& os, const OptionTable& table) {
  for (const Option& option : table.options)
    write_row(os,
              "    " + option.flag +
                  (option.value.empty() ? "" : " " + option.value),
              option.help);
}

// ------------------------------------------------------------------ list ---

struct ListArgs {
  OptionTable table() { return {}; }
};

int cmd_list(const ListArgs&) {
  const ScenarioRegistry& scenarios = default_scenario_registry();
  const StreamScenarioRegistry& streams = default_stream_scenario_registry();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();

  const auto write_scenarios = [](const auto& registry) {
    for (const std::string& name : registry.names()) {
      const auto& spec = registry.spec(name);
      std::cout << "  " << name << " — " << spec.description << "\n";
      for (const ScenarioParam& param : spec.params)
        std::cout << "      " << param.name << " = " << param.value << "  ("
                  << param.description << ")\n";
    }
  };
  std::cout << "scenarios (" << scenarios.size() << "):\n";
  write_scenarios(scenarios);
  std::cout << "\nstream scenarios (" << streams.size()
            << ", for `omflp stream`):\n";
  write_scenarios(streams);
  const WorkloadMixRegistry& mixes = default_workload_mix_registry();
  std::cout << "\nworkload mixes (" << mixes.size()
            << ", for `omflp serve`):\n";
  for (const std::string& name : mixes.names()) {
    const WorkloadMixSpec& spec = mixes.spec(name);
    std::cout << "  " << name << " — " << spec.description
              << "\n      hotness " << spec.hotness << "; profiles:";
    for (const TenantProfile& profile : spec.profiles)
      std::cout << " " << profile.scenario << " (w=" << profile.weight
                << ")";
    std::cout << "\n";
  }
  std::cout << "\nalgorithms (" << algorithms.size() << "):\n";
  for (const std::string& name : algorithms.names()) {
    const AlgorithmSpec& spec = algorithms.spec(name);
    std::cout << "  " << name << (spec.randomized ? " [randomized]" : "")
              << " — " << spec.description << "\n";
  }
  return 0;
}

// ------------------------------------------------------------------- run ---

void report_run(const Instance& instance, const std::string& algorithm_name,
                std::uint64_t seed) {
  // The workload seed and the algorithm's coin seed are decorrelated (see
  // derive_algorithm_seed); replays with the same --seed stay identical.
  auto algorithm = default_algorithm_registry().make(
      algorithm_name, derive_algorithm_seed(seed));
  const SolutionLedger ledger = run_online(*algorithm, instance);
  if (const auto violation = verify_solution(instance, ledger))
    throw std::logic_error("invalid solution: " + violation->what);

  std::cout.precision(17);
  std::cout << "instance   " << instance.name() << " (n="
            << instance.num_requests() << ", |S|="
            << instance.num_commodities() << ", |M|="
            << instance.metric().num_points() << ")\n"
            << "algorithm  " << algorithm->name() << " (seed " << seed
            << ")\n"
            << "total      " << ledger.total_cost() << "\n"
            << "  opening    " << ledger.opening_cost() << "\n"
            << "  connection " << ledger.connection_cost() << "\n"
            << "facilities " << ledger.num_facilities() << " ("
            << ledger.num_small_facilities() << " small, "
            << ledger.num_large_facilities() << " large)\n";
  if (ledger.capacitated()) {
    const double shed_rate =
        instance.num_requests() > 0
            ? static_cast<double>(ledger.num_shed_requests()) /
                  static_cast<double>(instance.num_requests())
            : 0.0;
    std::cout << "admission  "
              << overflow_policy_tag(ledger.overflow_policy()) << ": "
              << ledger.num_shed_requests() << " requests shed ("
              << shed_rate * 100.0 << "% of requests), "
              << ledger.num_rejected_commodities() << " items rejected, "
              << ledger.num_spilled_assignments()
              << " assignments spilled\n";
  }
  OptEstimateOptions opt_options;
  opt_options.compute_lower = true;
  const OptEstimate opt = estimate_opt(instance, opt_options);
  std::cout << "opt        " << opt.cost << " (" << opt.method
            << (opt.exact ? ", exact" : ", upper bound") << ")\n";
  if (opt.lower_certified)
    std::cout << "opt lower  " << opt.lower << " (" << opt.lower_method
              << ", certified)\n";
  if (opt.lower_certified && opt.lower > 0.0) {
    // True ratio bracket: cost/upper under-estimates, cost/lower
    // (certified) over-estimates.
    std::cout << "ratio      [" << ledger.total_cost() / opt.cost << ", "
              << ledger.total_cost() / opt.lower
              << "]  (estimated, certified)\n";
  } else {
    std::cout << "ratio      " << ledger.total_cost() / opt.cost << "\n";
  }
}

struct RunArgs {
  std::string scenario;
  std::string algorithm = "pd";
  std::uint64_t seed = 1;
  std::map<std::string, double> overrides;
  std::string save_path;

  OptionTable table() {
    return {{scenario_row(scenario, "scenario to generate (required)"),
             algorithm_row(algorithm), seed_row(seed), set_row(overrides),
             value("--save", "FILE", "save the generated instance trace",
                   save_path)}};
  }
};

int cmd_run(const RunArgs& a) {
  if (a.scenario.empty())
    throw std::invalid_argument("run: --scenario is required");

  const Instance instance =
      default_scenario_registry().make(a.scenario, a.seed, a.overrides);
  if (!a.save_path.empty()) {
    AtomicFileWriter file(a.save_path);
    write_instance(file.stream(), instance);
    file.commit();
    std::cout << "saved      " << a.save_path << "\n";
  }
  report_run(instance, a.algorithm, a.seed);
  return 0;
}

// ---------------------------------------------------------------- replay ---

/// Takes the first positional operand into `path`; refuses a second.
std::function<bool(const std::string&)> one_operand(std::string& path) {
  return [&path](const std::string& arg) {
    if (!path.empty()) return false;
    path = arg;
    return true;
  };
}

struct ReplayArgs {
  std::string path;
  std::string algorithm = "pd";
  std::uint64_t seed = 1;

  OptionTable table() {
    return {{algorithm_row(algorithm), seed_row(seed)}, one_operand(path)};
  }
};

int cmd_replay(const ReplayArgs& a) {
  if (a.path.empty())
    throw std::invalid_argument("replay: an instance file is required");

  std::ifstream file(a.path);
  if (!file) throw std::runtime_error("cannot open " + a.path);
  const Instance instance = read_instance(file);
  report_run(instance, a.algorithm, a.seed);
  return 0;
}

// ---------------------------------------------------------------- stream ---

// The surviving set rebuilt from the ledger: compaction only ever drops
// retired records, so every still-active record is resident — this
// works identically for materialized scenarios and bounded-memory trace
// runs.
Instance surviving_from_ledger(const SolutionLedger& ledger,
                               const MetricPtr& metric,
                               const CostModelPtr& cost,
                               const std::string& name) {
  std::vector<Request> requests;
  requests.reserve(ledger.num_active_requests());
  for (const RequestRecord& record : ledger.request_records())
    if (record.active()) requests.push_back(record.request);
  return Instance(metric, cost, std::move(requests), name + "/surviving");
}

void report_stream(const std::string& stream_name,
                   const OnlineAlgorithm& algorithm, std::uint64_t seed,
                   const StreamRunResult& result, bool verified,
                   const MetricPtr& metric, const CostModelPtr& cost,
                   bool force_ratio) {
  const SolutionLedger& ledger = result.ledger;
  std::cout.precision(17);
  std::cout << "stream     " << stream_name << " (events=" << result.events
            << ", arrivals=" << result.arrivals << ", departures="
            << result.departures << ", expiries=" << result.lease_expiries
            << ", |S|=" << ledger.cost_model().num_commodities() << ", |M|="
            << ledger.metric().num_points() << ")\n"
            << "algorithm  " << algorithm.name() << " (seed " << seed
            << ")\n"
            << "throughput " << result.events_per_sec() << " events/s ("
            << result.run_ns / 1e6 << " ms)\n"
            << "gross      " << ledger.total_cost() << "\n"
            << "  opening    " << ledger.opening_cost() << "\n"
            << "  connection " << ledger.connection_cost() << "\n"
            << "active     " << ledger.active_cost() << " ("
            << ledger.num_active_requests() << " surviving requests)\n"
            << "facilities " << ledger.num_facilities() << " ("
            << ledger.num_small_facilities() << " small, "
            << ledger.num_large_facilities() << " large)\n"
            << "memory     peak " << result.peak_resident_records
            << " resident records (peak active " << result.peak_active
            << ")\n";
  if (ledger.capacitated()) {
    const double shed_rate =
        result.arrivals > 0
            ? static_cast<double>(ledger.num_shed_requests()) /
                  static_cast<double>(result.arrivals)
            : 0.0;
    std::cout << "admission  " << overflow_policy_tag(ledger.overflow_policy())
              << ": " << ledger.num_shed_requests() << " requests shed ("
              << shed_rate * 100.0 << "% of arrivals), "
              << ledger.num_rejected_commodities() << " items rejected, "
              << ledger.num_spilled_assignments() << " assignments spilled\n";
  }
  if (verified)
    std::cout << "verified   active-interval ledger OK\n";

  // OPT on the surviving set — the denominator of the dynamic competitive
  // ratio — estimated automatically for small surviving sets or on
  // request (--ratio). Beyond the local-search limit the bracket comes
  // from cheap certified endpoints instead: upper = the best
  // single-full-facility solution (open S at one point, connect
  // everyone — feasible by construction), lower = the chunked dual-ascent
  // bound, so even million-event traces get a [lower, upper] OPT bracket
  // in bounded memory.
  constexpr std::size_t kAutoRatioLimit = 2048;
  constexpr std::size_t kLocalSearchLimit = 8192;
  if (force_ratio || ledger.num_active_requests() <= kAutoRatioLimit) {
    const Instance surviving =
        surviving_from_ledger(ledger, metric, cost, stream_name);
    if (surviving.num_requests() > 0) {
      OptEstimate opt;
      if (surviving.num_requests() <= kLocalSearchLimit) {
        OptEstimateOptions opt_options;
        opt_options.compute_lower = true;
        opt = estimate_opt(surviving, opt_options);
      } else {
        opt.cost = kInfiniteDistance;
        const CommoditySet full =
            CommoditySet::full_set(cost->num_commodities());
        for (PointId m = 0; m < metric->num_points(); ++m) {
          double candidate = cost->open_cost(m, full);
          for (const Request& r : surviving.requests())
            candidate += metric->distance(m, r.location);
          if (candidate < opt.cost) opt.cost = candidate;
        }
        opt.exact = false;
        opt.method = "single-full-facility";
        try {
          WindowBoundOptions wopt;
          const ChunkedBound chunked =
              bound_instance_chunked(surviving, wopt);
          opt.lower = chunked.lower;
          opt.lower_certified = true;
          opt.lower_method = "dual-ascent/chunked(" +
                             std::to_string(chunked.chunks) + ")";
        } catch (const BoundUnsupportedError&) {
          opt.lower_method = "unsupported";
        }
      }
      std::cout << "opt(surv)  " << opt.cost << " (" << opt.method
                << (opt.exact ? ", exact" : ", upper bound") << ")\n";
      if (opt.lower_certified)
        std::cout << "lb(surv)   " << opt.lower << " (" << opt.lower_method
                  << ", certified)\n";
      if (opt.lower_certified && opt.lower > 0.0) {
        std::cout << "ratio      [" << ledger.active_cost() / opt.cost
                  << ", " << ledger.active_cost() / opt.lower
                  << "]  (estimated, certified — active cost vs OPT on "
                     "the surviving set)\n";
      } else {
        std::cout << "ratio      " << ledger.active_cost() / opt.cost
                  << "  (active cost vs OPT on the surviving set)\n";
      }
    }
  }
}

// run_stream with the observability taps of this CLI: a decision-trace
// writer installed around (only) the session stepping, and a per-batch
// latency CSV. Falls back to the plain runner when neither tap is
// requested, so the untapped path is exactly the library path.
StreamRunResult run_stream_observed(OnlineAlgorithm& algorithm,
                                    EventSource& source,
                                    const StreamRunOptions& options,
                                    const std::string& trace_out,
                                    const std::string& latency_csv) {
  if (trace_out.empty() && latency_csv.empty())
    return run_stream(algorithm, source, options);

  // Both taps stream into staging files and are published atomically on
  // success; a crash or exception mid-run abandons the temp files and
  // leaves any previous artifact intact.
  std::optional<AtomicFileWriter> trace_file;
  std::optional<TraceLogWriter> writer;
  std::optional<TraceScope> scope;
  if (!trace_out.empty()) {
    trace_file.emplace(trace_out);
    writer.emplace(trace_file->stream());
    scope.emplace(*writer);
  }
  std::optional<AtomicFileWriter> latency_file;
  if (!latency_csv.empty()) {
    latency_file.emplace(latency_csv);
    latency_file->stream()
        << "batch,events,total_events,batch_ns,events_per_sec\n";
  }

  StreamSession session(algorithm, source, options);
  std::uint64_t batch_index = 0;
  std::uint64_t total_events = 0;
  while (true) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t processed = session.step_batch();
    if (processed == 0) break;
    const double batch_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    total_events += processed;
    if (latency_file)
      latency_file->stream()
          << batch_index << ',' << processed << ',' << total_events << ','
          << batch_ns << ','
          << (batch_ns > 0.0
                  ? static_cast<double>(processed) * 1e9 / batch_ns
                  : 0.0)
          << '\n';
    ++batch_index;
  }
  // Uninstall before finish()/reporting so later analysis passes (opt
  // estimation re-runs dual ascent) do not leak into the trace.
  scope.reset();
  if (writer) {
    writer->finish();
    trace_file->commit();
    std::cout << "trace      " << writer->events_written() << " events -> "
              << trace_out << "\n";
  }
  if (latency_file) {
    latency_file->commit();
    std::cout << "latency    " << batch_index << " batch samples -> "
              << latency_csv << "\n";
  }
  return session.finish();
}

struct StreamArgs {
  std::string scenario;
  std::string trace_path;
  std::string algorithm = "pd";
  std::uint64_t seed = 1;
  std::map<std::string, double> overrides;
  std::string save_path;
  StreamRunOptions options{.verify = true};
  std::string trace_out;
  std::string latency_csv;
  bool force_ratio = false;

  OptionTable table() {
    return {{scenario_row(scenario, "generate this stream scenario, or"),
             value("--trace", "FILE",
                   "stream a saved trace from disk (bounded memory)",
                   trace_path),
             algorithm_row(algorithm), seed_row(seed), set_row(overrides),
             value("--save", "FILE", "save the generated stream trace",
                   save_path),
             batch_row(options.batch_size,
                       "events per IO/compaction batch"),
             toggle("--no-verify", "skip the incremental stream verifier",
                    options.verify, false),
             overflow_row(options.overflow),
             value("--trace-out", "FILE",
                   "write the decision trace (OMFLP-TRACELOG v1 jsonl)",
                   trace_out),
             value("--latency-csv", "FILE",
                   "write per-batch latency CSV (batch,events,batch_ns,...)",
                   latency_csv),
             toggle("--ratio",
                    "force the OPT(surviving) ratio bracket (with --trace "
                    "too: the ledger rebuilds the surviving set)",
                    force_ratio, true)}};
  }
};

int cmd_stream(const StreamArgs& a) {
  if (a.scenario.empty() == a.trace_path.empty())
    throw std::invalid_argument(
        "stream: exactly one of --scenario / --trace is required");

  auto algo = default_algorithm_registry().make(
      a.algorithm, derive_algorithm_seed(a.seed));

  auto finish = [&](const std::string& name, const StreamRunResult& result,
                    const MetricPtr& metric, const CostModelPtr& cost) {
    report_stream(name, *algo, a.seed, result,
                  a.options.verify && !result.violation, metric, cost,
                  a.force_ratio);
    if (result.violation)
      throw std::logic_error("invalid stream run: " +
                             result.violation->what);
    return 0;
  };

  if (!a.trace_path.empty()) {
    if (!a.save_path.empty())
      throw std::invalid_argument(
          "stream: --save applies to generated scenarios only");
    if (!a.overrides.empty())
      throw std::invalid_argument(
          "stream: --set applies to generated scenarios only; a trace "
          "replays exactly as saved");
    std::ifstream file(a.trace_path);
    if (!file) throw std::runtime_error("cannot open " + a.trace_path);
    StreamTraceReader reader(file);
    const StreamRunResult result = run_stream_observed(
        *algo, reader, a.options, a.trace_out, a.latency_csv);
    return finish(reader.name(), result, reader.metric(), reader.cost());
  }

  const EventStream stream =
      default_stream_scenario_registry().make(a.scenario, a.seed, a.overrides);
  if (!a.save_path.empty()) {
    AtomicFileWriter file(a.save_path);
    write_event_stream(file.stream(), stream);
    file.commit();
    std::cout << "saved      " << a.save_path << "\n";
  }
  MaterializedEventSource source(stream);
  const StreamRunResult result = run_stream_observed(
      *algo, source, a.options, a.trace_out, a.latency_csv);
  return finish(stream.name(), result, stream.metric_ptr(),
                stream.cost_ptr());
}

// ----------------------------------------------------------------- serve ---

// Peak resident set size in kB: VmHWM from /proc/self/status, or nothing
// where that file or field is unavailable (non-Linux hosts).
std::optional<std::uint64_t> peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    const std::size_t begin = line.find_first_of("0123456789");
    if (begin == std::string::npos) return std::nullopt;
    const std::size_t end = line.find_first_not_of("0123456789", begin);
    return parse_u64_strict(std::string_view(line).substr(
        begin, end == std::string::npos ? std::string::npos : end - begin));
  }
  return std::nullopt;
}

// The deterministic per-tenant block: costs, events and facility counts
// are pure functions of the tenant specs — independent of shards,
// threads, crash/restore cycles and placement. CI diffs it across shard
// and thread counts and across fault-injected runs.
std::string tenant_report(const EngineResult& result, bool verify) {
  TableWriter table({"tenant", "scenario", "events", "gross cost",
                     "active cost", "facilities", "shed", "spilled",
                     "verified"});
  table.set_precision(17);
  for (const TenantResult& tenant : result.tenants) {
    table.begin_row()
        .add(tenant.name)
        .add(tenant.scenario)
        .add(static_cast<long long>(tenant.run.events))
        .add(tenant.run.ledger.total_cost())
        .add(tenant.run.ledger.active_cost())
        .add(static_cast<long long>(tenant.run.ledger.num_facilities()))
        .add(static_cast<long long>(tenant.run.ledger.num_shed_requests()))
        .add(static_cast<long long>(
            tenant.run.ledger.num_spilled_assignments()))
        .add(!verify ? "off" : (tenant.run.violation ? "FAIL" : "ok"));
  }
  std::ostringstream os;
  table.write_markdown(os);
  return os.str();
}

struct ServeArgs {
  std::size_t tenants = 8;
  std::string mix = "mixed";
  std::string algorithm = "pd";
  std::uint64_t seed = 1;
  double scale = 1.0;
  EngineOptions options;
  bool seq_baseline = false;
  std::string metrics_out;
  std::uint64_t sample_every = 1;
  std::string trace_out;
  std::string fault_spec;
  std::string placement_spec;
  std::string report_out;

  OptionTable table() {
    return {{value("--tenants", "K", "tenant count", tenants),
             value("--mix", "NAME", "workload mix from `omflp list`", mix),
             algorithm_row(algorithm,
                           "serve every tenant with this algorithm"),
             seed_row(seed),
             value("--shards", "N", "worker shards, 0 = min(tenants, "
                   "threads)", options.shards),
             threads_row(options.threads),
             batch_row(options.batch_size, "events per tenant per round"),
             value("--scale", "X", "scale every tenant's workload size",
                   scale),
             toggle("--no-verify", "skip the per-tenant incremental "
                    "verifiers", options.verify, false),
             value("--capacity", "N", "uniform per-point facility capacity "
                   "for every tenant, 0 = the scenario's own",
                   options.capacity),
             overflow_row(options.overflow),
             toggle("--seq-baseline", "also run the tenants sequentially "
                    "and report the speedup", seq_baseline, true),
             value("--metrics-out", "FILE", "live per-shard telemetry "
                   "(.jsonl/.json -> JSONL, else CSV)", metrics_out),
             value("--sample-every", "N", "rounds between telemetry "
                   "samples", sample_every),
             value("--trace-out", "FILE", "write the merged decision trace "
                   "(tenant-order, deterministic)", trace_out),
             value("--checkpoint-dir", "DIR", "restore from / publish "
                   "OMFLP-CKPT generations in DIR", options.checkpoint_dir),
             value("--checkpoint-every", "N", "rounds between checkpoint "
                   "generations, 0 = restore only", options.checkpoint_every),
             value("--fault-plan", "SPEC", "deterministic crash injection, "
                   "e.g. crashes=2,seed=7,gap=8,torn=1", fault_spec),
             value("--placement", "LIST", "explicit tenant->shard placement "
                   "\"0,1,...\" (migration; default round-robin)",
                   placement_spec),
             value("--report-out", "FILE", "write the deterministic "
                   "per-tenant report (atomic)", report_out)}};
  }
};

int cmd_serve(const ServeArgs& a) {
  EngineOptions options = a.options;
  if (options.checkpoint_every > 0 && options.checkpoint_dir.empty())
    throw std::invalid_argument(
        "serve: --checkpoint-every requires --checkpoint-dir");
  if (!a.placement_spec.empty()) {
    std::istringstream fields(a.placement_spec);
    std::string field;
    while (std::getline(fields, field, ','))
      options.placement.push_back(
          parse_u64_arg(field, "--placement"));
  }
  std::optional<FaultPlan> fault_plan;
  if (!a.fault_spec.empty()) {
    if (options.checkpoint_dir.empty() || options.checkpoint_every == 0)
      throw std::invalid_argument(
          "serve: --fault-plan requires --checkpoint-dir and "
          "--checkpoint-every (a crash without checkpoints only loses "
          "work)");
    fault_plan = FaultPlan::parse(a.fault_spec);
    options.fault_plan = &*fault_plan;
  }

  std::vector<TenantSpec> specs =
      default_workload_mix_registry().tenants(a.mix, a.tenants, a.seed,
                                              a.scale);
  for (TenantSpec& spec : specs) spec.algorithm = a.algorithm;

  // Observability taps, wired into EngineOptions before construction.
  // The metrics stream stays open across injected crashes (the telemetry
  // of a restart *should* show the replayed rounds); it is published
  // atomically at the end.
  std::optional<AtomicFileWriter> metrics_file;
  std::optional<MetricsSampler> sampler;
  if (!a.metrics_out.empty()) {
    metrics_file.emplace(a.metrics_out);
    const bool jsonl =
        a.metrics_out.ends_with(".jsonl") || a.metrics_out.ends_with(".json");
    sampler.emplace(metrics_file->stream(),
                    jsonl ? MetricsSampler::Format::kJsonl
                          : MetricsSampler::Format::kCsv,
                    a.sample_every);
    options.sampler = &*sampler;
  }
  // Decision trace: streamed to the staging file `F.tmp` and published
  // as F at the end. Every engine start (first, after an injected crash,
  // in a restarted process) resumes `F.tmp` at its commit point, the
  // restored manifest's trace_seq; a crash leaves `F.tmp` behind.
  std::optional<TraceLogFile> trace;
  if (!a.trace_out.empty()) options.trace_sink = &trace.emplace(a.trace_out);

  // The serve loop: under a fault plan, every injected crash tears down
  // the engine (sessions, ledgers, algorithms — everything), corrupts
  // the newest checkpoint generation per the plan, and the next
  // iteration rebuilds from the newest *valid* one, exactly like a fresh
  // process would.
  std::optional<ShardedEngine> engine;
  EngineResult result;
  std::uint64_t restarts = 0;
  for (;;) {
    try {
      engine.emplace(specs, options);
      result = engine->run();
      break;
    } catch (const EngineCrash& crash) {
      engine.reset();
      ++restarts;
      const auto manifest =
          CheckpointStore(options.checkpoint_dir).latest_valid();
      std::cout << "crash      injected after round " << crash.round
                << "; restarting from round "
                << (manifest ? manifest->round : 0) << "\n";
    }
  }

  if (trace) {
    const std::uint64_t events = trace->commit();
    std::cout << "trace      " << events << " events -> " << a.trace_out
              << "\n";
  }
  if (sampler) {
    metrics_file->commit();
    std::cout << "metrics    per-shard telemetry (every " << a.sample_every
              << " round" << (a.sample_every == 1 ? "" : "s") << ") -> "
              << a.metrics_out << "\n";
  }

  std::cout.precision(17);
  std::cout << "engine     mix=" << a.mix << " tenants="
            << result.tenants.size() << " shards=" << result.shards
            << " threads=" << result.threads << " batch="
            << options.batch_size << " algorithm=" << a.algorithm
            << " (seed " << a.seed << ")\n"
            << "rounds     " << result.rounds << " (global clock)\n"
            << "events     " << result.total_events << " total\n"
            << "throughput " << result.events_per_sec()
            << " events/s aggregate (" << result.wall_ns / 1e6
            << " ms wall)\n";
  if (result.restored_from_round > 0 || result.checkpoints_published > 0 ||
      restarts > 0 || result.skipped_generations > 0) {
    // A skipped generation was unreadable (torn, corrupt or unparsable);
    // with none valid the run started cold.
    const std::uint64_t skipped = result.skipped_generations;
    std::cout << "recovery   ";
    if (result.restored_from_round == 0 && skipped > 0)
      std::cout << "no valid checkpoint generation, started from round 0";
    else
      std::cout << "restored from round " << result.restored_from_round;
    if (skipped > 0)
      std::cout << " (" << skipped << " unreadable generation"
                << (skipped == 1 ? "" : "s") << " skipped)";
    std::cout << ", " << result.checkpoints_published
              << " checkpoint generations published, " << restarts
              << " injected crash" << (restarts == 1 ? "" : "es") << "\n";
  }
  if (!options.checkpoint_dir.empty()) {
    std::uint64_t active = 0;
    for (const TenantResult& tenant : result.tenants)
      active += tenant.run.ledger.num_active_requests();
    std::cout << "checkpoint " << result.checkpoint_bytes
              << " bytes in the newest tenant files, bytes_per_live_request "
              << (active > 0 ? result.checkpoint_bytes / active : 0)
              << " (" << active << " active requests)\n";
  }
  const LatencySnapshot& latency = result.batch_latency;
  // A tail quantile is printed only when at least ten samples lie beyond
  // it (p95 needs 200 batches, p99 1,000, p999 10,000); on thinner
  // samples it would just repeat the max.
  const auto tail = [&](const char* label, double ns,
                        std::uint64_t min_count) {
    std::cout << ", " << label << ' ';
    if (latency.count >= min_count)
      std::cout << ns / 1e6 << " ms";
    else
      std::cout << "n/a";
  };
  std::cout << "latency    batch p50 " << latency.p50_ns / 1e6 << " ms";
  tail("p95", latency.p95_ns, 200);
  tail("p99", latency.p99_ns, 1000);
  tail("p999", latency.p999_ns, 10000);
  std::cout << ", max " << latency.max_ns / 1e6 << " ms (" << latency.count
            << " batches)\n"
            << "aggregate  gross " << result.aggregate_gross_cost
            << " active " << result.aggregate_active_cost << "\n";
  if (options.capacity > 0 || result.aggregate_shed_requests > 0 ||
      result.aggregate_spilled_assignments > 0)
    std::cout << "admission  " << overflow_policy_tag(options.overflow)
              << (options.capacity > 0
                      ? " (capacity " + std::to_string(options.capacity) + ")"
                      : "")
              << ": " << result.aggregate_shed_requests
              << " requests shed, " << result.aggregate_spilled_assignments
              << " assignments spilled\n";
  // Host-dependent, like the throughput line: printed, never part of the
  // deterministic report written by --report-out.
  if (const auto kb = peak_rss_kb()) {
    std::ostringstream mb;
    mb << std::fixed << std::setprecision(1)
       << static_cast<double>(*kb) / 1024.0;
    std::cout << "memory     peak RSS " << mb.str() << " MB (VmHWM)\n";
  } else {
    std::cout << "memory     peak RSS n/a\n";
  }

  const std::string report = tenant_report(result, options.verify);
  std::cout << report;
  if (!a.report_out.empty()) {
    write_file_atomic(a.report_out, report);
    std::cout << "report     " << a.report_out << "\n";
  }

  if (const TenantResult* violation = result.first_violation())
    throw std::logic_error("invalid serve run: tenant '" + violation->name +
                           "': " + violation->run.violation->what);
  if (options.verify)
    std::cout << "verified   all " << result.tenants.size()
              << " tenant ledgers OK\n";

  if (a.seq_baseline) {
    // The same tenants, one run_stream after another on this thread —
    // the loop the engine's aggregate throughput is judged against.
    // Stream generation is excluded from the timing on both sides.
    // Streams and algorithm instances are built before the timer on
    // both sides (the engine constructs its sessions before its own
    // wall timer starts), so the comparison times serving only.
    StreamRunOptions run_options;
    run_options.batch_size = options.batch_size;
    run_options.verify = options.verify;
    run_options.overflow = options.overflow;
    std::vector<EventStream> streams;
    std::vector<std::unique_ptr<OnlineAlgorithm>> algorithms;
    streams.reserve(engine->tenants().size());
    algorithms.reserve(engine->tenants().size());
    for (const TenantSpec& spec : engine->tenants()) {
      streams.push_back(default_stream_scenario_registry().make(
          spec.scenario, spec.seed, spec.overrides));
      algorithms.push_back(default_algorithm_registry().make(
          spec.algorithm, derive_algorithm_seed(spec.seed)));
    }
    BenchTimer timer;
    std::uint64_t events = 0;
    struct SeqTotals {
      double gross, active;
      std::uint64_t shed, spilled;
    };
    std::vector<SeqTotals> totals;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      // Mirror the engine's per-tenant uniform capacity override.
      if (options.capacity > 0)
        run_options.capacities =
            std::make_shared<const std::vector<std::uint64_t>>(
                streams[i].metric().num_points(), options.capacity);
      const StreamRunResult sequential =
          run_stream(*algorithms[i], streams[i], run_options);
      events += sequential.events;
      totals.push_back({sequential.ledger.total_cost(),
                        sequential.ledger.active_cost(),
                        sequential.ledger.num_shed_requests(),
                        sequential.ledger.num_spilled_assignments()});
    }
    const double wall_ns = timer.elapsed_ns();
    const double seq_events_per_sec =
        wall_ns > 0.0 ? static_cast<double>(events) * 1e9 / wall_ns : 0.0;
    for (std::size_t i = 0; i < totals.size(); ++i) {
      const SolutionLedger& engine_ledger = result.tenants[i].run.ledger;
      if (totals[i].gross != engine_ledger.total_cost() ||
          totals[i].active != engine_ledger.active_cost() ||
          totals[i].shed != engine_ledger.num_shed_requests() ||
          totals[i].spilled != engine_ledger.num_spilled_assignments())
        throw std::logic_error(
            "serve: sequential baseline diverged from the engine on "
            "tenant '" + result.tenants[i].name + "'");
    }
    std::cout << "sequential " << seq_events_per_sec << " events/s ("
              << wall_ns / 1e6 << " ms wall); engine speedup "
              << (seq_events_per_sec > 0.0
                      ? result.events_per_sec() / seq_events_per_sec
                      : 0.0)
              << "x; per-tenant costs bitwise identical\n";
  }
  return 0;
}

// --------------------------------------------------------------- explain ---

struct ExplainArgs {
  std::string path;
  ExplainOptions options;
  TraceLogReadMode mode = TraceLogReadMode::kStrict;

  OptionTable table() {
    return {{value("--facility", "N", "why did facility N open (bids, "
                   "tightness, rollbacks)", options.facility),
             value("--request", "N", "every event involving request N",
                   options.request),
             toggle("--recover", "accept a torn/corrupt tracelog and use "
                    "its valid prefix", mode,
                    TraceLogReadMode::kRecoverPrefix)},
            one_operand(path)};
  }
};

int cmd_explain(const ExplainArgs& a) {
  if (a.path.empty())
    throw std::invalid_argument("explain: a tracelog file is required");
  if (a.options.facility && a.options.request)
    throw std::invalid_argument(
        "explain: --facility and --request are mutually exclusive");

  std::ifstream file(a.path);
  if (!file) throw std::runtime_error("cannot open " + a.path);
  TraceLogReader reader(file, a.mode);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.next(event)) events.push_back(std::move(event));
  if (reader.truncated())
    std::cout << "recovered  " << reader.events_read()
              << "-event valid prefix of a torn tracelog\n";
  std::cout << explain_trace(events, a.options);
  return 0;
}

// ----------------------------------------------------------------- sweep ---

/// `--scenarios a,b|all` and `--algorithms a,b|all`: an empty list
/// crosses every registered name.
Option names_row(std::string flag, std::string help,
                 std::vector<std::string>& names) {
  return {std::move(flag), "a,b|all", std::move(help) + " (default: all)",
          [&names](const std::string& text) {
            if (text != "all") names = split_csv(text);
          }};
}

struct SweepArgs {
  SweepOptions options;
  std::string csv_path;
  std::string json_path;

  OptionTable table() {
    return {{names_row("--scenarios", "scenarios to cross",
                       options.scenarios),
             names_row("--algorithms", "algorithms to cross",
                       options.algorithms),
             value("--seeds", "N", "seeds per cell", options.seeds),
             value("--seed-base", "N", "first seed", options.seed_base),
             set_row(options.overrides, "override a parameter where a "
                     "scenario declares it (repeatable)"),
             threads_row(options.threads),
             toggle("--ratio", "compute certified lower bounds (the "
                    "lower / certified_ratio / gap columns)",
                    options.opt.compute_lower, true),
             value("--csv", "FILE", "write per-cell CSV here instead of "
                   "stdout", csv_path),
             value("--json", "FILE", "also write per-cell JSON",
                   json_path)}};
  }
};

int cmd_sweep(const SweepArgs& a) {
  const SweepResult result = run_sweep(a.options);
  if (a.csv_path.empty()) {
    result.write_csv(std::cout);
  } else {
    AtomicFileWriter file(a.csv_path);
    result.write_csv(file.stream());
    file.commit();
    std::cout << "wrote " << result.cells().size() << " cells ("
              << result.scenarios().size() << " scenarios x "
              << result.algorithms().size() << " algorithms, "
              << result.seeds() << " seeds each) to " << a.csv_path << "\n";
  }
  if (!a.json_path.empty()) {
    AtomicFileWriter file(a.json_path);
    result.write_json(file.stream());
    file.commit();
    std::cout << "wrote JSON to " << a.json_path << "\n";
  }
  return 0;
}

// ----------------------------------------------------------------- bound ---

// Shared tail of cmd_bound: optionally run `algorithm` for the cost
// numerator, print the certified ratio, apply the gates. `cost` is the
// gross/total cost the given lower bound certifies a ratio against;
// `paper_n` is the request count entering H_n of Theorem 4's bound.
// Output contains no timing — CI diffs it bitwise across thread counts.
int bound_gates(double cost, bool have_cost, double lower,
                std::size_t num_commodities, std::size_t paper_n,
                std::optional<double> max_certified_ratio,
                bool assert_paper_bound) {
  if (!have_cost) {
    if (max_certified_ratio || assert_paper_bound)
      throw std::invalid_argument(
          "bound: the ratio gates need --algorithm to produce a cost");
    return 0;
  }
  if (lower <= 0.0) {
    std::cout << "certified  ratio unavailable (lower bound is 0)\n";
    if (max_certified_ratio || assert_paper_bound) {
      std::cout << "FAIL       a gate was requested but the lower bound "
                   "is vacuous\n";
      return 1;
    }
    return 0;
  }
  const double certified_ratio = cost / lower;
  std::cout << "certified  ratio " << certified_ratio
            << " (cost / certified lower bound; true ratio <= this)\n";
  int exit_code = 0;
  if (max_certified_ratio) {
    if (certified_ratio > *max_certified_ratio) {
      std::cout << "FAIL       certified ratio " << certified_ratio
                << " exceeds --max-certified-ratio "
                << *max_certified_ratio << "\n";
      exit_code = 1;
    } else {
      std::cout << "ok         certified ratio within "
                << *max_certified_ratio << "\n";
    }
  }
  if (assert_paper_bound) {
    const double paper = theorem4_bound(num_commodities, paper_n);
    if (certified_ratio > paper) {
      std::cout << "FAIL       certified ratio " << certified_ratio
                << " exceeds Theorem 4's 15*sqrt(|S|)*H_n = " << paper
                << "\n";
      exit_code = 1;
    } else {
      std::cout << "ok         within Theorem 4's 15*sqrt(|S|)*H_n = "
                << paper << "\n";
    }
  }
  return exit_code;
}

struct BoundArgs {
  std::string scenario;
  std::string instance_path;
  std::string stream_scenario;
  std::string trace_path;
  std::uint64_t seed = 1;
  std::map<std::string, double> overrides;
  std::string method = "auto";
  std::size_t window = 4096;
  std::string algorithm;
  std::optional<double> max_certified_ratio;
  bool assert_paper_bound = false;
  std::string save_cert_path;

  OptionTable table() {
    return {{scenario_row(scenario, "bound a static scenario instance, or"),
             value("--instance", "FILE", "a saved instance trace, or",
                   instance_path),
             value("--stream", "NAME", "a stream scenario (windowed "
                   "decomposition), or", stream_scenario),
             value("--trace", "FILE", "a saved stream trace (bounded "
                   "memory)", trace_path),
             seed_row(seed), set_row(overrides),
             value("--method", "NAME", "static bound method named in "
                   "src/bound/registry.hpp", method),
             value("--window", "N", "arrivals per window/chunk", window),
             algorithm_row(algorithm, "also run this algorithm and report "
                           "the certified ratio"),
             value("--max-certified-ratio", "X", "exit 1 when cost / lower "
                   "exceeds X", max_certified_ratio),
             toggle("--assert-paper-bound", "exit 1 when the certified "
                    "ratio exceeds Theorem 4's 15*sqrt(|S|)*H_n (meaningful "
                    "for --algorithm pd)", assert_paper_bound, true),
             value("--save-cert", "FILE", "write the dual certificate "
                   "(static bounds)", save_cert_path)}};
  }
};

int cmd_bound(const BoundArgs& a) {
  const int sources = (a.scenario.empty() ? 0 : 1) +
                      (a.instance_path.empty() ? 0 : 1) +
                      (a.stream_scenario.empty() ? 0 : 1) +
                      (a.trace_path.empty() ? 0 : 1);
  if (sources != 1)
    throw std::invalid_argument(
        "bound: exactly one of --scenario / --instance / --stream / "
        "--trace is required");

  std::cout.precision(17);

  // ---- static instance: one registry bound, optional certificate dump.
  if (!a.scenario.empty() || !a.instance_path.empty()) {
    Instance instance = [&] {
      if (!a.scenario.empty())
        return default_scenario_registry().make(a.scenario, a.seed,
                                                a.overrides);
      if (!a.overrides.empty())
        throw std::invalid_argument(
            "bound: --set applies to generated scenarios only");
      std::ifstream file(a.instance_path);
      if (!file) throw std::runtime_error("cannot open " + a.instance_path);
      return read_instance(file);
    }();
    const BoundOutcome outcome =
        default_bound_registry().make(a.method, instance);
    std::cout << "instance   " << instance.name() << " (n="
              << instance.num_requests() << ", |S|="
              << instance.num_commodities() << ", |M|="
              << instance.metric().num_points() << ")\n"
              << "method     " << outcome.method << "\n"
              << "lower      " << outcome.lower << " (certified"
              << (outcome.exact ? ", exact" : "") << ")\n";
    if (!a.save_cert_path.empty()) {
      // An exact bound certifies itself; the file then holds the dual
      // ascent's verified certificate, whose (lower) bound is printed.
      const BoundOutcome saved = certificate_outcome(instance, outcome);
      AtomicFileWriter file(a.save_cert_path);
      write_certificate(file.stream(), *saved.certificate);
      file.commit();
      std::cout << "saved      " << a.save_cert_path;
      if (!outcome.certificate)
        std::cout << " (" << saved.method << " certificate, lower "
                  << saved.lower << ")";
      std::cout << "\n";
    }
    double cost = 0.0;
    bool have_cost = false;
    if (!a.algorithm.empty()) {
      auto algo = default_algorithm_registry().make(
          a.algorithm, derive_algorithm_seed(a.seed));
      const SolutionLedger ledger = run_online(*algo, instance);
      if (const auto violation = verify_solution(instance, ledger))
        throw std::logic_error("invalid solution: " + violation->what);
      cost = ledger.total_cost();
      have_cost = true;
      std::cout << "algorithm  " << algo->name() << " (seed " << a.seed
                << ")\n"
                << "cost       " << cost << "\n";
    }
    return bound_gates(cost, have_cost, outcome.lower,
                       instance.num_commodities(), instance.num_requests(),
                       a.max_certified_ratio, a.assert_paper_bound);
  }

  // ---- event stream: windowed decomposition, bounded memory. The sum of
  // per-window bounds certifies the windowed re-optimizing adversary (see
  // src/bound/window.hpp), the baseline the algorithm's *gross* cost is
  // compared against.
  if (!a.save_cert_path.empty())
    throw std::invalid_argument(
        "bound: --save-cert applies to static bounds (stream windows each "
        "carry their own certificate)");
  if (a.method != "auto")
    throw std::invalid_argument(
        "bound: --method applies to static bounds (streams always use "
        "the windowed dual ascent)");
  WindowBoundOptions wopt;
  wopt.max_window_arrivals = a.window;
  StreamBoundResult bound_result;
  std::string name;
  std::size_t num_commodities = 0;
  if (!a.trace_path.empty()) {
    if (!a.overrides.empty())
      throw std::invalid_argument(
          "bound: --set applies to generated scenarios only");
    std::ifstream file(a.trace_path);
    if (!file) throw std::runtime_error("cannot open " + a.trace_path);
    StreamTraceReader reader(file);
    bound_result = bound_stream_windows(reader, wopt);
    name = reader.name();
    num_commodities = reader.cost()->num_commodities();
  } else {
    const EventStream stream = default_stream_scenario_registry().make(
        a.stream_scenario, a.seed, a.overrides);
    MaterializedEventSource source(stream);
    bound_result = bound_stream_windows(source, wopt);
    name = stream.name();
    num_commodities = stream.num_commodities();
  }
  std::cout << "stream     " << name << " (events=" << bound_result.events
            << ", arrivals=" << bound_result.arrivals << ")\n"
            << "windows    " << bound_result.windows << " ("
            << bound_result.forced_splits << " forced splits, largest "
            << bound_result.max_window_arrivals << " arrivals)\n"
            << "lower      " << bound_result.windowed_lower
            << " (windowed sum, certified vs the per-window re-optimizing "
               "adversary)\n";
  double cost = 0.0;
  bool have_cost = false;
  if (!a.algorithm.empty()) {
    auto algo = default_algorithm_registry().make(
        a.algorithm, derive_algorithm_seed(a.seed));
    StreamRunOptions run_options;
    run_options.verify = true;
    const StreamRunResult run = [&] {
      if (!a.trace_path.empty()) {
        std::ifstream file(a.trace_path);
        if (!file) throw std::runtime_error("cannot open " + a.trace_path);
        StreamTraceReader reader(file);
        return run_stream(*algo, reader, run_options);
      }
      const EventStream stream = default_stream_scenario_registry().make(
          a.stream_scenario, a.seed, a.overrides);
      return run_stream(*algo, stream, run_options);
    }();
    if (run.violation)
      throw std::logic_error("invalid stream run: " + run.violation->what);
    cost = run.ledger.total_cost();
    have_cost = true;
    std::cout << "algorithm  " << algo->name() << " (seed " << a.seed << ")\n"
              << "gross      " << cost << "\n";
  }
  return bound_gates(cost, have_cost, bound_result.windowed_lower,
                     num_commodities,
                     static_cast<std::size_t>(bound_result.arrivals),
                     a.max_certified_ratio, a.assert_paper_bound);
}

// ----------------------------------------------------------------- bench ---

struct BenchArgs {
  std::string out_path;
  bool quick = false;
  std::optional<std::uint64_t> trials;
  std::optional<std::uint64_t> warmup;

  OptionTable table() {
    return {{value("--out", "FILE", "BENCH json path (default: "
                   "BENCH_<suite>.json)", out_path),
             toggle("--quick", "fewer warmup/timed trials (CI smoke)", quick,
                    true),
             value("--trials", "N", "override timed trials per case", trials),
             value("--warmup", "N", "override warmup runs per case",
                   warmup)}};
  }
};

int cmd_bench(const BenchArgs& a) {
  // --quick picks the base profile; explicit --trials/--warmup override
  // it regardless of argument order.
  BenchOptions options = a.quick ? quick_bench_options() : BenchOptions{};
  if (a.trials) options.trials = *a.trials;
  if (a.warmup) options.warmup = *a.warmup;

  const BenchSuite suite = default_bench_suite();
  std::cout << "suite " << suite.name() << ": " << suite.size()
            << " cases, " << options.warmup << " warmup + "
            << options.trials << " timed trials each\n";
  options.progress = &std::cout;
  const BenchReport report = suite.run(options);
  std::cout << "\n";
  report.write_table(std::cout);

  const std::string out_path = a.out_path.empty()
                                   ? default_bench_filename(suite.name())
                                   : a.out_path;
  AtomicFileWriter file(out_path);
  report.write_json(file.stream());
  file.commit();
  std::cout << "\nwrote " << report.cases.size() << " cases (git "
            << report.git_sha << ", " << report.build_type << ") to "
            << out_path << "\n";
  return 0;
}

// --------------------------------------------------------------- compare ---

struct CompareArgs {
  std::vector<std::string> paths;
  CompareOptions options;
  bool report_only = false;

  OptionTable table() {
    return {{value("--threshold", "X", "regression gate on ns/op",
                   options.regression_threshold),
             toggle("--report-only", "never fail on wall time (CI trend "
                    "reporting)", report_only, true),
             toggle("--fail-on-missing", "treat baseline cases missing from "
                    "NEW as regressions", options.fail_on_missing, true),
             toggle("--counters-exact", "fail when a work counter both files "
                    "carry differs", options.counters_exact, true)},
            [this](const std::string& path) {
              paths.push_back(path);
              return true;
            }};
  }
};

int cmd_compare(const CompareArgs& a) {
  if (a.paths.size() != 2)
    throw std::invalid_argument(
        "compare: exactly two BENCH json files are required");

  const BenchReport old_report = read_bench_report_file(a.paths[0]);
  const BenchReport new_report = read_bench_report_file(a.paths[1]);
  std::cout << "old: " << a.paths[0] << " (git " << old_report.git_sha
            << ", " << old_report.build_type << ")\n"
            << "new: " << a.paths[1] << " (git " << new_report.git_sha
            << ", " << new_report.build_type << ")\n\n";
  const CompareReport comparison =
      compare_reports(old_report, new_report, a.options);
  comparison.write_table(std::cout);
  const bool slower = comparison.any_regression() && !a.report_only;
  return slower || comparison.counters_failed() ? 1 : 0;
}

// ----------------------------------------------------------------- verbs ---

struct Verb {
  std::string name;
  std::string operands;  // positional operands in the usage line
  std::string summary;
  std::function<void(std::ostream&)> write_options;
  std::function<int(const std::vector<std::string>&)> run;
};

/// A verb whose flags are `Args::table()` and whose body is `body`.
template <class Args>
Verb verb(std::string name, std::string operands, std::string summary,
          int (*body)(const Args&)) {
  Verb v{name, std::move(operands), std::move(summary), nullptr, nullptr};
  v.write_options = [](std::ostream& os) {
    Args args;
    write_options(os, args.table());
  };
  v.run = [name, body](const std::vector<std::string>& argv) {
    Args args;
    parse_options(name, args.table(), argv);
    return body(args);
  };
  return v;
}

const std::vector<Verb>& verbs() {
  static const std::vector<Verb> all = {
      verb("list", "", "list scenarios, mixes and algorithms", cmd_list),
      verb("run", "", "run one scenario under one algorithm", cmd_run),
      verb("sweep", "", "run a (scenario x algorithm x seed) cross-product",
           cmd_sweep),
      verb("replay", "FILE", "re-run a saved instance trace", cmd_replay),
      verb("stream", "", "process a dynamic event stream (arrivals + "
           "deletions)", cmd_stream),
      verb("bound", "", "certified lower bound on OPT (verified dual "
           "certificates)", cmd_bound),
      verb("serve", "", "drive the sharded multi-tenant stream engine",
           cmd_serve),
      verb("explain", "TRACELOG", "replay a decision trace and render the "
           "causal chain", cmd_explain),
      verb("bench", "", "run the perf suite, write BENCH json", cmd_bench),
      verb("compare", "OLD NEW", "diff two BENCH json files", cmd_compare)};
  return all;
}

/// The verb's summary line and its option rows.
void write_verb(std::ostream& os, const Verb& v) {
  write_row(os, "  " + v.name + (v.operands.empty() ? "" : " " + v.operands),
            v.summary);
  v.write_options(os);
}

int usage(std::ostream& os, int exit_code) {
  os << "usage: omflp <command> [options]\n"
        "\n"
        "commands:\n";
  for (const Verb& v : verbs()) write_verb(os, v);
  os << "\n`omflp <command> --help` lists one command's options.\n";
  return exit_code;
}

int verb_usage(const Verb& v) {
  std::ostringstream rows;
  v.write_options(rows);
  std::cout << "usage: omflp " << v.name
            << (v.operands.empty() ? "" : " " + v.operands)
            << (rows.str().empty() ? "" : " [options]") << "\n\n";
  write_verb(std::cout, v);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage(std::cerr, 2);
    const std::string command = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);
    const auto is_help = [](const std::string& arg) {
      return arg == "--help" || arg == "-h";
    };
    if (command == "help" || is_help(command)) return usage(std::cout, 0);
    const auto found = std::find_if(
        verbs().begin(), verbs().end(),
        [&](const Verb& v) { return v.name == command; });
    if (std::any_of(args.begin(), args.end(), is_help))
      return found == verbs().end() ? usage(std::cout, 0) : verb_usage(*found);
    if (found != verbs().end()) return found->run(args);
    std::cerr << "unknown command '" << command << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
