// omflp — the scenario-engine command line.
//
//   omflp list                          catalog of scenarios and algorithms
//   omflp run    --scenario S ...       run one (scenario, algorithm, seed)
//   omflp sweep  --scenarios a,b ...    mass-run a cross-product, emit CSV
//   omflp replay FILE ...               re-run a saved instance trace
//   omflp stream --scenario S ...       process a dynamic event stream
//   omflp serve  --tenants K ...        drive the sharded multi-tenant engine
//   omflp explain TRACELOG ...          replay a decision trace, render causality
//   omflp bound  --scenario S ...       certified OPT lower bound
//   omflp bench                         run the perf suite, emit BENCH json
//   omflp compare OLD NEW               diff two BENCH json files
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
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
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

int usage(std::ostream& os, int exit_code) {
  os << "usage: omflp <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                      list scenarios and algorithms\n"
        "  run                       run one scenario under one algorithm\n"
        "    --scenario NAME           required\n"
        "    --algorithm NAME          default: pd\n"
        "    --seed N                  default: 1\n"
        "    --set key=value           override a scenario parameter "
        "(repeatable)\n"
        "    --save FILE               save the generated instance trace\n"
        "  sweep                     run a (scenario x algorithm x seed) "
        "cross-product\n"
        "    --scenarios a,b|all       default: all\n"
        "    --algorithms a,b|all      default: all\n"
        "    --seeds N                 default: 8\n"
        "    --seed-base N             default: 1\n"
        "    --set key=value           override where declared "
        "(repeatable)\n"
        "    --threads N               default: hardware\n"
        "    --ratio                   compute certified lower bounds "
        "(fills the lower /\n"
        "                              certified_ratio / gap columns)\n"
        "    --csv FILE                write per-cell CSV (default: "
        "stdout)\n"
        "    --json FILE               also write per-cell JSON\n"
        "  replay FILE               re-run a saved instance trace\n"
        "    --algorithm NAME          default: pd\n"
        "    --seed N                  default: 1\n"
        "  stream                    process a dynamic event stream "
        "(arrivals + deletions)\n"
        "    --scenario NAME           generate a stream scenario, or\n"
        "    --trace FILE              stream a saved trace from disk "
        "(bounded memory)\n"
        "    --algorithm NAME          default: pd\n"
        "    --seed N                  default: 1\n"
        "    --set key=value           override a scenario parameter "
        "(repeatable)\n"
        "    --save FILE               save the generated stream trace\n"
        "    --batch N                 events per IO/compaction batch "
        "(default: 8192)\n"
        "    --no-verify               skip the incremental stream "
        "verifier\n"
        "    --overflow POLICY         reassign | reject at a full "
        "facility (capacitated streams; default: reassign)\n"
        "    --trace-out FILE          write the decision trace "
        "(OMFLP-TRACELOG v1 jsonl)\n"
        "    --latency-csv FILE        write per-batch latency CSV "
        "(batch,events,batch_ns,...)\n"
        "    --ratio                   force the OPT(surviving) ratio "
        "bracket (works with\n"
        "                              --trace too: the surviving set is "
        "rebuilt from the ledger)\n"
        "  bound                     certified lower bound on OPT (verified "
        "dual certificates)\n"
        "    --scenario NAME           bound a static scenario instance, "
        "or\n"
        "    --instance FILE           a saved instance trace, or\n"
        "    --stream NAME             a stream scenario (windowed "
        "decomposition), or\n"
        "    --trace FILE              a saved stream trace (bounded "
        "memory)\n"
        "    --seed N                  default: 1\n"
        "    --set key=value           override a scenario parameter "
        "(repeatable)\n"
        "    --method NAME             static bound method (default: auto; "
        "see src/bound/registry.hpp)\n"
        "    --window N                arrivals per window/chunk "
        "(default: 4096)\n"
        "    --algorithm NAME          also run the algorithm and report "
        "the certified ratio\n"
        "    --max-certified-ratio X   exit 1 when cost / lower exceeds "
        "X\n"
        "    --assert-paper-bound      exit 1 when the certified ratio "
        "exceeds Theorem 4's\n"
        "                              15*sqrt(|S|)*H_n (meaningful for "
        "--algorithm pd)\n"
        "    --save-cert FILE          write the dual certificate "
        "(static bounds)\n"
        "  serve                     drive the sharded multi-tenant stream "
        "engine\n"
        "    --tenants K               default: 8\n"
        "    --mix NAME                workload mix (default: mixed; see "
        "`omflp list`)\n"
        "    --algorithm NAME          serve every tenant with this "
        "algorithm (default: pd)\n"
        "    --seed N                  default: 1\n"
        "    --shards N                default: min(tenants, threads)\n"
        "    --threads N               default: hardware / OMFLP_THREADS\n"
        "    --batch N                 events per tenant per round "
        "(default: 2048)\n"
        "    --scale X                 scale every tenant's workload size "
        "(default: 1)\n"
        "    --no-verify               skip the per-tenant incremental "
        "verifiers\n"
        "    --capacity N              uniform per-point facility capacity "
        "for every tenant (default: 0 = scenario's own)\n"
        "    --overflow POLICY         reassign | reject at a full "
        "facility (default: reassign)\n"
        "    --seq-baseline            also run the tenants sequentially "
        "and report the speedup\n"
        "    --metrics-out FILE        live per-shard telemetry "
        "(.jsonl/.json -> JSONL, else CSV)\n"
        "    --sample-every N          rounds between telemetry samples "
        "(default: 1)\n"
        "    --trace-out FILE          write the merged decision trace "
        "(tenant-order, deterministic)\n"
        "    --checkpoint-dir DIR      restore from / publish OMFLP-CKPT "
        "generations in DIR\n"
        "    --checkpoint-every N      rounds between checkpoint "
        "generations (default: 0 = restore only)\n"
        "    --fault-plan SPEC         deterministic crash injection, e.g. "
        "crashes=2,seed=7,gap=8,torn=1\n"
        "    --placement \"0,1,...\"     explicit tenant->shard placement "
        "(migration; default round-robin)\n"
        "    --report-out FILE         write the deterministic per-tenant "
        "report (atomic)\n"
        "  explain TRACELOG          replay a decision trace and render "
        "the causal chain\n"
        "    --facility N              why did facility N open (bids, "
        "tightness, rollbacks)\n"
        "    --request N               every event involving request N\n"
        "    --recover                 accept a torn/corrupt tracelog and "
        "use its valid prefix\n"
        "  bench                     run the perf suite, write BENCH json\n"
        "    --out FILE                default: BENCH_<suite>.json\n"
        "    --quick                   fewer warmup/timed trials (CI "
        "smoke)\n"
        "    --trials N                override timed trials per case\n"
        "    --warmup N                override warmup runs per case\n"
        "  compare OLD NEW           diff two BENCH json files\n"
        "    --threshold X             regression gate on ns/op "
        "(default: 1.10)\n"
        "    --report-only             never fail on wall time (CI trend "
        "reporting)\n"
        "    --fail-on-missing         treat baseline cases missing from "
        "NEW as regressions\n"
        "    --counters-exact          fail when a work counter both files "
        "carry differs\n";
  return exit_code;
}

/// Pops the value of `--flag value`; throws on a missing value.
std::string take_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size())
    throw std::invalid_argument("missing value after " + args[i]);
  return args[++i];
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

// Strict parsers from support/parse.hpp: negative input no longer wraps
// ("--trials -5" used to become 2^64−5 through strtoull) and ERANGE
// overflow in either direction is rejected with a clear error.
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

// ------------------------------------------------------------------ list ---

int cmd_list() {
  const ScenarioRegistry& scenarios = default_scenario_registry();
  const StreamScenarioRegistry& streams = default_stream_scenario_registry();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();

  std::cout << "scenarios (" << scenarios.size() << "):\n";
  for (const std::string& name : scenarios.names()) {
    const ScenarioSpec& spec = scenarios.spec(name);
    std::cout << "  " << name << " — " << spec.description << "\n";
    for (const ScenarioParam& param : spec.params)
      std::cout << "      " << param.name << " = " << param.value << "  ("
                << param.description << ")\n";
  }
  std::cout << "\nstream scenarios (" << streams.size()
            << ", for `omflp stream`):\n";
  for (const std::string& name : streams.names()) {
    const StreamScenarioSpec& spec = streams.spec(name);
    std::cout << "  " << name << " — " << spec.description << "\n";
    for (const ScenarioParam& param : spec.params)
      std::cout << "      " << param.name << " = " << param.value << "  ("
                << param.description << ")\n";
  }
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

int cmd_run(const std::vector<std::string>& args) {
  std::string scenario;
  std::string algorithm = "pd";
  std::string save_path;
  std::uint64_t seed = 1;
  std::map<std::string, double> overrides;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scenario") scenario = take_value(args, i);
    else if (args[i] == "--algorithm") algorithm = take_value(args, i);
    else if (args[i] == "--seed") seed = parse_u64_arg(take_value(args, i), "--seed");
    else if (args[i] == "--set") parse_set(take_value(args, i), overrides);
    else if (args[i] == "--save") save_path = take_value(args, i);
    else throw std::invalid_argument("run: unknown option " + args[i]);
  }
  if (scenario.empty())
    throw std::invalid_argument("run: --scenario is required");

  const Instance instance =
      default_scenario_registry().make(scenario, seed, overrides);
  if (!save_path.empty()) {
    AtomicFileWriter file(save_path);
    write_instance(file.stream(), instance);
    file.commit();
    std::cout << "saved      " << save_path << "\n";
  }
  report_run(instance, algorithm, seed);
  return 0;
}

// ---------------------------------------------------------------- replay ---

int cmd_replay(const std::vector<std::string>& args) {
  std::string path;
  std::string algorithm = "pd";
  std::uint64_t seed = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--algorithm") algorithm = take_value(args, i);
    else if (args[i] == "--seed") seed = parse_u64_arg(take_value(args, i), "--seed");
    else if (!args[i].empty() && args[i][0] != '-' && path.empty())
      path = args[i];
    else throw std::invalid_argument("replay: unknown option " + args[i]);
  }
  if (path.empty())
    throw std::invalid_argument("replay: an instance file is required");

  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  const Instance instance = read_instance(file);
  report_run(instance, algorithm, seed);
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

int cmd_stream(const std::vector<std::string>& args) {
  std::string scenario;
  std::string trace_path;
  std::string algorithm = "pd";
  std::string save_path;
  std::string trace_out;
  std::string latency_csv;
  std::uint64_t seed = 1;
  std::map<std::string, double> overrides;
  StreamRunOptions options;
  options.verify = true;
  bool force_ratio = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scenario") scenario = take_value(args, i);
    else if (args[i] == "--trace") trace_path = take_value(args, i);
    else if (args[i] == "--algorithm") algorithm = take_value(args, i);
    else if (args[i] == "--seed")
      seed = parse_u64_arg(take_value(args, i), "--seed");
    else if (args[i] == "--set") parse_set(take_value(args, i), overrides);
    else if (args[i] == "--save") save_path = take_value(args, i);
    else if (args[i] == "--batch")
      options.batch_size = parse_u64_arg(take_value(args, i), "--batch");
    else if (args[i] == "--no-verify") options.verify = false;
    else if (args[i] == "--overflow")
      options.overflow = parse_overflow_arg(take_value(args, i));
    else if (args[i] == "--trace-out") trace_out = take_value(args, i);
    else if (args[i] == "--latency-csv") latency_csv = take_value(args, i);
    else if (args[i] == "--ratio") force_ratio = true;
    else throw std::invalid_argument("stream: unknown option " + args[i]);
  }
  if (scenario.empty() == trace_path.empty())
    throw std::invalid_argument(
        "stream: exactly one of --scenario / --trace is required");

  auto algo = default_algorithm_registry().make(
      algorithm, derive_algorithm_seed(seed));

  auto finish = [&](const std::string& name, const StreamRunResult& result,
                    const MetricPtr& metric, const CostModelPtr& cost) {
    report_stream(name, *algo, seed, result,
                  options.verify && !result.violation, metric, cost,
                  force_ratio);
    if (result.violation)
      throw std::logic_error("invalid stream run: " +
                             result.violation->what);
    return 0;
  };

  if (!trace_path.empty()) {
    if (!save_path.empty())
      throw std::invalid_argument(
          "stream: --save applies to generated scenarios only");
    if (!overrides.empty())
      throw std::invalid_argument(
          "stream: --set applies to generated scenarios only; a trace "
          "replays exactly as saved");
    std::ifstream file(trace_path);
    if (!file) throw std::runtime_error("cannot open " + trace_path);
    StreamTraceReader reader(file);
    const StreamRunResult result =
        run_stream_observed(*algo, reader, options, trace_out, latency_csv);
    return finish(reader.name(), result, reader.metric(), reader.cost());
  }

  const EventStream stream =
      default_stream_scenario_registry().make(scenario, seed, overrides);
  if (!save_path.empty()) {
    AtomicFileWriter file(save_path);
    write_event_stream(file.stream(), stream);
    file.commit();
    std::cout << "saved      " << save_path << "\n";
  }
  MaterializedEventSource source(stream);
  const StreamRunResult result =
      run_stream_observed(*algo, source, options, trace_out, latency_csv);
  return finish(stream.name(), result, stream.metric_ptr(),
                stream.cost_ptr());
}

// ----------------------------------------------------------------- serve ---

// Collects the engine's merged decision trace in memory so the fault
// harness can truncate it to the last checkpoint's trace_seq after an
// injected crash — the replay tail then re-emits exactly the dropped
// suffix, and the final log is bitwise identical to a crash-free run.
struct VecTraceSink final : TraceSink {
  std::vector<TraceEvent> events;
  void on_event(const TraceEvent& event) override {
    events.push_back(event);
  }
};

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

int cmd_serve(const std::vector<std::string>& args) {
  std::size_t tenants = 8;
  std::string mix = "mixed";
  std::string algorithm = "pd";
  std::string metrics_out;
  std::string trace_out;
  std::string fault_spec;
  std::string placement_spec;
  std::string report_out;
  std::uint64_t sample_every = 1;
  std::uint64_t seed = 1;
  double scale = 1.0;
  bool seq_baseline = false;
  EngineOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--tenants")
      tenants = parse_u64_arg(take_value(args, i), "--tenants");
    else if (args[i] == "--mix") mix = take_value(args, i);
    else if (args[i] == "--algorithm") algorithm = take_value(args, i);
    else if (args[i] == "--seed")
      seed = parse_u64_arg(take_value(args, i), "--seed");
    else if (args[i] == "--shards")
      options.shards = parse_u64_arg(take_value(args, i), "--shards");
    else if (args[i] == "--threads")
      options.threads = parse_u64_arg(take_value(args, i), "--threads");
    else if (args[i] == "--batch")
      options.batch_size = parse_u64_arg(take_value(args, i), "--batch");
    else if (args[i] == "--scale")
      scale = parse_double_arg(take_value(args, i), "--scale");
    else if (args[i] == "--no-verify") options.verify = false;
    else if (args[i] == "--capacity")
      options.capacity = parse_u64_arg(take_value(args, i), "--capacity");
    else if (args[i] == "--overflow")
      options.overflow = parse_overflow_arg(take_value(args, i));
    else if (args[i] == "--seq-baseline") seq_baseline = true;
    else if (args[i] == "--metrics-out") metrics_out = take_value(args, i);
    else if (args[i] == "--sample-every")
      sample_every = parse_u64_arg(take_value(args, i), "--sample-every");
    else if (args[i] == "--trace-out") trace_out = take_value(args, i);
    else if (args[i] == "--checkpoint-dir")
      options.checkpoint_dir = take_value(args, i);
    else if (args[i] == "--checkpoint-every")
      options.checkpoint_every =
          parse_u64_arg(take_value(args, i), "--checkpoint-every");
    else if (args[i] == "--fault-plan") fault_spec = take_value(args, i);
    else if (args[i] == "--placement") placement_spec = take_value(args, i);
    else if (args[i] == "--report-out") report_out = take_value(args, i);
    else throw std::invalid_argument("serve: unknown option " + args[i]);
  }
  if (options.checkpoint_every > 0 && options.checkpoint_dir.empty())
    throw std::invalid_argument(
        "serve: --checkpoint-every requires --checkpoint-dir");
  if (!placement_spec.empty()) {
    std::istringstream fields(placement_spec);
    std::string field;
    while (std::getline(fields, field, ','))
      options.placement.push_back(
          parse_u64_arg(field, "--placement"));
  }
  std::optional<FaultPlan> fault_plan;
  if (!fault_spec.empty()) {
    if (options.checkpoint_dir.empty() || options.checkpoint_every == 0)
      throw std::invalid_argument(
          "serve: --fault-plan requires --checkpoint-dir and "
          "--checkpoint-every (a crash without checkpoints only loses "
          "work)");
    fault_plan = FaultPlan::parse(fault_spec);
    options.fault_plan = &*fault_plan;
  }

  std::vector<TenantSpec> specs =
      default_workload_mix_registry().tenants(mix, tenants, seed, scale);
  for (TenantSpec& spec : specs) spec.algorithm = algorithm;

  // Observability taps, wired into EngineOptions before construction.
  // The metrics stream stays open across injected crashes (the telemetry
  // of a restart *should* show the replayed rounds); it is published
  // atomically at the end.
  std::optional<AtomicFileWriter> metrics_file;
  std::optional<MetricsSampler> sampler;
  if (!metrics_out.empty()) {
    metrics_file.emplace(metrics_out);
    const bool jsonl =
        metrics_out.size() >= 5 &&
        (metrics_out.rfind(".jsonl") == metrics_out.size() - 6 ||
         metrics_out.rfind(".json") == metrics_out.size() - 5);
    sampler.emplace(metrics_file->stream(),
                    jsonl ? MetricsSampler::Format::kJsonl
                          : MetricsSampler::Format::kCsv,
                    sample_every);
    options.sampler = &*sampler;
  }
  // Decision trace: streamed straight to the (atomically published) file
  // in normal runs. Under fault injection it is buffered in memory
  // instead, because every crash has to rewind the log to the last
  // checkpoint's trace_seq before the replay tail re-appends it.
  std::optional<AtomicFileWriter> trace_file;
  std::optional<TraceLogWriter> trace_writer;
  std::optional<VecTraceSink> trace_vec;
  if (!trace_out.empty()) {
    if (fault_plan) {
      trace_vec.emplace();
      options.trace_sink = &*trace_vec;
    } else {
      trace_file.emplace(trace_out);
      trace_writer.emplace(trace_file->stream());
      options.trace_sink = &*trace_writer;
    }
  }

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
      std::uint64_t resume_round = 0;
      std::uint64_t keep_trace = 0;
      CheckpointStore store(options.checkpoint_dir);
      if (const auto manifest = store.latest_valid()) {
        resume_round = manifest->round;
        keep_trace = manifest->trace_seq;
      }
      if (trace_vec && trace_vec->events.size() > keep_trace)
        trace_vec->events.resize(keep_trace);
      std::cout << "crash      injected after round " << crash.round
                << "; restarting from round " << resume_round << "\n";
    }
  }

  if (trace_vec) {
    trace_file.emplace(trace_out);
    TraceLogWriter writer(trace_file->stream());
    for (const TraceEvent& event : trace_vec->events)
      writer.on_event(event);
    writer.finish();
    trace_file->commit();
    std::cout << "trace      " << writer.events_written() << " events -> "
              << trace_out << "\n";
  } else if (trace_writer) {
    trace_writer->finish();
    trace_file->commit();
    std::cout << "trace      " << trace_writer->events_written()
              << " events -> " << trace_out << "\n";
  }
  if (sampler) {
    metrics_file->commit();
    std::cout << "metrics    per-shard telemetry (every " << sample_every
              << " round" << (sample_every == 1 ? "" : "s") << ") -> "
              << metrics_out << "\n";
  }

  std::cout.precision(17);
  std::cout << "engine     mix=" << mix << " tenants="
            << result.tenants.size() << " shards=" << result.shards
            << " threads=" << result.threads << " batch="
            << options.batch_size << " algorithm=" << algorithm
            << " (seed " << seed << ")\n"
            << "rounds     " << result.rounds << " (global clock)\n"
            << "events     " << result.total_events << " total\n"
            << "throughput " << result.events_per_sec()
            << " events/s aggregate (" << result.wall_ns / 1e6
            << " ms wall)\n";
  if (result.restored_from_round > 0 || result.checkpoints_published > 0 ||
      restarts > 0)
    std::cout << "recovery   restored from round "
              << result.restored_from_round << ", "
              << result.checkpoints_published
              << " checkpoint generations published, " << restarts
              << " injected crash" << (restarts == 1 ? "" : "es") << "\n";
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
  if (!report_out.empty()) {
    write_file_atomic(report_out, report);
    std::cout << "report     " << report_out << "\n";
  }

  if (const TenantResult* violation = result.first_violation())
    throw std::logic_error("invalid serve run: tenant '" + violation->name +
                           "': " + violation->run.violation->what);
  if (options.verify)
    std::cout << "verified   all " << result.tenants.size()
              << " tenant ledgers OK\n";

  if (seq_baseline) {
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

int cmd_explain(const std::vector<std::string>& args) {
  std::string path;
  ExplainOptions options;
  TraceLogReadMode mode = TraceLogReadMode::kStrict;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--facility")
      options.facility = static_cast<FacilityId>(
          parse_u64_arg(take_value(args, i), "--facility"));
    else if (args[i] == "--request")
      options.request = static_cast<RequestId>(
          parse_u64_arg(take_value(args, i), "--request"));
    else if (args[i] == "--recover")
      mode = TraceLogReadMode::kRecoverPrefix;
    else if (!args[i].empty() && args[i][0] != '-' && path.empty())
      path = args[i];
    else throw std::invalid_argument("explain: unknown option " + args[i]);
  }
  if (path.empty())
    throw std::invalid_argument("explain: a tracelog file is required");
  if (options.facility && options.request)
    throw std::invalid_argument(
        "explain: --facility and --request are mutually exclusive");

  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  TraceLogReader reader(file, mode);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.next(event)) events.push_back(std::move(event));
  if (reader.truncated())
    std::cout << "recovered  " << reader.events_read()
              << "-event valid prefix of a torn tracelog\n";
  std::cout << explain_trace(events, options);
  return 0;
}

// ----------------------------------------------------------------- sweep ---

int cmd_sweep(const std::vector<std::string>& args) {
  SweepOptions options;
  std::string csv_path;
  std::string json_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scenarios") {
      const std::string value = take_value(args, i);
      if (value != "all") options.scenarios = split_csv(value);
    } else if (args[i] == "--algorithms") {
      const std::string value = take_value(args, i);
      if (value != "all") options.algorithms = split_csv(value);
    } else if (args[i] == "--seeds") {
      options.seeds = parse_u64_arg(take_value(args, i), "--seeds");
    } else if (args[i] == "--seed-base") {
      options.seed_base = parse_u64_arg(take_value(args, i), "--seed-base");
    } else if (args[i] == "--set") {
      parse_set(take_value(args, i), options.overrides);
    } else if (args[i] == "--threads") {
      options.threads = parse_u64_arg(take_value(args, i), "--threads");
    } else if (args[i] == "--ratio") {
      options.opt.compute_lower = true;
    } else if (args[i] == "--csv") {
      csv_path = take_value(args, i);
    } else if (args[i] == "--json") {
      json_path = take_value(args, i);
    } else {
      throw std::invalid_argument("sweep: unknown option " + args[i]);
    }
  }

  const SweepResult result = run_sweep(options);
  if (csv_path.empty()) {
    result.write_csv(std::cout);
  } else {
    AtomicFileWriter file(csv_path);
    result.write_csv(file.stream());
    file.commit();
    std::cout << "wrote " << result.cells().size() << " cells ("
              << result.scenarios().size() << " scenarios x "
              << result.algorithms().size() << " algorithms, "
              << result.seeds() << " seeds each) to " << csv_path << "\n";
  }
  if (!json_path.empty()) {
    AtomicFileWriter file(json_path);
    result.write_json(file.stream());
    file.commit();
    std::cout << "wrote JSON to " << json_path << "\n";
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

int cmd_bound(const std::vector<std::string>& args) {
  std::string scenario;
  std::string instance_path;
  std::string stream_scenario;
  std::string trace_path;
  std::string method = "auto";
  std::string algorithm;
  std::string save_cert_path;
  std::uint64_t seed = 1;
  std::size_t window = 4096;
  std::optional<double> max_certified_ratio;
  bool assert_paper_bound = false;
  std::map<std::string, double> overrides;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scenario") scenario = take_value(args, i);
    else if (args[i] == "--instance") instance_path = take_value(args, i);
    else if (args[i] == "--stream") stream_scenario = take_value(args, i);
    else if (args[i] == "--trace") trace_path = take_value(args, i);
    else if (args[i] == "--method") method = take_value(args, i);
    else if (args[i] == "--algorithm") algorithm = take_value(args, i);
    else if (args[i] == "--seed")
      seed = parse_u64_arg(take_value(args, i), "--seed");
    else if (args[i] == "--set") parse_set(take_value(args, i), overrides);
    else if (args[i] == "--window")
      window = parse_u64_arg(take_value(args, i), "--window");
    else if (args[i] == "--max-certified-ratio")
      max_certified_ratio = parse_double_arg(take_value(args, i),
                                             "--max-certified-ratio");
    else if (args[i] == "--assert-paper-bound") assert_paper_bound = true;
    else if (args[i] == "--save-cert") save_cert_path = take_value(args, i);
    else throw std::invalid_argument("bound: unknown option " + args[i]);
  }
  const int sources = (scenario.empty() ? 0 : 1) +
                      (instance_path.empty() ? 0 : 1) +
                      (stream_scenario.empty() ? 0 : 1) +
                      (trace_path.empty() ? 0 : 1);
  if (sources != 1)
    throw std::invalid_argument(
        "bound: exactly one of --scenario / --instance / --stream / "
        "--trace is required");

  std::cout.precision(17);

  // ---- static instance: one registry bound, optional certificate dump.
  if (!scenario.empty() || !instance_path.empty()) {
    Instance instance = [&] {
      if (!scenario.empty())
        return default_scenario_registry().make(scenario, seed, overrides);
      if (!overrides.empty())
        throw std::invalid_argument(
            "bound: --set applies to generated scenarios only");
      std::ifstream file(instance_path);
      if (!file) throw std::runtime_error("cannot open " + instance_path);
      return read_instance(file);
    }();
    const BoundOutcome outcome =
        default_bound_registry().make(method, instance);
    std::cout << "instance   " << instance.name() << " (n="
              << instance.num_requests() << ", |S|="
              << instance.num_commodities() << ", |M|="
              << instance.metric().num_points() << ")\n"
              << "method     " << outcome.method << "\n"
              << "lower      " << outcome.lower << " (certified"
              << (outcome.exact ? ", exact" : "") << ")\n";
    if (!save_cert_path.empty()) {
      if (!outcome.certificate)
        throw std::invalid_argument("bound: method '" + method +
                                    "' produced no certificate to save");
      AtomicFileWriter file(save_cert_path);
      write_certificate(file.stream(), *outcome.certificate);
      file.commit();
      std::cout << "saved      " << save_cert_path << "\n";
    }
    double cost = 0.0;
    bool have_cost = false;
    if (!algorithm.empty()) {
      auto algo = default_algorithm_registry().make(
          algorithm, derive_algorithm_seed(seed));
      const SolutionLedger ledger = run_online(*algo, instance);
      if (const auto violation = verify_solution(instance, ledger))
        throw std::logic_error("invalid solution: " + violation->what);
      cost = ledger.total_cost();
      have_cost = true;
      std::cout << "algorithm  " << algo->name() << " (seed " << seed
                << ")\n"
                << "cost       " << cost << "\n";
    }
    return bound_gates(cost, have_cost, outcome.lower,
                       instance.num_commodities(), instance.num_requests(),
                       max_certified_ratio, assert_paper_bound);
  }

  // ---- event stream: windowed decomposition, bounded memory. The sum of
  // per-window bounds certifies the windowed re-optimizing adversary (see
  // src/bound/window.hpp), the baseline the algorithm's *gross* cost is
  // compared against.
  if (!save_cert_path.empty())
    throw std::invalid_argument(
        "bound: --save-cert applies to static bounds (stream windows each "
        "carry their own certificate)");
  if (method != "auto")
    throw std::invalid_argument(
        "bound: --method applies to static bounds (streams always use "
        "the windowed dual ascent)");
  WindowBoundOptions wopt;
  wopt.max_window_arrivals = window;
  StreamBoundResult bound_result;
  std::string name;
  std::size_t num_commodities = 0;
  if (!trace_path.empty()) {
    if (!overrides.empty())
      throw std::invalid_argument(
          "bound: --set applies to generated scenarios only");
    std::ifstream file(trace_path);
    if (!file) throw std::runtime_error("cannot open " + trace_path);
    StreamTraceReader reader(file);
    bound_result = bound_stream_windows(reader, wopt);
    name = reader.name();
    num_commodities = reader.cost()->num_commodities();
  } else {
    const EventStream stream = default_stream_scenario_registry().make(
        stream_scenario, seed, overrides);
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
  if (!algorithm.empty()) {
    auto algo = default_algorithm_registry().make(
        algorithm, derive_algorithm_seed(seed));
    StreamRunOptions run_options;
    run_options.verify = true;
    const StreamRunResult run = [&] {
      if (!trace_path.empty()) {
        std::ifstream file(trace_path);
        if (!file) throw std::runtime_error("cannot open " + trace_path);
        StreamTraceReader reader(file);
        return run_stream(*algo, reader, run_options);
      }
      const EventStream stream = default_stream_scenario_registry().make(
          stream_scenario, seed, overrides);
      return run_stream(*algo, stream, run_options);
    }();
    if (run.violation)
      throw std::logic_error("invalid stream run: " + run.violation->what);
    cost = run.ledger.total_cost();
    have_cost = true;
    std::cout << "algorithm  " << algo->name() << " (seed " << seed << ")\n"
              << "gross      " << cost << "\n";
  }
  return bound_gates(cost, have_cost, bound_result.windowed_lower,
                     num_commodities,
                     static_cast<std::size_t>(bound_result.arrivals),
                     max_certified_ratio, assert_paper_bound);
}

// ----------------------------------------------------------------- bench ---

int cmd_bench(const std::vector<std::string>& args) {
  bool quick = false;
  std::optional<std::uint64_t> trials;
  std::optional<std::uint64_t> warmup;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--quick") quick = true;
    else if (args[i] == "--trials")
      trials = parse_u64_arg(take_value(args, i), "--trials");
    else if (args[i] == "--warmup")
      warmup = parse_u64_arg(take_value(args, i), "--warmup");
    else if (args[i] == "--out") out_path = take_value(args, i);
    else throw std::invalid_argument("bench: unknown option " + args[i]);
  }
  // --quick picks the base profile; explicit --trials/--warmup override
  // it regardless of argument order.
  BenchOptions options = quick ? quick_bench_options() : BenchOptions{};
  if (trials) options.trials = *trials;
  if (warmup) options.warmup = *warmup;

  const BenchSuite suite = default_bench_suite();
  std::cout << "suite " << suite.name() << ": " << suite.size()
            << " cases, " << options.warmup << " warmup + "
            << options.trials << " timed trials each\n";
  options.progress = &std::cout;
  const BenchReport report = suite.run(options);
  std::cout << "\n";
  report.write_table(std::cout);

  if (out_path.empty()) out_path = default_bench_filename(suite.name());
  AtomicFileWriter file(out_path);
  report.write_json(file.stream());
  file.commit();
  std::cout << "\nwrote " << report.cases.size() << " cases (git "
            << report.git_sha << ", " << report.build_type << ") to "
            << out_path << "\n";
  return 0;
}

// --------------------------------------------------------------- compare ---

int cmd_compare(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  CompareOptions options;
  bool report_only = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threshold")
      options.regression_threshold =
          parse_double_arg(take_value(args, i), "--threshold");
    else if (args[i] == "--report-only") report_only = true;
    else if (args[i] == "--fail-on-missing") options.fail_on_missing = true;
    else if (args[i] == "--counters-exact") options.counters_exact = true;
    else if (!args[i].empty() && args[i][0] != '-') paths.push_back(args[i]);
    else throw std::invalid_argument("compare: unknown option " + args[i]);
  }
  if (paths.size() != 2)
    throw std::invalid_argument(
        "compare: exactly two BENCH json files are required");

  const BenchReport old_report = read_bench_report_file(paths[0]);
  const BenchReport new_report = read_bench_report_file(paths[1]);
  std::cout << "old: " << paths[0] << " (git " << old_report.git_sha
            << ", " << old_report.build_type << ")\n"
            << "new: " << paths[1] << " (git " << new_report.git_sha
            << ", " << new_report.build_type << ")\n\n";
  const CompareReport comparison =
      compare_reports(old_report, new_report, options);
  comparison.write_table(std::cout);
  const bool slower = comparison.any_regression() && !report_only;
  return slower || comparison.counters_failed() ? 1 : 0;
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
    if (command == "help" || is_help(command) ||
        std::any_of(args.begin(), args.end(), is_help))
      return usage(std::cout, 0);
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "stream") return cmd_stream(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "explain") return cmd_explain(args);
    if (command == "bound") return cmd_bound(args);
    if (command == "bench") return cmd_bench(args);
    if (command == "compare") return cmd_compare(args);
    std::cerr << "unknown command '" << command << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
