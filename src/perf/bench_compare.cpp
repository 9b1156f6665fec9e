#include "perf/bench_compare.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "support/parse.hpp"
#include "support/table.hpp"

namespace omflp {

namespace {

// ------------------------------------------------------ minimal JSON ---
//
// A tiny recursive-descent parser covering exactly what BENCH documents
// use (objects, arrays, strings, numbers, booleans, null). No external
// dependency; errors carry the byte offset.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (kind != Kind::kObject || it == object.end())
      throw std::runtime_error("BENCH json: missing field '" + key + "'");
    return it->second;
  }
  const JsonValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  double as_number(const std::string& what) const {
    if (kind != Kind::kNumber)
      throw std::runtime_error("BENCH json: '" + what + "' is not a number");
    return number;
  }
  const std::string& as_string(const std::string& what) const {
    if (kind != Kind::kString)
      throw std::runtime_error("BENCH json: '" + what + "' is not a string");
    return string;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("BENCH json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    const char ch = peek();
    JsonValue value;
    switch (ch) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return value;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      value.object.emplace(std::move(key), parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out.push_back(ch);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code += hex - '0';
            else if (hex >= 'a' && hex <= 'f') code += 10 + hex - 'a';
            else if (hex >= 'A' && hex <= 'F') code += 10 + hex - 'A';
            else fail("bad \\u escape");
          }
          // BENCH documents only escape control characters; anything in
          // the Latin-1 range round-trips, the rest is rejected.
          if (code > 0xff) fail("unsupported \\u escape");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    skip_whitespace();
    // Scan the maximal JSON-number-shaped token, then hand it to the
    // strict parser: hex floats, "inf"/"nan" and silent ERANGE overflow
    // (all of which a raw strtod prefix scan would accept) are rejected
    // with a position instead of smuggled into the comparison.
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E'))
      ++end;
    const auto number = parse_double_strict(
        std::string_view(text_).substr(pos_, end - pos_));
    if (!number) fail("expected a value");
    pos_ = end;
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = *number;
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::size_t as_size(const JsonValue& value, const std::string& what) {
  const double number = value.as_number(what);
  if (number < 0.0 || number != std::floor(number))
    throw std::runtime_error("BENCH json: '" + what +
                             "' is not a non-negative integer");
  return static_cast<std::size_t>(number);
}

}  // namespace

// -------------------------------------------------------------- reading ---

BenchReport read_bench_report(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  const JsonValue root = JsonParser(text).parse();

  BenchReport report;
  report.schema_version =
      static_cast<int>(root.at("schema_version").as_number("schema_version"));
  if (report.schema_version != kBenchSchemaVersion)
    throw std::runtime_error(
        "BENCH json: schema_version " +
        std::to_string(report.schema_version) + " is not the supported " +
        std::to_string(kBenchSchemaVersion));
  report.suite = root.at("suite").as_string("suite");
  report.git_sha = root.at("git_sha").as_string("git_sha");
  report.build_type = root.at("build_type").as_string("build_type");
  report.compiler = root.at("compiler").as_string("compiler");
  report.build_flags = root.at("build_flags").as_string("build_flags");
  report.trials = as_size(root.at("trials"), "trials");
  report.warmup = as_size(root.at("warmup"), "warmup");

  const JsonValue& cases = root.at("cases");
  if (cases.kind != JsonValue::Kind::kArray)
    throw std::runtime_error("BENCH json: 'cases' is not an array");
  for (const JsonValue& entry : cases.array) {
    BenchCaseResult c;
    c.name = entry.at("name").as_string("name");
    c.requests_per_op = as_size(entry.at("requests_per_op"),
                                "requests_per_op");
    c.trials = as_size(entry.at("trials"), "trials");
    c.ns_per_op = entry.at("ns_per_op").as_number("ns_per_op");
    c.ns_per_op_mean =
        entry.at("ns_per_op_mean").as_number("ns_per_op_mean");
    c.ns_per_op_min = entry.at("ns_per_op_min").as_number("ns_per_op_min");
    c.ns_per_op_max = entry.at("ns_per_op_max").as_number("ns_per_op_max");
    c.requests_per_sec =
        entry.at("requests_per_sec").as_number("requests_per_sec");
    const JsonValue& counters = entry.at("counters");
    PerfCounters::for_each_field(
        c.counters, [&](const char* name, std::uint64_t& value) {
          if (const JsonValue* field = counters.find(name))
            value = static_cast<std::uint64_t>(as_size(*field, name));
          else
            c.absent_counters.emplace_back(name);
        });
    report.cases.push_back(std::move(c));
  }
  return report;
}

BenchReport read_bench_report_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  return read_bench_report(file);
}

// ------------------------------------------------------------ comparing ---

namespace {

bool lacks(const BenchCaseResult& c, const char* counter) {
  return std::find(c.absent_counters.begin(), c.absent_counters.end(),
                   counter) != c.absent_counters.end();
}

/// Appends the case's differing and uncompared counters to `out`.
void compare_counters(const BenchCaseResult& old_case,
                      const BenchCaseResult& new_case, CompareReport& out) {
  std::vector<std::uint64_t> old_values;
  PerfCounters::for_each_field(
      old_case.counters,
      [&](const char*, std::uint64_t value) { old_values.push_back(value); });
  std::size_t i = 0;
  PerfCounters::for_each_field(
      new_case.counters, [&](const char* name, std::uint64_t value) {
        const std::uint64_t old_value = old_values[i++];
        if (lacks(old_case, name) || lacks(new_case, name))
          out.uncompared_counters.emplace_back(old_case.name, name);
        else if (old_value != value)
          out.counter_deltas.push_back(
              {old_case.name, name, old_value, value});
      });
}

}  // namespace

CompareReport compare_reports(const BenchReport& old_report,
                              const BenchReport& new_report,
                              const CompareOptions& options) {
  if (options.regression_threshold < 1.0)
    throw std::invalid_argument(
        "compare_reports: regression threshold must be >= 1.0");

  CompareReport out;
  out.threshold = options.regression_threshold;
  out.counters_exact = options.counters_exact;

  for (const BenchCaseResult& old_case : old_report.cases) {
    CaseDelta delta;
    delta.name = old_case.name;
    delta.old_ns_per_op = old_case.ns_per_op;
    const BenchCaseResult* new_case = new_report.find(old_case.name);
    if (new_case == nullptr) {
      // A baseline case the new report no longer measures: counted and
      // reported on its own row either way; fail_on_missing additionally
      // makes it a regression (so renaming or deleting a slow case
      // cannot silently defeat the gate — deliberate suite changes
      // regenerate the baseline in the same PR).
      delta.status = CaseDelta::Status::kOnlyOld;
      ++out.missing_cases;
      if (options.fail_on_missing) ++out.regressions;
      out.deltas.push_back(std::move(delta));
      continue;
    }
    delta.new_ns_per_op = new_case->ns_per_op;
    delta.time_ratio = old_case.ns_per_op > 0.0
                           ? new_case->ns_per_op / old_case.ns_per_op
                           : 0.0;
    if (old_case.counters.distance_lookups > 0)
      delta.lookup_ratio =
          static_cast<double>(new_case->counters.distance_lookups) /
          static_cast<double>(old_case.counters.distance_lookups);
    compare_counters(old_case, *new_case, out);
    if (delta.time_ratio > options.regression_threshold) {
      delta.status = CaseDelta::Status::kRegressed;
      ++out.regressions;
    } else if (delta.time_ratio > 0.0 &&
               delta.time_ratio < 1.0 / options.regression_threshold) {
      delta.status = CaseDelta::Status::kImproved;
      ++out.improvements;
    }
    out.deltas.push_back(std::move(delta));
  }
  for (const BenchCaseResult& new_case : new_report.cases) {
    if (old_report.find(new_case.name) != nullptr) continue;
    CaseDelta delta;
    delta.name = new_case.name;
    delta.new_ns_per_op = new_case.ns_per_op;
    delta.status = CaseDelta::Status::kOnlyNew;
    ++out.new_cases;
    out.deltas.push_back(std::move(delta));
  }
  return out;
}

void CompareReport::write_table(std::ostream& os) const {
  TableWriter table({"case", "old ns/op", "new ns/op", "new/old",
                     "lookups new/old", "status"});
  table.set_precision(6);
  for (const CaseDelta& delta : deltas) {
    const char* status = "ok";
    switch (delta.status) {
      case CaseDelta::Status::kOk: status = "ok"; break;
      case CaseDelta::Status::kImproved: status = "IMPROVED"; break;
      case CaseDelta::Status::kRegressed: status = "REGRESSED"; break;
      case CaseDelta::Status::kOnlyOld: status = "missing in new"; break;
      case CaseDelta::Status::kOnlyNew: status = "new case"; break;
    }
    table.begin_row()
        .add(delta.name)
        .add(delta.old_ns_per_op)
        .add(delta.new_ns_per_op)
        .add(delta.time_ratio)
        .add(delta.lookup_ratio)
        .add(status);
  }
  table.write_markdown(os);
  os << "\n"
     << (regressions > 0
             ? "REGRESSION: " + std::to_string(regressions) +
                   " case(s) slower than "
             : "ok: no case slower than ")
     << threshold << "x the old time (" << improvements
     << " improved beyond the same margin)\n";
  for (const CounterDelta& d : counter_deltas)
    os << "counter " << d.case_name << " " << d.counter << ": "
       << d.old_value << " -> " << d.new_value << "\n";
  std::map<std::string, std::size_t> uncompared;
  for (const auto& [case_name, counter] : uncompared_counters)
    ++uncompared[counter];
  for (const auto& [counter, cases] : uncompared)
    os << "counter " << counter << " not compared in " << cases
       << " case(s): absent from one report\n";
  os << (counters_failed() ? "COUNTERS DIFFER: " : "counters: ")
     << counter_deltas.size() << " compared counter(s) differ"
     << (counters_exact ? " (exact gate)" : " (not gated)") << "\n";
  if (new_cases > 0 || missing_cases > 0)
    os << "suite drift: " << new_cases
       << " new case(s) not in the baseline, " << missing_cases
       << " baseline case(s) not measured by the new report — regenerate "
          "the baseline to adopt suite changes\n";
}

}  // namespace omflp
