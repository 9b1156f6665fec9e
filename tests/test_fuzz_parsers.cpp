// Fuzz-ish parser robustness: a deterministic corpus of mutated
// OMFLP-STREAM, OMFLP-INSTANCE, OMFLP-CERT and OMFLP-TRACELOG bytes —
// truncations,
// flipped signs, duplicated/deleted lines, absurd declared counts,
// random byte corruption — fed through every reader. The contract: a mutant either
// parses (some mutations are harmless) or is rejected with an ordinary
// exception; nothing may crash, read out of bounds, or allocate
// proportionally to a *declared* (rather than actually present) count.
// CI runs this suite under ASan/UBSan (the sanitize job), which is where
// the "no crashes" half of the contract gets teeth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bound/certificate.hpp"
#include "bound/dual_ascent.hpp"
#include "core/pd_omflp.hpp"
#include "core/stream_runner.hpp"
#include "instance/checkpoint_io.hpp"
#include "instance/event_stream.hpp"
#include "instance/io.hpp"
#include "instance/stream_io.hpp"
#include "instance/tracelog_io.hpp"
#include "obs/trace_sink.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/stream_registry.hpp"
#include "support/rng.hpp"

namespace omflp {
namespace {

enum class ParseOutcome { kAccepted, kRejected };

/// Every stream reader over one input: the materializing parser (plus
/// semantic validation) and the bounded-memory batch reader, drained.
/// Returns whether the text was accepted; throws only on non-exception
/// failures (which the test harness / sanitizers turn into failures).
ParseOutcome feed_stream_readers(const std::string& text) {
  ParseOutcome outcome = ParseOutcome::kAccepted;
  try {
    const EventStream stream = event_stream_from_string(text);
    stream.validate();
  } catch (const std::exception&) {
    outcome = ParseOutcome::kRejected;
  }
  try {
    std::istringstream is(text);
    StreamTraceReader reader(is);
    std::vector<StreamEvent> batch;
    while (reader.next_batch(batch, 256) > 0) batch.clear();
  } catch (const std::exception&) {
    outcome = ParseOutcome::kRejected;
  }
  return outcome;
}

ParseOutcome feed_instance_reader(const std::string& text) {
  try {
    std::istringstream is(text);
    const Instance instance = read_instance(is);
    instance.validate();
    return ParseOutcome::kAccepted;
  } catch (const std::exception&) {
    return ParseOutcome::kRejected;
  }
}

std::string valid_stream_trace() {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/3,
      {{"events", 96}, {"points", 12}, {"commodities", 4}});
  return event_stream_to_string(stream);
}

std::string valid_instance_trace() {
  std::ostringstream os;
  write_instance(os, default_scenario_registry().make(
                         "uniform-line", /*seed=*/2, {{"requests", 48}}));
  return os.str();
}

ParseOutcome feed_certificate_reader(const std::string& text) {
  try {
    (void)certificate_from_string(text);
    return ParseOutcome::kAccepted;
  } catch (const std::exception&) {
    return ParseOutcome::kRejected;
  }
}

std::string valid_certificate() {
  const Instance instance = default_scenario_registry().make(
      "uniform-line", /*seed=*/4, {{"requests", 32}});
  return certificate_to_string(
      dual_ascent_lower_bound(instance).certificate);
}

ParseOutcome feed_tracelog_reader(const std::string& text) {
  try {
    (void)tracelog_from_string(text);
    return ParseOutcome::kAccepted;
  } catch (const std::exception&) {
    return ParseOutcome::kRejected;
  }
}

/// A real decision trace: PD over a small churn stream, so the corpus
/// covers every event kind (opens with contributor lists, assigns, dual
/// raises, departs, rollbacks).
std::string valid_tracelog() {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/5, {{"events", 160}});
  PdOmflp pd;
  TraceBuffer buffer;
  {
    TraceScope scope(buffer);
    (void)run_stream(pd, stream, {});
  }
  return tracelog_to_string(buffer.events());
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Replace the first numeric token on every line starting with `prefix`.
std::string with_count(const std::string& text, const std::string& prefix,
                       const std::string& replacement) {
  std::vector<std::string> lines = split_lines(text);
  for (std::string& line : lines) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t digit = line.find_first_of("0123456789", prefix.size());
    if (digit == std::string::npos) continue;
    std::size_t end = digit;
    while (end < line.size() && std::isdigit(static_cast<unsigned char>(
                                    line[end])))
      ++end;
    line = line.substr(0, digit) + replacement + line.substr(end);
    break;
  }
  return join_lines(lines);
}

template <typename Feed>
void run_corpus(const std::string& base, Feed feed) {
  ASSERT_EQ(feed(base), ParseOutcome::kAccepted)
      << "the unmutated trace must parse";

  std::size_t rejected = 0;
  std::size_t trials = 0;
  const auto check = [&](const std::string& mutant) {
    ++trials;
    if (feed(mutant) == ParseOutcome::kRejected) ++rejected;
  };

  // Truncations at ~64 byte positions, including mid-line cuts.
  for (std::size_t cut = 0; cut < base.size();
       cut += std::max<std::size_t>(1, base.size() / 64))
    check(base.substr(0, cut));

  // Duplicated and deleted lines (headers and early sections).
  const std::vector<std::string> lines = split_lines(base);
  for (std::size_t i = 0; i < std::min<std::size_t>(lines.size(), 24);
       ++i) {
    std::vector<std::string> duplicated = lines;
    duplicated.insert(duplicated.begin() + static_cast<long>(i), lines[i]);
    check(join_lines(duplicated));
    std::vector<std::string> deleted = lines;
    deleted.erase(deleted.begin() + static_cast<long>(i));
    check(join_lines(deleted));
  }

  // Random byte corruption: overwrite one byte with a hostile pick.
  Rng rng(0xf422ed);
  const std::string pool = "-+0123456789aLd. \t\n\"#";
  for (std::size_t trial = 0; trial < 256; ++trial) {
    std::string mutant = base;
    mutant[rng.uniform_index(mutant.size())] =
        pool[rng.uniform_index(pool.size())];
    check(mutant);
  }

  // Sign flips in front of random digits.
  for (std::size_t trial = 0; trial < 64; ++trial) {
    std::string mutant = base;
    const std::size_t pos = rng.uniform_index(mutant.size());
    if (std::isdigit(static_cast<unsigned char>(mutant[pos])))
      mutant.insert(pos, 1, '-');
    check(mutant);
  }

  // The corpus must actually exercise the error paths.
  EXPECT_GT(rejected, trials / 4) << "suspiciously tolerant parser";
}

TEST(FuzzParsers, StreamTraceMutationsNeverCrash) {
  run_corpus(valid_stream_trace(), feed_stream_readers);
}

TEST(FuzzParsers, InstanceTraceMutationsNeverCrash) {
  run_corpus(valid_instance_trace(), feed_instance_reader);
}

std::string valid_capacitated_instance() {
  Instance instance = default_scenario_registry().make(
      "uniform-line", /*seed=*/2, {{"requests", 16}});
  auto caps = std::make_shared<std::vector<std::uint64_t>>(
      instance.metric().num_points(), kUncapacitated);
  (*caps)[0] = 3;
  (*caps)[2] = 1;
  instance.set_capacities(std::move(caps));
  std::ostringstream os;
  write_instance(os, instance);
  return os.str();
}

TEST(FuzzParsers, CapacitatedInstanceMutationsNeverCrash) {
  run_corpus(valid_capacitated_instance(), feed_instance_reader);
}

// Targeted mutations of the capacities section itself: every malformed
// variant must be rejected with an ordinary exception, never accepted
// with a silently-wrong capacity map.
TEST(FuzzParsers, InstanceCapacityLineTamperingIsRejected) {
  const std::string base = valid_capacitated_instance();
  ASSERT_EQ(feed_instance_reader(base), ParseOutcome::kAccepted);
  const std::string section = "capacities 2\n0 3\n2 1\n";
  const std::size_t at = base.find(section);
  ASSERT_NE(at, std::string::npos) << base;
  const auto with_section = [&](const std::string& replacement) {
    return base.substr(0, at) + replacement +
           base.substr(at + section.size());
  };

  const char* const kBadSections[] = {
      "capacities 3\n0 3\n2 1\n",   // count overruns the rows present
      "capacities 99\n0 3\n2 1\n",  // count exceeds the point count
      "capacities 2\n2 1\n0 3\n",   // rows not strictly ascending
      "capacities 2\n0 3\n0 1\n",   // duplicate point
      // a stored cap equal to the in-memory infinity sentinel
      "capacities 2\n0 3\n2 18446744073709551615\n",
      "capacities 2\n0 3\n2 1 junk\n",  // trailing garbage on a row
      "capacities 2\n0 3\n999 1\n",     // point outside the metric
      "capacities 2\n0 3\n2 -1\n",      // negative capacity
      "capacities two\n0 3\n2 1\n",     // non-numeric count
      "capacities 2 extra\n0 3\n2 1\n",  // trailing garbage on header
  };
  for (const char* bad : kBadSections)
    EXPECT_EQ(feed_instance_reader(with_section(bad)),
              ParseOutcome::kRejected)
        << bad;

  // Truncation mid-section: header plus one of two declared rows.
  EXPECT_EQ(feed_instance_reader(base.substr(0, at + section.find("\n2"))),
            ParseOutcome::kRejected);
  // Dropping the whole section is fine — capacities are optional.
  EXPECT_EQ(feed_instance_reader(with_section("")),
            ParseOutcome::kAccepted);
}

TEST(FuzzParsers, CertificateMutationsNeverCrash) {
  run_corpus(valid_certificate(), feed_certificate_reader);
}

TEST(FuzzParsers, TracelogMutationsNeverCrash) {
  run_corpus(valid_tracelog(), feed_tracelog_reader);
}

TEST(FuzzParsers, TracelogCountTamperingIsRejected) {
  const std::string trace = valid_tracelog();

  // Overstated/absurd totals on the end line: the reader must fail on
  // the count mismatch, never trust it for allocation.
  for (const char* huge :
       {"18446744073709551615", "1099511627776",
        "99999999999999999999999", "0", "-5"}) {
    EXPECT_EQ(
        feed_tracelog_reader(with_count(trace, "{\"end\"", huge)),
        ParseOutcome::kRejected)
        << huge;
  }

  // Re-sequencing: bump the first event's seq so it no longer equals its
  // line index.
  {
    std::vector<std::string> lines = split_lines(trace);
    ASSERT_GE(lines.size(), 3u);
    ASSERT_EQ(lines[1].rfind("{\"seq\":0,", 0), 0u);
    std::string resequenced = lines[1];
    resequenced.replace(8, 1, "7");
    lines[1] = resequenced;
    EXPECT_EQ(feed_tracelog_reader(join_lines(lines)),
              ParseOutcome::kRejected);
  }
}

// config_size is held in 32 bits (a configuration holds each CommodityId
// at most once): the reader must reject a wider value with
// std::invalid_argument rather than truncate it, and accept the largest
// 32-bit value, which rewrites byte for byte.
TEST(FuzzParsers, TracelogConfigSizeBeyondUint32IsRejected) {
  const std::string trace = valid_tracelog();
  const std::string key = "\"config_size\":";
  const auto with_config_size = [&](const char* kind,
                                    const std::string& value) {
    std::vector<std::string> lines = split_lines(trace);
    for (std::string& line : lines) {
      if (line.find(kind) == std::string::npos) continue;
      const std::size_t at = line.find(key);
      if (at == std::string::npos) continue;
      const std::size_t digit = at + key.size();
      std::size_t end = digit;
      while (std::isdigit(static_cast<unsigned char>(line[end]))) ++end;
      line = line.substr(0, digit) + value + line.substr(end);
      return join_lines(lines);
    }
    ADD_FAILURE() << "no " << kind << " line with a config_size";
    return trace;
  };
  for (const char* kind :
       {"\"kind\":\"facility_open\"", "\"kind\":\"dual_raise\""}) {
    SCOPED_TRACE(kind);
    for (const char* wide : {"4294967296", "18446744073709551615",
                             "99999999999999999999999"}) {
      const std::string tampered = with_config_size(kind, wide);
      EXPECT_THROW((void)tracelog_from_string(tampered),
                   std::invalid_argument)
          << wide;
    }
    const std::string widest = with_config_size(kind, "4294967295");
    EXPECT_EQ(tracelog_to_string(tracelog_from_string(widest)), widest);
  }
}

TEST(FuzzParsers, HugeDeclaredCountsAreRejectedNotAllocated) {
  const std::string stream = valid_stream_trace();
  const std::string instance = valid_instance_trace();
  const std::string certificate = valid_certificate();

  // Declared counts far beyond the bytes actually present must fail at
  // "unexpected end of input" (or a parse error), never by attempting
  // the corresponding allocation.
  for (const char* huge :
       {"18446744073709551615", "4294967295", "1099511627776",
        "99999999999999999999999"}) {
    EXPECT_EQ(feed_stream_readers(with_count(stream, "events", huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(feed_stream_readers(with_count(stream, "metric matrix",
                                             huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(feed_stream_readers(with_count(stream, "commodities", huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(feed_instance_reader(with_count(instance, "requests", huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(feed_instance_reader(with_count(instance, "metric matrix",
                                              huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(
        feed_certificate_reader(with_count(certificate, "requests", huge)),
        ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(
        feed_certificate_reader(with_count(certificate, "points", huge)),
        ParseOutcome::kRejected)
        << huge;
  }

  // Negative counts must be rejected, not wrapped.
  EXPECT_EQ(feed_stream_readers(with_count(stream, "events", "-5")),
            ParseOutcome::kRejected);
  EXPECT_EQ(feed_instance_reader(with_count(instance, "requests", "-5")),
            ParseOutcome::kRejected);
}

// --------------------------------------------------------- OMFLP-CKPT ---

/// The stream behind the checkpoint corpus; the restore path needs a
/// fresh source of the same stream.
const EventStream& checkpoint_stream() {
  static const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/6,
      {{"events", 192}, {"points", 16}, {"commodities", 4}});
  return stream;
}

StreamRunOptions checkpoint_options() {
  StreamRunOptions options;
  options.batch_size = 64;
  return options;
}

StreamRunOptions verified_checkpoint_options() {
  StreamRunOptions options = checkpoint_options();
  options.verify = true;
  return options;
}

/// A real OMFLP-CKPT payload: a PD session snapshotted mid-stream,
/// exactly as the serving engine checkpoints tenants.
std::string checkpoint_of(const StreamRunOptions& options) {
  PdOmflp pd;
  MaterializedEventSource source(checkpoint_stream());
  StreamSession session(pd, source, options);
  (void)session.step_batch();
  (void)session.step_batch();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
  return os.str();
}

std::string valid_checkpoint() { return checkpoint_of(checkpoint_options()); }

/// A checkpoint of a verified PD session: it also carries the stream
/// verifier's lines, so restoring it runs StreamVerifier::restore.
std::string valid_verified_checkpoint() {
  return checkpoint_of(verified_checkpoint_options());
}

/// Both consumers of a checkpoint payload: the non-throwing structural
/// validator recovery trusts, and the full CkptReader restore path (a
/// fresh PD session rebuilt from the bytes, with the options the payload
/// was written under). A mutant is accepted only if both accept it;
/// neither may crash or allocate from hostile counts (the sanitizer job
/// turns either into a failure).
ParseOutcome feed_checkpoint_readers_with(const std::string& text,
                                          const StreamRunOptions& options) {
  ParseOutcome outcome = ParseOutcome::kAccepted;
  {
    if (!checkpoint_payload_valid(text)) outcome = ParseOutcome::kRejected;
  }
  try {
    PdOmflp pd;
    MaterializedEventSource source(checkpoint_stream());
    std::istringstream is(text);
    CkptReader reader(is);
    StreamSession session(pd, source, options, reader);
    reader.finish();
  } catch (const std::exception&) {
    outcome = ParseOutcome::kRejected;
  }
  return outcome;
}

ParseOutcome feed_checkpoint_readers(const std::string& text) {
  return feed_checkpoint_readers_with(text, checkpoint_options());
}

ParseOutcome feed_verified_checkpoint_readers(const std::string& text) {
  return feed_checkpoint_readers_with(text, verified_checkpoint_options());
}

/// FNV-1a 64, matching the writer's checksum; lets mutations re-seal a
/// tampered payload so they reach the parse paths *behind* the checksum.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Replace the trailing checksum line with a freshly computed one.
std::string resealed(const std::string& text) {
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) return text;
  lines.pop_back();  // the checksum line
  std::string body = join_lines(lines);
  std::ostringstream os;
  os << body << "checksum " << std::hex;
  os.fill('0');
  os.width(16);
  os << fnv1a64(body) << "\n";
  return os.str();
}

TEST(FuzzParsers, CheckpointMutationsNeverCrash) {
  run_corpus(valid_checkpoint(), feed_checkpoint_readers);
  run_corpus(valid_verified_checkpoint(), feed_verified_checkpoint_readers);
}

TEST(FuzzParsers, CheckpointChecksumAndVersionTamperingIsRejected) {
  const std::string base = valid_checkpoint();
  ASSERT_EQ(feed_checkpoint_readers(base), ParseOutcome::kAccepted);
  // Sanity for resealed(): recomputing the checksum of an untampered
  // body reproduces an accepted payload (pins the test's own FNV).
  ASSERT_EQ(resealed(base), base);

  std::vector<std::string> lines = split_lines(base);
  ASSERT_GE(lines.size(), 3u);

  // Version bump: an OMFLP-CKPT 4 file is from the future, not ours.
  {
    std::vector<std::string> t = lines;
    t[0] = "OMFLP-CKPT 4";
    EXPECT_EQ(feed_checkpoint_readers(resealed(join_lines(t))),
              ParseOutcome::kRejected);
  }
  // Flipped checksum digit: the classic bit-rot signature.
  {
    std::vector<std::string> t = lines;
    std::string& check = t.back();
    check.back() = check.back() == '0' ? '1' : '0';
    EXPECT_EQ(feed_checkpoint_readers(join_lines(t)),
              ParseOutcome::kRejected);
  }
  // Missing checksum line entirely: a torn write.
  {
    std::vector<std::string> t(lines.begin(), lines.end() - 1);
    EXPECT_EQ(feed_checkpoint_readers(join_lines(t)),
              ParseOutcome::kRejected);
  }
  // Content tampering behind a *valid* checksum: swap two interior
  // lines and re-seal — structural validation passes, the typed reader
  // must still reject on the key sequence.
  {
    std::vector<std::string> t = lines;
    std::swap(t[1], t[2]);
    const std::string mutant = resealed(join_lines(t));
    EXPECT_TRUE(checkpoint_payload_valid(mutant));
    EXPECT_EQ(feed_checkpoint_readers(mutant), ParseOutcome::kRejected);
  }
}

TEST(FuzzParsers, CheckpointHugeCountsAreRejectedNotAllocated) {
  // The count-bearing header lines of a PD session snapshot: each
  // declares how many record lines follow. (Per-record lines carry
  // unconstrained ids and values; a huge *id* is legal, a huge *count*
  // must fail against the lines actually present.) Only the verified
  // session's payload has the verifier's line.
  const std::set<std::string> count_keys = {
      "larges",   "expiries",       "past",   "bid-rows",
      "offering-index", "ledger",   "seen",   "verifier-active"};

  // Re-seal each tampered payload so the hostile count is reached with
  // a passing checksum: the declared count must then fail at parse
  // ("unexpected end of input" / key mismatch), never be trusted for
  // allocation (capped_reserve bounds the first reservation; growth is
  // paid per input line).
  std::size_t tampered = 0;
  std::map<std::string, std::size_t> tampered_by_key;
  const std::pair<std::string, ParseOutcome (*)(const std::string&)>
      corpora[] = {{valid_checkpoint(), feed_checkpoint_readers},
                   {valid_verified_checkpoint(),
                    feed_verified_checkpoint_readers}};
  for (const auto& [base, feed] : corpora) {
    const std::vector<std::string> lines = split_lines(base);
    for (const char* huge :
         {"18446744073709551615", "1099511627776",
          "99999999999999999999999"}) {
      for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
        const std::size_t space = lines[i].find(' ');
        if (space == std::string::npos) continue;
        const std::string key = lines[i].substr(0, space);
        if (count_keys.count(key) == 0) continue;
        const std::size_t digit =
            lines[i].find_first_of("0123456789", space);
        if (digit == std::string::npos) continue;
        std::size_t end = digit;
        while (end < lines[i].size() &&
               std::isdigit(static_cast<unsigned char>(lines[i][end])))
          ++end;
        std::vector<std::string> t = lines;
        t[i] = lines[i].substr(0, digit) + huge + lines[i].substr(end);
        EXPECT_EQ(feed(resealed(join_lines(t))), ParseOutcome::kRejected)
            << "line " << i << " [" << lines[i] << "] count -> " << huge;
        ++tampered;
        ++tampered_by_key[key];
      }
    }
  }
  EXPECT_GT(tampered, 10u) << "corpus barely exercised the count paths";
  EXPECT_GT(tampered_by_key["verifier-active"], 0u)
      << "the verifier's count line was never tampered";
}

/// Restores a verified session from `text` and checkpoints it again.
std::string restore_and_recheckpoint(const std::string& text) {
  PdOmflp pd;
  MaterializedEventSource source(checkpoint_stream());
  std::istringstream is(text);
  CkptReader reader(is);
  StreamSession session(pd, source, verified_checkpoint_options(), reader);
  reader.finish();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
  return os.str();
}

TEST(FuzzParsers, VerifiedCheckpointRoundTripsByteIdentically) {
  const std::string base = valid_verified_checkpoint();
  ASSERT_NE(base.find("\nverifier "), std::string::npos);
  EXPECT_EQ(restore_and_recheckpoint(base), base);
}

TEST(FuzzParsers, VerifierFacilityCountIsCheckedBeforeSizing) {
  // The verifier line's second field is its facility count; 2^62 would
  // ask for 2^65 bytes of occupancy tally if it were trusted, and one
  // more than the ledger holds is just as wrong.
  const std::vector<std::string> lines =
      split_lines(valid_verified_checkpoint());
  std::size_t at = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].rfind("verifier ", 0) == 0) at = i;
  ASSERT_LT(at, lines.size());
  std::istringstream fields(lines[at]);
  std::string key, next_expected, facilities;
  fields >> key >> next_expected >> facilities;
  const std::size_t pos = key.size() + 1 + next_expected.size() + 1;
  ASSERT_EQ(lines[at].compare(pos, facilities.size(), facilities), 0);
  for (const std::string& hostile :
       {std::string("4611686018427387904"),
        std::to_string(std::stoull(facilities) + 1)}) {
    std::vector<std::string> t = lines;
    t[at].replace(pos, facilities.size(), hostile);
    try {
      (void)restore_and_recheckpoint(resealed(join_lines(t)));
      ADD_FAILURE() << "verifier facility count " << hostile
                    << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "verifier facility count disagrees with the ledger"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace omflp
