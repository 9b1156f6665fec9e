#include "instance/tracelog_io.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "instance/io_detail.hpp"
#include "support/parse.hpp"

namespace omflp {

namespace {

constexpr const char* kHeader =
    "{\"format\":\"OMFLP-TRACELOG\",\"version\":1}";

/// One event line under construction in a fixed stack buffer. Every kind
/// but verifier_flag has a bounded line — at most kMaxTraceContributors
/// contributors, each number at most 24 characters — so the hot path
/// formats with no allocation; the line reaches the writer's buffer in
/// one append, only once it is complete.
class LineBuilder {
 public:
  /// A literal, length known at compile time.
  template <std::size_t N>
  void text(const char (&literal)[N]) {
    std::memcpy(pos_, literal, N - 1);
    pos_ += N - 1;
  }

  void text(std::string_view runtime) {
    std::memcpy(pos_, runtime.data(), runtime.size());
    pos_ += runtime.size();
  }

  /// `key` (",\"name\":") followed by a decimal integer.
  template <std::size_t N>
  void u64(const char (&key)[N], std::uint64_t value) {
    text(key);
    u64(value);
  }

  void u64(std::uint64_t value) {
    pos_ = std::to_chars(pos_, end_, value).ptr;
  }

  /// `key` followed by printf "%.17g" text: std::to_chars with an
  /// explicit precision is specified as printf in the "C" locale, and 17
  /// significant digits round-trip every finite double.
  template <std::size_t N>
  void num(const char (&key)[N], double value) {
    if (!std::isfinite(value))
      // The field name sits between the key's ,"  and ": delimiters.
      throw std::invalid_argument(
          "TraceLogWriter: non-finite " + std::string(key + 2, N - 5));
    text(key);
    pos_ = std::to_chars(pos_, end_, value, std::chars_format::general, 17)
               .ptr;
  }

  std::string_view view() const {
    return {buf_, static_cast<std::size_t>(pos_ - buf_)};
  }

 private:
  // facility_open is the longest bounded kind: under 1,500 characters
  // with 16 contributors and every integer at its widest.
  static constexpr std::size_t kCapacity = 4096;
  static_assert(kMaxTraceContributors * 67 + 512 <= kCapacity,
                "a contributor entry takes up to 67 characters");
  char buf_[kCapacity];
  char* pos_ = buf_;
  char* const end_ = buf_ + kCapacity;
};

void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xf];
        } else {
          out += c;
        }
      }
    }
  }
}

/// Append one event's canonical line, newline included. Each kind writes
/// a fixed field list in a fixed order. A field that cannot be written
/// throws std::invalid_argument before `out` is touched.
void append_event_line(std::string& out, const TraceEvent& event,
                       std::uint64_t seq) {
  LineBuilder line;
  line.text("{\"seq\":");
  line.u64(seq);
  line.text(",\"kind\":\"");
  line.text(trace_event_kind_name(event.kind));
  line.text("\"");

  switch (event.kind) {
    case TraceEventKind::kFacilityOpen: {
      line.u64(",\"request\":", event.request);
      line.u64(",\"commodity\":", event.commodity);
      line.u64(",\"facility\":", event.facility);
      line.u64(",\"point\":", event.point);
      line.u64(",\"config_size\":", event.config_size);
      line.u64(",\"constraint\":", event.constraint);
      line.num(",\"cost\":", event.cost);
      line.num(",\"bid_mass\":", event.bid_mass);
      line.num(",\"tightness\":", event.tightness);
      const auto contributors = event.contributors();
      if (contributors.size() > kMaxTraceContributors)
        throw std::invalid_argument(
            "TraceLogWriter: contributor list exceeds the cap");
      line.text(",\"contributors\":[");
      for (std::size_t i = 0; i < contributors.size(); ++i) {
        if (i) line.text(",");
        line.u64("{\"request\":", contributors[i].request);
        line.num(",\"amount\":", contributors[i].amount);
        line.text("}");
      }
      line.text("]");
      line.num(",\"residual\":", event.residual);
      break;
    }
    case TraceEventKind::kRequestAssign:
      line.u64(",\"request\":", event.request);
      line.u64(",\"commodity\":", event.commodity);
      line.u64(",\"facility\":", event.facility);
      line.u64(",\"point\":", event.point);
      line.num(",\"cost\":", event.cost);
      break;
    case TraceEventKind::kBidRollback:
      line.u64(",\"request\":", event.request);
      line.num(",\"bid_mass\":", event.bid_mass);
      line.num(",\"cost\":", event.cost);
      break;
    case TraceEventKind::kDepart:
    case TraceEventKind::kLeaseExpire:
      line.u64(",\"request\":", event.request);
      line.u64(",\"stream_event\":", event.stream_event);
      break;
    case TraceEventKind::kDualRaise:
      line.u64(",\"request\":", event.request);
      line.u64(",\"commodity\":", event.commodity);
      line.u64(",\"config_size\":", event.config_size);
      line.num(",\"cost\":", event.cost);
      break;
    case TraceEventKind::kVerifierFlag: {
      // The note is unbounded, so this line is finished on the heap and
      // still reaches `out` in one append.
      line.u64(",\"request\":", event.request);
      line.text(",\"note\":\"");
      std::string flag_line(line.view());
      append_escaped(flag_line, event.note());
      flag_line += "\"}\n";
      out += flag_line;
      return;
    }
    case TraceEventKind::kRequestReject:
      line.u64(",\"request\":", event.request);
      line.u64(",\"commodity\":", event.commodity);
      break;
    case TraceEventKind::kRequestSpill:
      line.u64(",\"request\":", event.request);
      line.u64(",\"commodity\":", event.commodity);
      line.u64(",\"facility\":", event.facility);
      line.u64(",\"point\":", event.point);
      line.num(",\"cost\":", event.cost);
      break;
  }
  line.text("}\n");
  out += line.view();
}

/// Strict scanner over one tracelog line. Every expectation is literal —
/// the canonical form is the only accepted form, which is what makes
/// read → rewrite byte-identical and tampering detectable.
struct LineScanner {
  const std::string& line;
  const iodetail::LineReader& reader;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    reader.fail(msg + " at column " + std::to_string(pos));
  }

  bool try_consume(const char* literal) {
    const std::size_t n = std::strlen(literal);
    if (line.compare(pos, n, literal) != 0) return false;
    pos += n;
    return true;
  }

  void expect(const char* literal) {
    if (!try_consume(literal))
      fail(std::string("expected '") + literal + "'");
  }

  std::uint64_t take_u64(const char* what) {
    std::size_t end = pos;
    while (end < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[end])))
      ++end;
    const auto value =
        parse_u64_strict(std::string_view(line).substr(pos, end - pos));
    if (!value) fail(std::string("bad ") + what);
    pos = end;
    return *value;
  }

  double take_double(const char* what) {
    std::size_t end = pos;
    while (end < line.size() &&
           std::strchr("+-.0123456789eE", line[end]) != nullptr)
      ++end;
    const auto value =
        parse_double_strict(std::string_view(line).substr(pos, end - pos));
    if (!value) fail(std::string("bad ") + what);
    pos = end;
    return *value;
  }

  /// Body of a JSON string after the opening quote; consumes the closing
  /// quote. Only the writer's escapes are accepted (lowercase \u00xx for
  /// control bytes), keeping the canonical form unique.
  std::string take_string(const char* what) {
    std::string out;
    while (pos < line.size()) {
      const char c = line[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail(std::string("raw control byte in ") + what);
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= line.size()) break;
      const char esc = line[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > line.size())
            fail(std::string("truncated \\u escape in ") + what);
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = line[pos++];
            value <<= 4;
            if (h >= '0' && h <= '9')
              value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              value |= static_cast<unsigned>(h - 'a' + 10);
            else
              fail(std::string("bad \\u escape in ") + what);
          }
          // The writer only \u-escapes control bytes; anything else has
          // a shorter canonical form and is rejected.
          if (value >= 0x20)
            fail(std::string("non-canonical \\u escape in ") + what);
          out += static_cast<char>(value);
          break;
        }
        default:
          fail(std::string("bad escape in ") + what);
      }
    }
    fail(std::string("unterminated string in ") + what);
  }

  void end_of_line() const {
    if (pos != line.size()) fail("trailing content on line");
  }
};

TraceEventKind parse_kind(LineScanner& scan) {
  const std::size_t close = scan.line.find('"', scan.pos);
  if (close == std::string::npos) scan.fail("unterminated kind");
  const std::string_view name =
      std::string_view(scan.line).substr(scan.pos, close - scan.pos);
  for (int k = 0; k <= 8; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    if (name == trace_event_kind_name(kind)) {
      scan.pos = close + 1;
      return kind;
    }
  }
  scan.fail("unknown event kind '" + std::string(name) + "'");
}

TraceEvent parse_event_line(const std::string& line,
                            std::uint64_t expected_seq,
                            const iodetail::LineReader& reader) {
  LineScanner scan{line, reader};
  scan.expect("{\"seq\":");
  const std::uint64_t seq = scan.take_u64("seq");
  if (seq != expected_seq)
    reader.fail("sequence gap: expected seq " +
                std::to_string(expected_seq) + ", got " +
                std::to_string(seq));
  scan.expect(",\"kind\":\"");

  TraceEvent event;
  event.kind = parse_kind(scan);

  const auto u64_field = [&](const char* name) {
    scan.expect(",\"");
    scan.expect(name);
    scan.expect("\":");
    return scan.take_u64(name);
  };
  const auto num_field = [&](const char* name) {
    scan.expect(",\"");
    scan.expect(name);
    scan.expect("\":");
    return scan.take_double(name);
  };
  const auto id_field = [&](const char* name) -> std::uint32_t {
    const std::uint64_t value = u64_field(name);
    if (value > std::numeric_limits<std::uint32_t>::max())
      scan.fail(std::string(name) + " out of range");
    return static_cast<std::uint32_t>(value);
  };

  switch (event.kind) {
    case TraceEventKind::kFacilityOpen: {
      event.request = static_cast<RequestId>(u64_field("request"));
      event.commodity = id_field("commodity");
      event.facility = static_cast<FacilityId>(u64_field("facility"));
      event.point = static_cast<PointId>(id_field("point"));
      event.config_size = id_field("config_size");
      const std::uint64_t constraint = u64_field("constraint");
      if (constraint > 4) scan.fail("constraint out of range");
      event.constraint = static_cast<std::uint8_t>(constraint);
      event.cost = num_field("cost");
      event.bid_mass = num_field("bid_mass");
      event.tightness = num_field("tightness");
      scan.expect(",\"contributors\":[");
      std::vector<TraceContributor> contributors;
      bool first = true;
      while (!scan.try_consume("]")) {
        if (!first) scan.expect(",");
        first = false;
        if (contributors.size() >= kMaxTraceContributors)
          scan.fail("too many contributors");
        TraceContributor c;
        scan.expect("{\"request\":");
        c.request = static_cast<RequestId>(scan.take_u64("request"));
        scan.expect(",\"amount\":");
        c.amount = scan.take_double("amount");
        scan.expect("}");
        contributors.push_back(c);
      }
      event.set_contributors(std::move(contributors));
      event.residual = num_field("residual");
      break;
    }
    case TraceEventKind::kRequestAssign:
      event.request = static_cast<RequestId>(u64_field("request"));
      event.commodity = id_field("commodity");
      event.facility = static_cast<FacilityId>(u64_field("facility"));
      event.point = static_cast<PointId>(id_field("point"));
      event.cost = num_field("cost");
      break;
    case TraceEventKind::kBidRollback:
      event.request = static_cast<RequestId>(u64_field("request"));
      event.bid_mass = num_field("bid_mass");
      event.cost = num_field("cost");
      break;
    case TraceEventKind::kDepart:
    case TraceEventKind::kLeaseExpire:
      event.request = static_cast<RequestId>(u64_field("request"));
      event.stream_event = u64_field("stream_event");
      break;
    case TraceEventKind::kDualRaise:
      event.request = static_cast<RequestId>(u64_field("request"));
      event.commodity = id_field("commodity");
      event.config_size = id_field("config_size");
      event.cost = num_field("cost");
      break;
    case TraceEventKind::kVerifierFlag:
      event.request = static_cast<RequestId>(u64_field("request"));
      scan.expect(",\"note\":\"");
      event.set_note(scan.take_string("note"));
      break;
    case TraceEventKind::kRequestReject:
      event.request = static_cast<RequestId>(u64_field("request"));
      event.commodity = id_field("commodity");
      break;
    case TraceEventKind::kRequestSpill:
      event.request = static_cast<RequestId>(u64_field("request"));
      event.commodity = id_field("commodity");
      event.facility = static_cast<FacilityId>(u64_field("facility"));
      event.point = static_cast<PointId>(id_field("point"));
      event.cost = num_field("cost");
      break;
  }
  scan.expect("}");
  scan.end_of_line();
  return event;
}

}  // namespace

// --------------------------------------------------------------- writer ---

TraceLogWriter::TraceLogWriter(std::ostream& os, std::uint64_t first_seq)
    : os_(os), seq_(first_seq) {
  if (first_seq == 0) os_ << kHeader << '\n';
}

TraceLogWriter::~TraceLogWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an unfinished log is detectable by the
    // reader (missing end line) anyway.
  }
}

void TraceLogWriter::on_event(const TraceEvent& event) {
  if (finished_)
    throw std::logic_error("TraceLogWriter: on_event after finish");
  // Throws before touching the buffer when a field cannot be written, so
  // a failed event leaves no partial line and seq_ unadvanced.
  append_event_line(buffer_, event, seq_);
  ++seq_;
  if (buffer_.size() >= kFlushBytes) flush_buffer();
}

void TraceLogWriter::flush_buffer() {
  os_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void TraceLogWriter::flush() {
  flush_buffer();
  os_.flush();
}

void TraceLogWriter::finish() {
  if (finished_) return;
  finished_ = true;
  LineBuilder line;
  line.text("{\"end\":true,\"events\":");
  line.u64(seq_);
  line.text("}\n");
  buffer_ += line.view();
  flush();
}

// --------------------------------------------------------------- reader ---

struct TraceLogReader::Impl {
  iodetail::LineReader reader;
  TraceLogReadMode mode;
  std::uint64_t seq = 0;
  bool done = false;
  bool truncated = false;

  Impl(std::istream& is, TraceLogReadMode read_mode)
      : reader(is, "read_tracelog"), mode(read_mode) {
    if (reader.next("header") != kHeader)
      reader.fail(
          "bad header, expected "
          "{\"format\":\"OMFLP-TRACELOG\",\"version\":1}");
  }

  bool next_strict(TraceEvent& out) {
    const std::optional<std::string> maybe_line = reader.try_next();
    if (!maybe_line) {
      if (mode == TraceLogReadMode::kStrict)
        reader.fail("missing event or end line");
      // Torn tail: the file ends without an end line; the prefix read so
      // far is the recovery result.
      truncated = true;
      done = true;
      return false;
    }
    const std::string& line = *maybe_line;
    if (line.rfind("{\"end\":", 0) == 0) {
      LineScanner scan{line, reader};
      scan.expect("{\"end\":true,\"events\":");
      const std::uint64_t declared = scan.take_u64("event count");
      scan.expect("}");
      scan.end_of_line();
      if (declared != seq)
        reader.fail("end line declares " + std::to_string(declared) +
                    " events but " + std::to_string(seq) +
                    " were present");
      if (reader.try_next())
        reader.fail("trailing content after the end line");
      done = true;
      return false;
    }
    out = parse_event_line(line, seq, reader);
    ++seq;
    return true;
  }
};

TraceLogReader::TraceLogReader(std::istream& is, TraceLogReadMode mode)
    : impl_(std::make_unique<Impl>(is, mode)) {}

TraceLogReader::~TraceLogReader() = default;

std::uint64_t TraceLogReader::events_read() const noexcept {
  return impl_->seq;
}

bool TraceLogReader::truncated() const noexcept { return impl_->truncated; }

bool TraceLogReader::next(TraceEvent& out) {
  if (impl_->done) return false;
  if (impl_->mode == TraceLogReadMode::kStrict)
    return impl_->next_strict(out);
  try {
    return impl_->next_strict(out);
  } catch (const std::invalid_argument&) {
    // First damaged line (malformation, seq gap, bad end line): the
    // events already yielded form the longest valid prefix.
    impl_->truncated = true;
    impl_->done = true;
    return false;
  }
}

// ----------------------------------------------------------- log file ---

void TraceLogFile::start(std::uint64_t first_seq) {
  writer_.reset();
  file_.reset();
  std::streamoff keep = 0;
  if (first_seq > 0) {
    const std::string staging = atomic_temp_path(path_);
    std::ifstream is(staging, std::ios::binary);  // a missing file reads empty
    try {
      TraceLogReader reader(is);
      TraceEvent event;
      while (reader.events_read() < first_seq && reader.next(event)) {
      }
      // tellg() is -1 when the last line read has no newline (torn).
      if (reader.events_read() == first_seq) keep = is.tellg();
    } catch (const std::invalid_argument&) {
      // A damaged line (or a missing header) ends the valid prefix.
    }
    if (keep <= 0)
      throw std::runtime_error(
          "tracelog " + path_ + " cannot resume at event " +
          std::to_string(first_seq) + ": its staging file " + staging +
          " is missing or holds fewer than " + std::to_string(first_seq) +
          " valid events");
  }
  file_.emplace(path_, static_cast<std::uint64_t>(keep));
  writer_.emplace(file_->stream(), first_seq);
}

std::uint64_t TraceLogFile::commit() {
  writer_->finish();
  file_->commit();
  return writer_->events_written();
}

// --------------------------------------------------- convenience layer ---

std::vector<TraceEvent> read_tracelog(std::istream& is,
                                      TraceLogReadMode mode) {
  TraceLogReader reader(is, mode);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.next(event)) events.push_back(std::move(event));
  return events;
}

std::vector<TraceEvent> tracelog_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_tracelog(is);
}

void write_tracelog(std::ostream& os,
                    const std::vector<TraceEvent>& events) {
  TraceLogWriter writer(os);
  for (const TraceEvent& event : events) writer.on_event(event);
  writer.finish();
}

std::string tracelog_to_string(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  write_tracelog(os, events);
  return os.str();
}

}  // namespace omflp
