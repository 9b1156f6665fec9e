// OMFLP-TRACELOG v1 — the serialized form of a decision trace
// (src/obs/trace_sink.hpp), one JSON object per line:
//
//   {"format":"OMFLP-TRACELOG","version":1}
//   {"seq":0,"kind":"dual_raise","request":0,"commodity":1,...}
//   {"seq":1,"kind":"facility_open","request":0,"facility":0,...}
//   ...
//   {"end":true,"events":2}
//
// Every event line starts with its sequence number and the reader
// enforces seq == line index, so a dropped, duplicated or reordered line
// is detected immediately; the trailing end line pins the total count, so
// truncation is detected too. Each kind serializes a fixed field list in
// a fixed order; doubles are printf `%.17g` text, produced with
// std::to_chars (specified as printf in the "C" locale), which makes
// read → rewrite reproduce the input byte for byte — tracelogs double as
// golden-trace differential artifacts (the CI trace-smoke job diffs
// OMFLP_THREADS=1 vs 4 outputs). The writer buffers and publishes whole
// lines: each event is appended to an in-memory buffer that is handed to
// the ostream every ~64 KiB, at flush() and at finish().
//
// The reader is strict in the spirit of support/parse.hpp: unknown kinds,
// out-of-order fields, non-finite numbers, seq gaps, a missing end line
// and trailing content are all rejected with std::invalid_argument; it
// holds one event in memory at a time (contributor lists are capped at
// kMaxTraceContributors), so absurd or hostile inputs cannot drive
// allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"
#include "support/atomic_file.hpp"

namespace omflp {

/// A TraceSink that writes events to `os` in OMFLP-TRACELOG v1. The
/// header is written on construction, unless `first_seq` > 0: then `os`
/// already holds the header and events 0 .. first_seq-1 (see
/// TraceLogFile) and the writer continues the log. Event lines
/// collect in a buffer that reaches `os` in whole lines every
/// kFlushBytes, at flush() and at finish(). Call finish() (or let the
/// destructor do it) to append the end line. An event that cannot be
/// written (a non-finite number, an oversized contributor list) throws
/// std::invalid_argument and leaves neither a partial line nor an
/// advanced events_written(). The ostream must outlive the writer.
class TraceLogWriter final : public TraceSink {
 public:
  explicit TraceLogWriter(std::ostream& os, std::uint64_t first_seq = 0);
  ~TraceLogWriter() override;

  TraceLogWriter(const TraceLogWriter&) = delete;
  TraceLogWriter& operator=(const TraceLogWriter&) = delete;

  void on_event(const TraceEvent& event) override;
  /// Hand the buffered lines to the ostream and flush it.
  void flush() override;

  /// Write the end line and flush. Idempotent; further on_event calls
  /// throw std::logic_error.
  void finish();

  /// The log's event count, first_seq included.
  std::uint64_t events_written() const noexcept { return seq_; }

  /// Buffer size at which on_event hands the buffer to the ostream.
  static constexpr std::size_t kFlushBytes = 64 * 1024;

 private:
  void flush_buffer();

  std::ostream& os_;
  std::string buffer_;
  std::uint64_t seq_ = 0;
  bool finished_ = false;
};

/// Reader behavior on a damaged log (crash mid-write, torn tail).
enum class TraceLogReadMode {
  /// Reject everything: seq gaps, malformed lines, a missing end line
  /// and trailing content all throw. The default, and the only mode
  /// golden-trace diffing may use.
  kStrict,
  /// Crash recovery: yield the longest valid seq-contiguous prefix and
  /// stop at the first damaged line (or at an unterminated tail), never
  /// throwing past the header. truncated() reports whether anything was
  /// dropped. The header must still be valid — a file that is not a
  /// tracelog at all has no prefix to recover.
  kRecoverPrefix,
};

/// Bounded-memory streaming reader for OMFLP-TRACELOG v1. The header is
/// parsed on construction; next() yields events one at a time and returns
/// false only after validating the end line and the absence of trailing
/// content (strict mode) or at the first sign of damage (recover mode).
class TraceLogReader {
 public:
  explicit TraceLogReader(std::istream& is,
                          TraceLogReadMode mode = TraceLogReadMode::kStrict);
  ~TraceLogReader();

  TraceLogReader(const TraceLogReader&) = delete;
  TraceLogReader& operator=(const TraceLogReader&) = delete;

  /// Parse the next event into `out`. Returns false at the (validated)
  /// end of the log; throws std::invalid_argument on any malformation
  /// (strict mode only).
  bool next(TraceEvent& out);

  std::uint64_t events_read() const noexcept;

  /// True when recover mode stopped before a valid end line — the log
  /// was torn or corrupted and events_read() is the surviving prefix.
  /// Always false in strict mode (damage throws instead).
  bool truncated() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The `omflp serve --trace-out` sink: streams the log into a resumable
/// AtomicFileWriter's staging file, published by commit(). start(T),
/// called by ShardedEngine::run with the log's commit point (0 or the
/// restored generation's trace_seq), keeps the staging file's header and
/// first T event lines, each checked by the strict reader, and continues
/// at seq T; it throws std::runtime_error naming `path` and T when fewer
/// than T valid, newline-terminated event lines are there. Nothing
/// touches the staging file before start(), and nothing removes it: an
/// uncommitted one is what the next start resumes.
class TraceLogFile final : public TraceSink {
 public:
  explicit TraceLogFile(std::string path) : path_(std::move(path)) {}

  void start(std::uint64_t first_seq) override;
  void on_event(const TraceEvent& event) override {
    writer_->on_event(event);
  }
  void flush() override { writer_->flush(); }
  /// Write the end line and publish the log; returns its event count.
  std::uint64_t commit();

 private:
  std::string path_;
  std::optional<AtomicFileWriter> file_;  // set by start()
  std::optional<TraceLogWriter> writer_;
};

/// Materializing convenience wrappers (tests, `omflp explain`).
std::vector<TraceEvent> read_tracelog(
    std::istream& is, TraceLogReadMode mode = TraceLogReadMode::kStrict);
std::vector<TraceEvent> tracelog_from_string(const std::string& text);
void write_tracelog(std::ostream& os, const std::vector<TraceEvent>& events);
std::string tracelog_to_string(const std::vector<TraceEvent>& events);

}  // namespace omflp
