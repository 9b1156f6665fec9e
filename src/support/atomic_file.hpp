// Atomic file publication: write-to-temp + rename, so a crash (or a
// thrown exception) mid-write never leaves a truncated or corrupt
// artifact at the destination path — readers observe either the old
// content or the complete new content, never a torn state.
//
// Two shapes:
//   * write_file_atomic — one-shot: hand over the full content;
//   * AtomicFileWriter  — streaming: expose an std::ostream for writers
//     that produce output incrementally (tracelogs, metrics, BENCH
//     json); commit() publishes, destruction without commit() abandons
//     the temp file and leaves any previous destination intact.
//
// The temp file lives next to the destination (`<path>.tmp`) so the
// rename is within one directory — atomic on POSIX. Concurrent writers
// to the same path are not coordinated; the engine's checkpoint
// publication is single-threaded by design.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

namespace omflp {

/// The temp path write_file_atomic / AtomicFileWriter stage into before
/// renaming (exposed so crash-recovery code can find an in-flight file).
std::string atomic_temp_path(const std::string& path);

/// Writes `content` to `path` atomically. Throws std::runtime_error when
/// the temp file cannot be created, written, flushed, or renamed; the
/// destination is untouched in every failure case.
void write_file_atomic(const std::string& path, const std::string& content);

/// Streaming variant: writes into `<path>.tmp`; commit() flushes and
/// renames over `path`. Destruction without commit() removes the temp
/// file (abandon semantics).
class AtomicFileWriter {
 public:
  /// With `resume_at`, the writer continues a temp file an earlier one
  /// left: it keeps its first *resume_at bytes (0 = none) and appends,
  /// and destruction without commit() keeps the temp file for the next
  /// resume (the `omflp serve` tracelog, which must outlive a crash).
  explicit AtomicFileWriter(
      std::string path, std::optional<std::uint64_t> resume_at = {});
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// The staging stream; valid until commit().
  std::ostream& stream() { return file_; }

  /// Flush, close and rename into place. Throws std::runtime_error on
  /// any IO failure (the destination stays untouched); idempotent no-op
  /// after a successful commit.
  void commit();

  bool committed() const noexcept { return committed_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::ofstream file_;
  bool committed_ = false;
  bool resumable_ = false;
};

}  // namespace omflp
