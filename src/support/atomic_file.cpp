#include "support/atomic_file.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace omflp {

std::string atomic_temp_path(const std::string& path) {
  return path + ".tmp";
}

void write_file_atomic(const std::string& path, const std::string& content) {
  AtomicFileWriter writer(path);
  writer.stream() << content;
  writer.commit();
}

AtomicFileWriter::AtomicFileWriter(std::string path,
                                   std::optional<std::uint64_t> resume_at)
    : path_(std::move(path)),
      temp_path_(atomic_temp_path(path_)),
      resumable_(resume_at.has_value()) {
  const std::uint64_t keep = resume_at.value_or(0);
  if (keep > 0) std::filesystem::resize_file(temp_path_, keep);
  file_.open(temp_path_, std::ios::binary |
                             (keep > 0 ? std::ios::app : std::ios::trunc));
  if (!file_)
    throw std::runtime_error("atomic write: cannot open " + temp_path_ +
                             " for writing");
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_ && !resumable_) {
    file_.close();
    std::remove(temp_path_.c_str());
  }
}

void AtomicFileWriter::commit() {
  if (committed_) return;
  file_.flush();
  if (!file_) {
    file_.close();
    std::remove(temp_path_.c_str());
    throw std::runtime_error("atomic write: failed writing " + temp_path_);
  }
  file_.close();
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(temp_path_.c_str());
    throw std::runtime_error("atomic write: cannot rename " + temp_path_ +
                             " over " + path_);
  }
  committed_ = true;
}

}  // namespace omflp
