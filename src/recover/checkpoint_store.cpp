#include "recover/checkpoint_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "instance/checkpoint_io.hpp"
#include "support/assert.hpp"
#include "support/atomic_file.hpp"
#include "support/parse.hpp"

namespace fs = std::filesystem;

namespace omflp {

namespace {

constexpr const char* kManifestStem = "MANIFEST.g";

std::string generation_suffix(std::uint64_t generation) {
  // Built by append, not operator+ chains: GCC 12's -Wrestrict trips a
  // false positive on char*-plus-temporary-string concatenation.
  std::string suffix = "g";
  suffix += std::to_string(generation);
  suffix += ".ckpt";
  return suffix;
}

/// Serializes a manifest in the same OMFLP-CKPT container as the tenant
/// snapshots, so the one validator covers every file in the directory.
std::string manifest_payload(const CheckpointManifest& manifest) {
  std::ostringstream os;
  CkptWriter writer(os);
  writer.line("manifest")
      .u(manifest.generation)
      .u(manifest.round)
      .u(manifest.trace_seq)
      .u(manifest.tenants.size());
  for (const std::string& name : manifest.tenants)
    writer.line("tenant").bytes(name);
  writer.finish();
  return os.str();
}

std::optional<CheckpointManifest> parse_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  try {
    CkptReader reader(in);
    CheckpointManifest manifest;
    reader.expect("manifest");
    manifest.generation = reader.u();
    manifest.round = reader.u();
    manifest.trace_seq = reader.u();
    const std::uint64_t num_tenants = reader.u();
    manifest.tenants.reserve(capped_reserve(num_tenants));
    for (std::uint64_t i = 0; i < num_tenants; ++i) {
      reader.expect("tenant");
      manifest.tenants.push_back(reader.bytes());
    }
    reader.finish();
    return manifest;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// The file's bytes when it is a structurally valid OMFLP-CKPT payload.
/// Read with one sized read rather than a byte-at-a-time streambuf
/// iterator copy: restore reads the newest generation twice per crash.
std::optional<std::string> read_valid_payload(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  in.seekg(0);
  std::string payload(static_cast<std::size_t>(size), '\0');
  in.read(payload.data(), size);
  // A file that shrank since tellg() is validated as what was read.
  // omflp-lint: allow(raw-reserve) shrinks to the bytes read, never grows
  payload.resize(static_cast<std::size_t>(in.gcount()));
  if (in.bad() || !checkpoint_payload_valid(payload))
    return std::nullopt;
  return payload;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  OMFLP_REQUIRE(!dir_.empty(), "CheckpointStore: empty directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error("CheckpointStore: cannot create " + dir_ +
                             ": " + ec.message());
}

std::string CheckpointStore::tenant_path(std::size_t tenant_index,
                                         std::uint64_t generation) const {
  std::string name = "t";
  name += std::to_string(tenant_index);
  name += '.';
  name += generation_suffix(generation);
  return (fs::path(dir_) / name).string();
}

std::string CheckpointStore::manifest_path(std::uint64_t generation) const {
  return (fs::path(dir_) /
          (kManifestStem + std::to_string(generation) + ".ckpt"))
      .string();
}

void CheckpointStore::publish(const CheckpointManifest& manifest,
                              const std::vector<std::string>& tenant_payloads) {
  OMFLP_REQUIRE(manifest.tenants.size() == tenant_payloads.size(),
                "CheckpointStore: tenant name / payload count mismatch");
  const std::vector<std::uint64_t> before = list_generations();
  // Tenant files first, manifest last: the manifest is the commit point,
  // so a crash anywhere in this loop leaves the previous generation
  // authoritative.
  for (std::size_t i = 0; i < tenant_payloads.size(); ++i)
    write_file_atomic(tenant_path(i, manifest.generation),
                      tenant_payloads[i]);
  write_file_atomic(manifest_path(manifest.generation),
                    manifest_payload(manifest));

  std::vector<std::uint64_t> all = before;
  if (std::find(all.begin(), all.end(), manifest.generation) == all.end())
    all.push_back(manifest.generation);
  std::sort(all.begin(), all.end());
  prune(all);
}

std::optional<CheckpointManifest> CheckpointStore::latest_valid() const {
  std::optional<LoadedGeneration> loaded = load_latest_valid();
  if (!loaded) return std::nullopt;
  return std::move(loaded->manifest);
}

std::optional<LoadedGeneration> CheckpointStore::load_latest_valid() const {
  std::vector<std::uint64_t> generations;
  try {
    generations = list_generations();
  } catch (const std::exception&) {
    return std::nullopt;
  }
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    std::optional<CheckpointManifest> manifest =
        parse_manifest(manifest_path(*it));
    if (!manifest || manifest->generation != *it) continue;
    LoadedGeneration loaded;
    for (std::size_t i = 0; i < manifest->tenants.size(); ++i) {
      std::optional<std::string> payload =
          read_valid_payload(tenant_path(i, *it));
      if (!payload) break;
      loaded.payloads.push_back(std::move(*payload));
    }
    if (loaded.payloads.size() == manifest->tenants.size()) {
      loaded.manifest = std::move(*manifest);
      return loaded;
    }
  }
  return std::nullopt;
}

void CheckpointStore::prune(const std::vector<std::uint64_t>& generations,
                            std::size_t keep) {
  if (generations.size() <= keep) return;
  std::error_code ec;
  for (std::size_t k = 0; k + keep < generations.size(); ++k) {
    const std::uint64_t g = generations[k];
    // Manifest first: once it is gone the generation can never be
    // selected, so a crash mid-prune leaves stray-but-ignored tenant
    // files, not a half-valid generation.
    fs::remove(manifest_path(g), ec);
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      std::string suffix = ".";
      suffix += generation_suffix(g);
      if (name.size() > suffix.size() && name.front() == 't' &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0)
        fs::remove(entry.path(), ec);
    }
  }
}

std::vector<std::uint64_t> CheckpointStore::list_generations() const {
  std::vector<std::uint64_t> generations;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view stem = "MANIFEST.g";
    constexpr std::string_view ext = ".ckpt";
    if (name.size() <= stem.size() + ext.size()) continue;
    if (name.compare(0, stem.size(), stem) != 0) continue;
    if (name.compare(name.size() - ext.size(), ext.size(), ext) != 0)
      continue;
    const std::string digits =
        name.substr(stem.size(), name.size() - stem.size() - ext.size());
    if (const auto g = parse_u64_strict(digits)) generations.push_back(*g);
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

}  // namespace omflp
