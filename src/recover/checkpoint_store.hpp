// CheckpointStore — generation-numbered checkpoint sets on disk, with
// atomic publication and validated recovery.
//
// A *generation* is one consistent snapshot of every tenant in a
// ShardedEngine run: one OMFLP-CKPT file per tenant
// (`t<i>.g<N>.ckpt`, index-based so arbitrary tenant names never meet
// the filesystem) plus a manifest (`MANIFEST.g<N>.ckpt`, same format)
// pinning the round, the trace sequence number and every tenant's spec.
//
// Publication order is the crash-safety argument: every tenant file is
// written atomically (tmp + rename, support/atomic_file.hpp) *before*
// the manifest, and the manifest write is itself atomic — so the
// manifest is the commit point. A crash mid-publication leaves either
// no manifest for the new generation (the previous generation stays
// authoritative) or a complete, valid set. Torn tenant files without a
// checksum line, or corrupted ones failing it, are caught by
// latest_valid()'s independent scan and the whole generation is
// rejected in favour of the previous one.
//
// Two generations are kept (the freshly published one and its
// predecessor); older sets are pruned after each successful publish.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/stream_registry.hpp"

namespace omflp {

struct CheckpointManifest {
  std::uint64_t generation = 0;
  /// Engine round the snapshot was taken after.
  std::uint64_t round = 0;
  /// Trace events emitted (and flushed) before the snapshot: the
  /// tracelog's commit point, where a resumed run's tracelog continues.
  std::uint64_t trace_seq = 0;
  /// Whether the run was traced; if not, trace_seq counts nothing.
  bool traced = false;
  /// Tenant specs in order (a guard: a checkpoint set only restores into
  /// the same tenants).
  std::vector<TenantSpec> tenants;
};

/// One generation as restore needs it: the manifest and every tenant
/// file's bytes, each read once and already checksum-validated.
struct LoadedGeneration {
  CheckpointManifest manifest;
  std::vector<std::string> payloads;  // tenant i's OMFLP-CKPT text
};

class CheckpointStore {
 public:
  /// Creates `dir` (and parents) if missing.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  std::string tenant_path(std::size_t tenant_index,
                          std::uint64_t generation) const;
  std::string manifest_path(std::uint64_t generation) const;

  /// Publishes one generation: every tenant payload (a complete
  /// OMFLP-CKPT text) atomically, manifest last, then prunes
  /// generations older than the previous one. Throws
  /// std::runtime_error on IO failure.
  void publish(const CheckpointManifest& manifest,
               const std::vector<std::string>& tenant_payloads);

  /// The newest generation whose manifest parses *and* whose every
  /// tenant file passes the independent OMFLP-CKPT structural check —
  /// torn or corrupted generations are skipped in favour of older
  /// valid ones. nullopt when no valid generation exists (fresh
  /// start). Never throws.
  std::optional<CheckpointManifest> latest_valid() const;
  /// The same scan, keeping the bytes it validated so restore parses
  /// them without reading any file a second time. `skipped`, when given,
  /// receives the number of newer generations passed over (manifest
  /// unparsable, tenant file torn or corrupt); with no valid generation,
  /// every one listed. Left untouched if the directory cannot be listed.
  std::optional<LoadedGeneration> load_latest_valid(
      std::uint64_t* skipped = nullptr) const;

  /// Removes every generation except the `keep` newest among
  /// `generations` (ascending). Missing files are ignored.
  void prune(const std::vector<std::uint64_t>& generations,
             std::size_t keep = 2);

  /// All generations with a manifest file present, ascending.
  std::vector<std::uint64_t> list_generations() const;

 private:
  std::string dir_;
};

}  // namespace omflp
