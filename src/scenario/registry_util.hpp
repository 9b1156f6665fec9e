// The seed helper shared by every caller that turns a workload seed into
// an algorithm from the registry (CLI, sweep, engine, benches).
#pragma once

#include <cstdint>

namespace omflp {

/// Decorrelate an algorithm's coin stream from the workload seed.
///
/// Scenario factories construct `Rng(seed)` directly, and RandOmflp does
/// the same with its option seed — handing both the identical value would
/// replay the generator's exact draw sequence inside the algorithm,
/// correlating coins with the input. Deriving the coin seed through one
/// SplitMix64 step (distinct increment) keeps runs deterministic in the
/// user-facing seed while separating the two streams.
inline std::uint64_t derive_algorithm_seed(
    std::uint64_t workload_seed) noexcept {
  std::uint64_t z = (workload_seed + 0x632be59bd9b4e019ULL) *
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace omflp
