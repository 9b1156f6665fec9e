// Minimal shared-memory parallelism for the experiment harness.
//
// Competitive-ratio experiments are embarrassingly parallel over (parameter
// point, seed) pairs; parallel_for distributes index ranges over a pool of
// std::jthread workers that claim fixed-size chunks dynamically through
// one shared atomic cursor (about eight chunks per worker, so uneven items
// balance without a work-stealing queue). Which worker runs which index is
// therefore not fixed; callers write into per-index slots and merge in
// index order. Exceptions from workers are captured and rethrown on the
// calling thread.
#pragma once

#include <cstddef>
#include <functional>

namespace omflp {

/// Number of worker threads to use by default: hardware concurrency,
/// overridable with the OMFLP_THREADS environment variable.
std::size_t default_thread_count();

/// Invoke fn(i) for every i in [0, n), distributed over `threads` workers.
/// With threads <= 1 runs inline (useful under sanitizers / debugging).
/// fn must be safe to call concurrently for distinct i.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace omflp
