// Lookup of a request by its stable id in a compacted, arrival-ordered
// store (the ledger's resident records, PD-OMFLP's past requests).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "support/types.hpp"

namespace omflp {

/// Index of the element whose `.id` is `id` in `items` (ids strictly
/// ascending), or items.size() when absent. At most id - items[0].id
/// elements precede it, so that slot is tried first — a hit whenever
/// nothing before it was compacted away, which keeps uncompacted runs
/// O(1) — and bounds the binary search otherwise.
template <class T>
std::size_t index_of_request(const std::vector<T>& items, RequestId id) {
  if (items.empty() || id < items.front().id) return items.size();
  const std::size_t bound =
      std::min<std::size_t>(id - items.front().id, items.size() - 1);
  if (items[bound].id == id) return bound;
  const auto end = items.begin() + static_cast<std::ptrdiff_t>(bound);
  const auto it = std::lower_bound(
      items.begin(), end, id,
      [](const T& item, RequestId key) { return item.id < key; });
  return it != end && it->id == id
             ? static_cast<std::size_t>(it - items.begin())
             : items.size();
}

}  // namespace omflp
