// CommoditySet — a subset of the commodity universe S, the σ of the paper.
//
// The entire library manipulates configurations σ ⊆ S and request demand
// sets s_r ⊆ S; this is the one representation used everywhere. It is a
// bitset pinned to a fixed universe size so set algebra between sets of
// different universes is rejected loudly instead of silently truncating.
// Universes of at most 64 commodities (every registered scenario) keep
// their one word inline, so copying such a set never allocates; larger
// universes keep their words on the heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace omflp {

class CommoditySet {
 public:
  /// Empty set over an empty universe; mostly useful as a placeholder.
  CommoditySet() noexcept = default;

  /// Empty set over a universe of `universe` commodities. The word count
  /// is computed in std::size_t: `universe + 63` in CommodityId
  /// arithmetic wraps for universes near the maximum, which used to
  /// produce a zero-word set that add() then wrote past (heap overflow
  /// on fuzzed traces declaring |S| = 2^32 - 1).
  explicit CommoditySet(CommodityId universe) : universe_(universe) {
    if (on_heap()) store_.heap = new std::uint64_t[num_words()]();
  }

  CommoditySet(CommodityId universe, std::initializer_list<CommodityId> ids)
      : CommoditySet(universe) {
    for (CommodityId e : ids) add(e);
  }

  CommoditySet(const CommoditySet& o)
      : universe_(o.universe_), store_(o.store_) {
    if (on_heap()) {
      store_.heap = new std::uint64_t[num_words()];
      std::copy_n(o.store_.heap, num_words(), store_.heap);
    }
  }

  /// A moved-from set is left as the empty set over an empty universe.
  CommoditySet(CommoditySet&& o) noexcept
      : universe_(std::exchange(o.universe_, 0)),
        store_(std::exchange(o.store_, Storage{})) {}

  CommoditySet& operator=(const CommoditySet& o) {
    if (this == &o) return *this;
    if (on_heap() || o.on_heap()) return *this = CommoditySet(o);
    universe_ = o.universe_;
    store_ = o.store_;
    return *this;
  }

  CommoditySet& operator=(CommoditySet&& o) noexcept {
    if (this == &o) return *this;
    if (on_heap()) delete[] store_.heap;
    universe_ = std::exchange(o.universe_, 0);
    store_ = std::exchange(o.store_, Storage{});
    return *this;
  }

  ~CommoditySet() {
    if (on_heap()) delete[] store_.heap;
  }

  static CommoditySet empty_set(CommodityId universe) {
    return CommoditySet(universe);
  }

  /// The full universe S.
  static CommoditySet full_set(CommodityId universe) {
    CommoditySet s(universe);
    std::fill_n(s.words(), s.num_words(), ~0ULL);
    s.trim();
    return s;
  }

  static CommoditySet singleton(CommodityId universe, CommodityId e) {
    CommoditySet s(universe);
    s.add(e);
    return s;
  }

  CommodityId universe_size() const noexcept { return universe_; }

  void add(CommodityId e) {
    OMFLP_REQUIRE(e < universe_, "CommoditySet::add: commodity out of range");
    words()[e >> 6] |= (1ULL << (e & 63));
  }

  void remove(CommodityId e) {
    OMFLP_REQUIRE(e < universe_,
                  "CommoditySet::remove: commodity out of range");
    words()[e >> 6] &= ~(1ULL << (e & 63));
  }

  bool contains(CommodityId e) const {
    OMFLP_REQUIRE(e < universe_,
                  "CommoditySet::contains: commodity out of range");
    return (words()[e >> 6] >> (e & 63)) & 1ULL;
  }

  /// |σ|
  CommodityId count() const noexcept {
    if (!on_heap())
      return static_cast<CommodityId>(__builtin_popcountll(store_.word));
    CommodityId c = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      c += static_cast<CommodityId>(__builtin_popcountll(store_.heap[i]));
    return c;
  }

  bool empty() const noexcept {
    if (!on_heap()) return store_.word == 0;
    return std::all_of(store_.heap, store_.heap + num_words(),
                       [](std::uint64_t w) { return w == 0; });
  }

  bool is_full() const noexcept { return count() == universe_; }

  CommoditySet& operator|=(const CommoditySet& o) {
    check_same_universe(o);
    std::uint64_t* w = words();
    const std::uint64_t* v = o.words();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] |= v[i];
    return *this;
  }

  CommoditySet& operator&=(const CommoditySet& o) {
    check_same_universe(o);
    std::uint64_t* w = words();
    const std::uint64_t* v = o.words();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= v[i];
    return *this;
  }

  /// Set difference: this \ o.
  CommoditySet& operator-=(const CommoditySet& o) {
    check_same_universe(o);
    std::uint64_t* w = words();
    const std::uint64_t* v = o.words();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= ~v[i];
    return *this;
  }

  friend CommoditySet operator|(CommoditySet a, const CommoditySet& b) {
    a |= b;
    return a;
  }
  friend CommoditySet operator&(CommoditySet a, const CommoditySet& b) {
    a &= b;
    return a;
  }
  friend CommoditySet operator-(CommoditySet a, const CommoditySet& b) {
    a -= b;
    return a;
  }

  bool is_subset_of(const CommoditySet& o) const {
    check_same_universe(o);
    const std::uint64_t* w = words();
    const std::uint64_t* v = o.words();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] & ~v[i]) return false;
    return true;
  }

  bool intersects(const CommoditySet& o) const {
    check_same_universe(o);
    const std::uint64_t* w = words();
    const std::uint64_t* v = o.words();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] & v[i]) return true;
    return false;
  }

  /// |this ∩ o|, without building the intersection.
  CommodityId intersection_count(const CommoditySet& o) const {
    check_same_universe(o);
    const std::uint64_t* w = words();
    const std::uint64_t* v = o.words();
    CommodityId c = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      c += static_cast<CommodityId>(__builtin_popcountll(w[i] & v[i]));
    return c;
  }

  bool operator==(const CommoditySet& o) const noexcept {
    return universe_ == o.universe_ &&
           std::equal(words(), words() + num_words(), o.words());
  }

  /// Visit every contained commodity in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t* words_ptr = words();
    for (std::size_t wi = 0; wi < num_words(); ++wi) {
      std::uint64_t w = words_ptr[wi];
      while (w) {
        const int bit = __builtin_ctzll(w);
        fn(static_cast<CommodityId>(wi * 64 + static_cast<std::size_t>(bit)));
        w &= w - 1;
      }
    }
  }

  std::vector<CommodityId> to_vector() const {
    std::vector<CommodityId> out;
    out.reserve(count());
    for_each([&](CommodityId e) { out.push_back(e); });
    return out;
  }

  /// Smallest contained commodity; requires non-empty.
  CommodityId first() const {
    OMFLP_REQUIRE(!empty(), "CommoditySet::first: set is empty");
    const std::uint64_t* w = words();
    for (std::size_t wi = 0; wi < num_words(); ++wi)
      if (w[wi])
        return static_cast<CommodityId>(
            wi * 64 + static_cast<std::size_t>(__builtin_ctzll(w[wi])));
    return kInvalidCommodity;  // unreachable
  }

  /// Debug rendering, e.g. "{0,3,7}/8".
  std::string to_string() const;

  std::size_t hash() const noexcept {
    std::size_t h = 1469598103934665603ULL ^ universe_;
    const std::uint64_t* w = words();
    for (std::size_t i = 0; i < num_words(); ++i) {
      h ^= static_cast<std::size_t>(w[i]);
      h *= 1099511628211ULL;
    }
    return h;
  }

 private:
  /// One word per 64 commodities; an inline set keeps its word in
  /// `word` (zero for the empty universe), a larger one in `heap`.
  union Storage {
    std::uint64_t word;
    std::uint64_t* heap;
  };
  static constexpr CommodityId kInlineUniverse = 64;

  bool on_heap() const noexcept { return universe_ > kInlineUniverse; }
  std::size_t num_words() const noexcept {
    return (static_cast<std::size_t>(universe_) + 63) / 64;
  }
  std::uint64_t* words() noexcept {
    return on_heap() ? store_.heap : &store_.word;
  }
  const std::uint64_t* words() const noexcept {
    return on_heap() ? store_.heap : &store_.word;
  }

  void check_same_universe(const CommoditySet& o) const {
    OMFLP_REQUIRE(universe_ == o.universe_,
                  "CommoditySet: operation on sets over different universes");
  }

  void trim() noexcept {
    const CommodityId tail = universe_ & 63;
    if (tail != 0) words()[num_words() - 1] &= (1ULL << tail) - 1ULL;
  }

  CommodityId universe_ = 0;
  Storage store_{0};
};

struct CommoditySetHash {
  std::size_t operator()(const CommoditySet& s) const noexcept {
    return s.hash();
  }
};

}  // namespace omflp
