/// \file flat_hash.h
/// Open-addressing hash index over integral keys, and the insertion-ordered
/// FlatSet / FlatMap built on it. These replace node-based
/// std::unordered_{set,map} in per-transaction client state (the local lock
/// footprint, read versions) and in storage::LruCache's key index: a node
/// container pays one heap allocation per insert, while these keep their
/// storage across clear(), so once a client has run its largest
/// transaction, recording a footprint never allocates again.
///
/// FlatIndex maps a key to a position in storage its owner keeps (the dense
/// entry vector of FlatSet/FlatMap, or LruCache's node slab); the owner
/// tells it how to read the key at a position. Linear probing over a
/// power-of-two table, load factor at most 1/2, backward-shift deletion (no
/// tombstones). The table grows with the number of keys, never ahead of it.
///
/// FlatSet and FlatMap iterate in insertion order (erase moves the last
/// entry into the hole), so iteration is deterministic and independent of
/// the hash function.

#ifndef PSOODB_UTIL_FLAT_HASH_H_
#define PSOODB_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace psoodb::util {

template <typename Key>
class FlatIndex {
  static_assert(std::is_integral_v<Key>, "FlatIndex keys are integers");

 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Position of `k`, or kNone. `key_at(pos)` returns the key stored at pos.
  template <typename KeyAt>
  std::uint32_t Find(Key k, const KeyAt& key_at) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = Home(k);; i = (i + 1) & mask_) {
      const std::uint32_t s = slots_[i];
      if (s == kNone) return kNone;
      if (key_at(s) == k) return s;
    }
  }

  /// Records that absent key `k` lives at `pos`. `count` is the number of
  /// keys indexed once this one is added (it drives growth).
  template <typename KeyAt>
  void Insert(Key k, std::uint32_t pos, std::size_t count,
              const KeyAt& key_at) {
    if (count * 2 > slots_.size()) Grow(count, key_at);
    std::size_t i = Home(k);
    while (slots_[i] != kNone) i = (i + 1) & mask_;
    slots_[i] = pos;
  }

  /// Forgets `k`, which must be indexed at `pos`.
  template <typename KeyAt>
  void Erase(Key k, std::uint32_t pos, const KeyAt& key_at) {
    std::size_t hole = Home(k);
    while (slots_[hole] != pos) hole = (hole + 1) & mask_;
    // Backward shift: pull later members of the probe run into the hole
    // unless their home lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask_; slots_[j] != kNone;
         j = (j + 1) & mask_) {
      const std::size_t home = Home(key_at(slots_[j]));
      const bool stays = hole <= j ? (hole < home && home <= j)
                                   : (hole < home || home <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = kNone;
  }

  /// Repoints `k` from position `from` to position `to`.
  void Move(Key k, std::uint32_t from, std::uint32_t to) {
    std::size_t i = Home(k);
    while (slots_[i] != from) i = (i + 1) & mask_;
    slots_[i] = to;
  }

  /// Forgets every key; keeps the table.
  void Clear() {
    for (std::uint32_t& s : slots_) s = kNone;
  }

  std::size_t table_size() const { return slots_.size(); }

 private:
  std::size_t Home(Key k) const {
    // Fibonacci hashing: the top bits of the product are well mixed even for
    // the dense, sequential keys (page and object ids) the simulator uses.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  template <typename KeyAt>
  void Grow(std::size_t count, const KeyAt& key_at) {
    std::size_t n = slots_.empty() ? 8 : slots_.size();
    while (n < count * 2) n *= 2;
    std::vector<std::uint32_t> old(n, kNone);
    old.swap(slots_);
    mask_ = n - 1;
    shift_ = 64;
    for (std::size_t m = n; m > 1; m >>= 1) --shift_;
    for (std::uint32_t s : old) {
      if (s == kNone) continue;
      std::size_t i = Home(key_at(s));
      while (slots_[i] != kNone) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

/// Insertion-ordered set of integers with storage that survives clear().
template <typename Key>
class FlatSet {
 public:
  using const_iterator = typename std::vector<Key>::const_iterator;

  /// Adds `k`; returns false if it was already present.
  bool insert(Key k) {
    if (contains(k)) return false;
    keys_.push_back(k);
    index_.Insert(k, static_cast<std::uint32_t>(keys_.size() - 1),
                  keys_.size(), KeyAt());
    return true;
  }

  /// Removes `k`; returns false if it was absent.
  bool erase(Key k) {
    const std::uint32_t pos = index_.Find(k, KeyAt());
    if (pos == FlatIndex<Key>::kNone) return false;
    index_.Erase(k, pos, KeyAt());
    const auto last = static_cast<std::uint32_t>(keys_.size() - 1);
    if (pos != last) {
      index_.Move(keys_[last], last, pos);
      keys_[pos] = keys_[last];
    }
    keys_.pop_back();
    return true;
  }

  bool contains(Key k) const {
    return index_.Find(k, KeyAt()) != FlatIndex<Key>::kNone;
  }

  void clear() {
    if (keys_.empty()) return;
    keys_.clear();
    index_.Clear();
  }

  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  const_iterator begin() const { return keys_.begin(); }
  const_iterator end() const { return keys_.end(); }

 private:
  struct KeyAtFn {
    const std::vector<Key>* keys;
    Key operator()(std::uint32_t pos) const { return (*keys)[pos]; }
  };
  KeyAtFn KeyAt() const { return KeyAtFn{&keys_}; }

  std::vector<Key> keys_;
  FlatIndex<Key> index_;
};

/// Insertion-ordered map from integers to values, with storage that
/// survives clear(). Entries iterate as std::pair<Key, Value>.
template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  /// Inserts (k, v) unless `k` is present; returns false (keeping the old
  /// value) if it was.
  bool emplace(Key k, const Value& v) {
    if (find(k) != nullptr) return false;
    entries_.emplace_back(k, v);
    index_.Insert(k, static_cast<std::uint32_t>(entries_.size() - 1),
                  entries_.size(), KeyAt());
    return true;
  }

  Value* find(Key k) {
    const std::uint32_t pos = index_.Find(k, KeyAt());
    return pos == FlatIndex<Key>::kNone ? nullptr : &entries_[pos].second;
  }
  const Value* find(Key k) const {
    const std::uint32_t pos = index_.Find(k, KeyAt());
    return pos == FlatIndex<Key>::kNone ? nullptr : &entries_[pos].second;
  }

  void clear() {
    if (entries_.empty()) return;
    entries_.clear();
    index_.Clear();
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  struct KeyAtFn {
    const std::vector<value_type>* entries;
    Key operator()(std::uint32_t pos) const { return (*entries)[pos].first; }
  };
  KeyAtFn KeyAt() const { return KeyAtFn{&entries_}; }

  std::vector<value_type> entries_;
  FlatIndex<Key> index_;
};

}  // namespace psoodb::util

#endif  // PSOODB_UTIL_FLAT_HASH_H_
