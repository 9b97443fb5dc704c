/// \file lru_cache.h
/// Generic LRU cache with pinning and caller-handled eviction, used for both
/// the page caches (clients of the page-server family, and the server) and
/// the object cache (object-server clients). Eviction of an entry may require
/// protocol work (write a dirty page to disk, ship it to the server, notify
/// the server that a copy was dropped), so victims are returned to the caller
/// rather than silently discarded.
///
/// Storage: entries live in a slab of fixed-size chunks, linked MRU-to-LRU by
/// 32-bit indices, with freed entries recycled through a free list; a
/// util::FlatIndex maps keys to slab positions. Both grow with the number of
/// entries, never ahead of it: a cache's capacity is a limit, not a
/// reservation (the scaled configurations give 2000 clients caches far
/// larger than they ever fill). Chunks never move, so a returned Value*
/// stays valid until its entry is removed or evicted.
///
/// Every Insert and Get stamps the entry with a fresh value of a per-cache
/// counter, so descending recency() is exactly the ForEach (MRU-to-LRU)
/// order. Clients use it to order the few entries a transaction touched
/// without walking the whole cache.

#ifndef PSOODB_STORAGE_LRU_CACHE_H_
#define PSOODB_STORAGE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>
#include <vector>
#include "util/annotations.h"
#include "util/check.h"
#include "util/flat_hash.h"

namespace psoodb::storage {

template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    PSOODB_CHECK(capacity > 0, "LruCache needs nonzero capacity");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool Contains(const Key& k) const { return Find(k) != kNil; }

  /// Returns the cached value and marks it most-recently-used, or nullptr.
  Value* Get(const Key& k) {
    const std::uint32_t i = Find(k);
    if (i == kNil) return nullptr;
    Touch(i);
    return &At(i).value;
  }

  /// Returns the cached value without touching recency, or nullptr.
  Value* Peek(const Key& k) {
    const std::uint32_t i = Find(k);
    return i == kNil ? nullptr : &At(i).value;
  }
  const Value* Peek(const Key& k) const {
    const std::uint32_t i = Find(k);
    return i == kNil ? nullptr : &At(i).value;
  }

  /// Recency stamp of `k` (0 if uncached): larger is more recently used.
  std::uint64_t recency(const Key& k) const {
    const std::uint32_t i = Find(k);
    return i == kNil ? 0 : At(i).stamp;
  }

  struct InsertResult {
    Value* value = nullptr;  ///< the (possibly pre-existing) entry
    bool inserted = false;   ///< false if the key was already present
    /// Entry evicted to make room, if any. The caller must perform whatever
    /// protocol work the eviction implies.
    std::optional<std::pair<Key, Value>> evicted;
  };

  /// Inserts `k` (default-constructed value) as most-recently-used. If the
  /// cache is full, evicts the least-recently-used unpinned entry.
  /// Precondition: if full, at least one entry must be unpinned.
  InsertResult Insert(const Key& k) {
    InsertResult r;
    if (const std::uint32_t i = Find(k); i != kNil) {
      Touch(i);
      r.value = &At(i).value;
      return r;
    }
    if (size_ >= capacity_) r.evicted = EvictOne();
    const std::uint32_t i = Allocate();
    Node& n = At(i);
    n.key = k;
    n.pins = 0;
    n.stamp = ++clock_;
    LinkFront(i);
    ++size_;
    index_.Insert(k, i, size_, KeyAt());
    memo_key_ = k;
    memo_ = i;
    r.value = &n.value;
    r.inserted = true;
    return r;
  }

  /// Removes `k`; returns the removed value if it was present.
  std::optional<Value> Remove(const Key& k) {
    const std::uint32_t i = Find(k);
    if (i == kNil) return std::nullopt;
    PSOODB_CHECK(At(i).pins == 0, "removing a pinned entry");
    std::optional<Value> v(std::move(At(i).value));
    Release(i);
    return v;
  }

  /// Pins an entry, excluding it from eviction. Pins nest.
  void Pin(const Key& k) PSOODB_ACQUIRES(pin) {
    const std::uint32_t i = Find(k);
    PSOODB_DCHECK(i != kNil, "pinning an uncached key");
    ++At(i).pins;
  }
  void Unpin(const Key& k) PSOODB_RELEASES(pin) {
    const std::uint32_t i = Find(k);
    PSOODB_DCHECK(i != kNil, "unpinning an uncached key");
    PSOODB_DCHECK(At(i).pins > 0, "unpin without matching pin");
    --At(i).pins;
  }
  int pins(const Key& k) const {
    const std::uint32_t i = Find(k);
    return i == kNil ? 0 : static_cast<int>(At(i).pins);
  }

  /// Calls `fn(key, value)` for every entry, in MRU-to-LRU order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint32_t i = head_; i != kNil; i = At(i).next) {
      fn(At(i).key, At(i).value);
    }
  }

  /// Slab positions allocated so far (live entries plus free-listed ones):
  /// the storage high-water mark, for tests.
  std::size_t slab_size() const { return slab_size_; }

 private:
  static constexpr std::uint32_t kNil = util::FlatIndex<Key>::kNone;
  static constexpr std::uint32_t kChunkBits = 3;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;

  struct Node {
    Key key{};
    Value value{};
    std::uint32_t pins = 0;
    std::uint32_t prev = kNil;  ///< towards MRU
    std::uint32_t next = kNil;  ///< towards LRU; free-list link when free
    std::uint64_t stamp = 0;
  };

  struct KeyAtFn {
    const LruCache* cache;
    Key operator()(std::uint32_t i) const { return cache->At(i).key; }
  };
  KeyAtFn KeyAt() const { return KeyAtFn{this}; }

  Node& At(std::uint32_t i) {
    return chunks_[i >> kChunkBits][i & (kChunk - 1)];
  }
  const Node& At(std::uint32_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunk - 1)];
  }

  /// Index lookup with a one-entry memo: consecutive operations on the same
  /// key (the dominant access pattern — a Contains/Get/Pin run against one
  /// page) skip the probe entirely. Recency moves keep the memo valid;
  /// releasing its entry invalidates it.
  std::uint32_t Find(const Key& k) const {
    if (memo_ != kNil && memo_key_ == k) return memo_;
    const std::uint32_t i = index_.Find(k, KeyAt());
    if (i != kNil) {
      memo_key_ = k;
      memo_ = i;
    }
    return i;
  }

  void Touch(std::uint32_t i) {
    At(i).stamp = ++clock_;
    if (head_ == i) return;
    Unlink(i);
    LinkFront(i);
  }

  void LinkFront(std::uint32_t i) {
    Node& n = At(i);
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil) At(head_).prev = i;
    head_ = i;
    if (tail_ == kNil) tail_ = i;
  }

  void Unlink(std::uint32_t i) {
    Node& n = At(i);
    if (n.prev != kNil) {
      At(n.prev).next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNil) {
      At(n.next).prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }

  /// A free slab position: recycled, or the next one (adding a chunk when
  /// the last is full).
  std::uint32_t Allocate() {
    if (free_ != kNil) {
      const std::uint32_t i = free_;
      free_ = At(i).next;
      return i;
    }
    if ((slab_size_ & (kChunk - 1)) == 0) {
      chunks_.push_back(std::make_unique<Node[]>(kChunk));
    }
    return static_cast<std::uint32_t>(slab_size_++);
  }

  /// Unindexes and unlinks entry `i` and returns its position to the free
  /// list. The value must already have been moved out.
  void Release(std::uint32_t i) {
    Node& n = At(i);
    index_.Erase(n.key, i, KeyAt());
    if (memo_ == i) memo_ = kNil;
    Unlink(i);
    n.value = Value{};
    n.next = free_;
    free_ = i;
    --size_;
  }

  std::pair<Key, Value> EvictOne() {
    for (std::uint32_t i = tail_; i != kNil; i = At(i).prev) {
      if (At(i).pins == 0) {
        std::pair<Key, Value> out{At(i).key, std::move(At(i).value)};
        Release(i);
        return out;
      }
    }
    // Reaching here means the precondition (one unpinned entry when full)
    // was violated. In a release build the old assert compiled away and fell
    // into undefined behavior; fail hard instead.
    std::fprintf(stderr,
                 "LruCache: all %zu entries pinned; cannot evict (capacity "
                 "%zu)\n",
                 size_, capacity_);
    std::abort();
  }

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::size_t slab_size_ = 0;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  util::FlatIndex<Key> index_;
  std::uint32_t head_ = kNil;  ///< most recently used
  std::uint32_t tail_ = kNil;  ///< least recently used
  std::uint32_t free_ = kNil;
  std::uint64_t clock_ = 0;  ///< last recency stamp issued
  // Last-lookup memo (mutable: const reads refresh it).
  mutable Key memo_key_{};
  mutable std::uint32_t memo_ = kNil;
};

}  // namespace psoodb::storage

#endif  // PSOODB_STORAGE_LRU_CACHE_H_
