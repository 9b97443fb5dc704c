// Model-checking tests for storage::LruCache and the flat hash containers
// under it (util/flat_hash.h). A brute-force reference — a std::list in
// MRU-to-LRU order, scanned on every operation — is driven through
// randomized Insert/Get/Peek/Pin/Unpin/Remove interleavings in lockstep
// with the real cache, asserting identical victims, values, iteration
// order and recency order. FlatSet/FlatMap are checked the same way
// against a plain vector.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <optional>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "storage/lru_cache.h"
#include "util/flat_hash.h"

namespace psoodb {
namespace {

// --- Reference LRU ----------------------------------------------------------

class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  struct Entry {
    int key;
    int value;
    int pins;
  };

  Entry* Find(int k) {
    for (Entry& e : list_) {
      if (e.key == k) return &e;
    }
    return nullptr;
  }

  void MoveToFront(int k) {
    auto it = std::find_if(list_.begin(), list_.end(),
                           [k](const Entry& e) { return e.key == k; });
    list_.splice(list_.begin(), list_, it);
  }

  /// False if the cache is full and every entry is pinned.
  bool CanInsert(int k) {
    if (Find(k) != nullptr || list_.size() < capacity_) return true;
    for (const Entry& e : list_) {
      if (e.pins == 0) return true;
    }
    return false;
  }

  /// Returns the evicted (key, value), if any.
  std::optional<std::pair<int, int>> Insert(int k) {
    if (Find(k) != nullptr) {
      MoveToFront(k);
      return std::nullopt;
    }
    std::optional<std::pair<int, int>> victim;
    if (list_.size() >= capacity_) {
      for (auto it = list_.rbegin(); it != list_.rend(); ++it) {
        if (it->pins == 0) {
          victim = std::make_pair(it->key, it->value);
          list_.erase(std::next(it).base());
          break;
        }
      }
    }
    list_.push_front({k, 0, 0});
    return victim;
  }

  void Remove(int k) {
    list_.remove_if([k](const Entry& e) { return e.key == k; });
  }

  const std::list<Entry>& entries() const { return list_; }

 private:
  std::size_t capacity_;
  std::list<Entry> list_;
};

void ExpectSameState(const storage::LruCache<int, int>& cache,
                     const ReferenceLru& ref) {
  std::vector<std::pair<int, int>> got;
  cache.ForEach([&](int k, const int& v) { got.emplace_back(k, v); });
  std::vector<std::pair<int, int>> want;
  for (const auto& e : ref.entries()) want.emplace_back(e.key, e.value);
  ASSERT_EQ(got, want);
  ASSERT_EQ(cache.size(), want.size());
  // Descending recency stamps reproduce the MRU-to-LRU order exactly.
  std::vector<std::pair<std::uint64_t, int>> by_stamp;
  for (const auto& [k, v] : got) by_stamp.emplace_back(cache.recency(k), k);
  std::sort(by_stamp.begin(), by_stamp.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(by_stamp[i].second, got[i].first);
    ASSERT_GT(by_stamp[i].first, 0u);
  }
  for (const auto& e : ref.entries()) {
    ASSERT_EQ(cache.pins(e.key), e.pins);
  }
}

void RunLruModel(std::uint64_t seed, std::size_t capacity, int key_range,
                 int steps) {
  sim::Rng rng(seed);
  storage::LruCache<int, int> cache(capacity);
  ReferenceLru ref(capacity);
  EXPECT_EQ(cache.slab_size(), 0u);  // nothing reserved up front
  std::size_t high_water = 0;
  int next_value = 1;
  for (int step = 0; step < steps; ++step) {
    const int k = static_cast<int>(rng.UniformInt(0, key_range - 1));
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    ReferenceLru::Entry* e = ref.Find(k);
    if (op < 35) {  // Insert
      if (!ref.CanInsert(k)) continue;
      auto want = ref.Insert(k);
      auto got = cache.Insert(k);
      ASSERT_EQ(got.inserted, e == nullptr);
      ASSERT_EQ(got.evicted.has_value(), want.has_value());
      if (want.has_value()) {
        ASSERT_EQ(*got.evicted, *want);
      }
      if (got.inserted) {
        ASSERT_EQ(*got.value, 0);  // default-constructed, even when recycled
        *got.value = next_value;
        ref.Find(k)->value = next_value++;
      }
    } else if (op < 60) {  // Get
      int* v = cache.Get(k);
      ASSERT_EQ(v != nullptr, e != nullptr);
      if (e != nullptr) {
        ASSERT_EQ(*v, e->value);
        ref.MoveToFront(k);
      }
    } else if (op < 70) {  // Peek, Contains
      const int* v = cache.Peek(k);
      ASSERT_EQ(v != nullptr, e != nullptr);
      ASSERT_EQ(cache.Contains(k), e != nullptr);
      if (e != nullptr) {
        ASSERT_EQ(*v, e->value);
      }
    } else if (op < 80) {  // Pin
      if (e == nullptr) continue;
      cache.Pin(k);
      ++e->pins;
    } else if (op < 90) {  // Unpin
      if (e == nullptr || e->pins == 0) continue;
      cache.Unpin(k);
      --e->pins;
    } else {  // Remove
      if (e != nullptr && e->pins > 0) continue;
      auto got = cache.Remove(k);
      ASSERT_EQ(got.has_value(), e != nullptr);
      if (e != nullptr) {
        ASSERT_EQ(*got, e->value);
      }
      ref.Remove(k);
    }
    high_water = std::max(high_water, ref.entries().size());
    // Storage grows with the live entries, never past their high-water
    // mark (freed positions are recycled first) nor past capacity.
    ASSERT_LE(cache.slab_size(), high_water);
    ASSERT_LE(cache.slab_size(), capacity);
    ExpectSameState(cache, ref);
  }
}

TEST(LruCacheModelTest, MatchesReferenceAcrossCapacities) {
  // Key ranges above capacity force evictions; capacities above 8 span
  // several slab chunks.
  const std::size_t capacities[] = {1, 2, 3, 7, 64, 100};
  for (std::size_t cap : capacities) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "capacity " << cap << " seed "
                                      << seed);
      const int key_range = static_cast<int>(cap) * 2 + 3;
      RunLruModel(seed * 7919 + cap, cap, key_range, 4000);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LruCacheModelTest, CapacityOneEvictsEveryOtherKey) {
  storage::LruCache<int, int> cache(1);
  EXPECT_EQ(cache.slab_size(), 0u);
  *cache.Insert(5).value = 50;
  auto r = cache.Insert(6);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, std::make_pair(5, 50));
  EXPECT_FALSE(cache.Contains(5));
  EXPECT_TRUE(cache.Contains(6));
  EXPECT_EQ(*r.value, 0);
  EXPECT_EQ(cache.slab_size(), 1u);  // the victim's position was reused
  EXPECT_FALSE(cache.Insert(6).evicted.has_value());
}

TEST(LruCacheModelTest, ValuePointersSurviveGrowth) {
  // Values live in never-moving chunks: a pointer taken early stays valid
  // while later inserts add chunks and regrow the index.
  storage::LruCache<int, int> cache(1000);
  int* first = cache.Insert(0).value;
  *first = 42;
  for (int k = 1; k < 1000; ++k) cache.Insert(k);
  EXPECT_EQ(cache.Peek(0), first);
  EXPECT_EQ(*first, 42);
}

// --- Flat containers ----------------------------------------------------------

TEST(FlatHashModelTest, FlatSetMatchesInsertionOrderedReference) {
  sim::Rng rng(99);
  util::FlatSet<std::int64_t> set;
  std::vector<std::int64_t> ref;  // insertion order; erase moves the last in
  for (int step = 0; step < 20000; ++step) {
    const std::int64_t k = rng.UniformInt(-50, 200);
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    auto it = std::find(ref.begin(), ref.end(), k);
    if (op < 55) {
      ASSERT_EQ(set.insert(k), it == ref.end());
      if (it == ref.end()) ref.push_back(k);
    } else if (op < 90) {
      ASSERT_EQ(set.erase(k), it != ref.end());
      if (it != ref.end()) {
        *it = ref.back();
        ref.pop_back();
      }
    } else if (op < 99) {
      ASSERT_EQ(set.contains(k), it != ref.end());
    } else {
      set.clear();
      ref.clear();
    }
    ASSERT_EQ(std::vector<std::int64_t>(set.begin(), set.end()), ref);
    ASSERT_EQ(set.size(), ref.size());
  }
}

TEST(FlatHashModelTest, FlatMapKeepsFirstValueAndOrder) {
  util::FlatMap<int, int> map;
  EXPECT_TRUE(map.emplace(7, 70));
  EXPECT_TRUE(map.emplace(3, 30));
  EXPECT_FALSE(map.emplace(7, 71));  // first insert wins
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 70);
  EXPECT_EQ(map.find(4), nullptr);
  std::vector<std::pair<int, int>> got(map.begin(), map.end());
  EXPECT_EQ(got, (std::vector<std::pair<int, int>>{{7, 70}, {3, 30}}));
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), nullptr);
  for (int k = 0; k < 100; ++k) EXPECT_TRUE(map.emplace(k, -k));
  for (int k = 0; k < 100; ++k) ASSERT_EQ(*map.find(k), -k);
}

TEST(FlatHashModelTest, ClearKeepsTheIndexTable) {
  util::FlatIndex<int> index;
  std::vector<int> keys;
  const auto key_at = [&keys](std::uint32_t pos) { return keys[pos]; };
  EXPECT_EQ(index.table_size(), 0u);  // grows from empty
  for (int k = 0; k < 40; ++k) {
    keys.push_back(k * 1000);
    index.Insert(k * 1000, static_cast<std::uint32_t>(k), keys.size(), key_at);
  }
  const std::size_t table = index.table_size();
  EXPECT_GE(table, 80u);  // load factor at most 1/2
  index.Clear();
  EXPECT_EQ(index.table_size(), table);
  EXPECT_EQ(index.Find(0, key_at), util::FlatIndex<int>::kNone);
}

}  // namespace
}  // namespace psoodb
