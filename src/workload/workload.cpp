#include "workload/workload.h"

#include <algorithm>

#include "util/check.h"

namespace psoodb::workload {

using config::AccessPattern;
using config::RegionSpec;
using storage::ObjectId;
using storage::PageId;

namespace {
// A custom generator ignores the region tables; use an empty placeholder.
const std::vector<config::RegionSpec> kNoRegions;
}  // namespace

TransactionSource::TransactionSource(const config::WorkloadParams& workload,
                                     const config::SystemParams& sys,
                                     storage::ClientId client,
                                     std::uint64_t seed)
    : workload_(workload),
      sys_(sys),
      regions_(workload.custom_generator
                   ? &kNoRegions
                   : &workload.client_regions.at(client)),
      client_(client),
      rng_(seed, /*stream=*/0x30A0 + static_cast<std::uint64_t>(client)) {
  PSOODB_CHECK(workload.custom_generator || !regions_->empty(),
               "client %d has neither regions nor a custom generator", client);
}

void TransactionSource::ChoosePages(int n) {
  chosen_.clear();
  // Pages already chosen; a transaction holds a few dozen, so a scan beats
  // a hash set.
  const auto used = [this](PageId cand) {
    for (const auto& c : chosen_) {
      if (c.first == cand) return true;
    }
    return false;
  };
  const auto& regions = *regions_;
  for (int i = 0; i < n; ++i) {
    // Select a region by access probability.
    double u = rng_.NextDouble();
    int r = 0;
    for (; r + 1 < static_cast<int>(regions.size()); ++r) {
      if (u < regions[r].access_prob) break;
      u -= regions[r].access_prob;
    }
    // Pages are chosen without replacement (Section 5.2 footnote): rejection
    // sample inside the region, falling back to a linear probe and finally
    // to the whole database if the region is exhausted.
    const RegionSpec& reg = regions[r];
    PageId page = -1;
    for (int attempt = 0; attempt < 64; ++attempt) {
      PageId cand = static_cast<PageId>(rng_.UniformInt(reg.lo, reg.hi));
      if (!used(cand)) {
        page = cand;
        break;
      }
    }
    if (page < 0) {
      for (PageId cand = reg.lo; cand <= reg.hi; ++cand) {
        if (!used(cand)) {
          page = cand;
          break;
        }
      }
    }
    if (page < 0) {
      // Region exhausted; draw from the whole database.
      for (int attempt = 0; attempt < 1024 && page < 0; ++attempt) {
        PageId cand = static_cast<PageId>(rng_.UniformInt(0, sys_.db_pages - 1));
        if (!used(cand)) page = cand;
      }
    }
    if (page >= 0) chosen_.emplace_back(page, r);
  }
}

ReferenceString TransactionSource::NextTransaction() {
  if (workload_.custom_generator) {
    auto accesses = workload_.custom_generator(client_, ordinal_++);
    ReferenceString out;
    out.reserve(accesses.size());
    for (const auto& a : accesses) out.push_back({a.oid, a.is_write});
    return out;
  }
  ++ordinal_;
  const int opp = sys_.objects_per_page;
  ChoosePages(workload_.trans_size_pages);

  // Per-page object reference groups, stored back to back in ops_: group g
  // is ops_[groups_[g].first, groups_[g].second).
  ops_.clear();
  groups_.clear();
  for (auto [page, r] : chosen_) {
    const std::size_t begin = ops_.size();
    int k = static_cast<int>(rng_.UniformInt(workload_.page_locality_min,
                                             workload_.page_locality_max));
    k = std::min(k, opp);
    rng_.SampleWithoutReplacement(0, opp - 1, static_cast<std::size_t>(k),
                                  &slots_);
    const double wp = (*regions_)[r].write_prob;
    for (auto slot : slots_) {
      ObjectId oid = static_cast<ObjectId>(page) * opp + slot;
      ops_.push_back({oid, rng_.Bernoulli(wp)});
    }
    groups_.emplace_back(begin, ops_.size());
  }

  ReferenceString out;
  out.reserve(ops_.size());
  order_.clear();
  if (workload_.pattern == AccessPattern::kClustered) {
    // All of a page's references appear together; page order is random.
    for (std::size_t g = 0; g < groups_.size(); ++g) order_.push_back(g);
    rng_.Shuffle(order_);
    for (std::size_t g : order_) {
      out.insert(out.end(), ops_.begin() + groups_[g].first,
                 ops_.begin() + groups_[g].second);
    }
  } else {
    // Unclustered: interleave page groups, preserving within-page order.
    // order_ holds the unfinished groups; a group's first index advances
    // as it is consumed.
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g].first != groups_[g].second) order_.push_back(g);
    }
    while (!order_.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(order_.size()) - 1));
      auto& [next, end] = groups_[order_[pick]];
      out.push_back(ops_[next++]);
      if (next == end) {
        order_[pick] = order_.back();
        order_.pop_back();
      }
    }
  }
  return out;
}

}  // namespace psoodb::workload
