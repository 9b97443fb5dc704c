/// \file workload.h
/// Transaction workload generation (paper Section 4.2). Each client has a
/// TransactionSource that produces strings of object references: TransSize
/// distinct pages per transaction, PageLocality objects per page, hot/cold
/// region selection, per-region update probabilities, and clustered or
/// unclustered reference ordering. Object ids refer to the *dense* home
/// layout; physical placement (possibly interleaved) is resolved by the
/// ObjectLayout at access time.

#ifndef PSOODB_WORKLOAD_WORKLOAD_H_
#define PSOODB_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "config/params.h"
#include "sim/random.h"
#include "storage/types.h"

namespace psoodb::workload {

/// One object reference. A write access implies a read of the object first
/// (its client CPU cost is doubled; Section 4.2).
struct AccessOp {
  storage::ObjectId oid;
  bool is_write;
};

/// Reference string of one transaction.
using ReferenceString = std::vector<AccessOp>;

/// Generates transactions for one client.
class TransactionSource {
 public:
  TransactionSource(const config::WorkloadParams& workload,
                    const config::SystemParams& sys, storage::ClientId client,
                    std::uint64_t seed);

  /// Produces the next transaction's reference string.
  ReferenceString NextTransaction();

  const std::vector<config::RegionSpec>& regions() const { return *regions_; }
  std::uint64_t transactions_generated() const { return ordinal_; }

 private:
  /// Chooses `n` distinct pages according to the region probabilities into
  /// chosen_, as (page, region index) pairs.
  void ChoosePages(int n);

  const config::WorkloadParams& workload_;
  const config::SystemParams& sys_;
  const std::vector<config::RegionSpec>* regions_;  // this client's regions
  storage::ClientId client_;
  std::uint64_t ordinal_ = 0;
  sim::Rng rng_;
  // NextTransaction scratch, reused across transactions.
  std::vector<std::pair<storage::PageId, int>> chosen_;
  std::vector<std::int64_t> slots_;
  std::vector<AccessOp> ops_;
  std::vector<std::pair<std::size_t, std::size_t>> groups_;
  std::vector<std::size_t> order_;
};

}  // namespace psoodb::workload

#endif  // PSOODB_WORKLOAD_WORKLOAD_H_
