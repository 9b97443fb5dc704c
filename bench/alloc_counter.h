/// \file alloc_counter.h
/// Process-wide heap allocation counter for benchmark binaries. Linking
/// alloc_counter.cpp into a binary replaces the global operator new/delete
/// family with malloc/free wrappers that count every allocation (from any
/// thread), so a benchmark can report allocations per simulated event: a
/// deterministic work counter that host noise cannot move.

#ifndef PSOODB_BENCH_ALLOC_COUNTER_H_
#define PSOODB_BENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace psoodb::bench {

/// Heap allocations made through operator new since process start.
std::uint64_t HeapAllocations();

}  // namespace psoodb::bench

#endif  // PSOODB_BENCH_ALLOC_COUNTER_H_
