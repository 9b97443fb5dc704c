// Counting replacements for the global allocation functions (see
// alloc_counter.h). Only binaries that link this file are affected.

#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace psoodb::bench {
namespace {

// Relaxed: partitioned runs allocate from their worker threads, and only
// the total (read after the threads have joined) matters.
std::atomic<std::uint64_t> allocations{0};

void* Allocate(std::size_t n, std::size_t align) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateNoThrow(std::size_t n, std::size_t align) noexcept {
  try {
    return Allocate(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

std::uint64_t HeapAllocations() {
  return allocations.load(std::memory_order_relaxed);
}

}  // namespace psoodb::bench

using psoodb::bench::Allocate;
using psoodb::bench::AllocateNoThrow;

void* operator new(std::size_t n) { return Allocate(n, 0); }
void* operator new[](std::size_t n) { return Allocate(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return AllocateNoThrow(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return AllocateNoThrow(n, 0);
}

// Everything above came from malloc or aligned_alloc, both released by
// free. GCC flags free() on operator new's result once it inlines these
// (-Wmismatched-new-delete); the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
