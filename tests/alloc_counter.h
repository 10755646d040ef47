// Global allocation counter for a test binary's zero-allocation checks.
//
// Replaces the global operator new/delete family so that every operator
// new in the binary bumps g_allocations; tests snapshot the counter
// around a hot path to prove it allocation-free.  (Counting, not
// failing: gtest itself allocates.)  Replacement functions must be
// defined once per program, so include this from exactly one translation
// unit — each test suite is a single .cpp.
#ifndef DRT_TESTS_ALLOC_COUNTER_H
#define DRT_TESTS_ALLOC_COUNTER_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs the malloc inside these replacements with the matching
// operator delete below and (correctly) frees with std::free; silence
// its inliner-driven mismatch heuristic.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// The nothrow forms matter: libstdc++'s stable_sort temporary buffer
// allocates through operator new(nothrow) and frees through the sized
// operator delete — every path must stay in the malloc family or ASan's
// alloc-dealloc-mismatch check trips.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

#endif  // DRT_TESTS_ALLOC_COUNTER_H
