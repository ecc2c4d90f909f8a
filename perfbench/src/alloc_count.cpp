// Counting global operator new for the benchmark binary: every heap
// allocation the library makes through new/new[] bumps one relaxed
// atomic, so core.heap_allocs_per_round is an exact count taken with no
// change to the library. malloc-backed, so the matching deletes are
// plain free (the same hook tests/arena_test.cpp uses).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "perfbench/src/bench.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t heap_allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
