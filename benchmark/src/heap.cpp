#include "heap.hpp"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace {

std::size_t g_live = 0;
std::size_t g_peak = 0;

}  // namespace

namespace bench::heap {

std::size_t reset_peak() {
  g_peak = g_live;
  return g_live;
}

std::size_t peak_bytes() { return g_peak; }

}  // namespace bench::heap

// The library's default array, nothrow and sized forms call these two.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live += malloc_usable_size(p);
  if (g_live > g_peak) g_peak = g_live;
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live -= malloc_usable_size(p);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
