// Global operator new/delete replacement that keeps a live-byte count, so
// the benchmark can sample heap growth during the measured phases. Sizes
// come from malloc_usable_size on both sides, so sized and unsized deletes
// account identically. Every allocation pays one malloc_usable_size call
// and one shared atomic add. README.md states the measured cost.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_util.h"

namespace {

// Its own cache line: every allocation and release writes it.
alignas(64) std::atomic<std::int64_t> g_live{0};

void Account(void* p) {
  g_live.fetch_add(std::int64_t(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  Account(p);
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  const std::size_t a = std::size_t(align);
  void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  Account(p);
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(std::int64_t(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace e2e {

std::int64_t HeapLiveBytes() { return g_live.load(std::memory_order_relaxed); }

}  // namespace e2e

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }
