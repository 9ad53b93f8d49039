// A counting global operator new for tests that bound what a call
// allocates: while an AllocationBudget is alive, every allocation counts
// toward kAllocationBudget (64 MiB) and the one that would pass it throws
// std::bad_alloc.  A decoder that sizes a reservation by an unverified
// length instead of by the bytes present trips it.
//
// The header defines the replacement operators, so exactly one
// translation unit of a test binary includes it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

/// While armed, every allocation counts toward kAllocationBudget, and the
/// one that would pass it throws std::bad_alloc.
constexpr std::size_t kAllocationBudget = std::size_t{64} << 20;
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_armed_bytes{0};

void* counted_allocation(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed) &&
      g_armed_bytes.fetch_add(size, std::memory_order_relaxed) + size > kAllocationBudget) {
    throw std::bad_alloc();
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

/// Arms the budget for its lifetime.
class AllocationBudget {
 public:
  AllocationBudget() {
    g_armed_bytes.store(0);
    g_armed.store(true);
  }
  ~AllocationBudget() { g_armed.store(false); }
  AllocationBudget(const AllocationBudget&) = delete;
  AllocationBudget& operator=(const AllocationBudget&) = delete;
  [[nodiscard]] static std::size_t bytes() { return g_armed_bytes.load(); }
};

}  // namespace

void* operator new(std::size_t size) { return counted_allocation(size); }
void* operator new[](std::size_t size) { return counted_allocation(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t /*size*/) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t /*size*/) noexcept { std::free(block); }
