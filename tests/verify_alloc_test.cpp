// Allocation budget of exec::verify_execution.
//
// This executable replaces the global operator new to count the heap
// allocations verify_execution makes on a fixed seeded 4 x 2500-m-op
// engine run (64 objects, footprint 4, zipf 0.9 — the shape of perfbench's
// exec_hot_audited) and holds them to at most 10 per verified m-operation.
// Each window's History and trace are built in place from the merged log,
// so the count is mostly each m-operation's own few vectors; a change that
// copies windows through another structure, or formats a string per read,
// shows up here.
//
// Not built under the sanitizer presets, whose runtimes own operator new.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "exec/engine.hpp"
#include "exec/verify.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_allocation(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocation(size); }
void* operator new[](std::size_t size) { return counted_allocation(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mocc::exec {
namespace {

constexpr double kBudgetPerMop = 10.0;

TEST(VerifyAllocBudget, AtMostTenAllocationsPerVerifiedMop) {
  ExecConfig config;
  config.threads = 4;
  config.objects = 64;
  config.mops_per_thread = 2500;
  config.footprint = 4;
  config.query_ratio = 0.4;
  config.rmw_ratio = 0.5;
  config.zipf_skew = 0.9;
  config.seed = 7;
  const ExecResult result = run(config);
  ASSERT_EQ(result.stats.committed, 10000u);

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const VerifyReport report = verify_execution(result);
  g_counting.store(false, std::memory_order_relaxed);
  ASSERT_TRUE(report.ok) << report.to_string();

  const double per_mop = static_cast<double>(g_allocations.load(std::memory_order_relaxed)) /
                         static_cast<double>(report.mops);
  std::printf("verify_execution: %.2f allocations per m-op (budget %.0f)\n", per_mop,
              kBudgetPerMop);
  EXPECT_LE(per_mop, kBudgetPerMop);
}

}  // namespace
}  // namespace mocc::exec
