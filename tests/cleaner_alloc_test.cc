// Allocation guard for the cleaner's data path: once the cleaner has seen
// its largest round, a steady-state cleaning round allocates no
// segment-sized buffers. Victim reads land in an arena the LLD keeps,
// cleaned blocks point into it, and the writer reuses one segment image,
// so no allocation grows with the bytes a round moves.
//
// The binary replaces the global operator new to count large allocations,
// which is why it is a test target of its own. The simulator is
// single-threaded and deterministic, so the count is exact, not sampled.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/util/random.h"

namespace {

constexpr std::size_t kLargeAllocation = 128 * 1024;
bool g_counting = false;
uint64_t g_large_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting && size >= kLargeAllocation) {
    ++g_large_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ld {
namespace {

TEST(CleanerAllocTest, SteadyStateRoundsAllocateNoSegmentBuffers) {
  constexpr uint64_t kDiskBytes = 32ull << 20;
  constexpr uint32_t kBlocks = 4800;  // ~60 % of the volume live.
  constexpr uint32_t kHot = kBlocks / 10;
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  LldOptions options;  // 512-KB segments, as the benchmark runs them.
  auto formatted = LogStructuredDisk::Format(&disk, options);
  ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
  auto lld = std::move(formatted).value();
  const Lid list = *lld->NewList(kBeginOfListOfLists, ListHints{});

  std::vector<Bid> bids;
  std::vector<uint8_t> data(4096);
  Rng rng(5);
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < kBlocks; ++i) {
    auto bid = lld->NewBlock(list, pred);
    ASSERT_TRUE(bid.ok());
    data[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(lld->Write(*bid, data).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  // 90 % of the overwrites hit the hot tenth of the blocks.
  const auto churn = [&](uint32_t writes) {
    for (uint32_t w = 0; w < writes; ++w) {
      const uint64_t pick = rng.Chance(0.9) ? rng.Below(kHot) : kHot + rng.Below(kBlocks - kHot);
      data[1] = static_cast<uint8_t>(w);
      ASSERT_TRUE(lld->Write(bids[pick], data).ok());
    }
  };
  const auto round = [&] {
    churn(400);
    g_counting = true;
    const Status status = lld->CleanSegments(options.segments_per_clean);
    g_counting = false;
    ASSERT_TRUE(status.ok()) << status.ToString();
  };

  // Warm-up: the arena grows to the rounds seen so far.
  for (int i = 0; i < 20; ++i) {
    round();
  }
  g_large_allocations = 0;
  const uint64_t cleaned_before = lld->counters().segments_cleaned;
  for (int i = 0; i < 50; ++i) {
    round();
  }
  const uint64_t cleaned = lld->counters().segments_cleaned - cleaned_before;
  ASSERT_GE(cleaned, 50u * options.segments_per_clean);
  // A buffer per victim (or per round) would count in the hundreds; only a
  // round larger than any before it may grow the arena.
  EXPECT_LE(g_large_allocations, 4u) << cleaned << " segments cleaned";
  EXPECT_GT(lld->MeasureMemory().cleaner_buffer_bytes, options.segment_bytes);
}

}  // namespace
}  // namespace ld
