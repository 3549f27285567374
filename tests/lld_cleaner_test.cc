// Tests for segment cleaning and reorganization (paper §3.5): data and
// metadata survive cleaning, cleaning frees space, cluster-on-clean restores
// list order, both victim-selection policies work, and the reorganizer
// rewrites lists sequentially. Includes crash tests across cleaning.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include "src/compress/lzrw.h"
#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/harness/report.h"
#include "src/lld/lld.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/workload/hot_cold.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 24ull << 20;  // Small disk: cleaning kicks in fast.

LldOptions TestOptions() {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  options.free_segment_reserve = 3;
  options.segments_per_clean = 3;
  // The CI fault matrix flips this (LD_SEGMENT_PARITY): the cleaner's
  // capacity math and segment images differ with parity, the behaviour
  // asserted here must not.
  options.segment_parity = EnvSegmentParity(false);
  return options;
}

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 97 + i);
  }
  return data;
}

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  Lid list = kNilLid;

  explicit Rig(LldOptions options = TestOptions()) {
    mem = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
    auto lld_or = LogStructuredDisk::Format(disk.get(), options);
    EXPECT_TRUE(lld_or.ok()) << lld_or.status().ToString();
    lld = std::move(lld_or).value();
    list = *lld->NewList(kBeginOfListOfLists, ListHints{});
  }
};

TEST(LldCleanerTest, OverwriteChurnTriggersCleaningAndPreservesData) {
  Rig rig;
  // Working set ~25 % of the disk, overwritten many times: the log wraps and
  // the cleaner must run.
  const uint32_t kBlocks = 1500;
  std::vector<Bid> bids;
  std::vector<uint32_t> tags(kBlocks);
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < kBlocks; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(bid.ok()) << bid.status().ToString();
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    tags[i] = i;
    pred = *bid;
  }
  Rng rng(3);
  for (uint32_t w = 0; w < 6000; ++w) {
    const uint32_t pick = static_cast<uint32_t>(rng.Below(kBlocks));
    tags[pick] = 10000 + w;
    ASSERT_TRUE(rig.lld->Write(bids[pick], Pattern(4096, tags[pick])).ok())
        << "write " << w;
  }
  EXPECT_GT(rig.lld->counters().segments_cleaned, 0u);
  for (uint32_t i = 0; i < kBlocks; ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(rig.lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, tags[i])) << i;
  }
  // List structure intact.
  EXPECT_EQ(*rig.lld->ListBlocks(rig.list), bids);
}

TEST(LldCleanerTest, ExplicitCleanOfDeadSegmentsFreesThem) {
  Rig rig;
  // Fill several segments, then delete everything: segments become dead.
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 200; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  for (Bid bid : bids) {
    ASSERT_TRUE(rig.lld->DeleteBlock(bid, rig.list, kNilBid).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  const uint32_t free_before = rig.lld->usage_table().FreeCount();
  ASSERT_TRUE(rig.lld->CleanSegments(8).ok());
  EXPECT_GT(rig.lld->usage_table().FreeCount(), free_before);
}

TEST(LldCleanerTest, MetadataRecordsSurviveCleaningThenCrash) {
  Rig rig;
  // Allocate blocks (metadata records only — no data for some), flush, then
  // force cleaning of the segments carrying those records, then crash. The
  // re-logged records must reconstruct the structures.
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto b = rig.lld->NewBlock(rig.list, *a);
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 1)).ok());
  // b stays allocated-but-unwritten: it exists only as metadata records.
  ASSERT_TRUE(rig.lld->Flush().ok());

  // Push enough churn that the original segments are cleaned.
  Bid pred = *b;
  for (uint32_t i = 0; i < 1200; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, 100 + i)).ok());
    ASSERT_TRUE(rig.lld->DeleteBlock(*bid, rig.list, pred).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  EXPECT_GT(rig.lld->counters().segments_cleaned, 0u);
  rig.disk->CrashNow();
  rig.disk->ClearFault();

  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE((*reopened)->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
  // The unwritten block survived as metadata.
  ASSERT_TRUE((*reopened)->Read(*b, out).ok());
  EXPECT_EQ(*(*reopened)->ListBlocks(rig.list), (std::vector<Bid>{*a, *b}));
}

TEST(LldCleanerTest, TombstonesSurviveCleaning) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 1)).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Delete a; its BlockFree record lands in a later segment.
  ASSERT_TRUE(rig.lld->DeleteBlock(*a, rig.list, kNilBid).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Clean everything so both the entry and the tombstone are re-logged.
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  rig.disk->CrashNow();
  rig.disk->ClearFault();

  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
  ASSERT_TRUE(reopened.ok());
  std::vector<uint8_t> out(4096);
  EXPECT_EQ((*reopened)->Read(*a, out).code(), ErrorCode::kNotFound);
}

TEST(LldCleanerTest, GreedyAndCostBenefitBothMakeProgress) {
  for (CleaningPolicy policy : {CleaningPolicy::kGreedy, CleaningPolicy::kCostBenefit}) {
    LldOptions options = TestOptions();
    options.cleaning_policy = policy;
    Rig rig(options);
    HotColdParams params;
    params.num_blocks = 1200;
    params.writes = 8000;
    auto result = RunHotCold(rig.lld.get(), params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(rig.lld->counters().segments_cleaned, 0u);
    // All blocks still readable.
    std::vector<uint8_t> out(4096);
    for (Bid bid : result->blocks) {
      ASSERT_TRUE(rig.lld->Read(bid, out).ok());
    }
  }
}

TEST(LldCleanerTest, ClusterOnCleanRestoresListOrder) {
  LldOptions options = TestOptions();
  options.cluster_on_clean = true;
  Rig rig(options);
  // Interleave writes of two lists so their blocks are physically mixed.
  auto other = rig.lld->NewList(rig.list, ListHints{});
  std::vector<Bid> mine, theirs;
  Bid mp = kBeginOfList, tp = kBeginOfList;
  for (uint32_t i = 0; i < 60; ++i) {
    auto m = rig.lld->NewBlock(rig.list, mp);
    auto t = rig.lld->NewBlock(*other, tp);
    ASSERT_TRUE(rig.lld->Write(*m, Pattern(4096, i)).ok());
    ASSERT_TRUE(rig.lld->Write(*t, Pattern(4096, 100 + i)).ok());
    mine.push_back(*m);
    theirs.push_back(*t);
    mp = *m;
    tp = *t;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Clean all segments: live blocks are rewritten in list order.
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());

  // After cleaning, consecutive list blocks should mostly be physically
  // adjacent within a segment.
  uint32_t adjacent = 0;
  for (size_t i = 1; i < mine.size(); ++i) {
    const auto& prev = rig.lld->block_map().entry(mine[i - 1]);
    const auto& cur = rig.lld->block_map().entry(mine[i]);
    if (prev.phys.segment == cur.phys.segment &&
        cur.phys.offset == prev.phys.offset + prev.stored_size) {
      adjacent++;
    }
  }
  EXPECT_GT(adjacent, mine.size() / 2);
}

// 4 KB whose LZRW1-compressed size depends on `tag`: a random prefix of
// tag-dependent length, then zeros.
std::vector<uint8_t> Compressible(uint32_t tag) {
  std::vector<uint8_t> data(4096, 0);
  Rng rng(tag + 1);
  const uint32_t noisy = 300 + (tag * 389) % 3500;
  for (uint32_t i = 0; i < noisy; ++i) {
    data[i] = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

// Four interleaved lists whose list order differs from both bid order and
// write order: blocks are appended and prepended in turn, a sublist moves
// between lists, some blocks are deleted, and the third list is compressed
// (its stored sizes vary block to block and change on overwrite).
std::vector<Lid> BuildTangledLists(LogStructuredDisk* lld, Lid first_list) {
  std::vector<Lid> lists{first_list};
  for (int i = 1; i < 4; ++i) {
    ListHints hints;
    hints.compress = i == 2;
    lists.push_back(*lld->NewList(lists.back(), hints));
  }
  std::vector<Bid> tail(lists.size(), kBeginOfList);
  uint32_t tag = 0;
  for (uint32_t i = 0; i < 80; ++i) {
    for (size_t j = 0; j < lists.size(); ++j) {
      const bool prepend = i % 3 == 0 && tail[j] != kBeginOfList;
      auto bid = lld->NewBlock(lists[j], prepend ? kBeginOfList : tail[j]);
      EXPECT_TRUE(bid.ok()) << bid.status().ToString();
      const auto data = j == 2 ? Compressible(tag) : Pattern(4096, tag);
      EXPECT_TRUE(lld->Write(*bid, data).ok());
      ++tag;
      if (!prepend) {
        tail[j] = *bid;
      }
    }
  }
  // Move ten blocks from the middle of list 0 to after the fifth block of
  // list 3.
  const std::vector<Bid> l0 = *lld->ListBlocks(lists[0]);
  const std::vector<Bid> l3 = *lld->ListBlocks(lists[3]);
  EXPECT_TRUE(lld->MoveSublist(l0[20], l0[29], lists[0], lists[3], l3[4]).ok());
  // Delete every seventh block of list 1.
  const std::vector<Bid> l1 = *lld->ListBlocks(lists[1]);
  for (size_t i = 0; i < l1.size(); i += 7) {
    EXPECT_TRUE(lld->DeleteBlock(l1[i], lists[1], kNilBid).ok());
  }
  // Rewrite every fifth compressed block with a different stored size.
  const std::vector<Bid> l2 = *lld->ListBlocks(lists[2]);
  for (size_t i = 0; i < l2.size(); i += 5) {
    EXPECT_TRUE(lld->Write(l2[i], Compressible(tag++)).ok());
  }
  EXPECT_TRUE(lld->Flush().ok());
  return lists;
}

std::vector<std::pair<Bid, PhysAddr>> Placements(const LogStructuredDisk& lld) {
  std::vector<std::pair<Bid, PhysAddr>> out;
  for (Bid bid = 1; bid <= lld.block_map().max_bid(); ++bid) {
    if (lld.block_map().IsAllocated(bid)) {
      out.emplace_back(bid, lld.block_map().entry(bid).phys);
    }
  }
  return out;
}

// Blocks whose copy moved since `before` was taken, in the order they were
// written: by their segment's sequence number, then by offset.
std::vector<Bid> RelocatedInLayoutOrder(const LogStructuredDisk& lld,
                                        const std::vector<std::pair<Bid, PhysAddr>>& before) {
  std::vector<std::pair<std::pair<uint64_t, uint32_t>, Bid>> moved;
  for (const auto& [bid, phys] : before) {
    const PhysAddr now = lld.block_map().entry(bid).phys;
    if (now != phys) {
      EXPECT_TRUE(now.IsOnDisk()) << bid;
      moved.push_back({{lld.usage_table().segment(now.segment).seq, now.offset}, bid});
    }
  }
  std::sort(moved.begin(), moved.end());
  std::vector<Bid> out;
  for (const auto& m : moved) {
    out.push_back(m.second);
  }
  return out;
}

// The order cluster-on-clean promises for a set of blocks: lists by
// ascending id, each walked from its head.
std::vector<Bid> InListOrder(const LogStructuredDisk& lld, const std::vector<Bid>& blocks) {
  const std::set<Bid> wanted(blocks.begin(), blocks.end());
  std::vector<Bid> out;
  for (Lid lid = 1; lid <= lld.list_table().max_lid(); ++lid) {
    if (!lld.list_table().IsAllocated(lid)) {
      continue;
    }
    const std::vector<Bid> walk = *lld.ListBlocks(lid);
    for (Bid bid : walk) {
      if (wanted.count(bid) != 0) {
        out.push_back(bid);
      }
    }
  }
  return out;
}

TEST(LldCleanerTest, ClusterOnCleanLaysOutEveryListInExactListOrder) {
  Lzrw1Compressor lzrw;
  LldOptions options = TestOptions();
  options.cluster_on_clean = true;
  options.compressor = &lzrw;
  Rig rig(options);
  const std::vector<Lid> lists = BuildTangledLists(rig.lld.get(), rig.list);
  std::set<uint32_t> stored_sizes;
  const std::vector<Bid> compressed = *rig.lld->ListBlocks(lists[2]);
  for (Bid bid : compressed) {
    stored_sizes.insert(rig.lld->block_map().entry(bid).stored_size);
  }
  ASSERT_GT(stored_sizes.size(), 10u) << "compressed list should vary in stored size";

  const auto before = Placements(*rig.lld);
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  const std::vector<Bid> relocated = RelocatedInLayoutOrder(*rig.lld, before);
  ASSERT_GT(relocated.size(), 250u);
  EXPECT_EQ(relocated, InListOrder(*rig.lld, relocated));
}

TEST(LldCleanerTest, ScrubRelocatesInExactListOrder) {
  Lzrw1Compressor lzrw;
  LldOptions options = TestOptions();
  options.cluster_on_clean = true;
  options.compressor = &lzrw;
  Rig rig(options);
  BuildTangledLists(rig.lld.get(), rig.list);
  // A clean pass first, so its quiesce (sealing the open segment) moves
  // nothing during the pass under test.
  ASSERT_TRUE(rig.lld->Scrub().ok());
  std::set<uint32_t> suspects;
  for (Bid bid = 1; bid <= rig.lld->block_map().max_bid() && suspects.size() < 3; ++bid) {
    const BlockMapEntry& e = rig.lld->block_map().entry(bid);
    if (rig.lld->block_map().IsAllocated(bid) && e.phys.IsOnDisk()) {
      suspects.insert(e.phys.segment);
    }
  }
  ASSERT_EQ(suspects.size(), 3u);
  for (uint32_t seg : suspects) {
    ASSERT_TRUE(rig.disk->CorruptSector(rig.lld->SegmentSummaryStartByte(seg) / 512, 0, 0xff).ok());
  }

  const auto before = Placements(*rig.lld);
  auto report = rig.lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 3u);
  const std::vector<Bid> relocated = RelocatedInLayoutOrder(*rig.lld, before);
  EXPECT_EQ(relocated.size(), report->blocks_relocated);
  ASSERT_GT(relocated.size(), 30u);
  EXPECT_EQ(relocated, InListOrder(*rig.lld, relocated));
}

TEST(LldCleanerTest, ReorganizerRestoresSequentialLayout) {
  Rig rig;
  // Write blocks, then overwrite them in random order to scramble layout.
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 100; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  Rng rng(9);
  for (uint32_t i = 0; i < 300; ++i) {
    const size_t pick = rng.Below(bids.size());
    ASSERT_TRUE(rig.lld->Write(bids[pick], Pattern(4096, static_cast<uint32_t>(pick))).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());

  auto written = rig.lld->ReorganizeLists(64);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(*written, 0u);

  uint32_t adjacent = 0;
  for (size_t i = 1; i < bids.size(); ++i) {
    const auto& prev = rig.lld->block_map().entry(bids[i - 1]);
    const auto& cur = rig.lld->block_map().entry(bids[i]);
    if (prev.phys.segment == cur.phys.segment &&
        cur.phys.offset == prev.phys.offset + prev.stored_size) {
      adjacent++;
    }
  }
  EXPECT_GT(adjacent, bids.size() * 3 / 4);
  // Data intact.
  for (size_t i = 0; i < bids.size(); ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(rig.lld->Read(bids[i], out).ok());
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
}

TEST(LldCleanerTest, CrashDuringCleaningLosesNothing) {
  Rig rig;
  std::vector<Bid> bids;
  std::vector<uint32_t> tags;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 400; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    tags.push_back(i);
    pred = *bid;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Overwrite half so victims have a mix of live and dead blocks.
  for (uint32_t i = 0; i < 400; i += 2) {
    tags[i] = 1000 + i;
    ASSERT_TRUE(rig.lld->Write(bids[i], Pattern(4096, tags[i])).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());

  // Crash midway through the cleaner's writes.
  rig.disk->CrashAfterWrites(3);
  (void)rig.lld->CleanSegments(rig.lld->num_segments());
  rig.disk->ClearFault();

  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (uint32_t i = 0; i < 400; ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE((*reopened)->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, tags[i])) << i;
  }
  EXPECT_EQ(*(*reopened)->ListBlocks(rig.list), bids);
}

// ROADMAP item: the cleaner submits its victim data-area reads as one async
// batch through the device's request queue instead of one blocking read per
// victim. The queue-depth high-water mark proves the reads were genuinely
// outstanding together; a sequential cleaner never pushes it past 1.
TEST(LldCleanerTest, CleanerBatchesVictimReadsThroughRequestQueue) {
  SimClock clock;
  // A queued device (MemDisk has no request queue and leaves the counters 0).
  auto inner = MakeDevice(DeviceOptions::HpC3010(kDiskBytes, /*channels=*/1), &clock);
  FaultDisk disk(inner.get());
  auto formatted = LogStructuredDisk::Format(&disk, TestOptions());
  ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
  auto lld = std::move(formatted).value();
  const Lid list = *lld->NewList(kBeginOfListOfLists, ListHints{});

  std::vector<Bid> bids;
  std::vector<uint32_t> tags;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 400; ++i) {
    auto bid = lld->NewBlock(list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    tags.push_back(i);
    pred = *bid;
  }
  ASSERT_TRUE(lld->Flush().ok());
  // Overwrite half so every victim carries a mix of live and dead blocks.
  for (uint32_t i = 0; i < 400; i += 2) {
    tags[i] = 1000 + i;
    ASSERT_TRUE(lld->Write(bids[i], Pattern(4096, tags[i])).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());

  disk.ResetStats();
  const uint64_t cleaned_before = lld->counters().segments_cleaned;
  ASSERT_TRUE(lld->CleanSegments(lld->num_segments()).ok());
  const uint64_t victims = lld->counters().segments_cleaned - cleaned_before;
  ASSERT_GE(victims, 2u) << "churn did not produce enough cleanable segments";

  const DiskStats& stats = disk.stats();
  // One queued read per victim data area (plus whatever the writer queued).
  EXPECT_GE(stats.queued_requests, victims);
  // The batch was in flight together, not serialized read-by-read.
  EXPECT_GE(stats.max_queue_depth, 2u);

  // Cleaning through the async path lost nothing.
  std::vector<uint8_t> out(4096);
  for (uint32_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, tags[i])) << i;
  }
  EXPECT_EQ(*lld->ListBlocks(list), bids);
}

// ---- Flash-native cleaning: policy differentials, generations, wear/WAF ----

// With uniform ages the cost-benefit score (1-u)*age/(1+u) is a monotone
// function of live bytes alone, so the two policies must drain victims in
// exactly the same order — including ties, which both break toward the
// lowest segment index.
TEST(LldCleanerTest, CostBenefitWithUniformAgesDegeneratesToGreedyOrder) {
  constexpr uint32_t kSegs = 12;
  constexpr uint32_t kCap = 64 * 1024;
  UsageTable table(kSegs);
  Rng rng(11);
  for (uint32_t i = 0; i < kSegs; ++i) {
    table.segment(i).state = SegmentState::kFull;
    // Varying utilization (segments 5 and 7 tie exactly), one shared write
    // timestamp = uniform age.
    const uint32_t live =
        (i == 5 || i == 7) ? 3000 : 500 + static_cast<uint32_t>(rng.Below(kCap - 500));
    table.AddLive(i, live, /*ts=*/42);
  }
  for (uint32_t drained = 0; drained < kSegs; ++drained) {
    const int64_t greedy = table.PickGreedy();
    const int64_t cost_benefit = table.PickCostBenefit(kCap, /*now=*/1000);
    EXPECT_EQ(greedy, cost_benefit) << "victim " << drained;
    ASSERT_GE(greedy, 0);
    table.segment(static_cast<uint32_t>(greedy)).state = SegmentState::kFree;
  }
  EXPECT_EQ(table.PickGreedy(), -1);
  EXPECT_EQ(table.PickCostBenefit(kCap, 1000), -1);
}

// Leaving the policy option untouched must be byte-identical to selecting
// kGreedy explicitly — the whole-device diff the CI knob matrix relies on,
// in miniature. A full cleaning workload runs twice; the raw device images
// must match byte for byte.
TEST(LldCleanerTest, DefaultPolicyMatchesExplicitGreedyByteForByte) {
  const auto run = [](bool set_explicitly) {
    LldOptions options = TestOptions();
    if (set_explicitly) {
      options.cleaning_policy = CleaningPolicy::kGreedy;
    }
    Rig rig(options);
    HotColdParams params;
    params.num_blocks = 1200;
    params.writes = 6000;
    EXPECT_TRUE(RunHotCold(rig.lld.get(), params).ok());
    EXPECT_TRUE(rig.lld->Flush().ok());
    EXPECT_GT(rig.lld->counters().segments_cleaned, 0u);
    std::vector<uint8_t> image(kDiskBytes);
    constexpr uint64_t kChunkSectors = 256;
    for (uint64_t s = 0; s < kDiskBytes / 512; s += kChunkSectors) {
      EXPECT_TRUE(
          rig.mem
              ->Read(s, std::span<uint8_t>(image.data() + s * 512, kChunkSectors * 512))
              .ok());
    }
    return image;
  };
  EXPECT_EQ(run(false), run(true));
}

// CRC-32 of the whole device image.
uint32_t DeviceDigest(Rig& rig) {
  uint32_t crc = Crc32Init();
  std::vector<uint8_t> chunk(128 * 1024);
  for (uint64_t s = 0; s < kDiskBytes / 512; s += chunk.size() / 512) {
    EXPECT_TRUE(rig.mem->Read(s, chunk).ok());
    crc = Crc32Update(crc, chunk);
  }
  return Crc32Final(crc);
}

// The cleaner's on-disk output is pinned bit for bit: block order within
// and across images, re-logged record order, padding and parity. The
// digests are CRC-32s of the whole device after a seeded hot/cold run,
// under both victim policies with segment parity off and on.
TEST(LldCleanerTest, CleanerImageMatchesGoldenDigest) {
  struct Case {
    CleaningPolicy policy;
    bool parity;
    uint32_t digest;
  };
  const Case cases[] = {
      {CleaningPolicy::kGreedy, false, 0xc2e9b6e0u},
      {CleaningPolicy::kGreedy, true, 0x17194310u},
      {CleaningPolicy::kCostBenefit, false, 0x80c1d237u},
      {CleaningPolicy::kCostBenefit, true, 0x0143eddbu},
  };
  for (const Case& c : cases) {
    LldOptions options = TestOptions();
    options.cleaning_policy = c.policy;
    options.segment_parity = c.parity;
    Rig rig(options);
    HotColdParams params;
    params.num_blocks = 1200;
    params.writes = 6000;
    params.seed = 11;
    ASSERT_TRUE(RunHotCold(rig.lld.get(), params).ok());
    ASSERT_TRUE(rig.lld->Flush().ok());
    ASSERT_GT(rig.lld->counters().segments_cleaned, 0u);
    const uint32_t digest = DeviceDigest(rig);
    EXPECT_EQ(digest, c.digest) << "policy " << static_cast<int>(c.policy) << " parity "
                                << c.parity << std::hex << " digest 0x" << digest;
  }
}

// The same pin for images the hot/cold run never produces: compressed
// blocks whose stored sizes leave sector padding after them, and a batch
// with so many re-logged records that they spill into the data area.
TEST(LldCleanerTest, CompressedListCleanMatchesGoldenDigest) {
  const std::pair<bool, uint32_t> cases[] = {{false, 0xfc89ea25u}, {true, 0xf45aeaf0u}};
  for (const auto& [parity, golden] : cases) {
    Lzrw1Compressor lzrw;
    LldOptions options = TestOptions();
    options.segment_parity = parity;
    options.compressor = &lzrw;
    Rig rig(options);
    BuildTangledLists(rig.lld.get(), rig.list);
    // Two full passes: the second re-cleans the first one's output,
    // spilled records included.
    ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
    ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
    ASSERT_TRUE(rig.lld->Flush().ok());
    const uint32_t digest = DeviceDigest(rig);
    EXPECT_EQ(digest, golden) << "parity " << parity << std::hex << " digest 0x" << digest;
  }
}

// The seal paths the two pins above never reach: a Flush() cadence below
// the partial-segment threshold (each Flush writes a scratch segment and the
// next one supersedes it) and incremental checkpoints every two seals (each
// seal is captured for a delta frame). Skewed overwrites keep the cleaner
// running under both.
TEST(LldCleanerTest, PartialAndCheckpointedSealsMatchGoldenDigest) {
  struct Case {
    const char* name;
    uint32_t flush_every;  // 0 = no Flush() until the end.
    uint32_t checkpoint_interval;
    bool parity;
    uint32_t digest;
  };
  const Case cases[] = {
      {"partial flushes", 5, 0, false, 0x2c65cd3eu},
      {"partial flushes, parity", 5, 0, true, 0x943f977fu},
      {"checkpoint every 2 seals", 0, 2, false, 0xa9d8f4bfu},
      {"checkpoint every 2 seals, partial flushes, parity", 5, 2, true, 0x76da8e72u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    LldOptions options = TestOptions();
    options.segment_parity = c.parity;
    options.checkpoint_interval_segments = c.checkpoint_interval;
    Rig rig(options);
    std::vector<Bid> bids;
    Bid pred = kBeginOfList;
    for (uint32_t i = 0; i < 1200; ++i) {
      pred = *rig.lld->NewBlock(rig.list, pred);
      ASSERT_TRUE(rig.lld->Write(pred, Pattern(4096, i)).ok());
      bids.push_back(pred);
    }
    Rng rng(23);
    for (uint32_t w = 0; w < 5000; ++w) {
      // Nine writes in ten go to the first tenth of the blocks.
      const uint64_t range = rng.Below(10) == 0 ? bids.size() : bids.size() / 10;
      ASSERT_TRUE(rig.lld->Write(bids[rng.Below(range)], Pattern(4096, 5000 + w)).ok());
      if (c.flush_every > 0 && w % c.flush_every == c.flush_every - 1) {
        ASSERT_TRUE(rig.lld->Flush().ok());
      }
    }
    ASSERT_TRUE(rig.lld->Flush().ok());
    ASSERT_GT(rig.lld->counters().segments_cleaned, 0u);
    if (c.flush_every > 0) {
      ASSERT_GT(rig.lld->counters().partial_segments_written, 0u);
    }
    if (c.checkpoint_interval > 0) {
      ASSERT_GT(rig.lld->counters().checkpoint_frames_written, 0u);
    }
    const uint32_t digest = DeviceDigest(rig);
    EXPECT_EQ(digest, c.digest) << std::hex << "digest 0x" << digest;
  }
}

// Cleaner output forms the cold generation: segments it writes are tagged
// cold and keep the *original* write ages of the blocks they carry, so data
// that already survived one pass keeps scoring as an old, cheap victim
// instead of looking freshly written.
TEST(LldCleanerTest, CleanerOutputIsColdAndPreservesBlockAges) {
  LldOptions options = TestOptions();
  options.cleaning_policy = CleaningPolicy::kCostBenefit;
  Rig rig(options);
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 400; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Overwrite the even half so victims carry a mix of live and dead blocks;
  // the odd half survives cleaning with its original write timestamps.
  for (uint32_t i = 0; i < 400; i += 2) {
    ASSERT_TRUE(rig.lld->Write(bids[i], Pattern(4096, 1000 + i)).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  EXPECT_GT(rig.lld->counters().cold_segments_written, 0u);

  bool found_cold = false;
  for (uint32_t i = 1; i < 400; i += 2) {
    const BlockMapEntry& e = rig.lld->block_map().entry(bids[i]);
    if (!e.phys.IsOnDisk()) {
      continue;
    }
    const SegmentUsage& u = rig.lld->usage_table().segment(e.phys.segment);
    if (u.cold) {
      found_cold = true;
      // Preserved age: strictly older than the relog timestamp newest_ts
      // advanced to, and known (nonzero).
      EXPECT_NE(u.age_ts, 0u);
      EXPECT_LT(u.age_ts, u.newest_ts);
    }
  }
  EXPECT_TRUE(found_cold) << "no surviving block landed in a cold segment";
}

// WAF and wear accounting invariants under cleaning churn: with compression
// and NVRAM off and the log flushed, the media absorbed at least every user
// byte (WAF >= 1), the media-vs-user gap is at least the cleaner's copy
// traffic, the usage table's wear histogram weights up to the segment-image
// count the LD's counters recorded (two structures kept independently), and
// both byte counters only ever grow.
TEST(LldCleanerTest, WafAndWearAccountingInvariants) {
  Rig rig;
  HotColdParams params;
  params.num_blocks = 1500;
  params.writes = 4000;
  ASSERT_TRUE(RunHotCold(rig.lld.get(), params).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());
  ASSERT_GT(rig.lld->counters().segments_cleaned, 0u);

  const LldCounters& c = rig.lld->counters();
  const DiskStats& stats = rig.mem->stats();
  ASSERT_GT(c.user_bytes_written, 0u);
  EXPECT_GE(Waf(c.user_bytes_written, stats.total_bytes_written), 1.0);
  EXPECT_GE(stats.total_bytes_written - c.user_bytes_written, c.cleaner_bytes_copied);

  // Wear histogram: one entry per segment at its current wear level, so the
  // weighted sum over buckets recounts every segment image ever programmed.
  // (Holds as long as no segment's wear clamps into the last bucket.)
  ASSERT_LE(c.segment_wear_max, UsageTable::kWearBuckets);
  const auto histogram = rig.lld->usage_table().WearHistogram();
  uint64_t weighted = 0;
  uint64_t top = 0;
  for (size_t b = 0; b < UsageTable::kWearBuckets; ++b) {
    weighted += (b + 1) * histogram[b];
    top = histogram[b] > 0 ? b + 1 : top;
  }
  EXPECT_EQ(weighted, c.segment_images_written);
  EXPECT_EQ(top, c.segment_wear_max);
  EXPECT_GT(c.segment_wear_max, 1u);  // The log wrapped: segments were reused.

  // Monotonicity: more work only grows both byte counters, and the flushed
  // ratio stays >= 1.
  const uint64_t user_before = c.user_bytes_written;
  const uint64_t total_before = stats.total_bytes_written;
  for (uint32_t i = 0; i < 50; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, kBeginOfList);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, 7000 + i)).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  EXPECT_GT(c.user_bytes_written, user_before);
  EXPECT_GT(stats.total_bytes_written, total_before);
  EXPECT_GE(Waf(c.user_bytes_written, stats.total_bytes_written), 1.0);
}

// A victim summary whose ext_bytes claims more than the data area is typed
// CORRUPTION from the summary reader; the cleaner must not size a read from
// the wrapped-around extension start. The volume stays readable.
TEST(LldCleanerTest, VictimSummaryWithOutOfRangeExtBytesIsTypedCorruption) {
  Rig rig;
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 200; ++i) {
    pred = *rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(pred, Pattern(4096, i)).ok());
    bids.push_back(pred);
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  for (uint32_t s = 0; s < rig.lld->num_segments(); ++s) {
    if (rig.lld->usage_table().segment(s).state == SegmentState::kFull) {
      // Bit 7 of byte 27: the top byte of the header's ext_bytes.
      ASSERT_TRUE(rig.disk->CorruptSector(rig.lld->SegmentSummaryStartByte(s) / 512, 27, 0x80)
                      .ok());
    }
  }
  EXPECT_EQ(rig.lld->CleanSegments(rig.lld->num_segments()).code(), ErrorCode::kCorruption);
  std::vector<uint8_t> out(4096);
  for (uint32_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(rig.lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, i));
  }
}

// A victim whose summary fails its CRC aborts the round. The victims
// harvested before it go back to kFull with it: none may stay in kCleaning,
// where neither the cleaner nor the allocator would pick it again.
TEST(LldCleanerTest, FailedHarvestLeavesNoVictimInCleaning) {
  Rig rig;
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 300; ++i) {
    pred = *rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(pred, Pattern(4096, i)).ok());
    bids.push_back(pred);
  }
  for (uint32_t i = 0; i < bids.size(); i += 3) {
    ASSERT_TRUE(rig.lld->Write(bids[i], Pattern(4096, 1000 + i)).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Greedy harvests the emptier segments first, so the fullest one fails
  // after earlier victims of the round were harvested.
  uint32_t fullest = 0;
  for (uint32_t s = 0; s < rig.lld->num_segments(); ++s) {
    const SegmentUsage& u = rig.lld->usage_table().segment(s);
    if (u.state == SegmentState::kFull &&
        u.live_bytes() > rig.lld->usage_table().segment(fullest).live_bytes()) {
      fullest = s;
    }
  }
  // A bit inside the first record: the summary no longer matches its CRC.
  ASSERT_TRUE(
      rig.disk->CorruptSector(rig.lld->SegmentSummaryStartByte(fullest) / 512, 40, 0x01).ok());
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    EXPECT_EQ(rig.lld->CleanSegments(rig.lld->num_segments()).code(), ErrorCode::kCorruption);
    for (uint32_t s = 0; s < rig.lld->num_segments(); ++s) {
      EXPECT_NE(rig.lld->usage_table().segment(s).state, SegmentState::kCleaning) << s;
    }
  }
  std::vector<uint8_t> out(4096);
  for (uint32_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(rig.lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, i % 3 == 0 ? 1000 + i : i)) << i;
  }
}

TEST(LldCleanerTest, UtilizationAffectsCleanerWork) {
  // At higher utilization, the cleaner copies more bytes per reclaimed
  // segment — the fundamental LFS cost curve.
  auto run = [](uint32_t num_blocks) {
    Rig rig;
    HotColdParams params;
    params.num_blocks = num_blocks;
    params.hot_fraction = 0.5;   // Fairly uniform: worst case for cleaning.
    params.hot_write_share = 0.5;
    params.writes = 5000;
    auto result = RunHotCold(rig.lld.get(), params);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    const auto& c = rig.lld->counters();
    return c.segments_cleaned == 0
               ? 0.0
               : static_cast<double>(c.cleaner_bytes_copied) / c.segments_cleaned;
  };
  const double low_util_cost = run(800);
  const double high_util_cost = run(3600);
  EXPECT_GT(high_util_cost, low_util_cost);
}

}  // namespace
}  // namespace ld
